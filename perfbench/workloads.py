"""The four workloads: their inputs, the CLI call per operation, and checks.

Each operation is one ``respondercall.cli.main`` call, the entry point a user
runs.  Operations go round a fixed cycle of inputs; an operation that runs
an input again must write byte-identical output.  This module never imports
the package, so the parent process can prepare inputs without it.
"""

from __future__ import annotations

import os

import inputs
import reference

GRID = {"grid_fp": 101, "grid_fn": 21, "fn_max": 0.5}  # the package's default grid
ANALYZE = {**GRID, "alpha": 0.05, "alpha_prime": 0.005, "fdr_q": 0.05,
           "min_total": inputs.MIN_TOTAL, "separate": False, "delta0": 0.0}
SEPARATE = {**ANALYZE, "separate": True, "delta0": 0.05}
SURFACE = {**GRID, "alpha": 0.05, "delta0": 0.0}
TINY_GRID = ["--grid-fp", "11", "--grid-fn", "5"]

SIM_REPS = 20
SIM_CELL = {
    "scenario": "III", "gamma": 2.0, "n_control": 10_000, "n_primary": 50_000,
    "p_control": inputs.GENERIC_CONTROL_SHARE[10_000], "responder_prob": 0.5,
    "alpha": 0.05, "fp_beta": (*inputs.FP_BETA["III"], False),
}
SIM_ARGS = ["simulate", "--scenario", "III", "--gamma", "2.0", "--n-control", "10000"]


class Workload:
    """A cycle of CLI operations over generated inputs."""

    span = "cli.analyze"
    # Rows the calibration kernel writes as CSV, so that its mix of NumPy and
    # Python work resembles the workload's, and the kernel's nominal time:
    # items_per_s is reported at the host speed where the kernel takes that
    # long (about its median on the reference host).
    calibration_rows = 2_000
    calibration_ref_s = 0.25

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Write the inputs; runs in the parent, outside all timing."""

    def cycle(self) -> int:
        """Number of distinct operations before inputs repeat."""
        raise NotImplementedError

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def items(self, i: int) -> int:
        raise NotImplementedError

    def outputs(self, i: int) -> list[str]:
        raise NotImplementedError

    def warm_up_argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, rc, cli, done: set[int]) -> list[str]:
        """Check the outputs of the distinct operations in done."""
        raise NotImplementedError


class AnalyzeStudy(Workload):
    """Six-participant studies (four above the floor), default shared-fn grid."""

    studies = 3
    settings = ANALYZE
    extra: list[str] = []

    def mix(self, k: int):
        return inputs.STUDY_MIX

    def prepare(self) -> None:
        for k in range(self.studies):
            inputs.write_study(self.path(f"study-{k}.csv"), self.seed, f"s{k}", self.mix(k))

    def cycle(self) -> int:
        return self.studies

    def argv(self, i: int) -> list[str]:
        k = i % self.studies
        return ["analyze", "--input", self.path(f"study-{k}.csv"),
                "--out", self.path(f"report-{k}.json"), *self.extra]

    def items(self, i: int) -> int:
        rows = reference.read_study(self.path(f"study-{i % self.studies}.csv"))
        return sum(min(r["N0"], r["N1"]) >= inputs.MIN_TOTAL for r in rows)

    def outputs(self, i: int) -> list[str]:
        k = i % self.studies
        return [self.path(f"report-{k}.json"), self.path(f"report-{k}.csv")]

    def warm_up_argv(self) -> list[str]:
        return ["analyze", "--input", self.path("study-0.csv"),
                "--out", self.path("warm.json"), *self.extra, *TINY_GRID]

    def check(self, rc, cli, done: set[int]) -> list[str]:
        problems = []
        for k in sorted(done):
            rows = reference.read_study(self.path(f"study-{k}.csv"))
            problems += reference.check_formulas(rc, rows, self.settings["alpha_prime"])
            problems += reference.check_analysis(rows, *self.outputs(k), self.settings)
        return problems


class AnalyzeSeparateFn(AnalyzeStudy):
    """Two-participant studies, one above the floor, on 4.5M-point grids."""

    studies = 2
    settings = SEPARATE
    extra = ["--separate-fn", "--delta0", str(SEPARATE["delta0"])]

    def mix(self, k: int):
        return inputs.SEPARATE_FN_MIX[("generic", "negative")[k]]


class SimulateCell(Workload):
    """Scenario III cell, 20-replication batches, each batch its own seed."""

    span = "cli.simulate"

    def cycle(self) -> int:
        return 1 << 30  # every batch draws fresh replications

    def argv(self, i: int) -> list[str]:
        return [*SIM_ARGS, "--reps", str(SIM_REPS), "--seed", str(self.seed * 1000 + i),
                "--out", self.path(f"cell-{i}.csv")]

    def items(self, i: int) -> int:
        return SIM_REPS

    def outputs(self, i: int) -> list[str]:
        return [self.path(f"cell-{i}.csv")]

    def warm_up_argv(self) -> list[str]:
        return [*SIM_ARGS, "--reps", "2", "--out", self.path("warm.csv"), *TINY_GRID]

    def check(self, rc, cli, done: set[int]) -> list[str]:
        problems: list[str] = []
        nonresponders = rejections = 0
        for i in sorted(done):
            found, counts = reference.check_simulation(
                self.path(f"cell-{i}.csv"), {**SIM_CELL, "reps": SIM_REPS})
            problems += found
            nonresponders += counts["nonresponders"]
            rejections += counts["max_type1"]
        problems += reference.check_type1(nonresponders, rejections, SIM_CELL["alpha"])
        problems += self._check_worker_independence(cli)
        return problems

    def _check_worker_independence(self, cli) -> list[str]:
        texts = []
        saved = os.environ.get("RESPONDER_THREADS")
        try:
            for workers in ("1", "2"):
                os.environ["RESPONDER_THREADS"] = workers
                out = self.path(f"workers-{workers}.csv")
                cli.main([*SIM_ARGS, "--reps", "4", "--seed", str(self.seed), "--out", out])
                with open(out, encoding="utf-8") as fh:
                    texts.append(fh.read())
        finally:
            os.environ["RESPONDER_THREADS"] = saved or "1"
        return [] if texts[0] == texts[1] else ["simulate output differs between 1 and 2 workers"]


class SurfaceExport(Workload):
    """Default-grid surface export of each participant above the floor."""

    span = "cli.surface"
    calibration_rows = 20_000
    calibration_ref_s = 0.4

    def prepare(self) -> None:
        kept = inputs.write_study(self.path("study.csv"), self.seed, "s0", inputs.STUDY_MIX)
        with open(self.path("kept.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(kept))

    def kept(self) -> list[str]:
        with open(self.path("kept.txt"), encoding="utf-8") as fh:
            return fh.read().split()

    def cycle(self) -> int:
        return len(self.kept())

    def argv(self, i: int) -> list[str]:
        k = i % self.cycle()
        return ["surface", "--input", self.path("study.csv"), "--participant", self.kept()[k],
                "--out", self.path(f"surface-{k}.csv")]

    def items(self, i: int) -> int:
        return 1

    def outputs(self, i: int) -> list[str]:
        return [self.path(f"surface-{i % self.cycle()}.csv")]

    def warm_up_argv(self) -> list[str]:
        return ["surface", "--input", self.path("study.csv"), "--participant", self.kept()[0],
                "--grid", "grid_fp=11,grid_fn=5", "--out", self.path("warm.csv")]

    def check(self, rc, cli, done: set[int]) -> list[str]:
        rows = {r["participant_id"]: r for r in reference.read_study(self.path("study.csv"))}
        problems = reference.check_formulas(rc, list(rows.values()), SURFACE["alpha"])
        for k in sorted(done):
            row = rows[self.kept()[k]]
            problems += reference.check_surface(row, *self.outputs(k), SURFACE)
        return problems


WORKLOADS = {
    "analyze-study": AnalyzeStudy,
    "simulate-cell": SimulateCell,
    "surface-export": SurfaceExport,
    "analyze-separate-fn": AnalyzeSeparateFn,
}
