"""Spans around the package's layer functions, recorded from outside it.

Each wrapped function is replaced, in the module that calls it, by a
wrapper that records a span: name, start, end, parent span and a few
attributes.  Spans stay in memory and are written out as JSON lines when
the run ends.  ``install`` and ``uninstall`` swap the wrappers in and out,
so a traced run can alternate traced and untraced rounds and report the
tracing overhead as the difference between them.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

from respondercall import adjust, cli, simulate, studyio
from respondercall.nuisance import NuisanceGrid


def _grid_attrs(args, kwargs, grid) -> dict:
    equal_fn = kwargs.get("assume_equal_fn", args[2] if len(args) > 2 else True)
    return {"points": grid.n_points, "in_set": int(grid.in_set.sum()), "separate": not equal_fn}


# (module that calls the function, attribute, span name, attributes from (args, kwargs, result))
PATCHES = (
    (adjust, "build_grid", "nuisance.build_grid", _grid_attrs),
    (cli, "build_grid", "nuisance.build_grid", _grid_attrs),
    (adjust, "unadjusted_p", "debias.unadjusted_p", None),
    (simulate, "p_value_at", "debias.p_value_at", None),
    (simulate, "analyze_participant", "adjust.analyze_participant", None),
    (studyio, "analyze_participant", "adjust.analyze_participant", None),
    (simulate, "draw_instance", "simulate.draw_instance", None),
    # run_replications has no public per-replication function to wrap
    (simulate, "_replicate", "simulate.replication", None),
    (simulate, "summarize", "simulate.summarize", None),
    (studyio, "bh_adjust", "fdr.bh_adjust", None),
    (cli, "load_study", "studyio.load_study", None),
    (cli, "analyze_study", "studyio.analyze_study", None),
    (cli, "write_report_json", "studyio.write_report_json", None),
    (cli, "write_report_csv", "studyio.write_report_csv", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, attrs=None, peak_memory: bool = False):
        """Wrap fn so that each call records a span called name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "name": name,
                      "parent": self._stack[-1] if self._stack else None}
            self.spans.append(record)
            self._stack.append(record["id"])
            if peak_memory:
                tracemalloc.start()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                if peak_memory:
                    record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, attrs in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, attrs, name == "nuisance.build_grid"))
        original_rows = NuisanceGrid.to_rows
        self._saved.append((NuisanceGrid, "to_rows", original_rows))
        materialize = self.span("nuisance.to_rows", lambda grid: list(original_rows(grid)))
        # The export consumes rows lazily; materializing them times to_rows alone.
        NuisanceGrid.to_rows = lambda grid: iter(materialize(grid))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from recorded spans; a layer never called reads 0."""
    by_name: dict[str, list[dict]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)

    def durations(name, keep=lambda r: True):
        return [r["end"] - r["start"] for r in by_name.get(name, []) if keep(r)]

    grids = by_name.get("nuisance.build_grid", [])
    points = sum(r["points"] for r in grids)
    participants = by_name.get("adjust.analyze_participant", [])
    grid_time: dict[int, float] = {}
    grid_calls: dict[int, int] = {}
    for r in grids:
        grid_time[r["parent"]] = grid_time.get(r["parent"], 0.0) + r["end"] - r["start"]
        grid_calls[r["parent"]] = grid_calls.get(r["parent"], 0) + 1
    surfaces = by_name.get("cli.surface", [])
    reports = by_name.get("cli.analyze", [])
    return {
        "nuisance.build_grid_ms": (_median(durations("nuisance.build_grid", lambda r: not r["separate"]), 1e3), "ms"),
        "nuisance.build_grid_separate_ms": (_median(durations("nuisance.build_grid", lambda r: r["separate"]), 1e3), "ms"),
        "nuisance.grid_points": (_median([r["points"] for r in grids]), "count"),
        "nuisance.in_set_ratio": (sum(r["in_set"] for r in grids) / points if points else 0.0, "ratio"),
        "nuisance.build_grid_peak_mb": (_median([r["peak_bytes"] for r in grids], 1 / 2**20), "MB"),
        "nuisance.to_rows_ms": (_median(durations("nuisance.to_rows"), 1e3), "ms"),
        "adjust.analyze_participant_ms": (_median(durations("adjust.analyze_participant"), 1e3), "ms"),
        "adjust.self_ms": (_median([r["end"] - r["start"] - grid_time.get(r["id"], 0.0) for r in participants], 1e3), "ms"),
        "adjust.build_grid_calls": (_median([grid_calls.get(r["id"], 0) for r in participants]), "count"),
        "debias.unadjusted_p_us": (_median(durations("debias.unadjusted_p"), 1e6), "us"),
        "debias.p_value_at_us": (_median(durations("debias.p_value_at"), 1e6), "us"),
        "simulate.draw_instance_us": (_median(durations("simulate.draw_instance"), 1e6), "us"),
        "simulate.replication_ms": (_median(durations("simulate.replication"), 1e3), "ms"),
        "simulate.summarize_ms": (_median(durations("simulate.summarize"), 1e3), "ms"),
        "fdr.bh_adjust_ms": (_median(durations("fdr.bh_adjust"), 1e3), "ms"),
        "studyio.load_study_ms": (_median(durations("studyio.load_study"), 1e3), "ms"),
        "studyio.analyze_study_s": (_median(durations("studyio.analyze_study")), "s"),
        "studyio.write_report_json_ms": (_median(durations("studyio.write_report_json"), 1e3), "ms"),
        "studyio.write_report_csv_ms": (_median(durations("studyio.write_report_csv"), 1e3), "ms"),
        "studyio.report_bytes": (_median([r["bytes"] for r in reports]), "bytes"),
        "cli.surface_s": (_median(durations("cli.surface")), "s"),
        "cli.surface_rows": (_median([r["rows"] for r in surfaces]), "count"),
        "cli.surface_bytes": (_median([r["bytes"] for r in surfaces]), "bytes"),
    }
