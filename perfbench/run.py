"""Benchmark of respondercall: one workload per invocation, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-study --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Workloads: analyze-study, simulate-cell, surface-export, analyze-separate-fn
(see perfbench/README.md).  This process writes the seeded inputs under
.perfbench_out/<workload>/, then starts the workload in its own process with
the package from ./src and every thread pool at one thread.  Two more short
processes only import the package and make the warm-up call; setup_s is the
median of the three set-up times, calibrated like the operations (README).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with items_per_s, setup_s and peak_rss_mb (--trace 0) or the per-layer
metrics (--trace 1).  The exit code is 0 only if every process ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
SINGLE_THREAD = ("RESPONDER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in SINGLE_THREAD})
    return env


def _run_child(workdir: str, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workdir", workdir, *extra]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise SystemExit(f"error: {' '.join(extra) or 'workload'} did not finish in {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"error: child exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = os.path.join(OUT_DIR, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "warm_up": workload.warm_up_argv()}, fh)

    budget = TIME_LIMIT_S - 10.0 * SETUP_PROBES
    setups = [_run_child(workdir, ["--setup-only"], 10.0)["setup_s"] for _ in range(SETUP_PROBES)]
    result = _run_child(workdir, ["--seconds", str(seconds), "--trace", str(trace)], budget)
    setups.append(result["setup_s"])
    # The probes ran seconds before the loop, in the same host phase, so the
    # loop's median kernel time calibrates them like the operations.
    scale = workload.calibration_ref_s / (result["calibration_ms"] / 1e3)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups) * scale, "unit": "s"}
    for problem in result["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    print(f"{name}: {result['operations']} operations; uncalibrated: {result['raw_items_per_s']:.6g} "
          f"items/s, setup {statistics.median(setups):.6g} s; calibration kernel "
          f"{result['calibration_ms']:.6g} ms")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    if not os.path.isfile(os.path.join("src", "respondercall", "__init__.py")):
        print("error: run from a checkout of the repository root (no src/respondercall here)",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
