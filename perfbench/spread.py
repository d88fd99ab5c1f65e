"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --seconds 18 [--workloads analyze-study,...] [--trace 1]

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and the interquartile range as a share of the
median, plus the wall time of each run.  Raw results go to
.perfbench_out/spread-<trace>.json.  Runs are sequential: the benchmark is
single-threaded and running two at once would measure contention instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    for name in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall, log=lines[:-1])
            runs.setdefault(name, []).append(result)
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"{name} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}, {values}", flush=True)

    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", f"spread-{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print()
    for name, results in runs.items():
        walls = [r["wall_s"] for r in results]
        print(f"{name}: {len(results)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sum(r['failed'] for r in results) / sum(r['attempted'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            share = (q3 - q1) / median if median else 0.0
            print(f"  {metric:32s} median {median:.6g}  quartiles {q1:.6g}-{q3:.6g}  "
                  f"spread {100 * share:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
