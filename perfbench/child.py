"""Run one workload in this process and print its result as one JSON line.

Set-up time is the package import plus the workload's first, tiny CLI call;
nothing heavier than the standard library is imported before it.  Then
operations run back to back (a closed loop, one caller) until their timed
total reaches --seconds.  Each operation's output is hashed untimed; the
distinct outputs are checked against the reference computations once the
loop is over and peak RSS has been read.  With --trace 1, alternate
operations run with the layer wrappers installed.

Usage: python3 perfbench/child.py --workdir DIR --seconds S --trace 0|1 [--setup-only]
(the work directory holds spec.json, written by run.py)
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _call(cli, argv: list[str]) -> str | None:
    """Run one CLI command; return None on success, else what went wrong."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # a failed operation is counted, and the loop goes on
        return f"{argv[0]} raised:\n{traceback.format_exc()}"
    return None if code == 0 else f"{argv[0]} exited {code}: {stderr.getvalue().strip()}"


class Calibration:
    """A fixed kernel, independent of the package, that gauges host speed.

    The shared host drifts between slow and fast stretches.  Timing this
    kernel between operations and scaling each operation's time by the
    workload's nominal kernel time over the mean of the kernel times just
    before and after it cancels most of that drift; the package's own
    speed still moves the result one for one.  The kernel is frozen
    benchmark code doing what the workloads spend their time on: the
    reference p-value and control z over a default-size grid, a row dedup
    of that grid, and writing format_rows grid rows as CSV in Python.
    """

    def __init__(self, format_rows: int) -> None:
        import numpy as np

        import reference

        self.np, self.reference = np, reference
        self.counts = {"n0": 31, "N0": 69_540, "n1": 85, "N1": 93_562,
                       "c0": 8, "C0": 93_883, "c1": 43, "C1": 212_650}
        self.points = reference.base_grid(self.counts, 101, 21, 0.5, False, 0.0)
        self.rows = np.column_stack([*self.points, *self.points[:2]])[:format_rows].tolist()

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        self.reference.grid_p_and_z(self.counts, *self.points)
        np.unique(np.column_stack(self.points), axis=0, return_index=True)
        writer = csv.writer(io.StringIO(), lineterminator="\n")
        for row in self.rows:
            writer.writerow([repr(v) for v in row])
        return time.perf_counter() - start


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _file_stats(paths: list[str]) -> dict:
    size = rows = 0
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                size += len(block)
                rows += block.count(b"\n")
    return {"bytes": size, "rows": rows - len(paths)}  # minus one header line per file


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(args.workdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    import respondercall
    from respondercall import cli

    warm_error = _call(cli, spec["warm_up"])
    setup_s = time.perf_counter() - start
    expected = os.path.join(os.getcwd(), "src", "respondercall")
    if os.path.dirname(os.path.abspath(respondercall.__file__)) != expected:
        print(f"respondercall imported from {respondercall.__file__}, not {expected}", file=sys.stderr)
        return 1
    if warm_error:
        print(f"warm-up failed: {warm_error}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["seed"], args.workdir)
    cycle = workload.cycle()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    calibrate = Calibration(workload.calibration_rows)
    calibration = [calibrate()]
    raw = []  # untraced seconds per item
    per_item = {False: [], True: []}  # calibrated seconds per item, by traced or not
    digests: dict[int, str] = {}
    errors: list[str] = []
    problems: list[str] = []
    attempted = failed = 0
    timed = 0.0
    i = 0
    while timed < args.seconds:
        # Alternate traced and untraced operations so that every input of an
        # even-length cycle runs both ways.
        traced = tracer is not None and (i + (i // cycle if cycle % 2 == 0 else 0)) % 2 == 1
        argv, items, outputs = workload.argv(i), workload.items(i), workload.outputs(i)
        if traced:
            tracer.install()
            run = tracer.span(workload.span, _call,
                              lambda a, k, r: _file_stats(outputs) if r is None else {})
        else:
            run = _call
        t0 = time.perf_counter()
        error = run(cli, argv)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        calibration.append(calibrate())
        timed += elapsed
        attempted += items
        if error:
            failed += items
            errors.append(error)
        else:
            scale = workload.calibration_ref_s / statistics.fmean(calibration[-2:])
            per_item[traced].append(elapsed / items * scale)
            if not traced:
                raw.append(elapsed / items)
            digest = _digest(outputs)
            if digests.setdefault(i % cycle, digest) != digest:
                problems.append(f"repeat of {argv} wrote different bytes")
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(args.workdir, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"calibration_s": calibration, "per_item_s": raw}, fh)
    problems += workload.check(respondercall, cli, set(digests))
    raw_items_per_s = 1.0 / statistics.median(raw) if raw else 0.0
    calibration_ms = 1e3 * statistics.median(calibration)
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
        metrics = layer_metrics(tracer.spans)
        overhead = 100.0 * (
            statistics.median(per_item[True]) / statistics.median(per_item[False]) - 1.0
        ) if per_item[True] and per_item[False] else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["host.raw_items_per_s"] = (raw_items_per_s, "1/s")
        metrics["host.calibration_ms"] = (calibration_ms, "ms")
    else:
        metrics = {
            "items_per_s": (1.0 / statistics.median(per_item[False]), "1/s") if per_item[False] else (0.0, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": (errors + problems)[:20],
        "operations": i,
        "raw_items_per_s": raw_items_per_s,
        "calibration_ms": calibration_ms,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
