"""Command line entry points.

analyze   batch responder calls from a study CSV
simulate  operating characteristics of one synthetic cell
surface   per-point membership and p-value export for one participant
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields, replace
from pathlib import Path

from .nuisance import ControlKind, SetConfig, build_grid
from .simulate import SimulationConfig, SimulationSummary, run_cell
from .studyio import (
    AnalysisConfig,
    _cell,
    analyze_study,
    load_study,
    write_report_csv,
    write_report_json,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_EMPTY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respondercall",
        description="Vaccine responder calls with misclassification-adjusted p-values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a study CSV")
    analyze.add_argument("--input", required=True, help="study CSV path")
    analyze.add_argument(
        "--out",
        help="report path (.json writes the JSON report plus a .csv mirror, "
        ".csv writes only the CSV); default prints JSON to stdout",
    )
    analyze.add_argument("--alpha", type=float, default=0.05)
    analyze.add_argument("--alpha-prime", type=float, default=0.005)
    analyze.add_argument("--fdr", type=float, default=0.05, help="BH level q")
    analyze.add_argument("--min-total", type=int, default=10_000)
    analyze.add_argument("--fp-max", type=float, default=None)
    analyze.add_argument("--fn-max", type=float, default=0.5)
    analyze.add_argument("--grid-fp", type=int, default=101)
    analyze.add_argument("--grid-fn", type=int, default=21)
    analyze.add_argument("--refine-levels", type=int, default=2)
    analyze.add_argument("--delta0", type=float, default=0.0)
    analyze.add_argument(
        "--separate-fn",
        action="store_true",
        help="vary fn0 and fn1 independently (constrained by --delta0) "
        "instead of sharing one axis",
    )
    analyze.add_argument("--interval", choices=["wilson", "clopper-pearson"], default="wilson")
    analyze.add_argument(
        "--control-kind",
        choices=["generic", "negative"],
        help="override the control kind for every record",
    )

    simulate = sub.add_parser("simulate", help="simulate one cell")
    simulate.add_argument("--scenario", required=True, choices=["I", "II", "III", "IV"])
    simulate.add_argument("--gamma", type=float, required=True)
    simulate.add_argument("--n-control", type=int, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=20240101)
    simulate.add_argument("--n-primary", type=int, default=50_000)
    simulate.add_argument("--responder-prob", type=float, default=0.5)
    simulate.add_argument("--alpha", type=float, default=0.05)
    simulate.add_argument("--alpha-prime", type=float, default=0.005)
    simulate.add_argument("--p-control", type=float, default=None)
    simulate.add_argument("--fn-max", type=float, default=0.5)
    simulate.add_argument("--grid-fp", type=int, default=51)
    simulate.add_argument("--grid-fn", type=int, default=21)
    simulate.add_argument("--refine-levels", type=int, default=1)
    simulate.add_argument("--out", help="output CSV path; default stdout")

    surface = sub.add_parser("surface", help="export one participant's rate grid")
    surface.add_argument("--input", required=True, help="study CSV path")
    surface.add_argument("--participant", required=True)
    surface.add_argument(
        "--grid",
        default="",
        help="comma-separated key=value settings: alpha, fp_max, fn_max, "
        "grid_fp, grid_fn, refine_levels, delta0, equal_fn, interval",
    )
    surface.add_argument("--control-kind", choices=["generic", "negative"])
    surface.add_argument("--out", help="output CSV path; default stdout")
    return parser


def _write_summary_csv(summary: SimulationSummary, stream) -> None:
    names = [f.name for f in fields(SimulationSummary)]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    writer.writerow([_cell(getattr(summary, name)) for name in names])


def _run_analyze(args) -> int:
    try:
        records = load_study(args.input)
    except (OSError, ValueError) as exc:  # ValueError: SchemaError, undecodable bytes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.control_kind:
        kind = ControlKind(args.control_kind)
        records = [replace(record, control_kind=kind) for record in records]
    try:
        config = AnalysisConfig(
            alpha=args.alpha,
            alpha_prime=args.alpha_prime,
            fdr_q=args.fdr,
            min_total=args.min_total,
            delta0=args.delta0,
            fp_max=args.fp_max,
            fn_max=args.fn_max,
            grid_fp=args.grid_fp,
            grid_fn=args.grid_fn,
            refine_levels=args.refine_levels,
            assume_equal_fn=not args.separate_fn,
            interval=args.interval,
        )
        report = analyze_study(records, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not report.participants:
        print(
            f"error: none of the {report.n_input} record(s) meet the per-protocol "
            f"floor min(N0, N1) >= {config.min_total}",
            file=sys.stderr,
        )
        return EXIT_EMPTY
    if args.out is None:
        write_report_json(report, sys.stdout)
    else:
        out = Path(args.out)
        if out.suffix == ".json":
            with open(out, "w", encoding="utf-8") as fh:
                write_report_json(report, fh)
            with open(out.with_suffix(".csv"), "w", encoding="utf-8") as fh:
                write_report_csv(report, fh)
        elif out.suffix == ".csv":
            with open(out, "w", encoding="utf-8") as fh:
                write_report_csv(report, fh)
        else:
            print("error: --out must end in .json or .csv", file=sys.stderr)
            return EXIT_BAD_INPUT
    counts = report.responder_counts()
    print(
        f"analyzed {len(report.participants)} of {report.n_input} record(s); "
        f"responders at q={config.fdr_q}: unadjusted {counts['unadjusted']}, "
        f"max-adjusted {counts['max_adjusted']}, min-adjusted {counts['min_adjusted']}",
        file=sys.stderr,
    )
    return EXIT_OK


def _run_simulate(args) -> int:
    try:
        config = SimulationConfig(
            scenario=args.scenario,
            gamma=args.gamma,
            n_control=args.n_control,
            reps=args.reps,
            seed=args.seed,
            n_primary=args.n_primary,
            responder_prob=args.responder_prob,
            alpha=args.alpha,
            alpha_prime=args.alpha_prime,
            p_control=args.p_control,
            fn_max=args.fn_max,
            grid_fp=args.grid_fp,
            grid_fn=args.grid_fn,
            refine_levels=args.refine_levels,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    summary = run_cell(config)
    if args.out is None:
        _write_summary_csv(summary, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_summary_csv(summary, fh)
    return EXIT_OK


_GRID_KEY_TYPES = {
    "alpha": float,
    "fp_max": float,
    "fn_max": float,
    "grid_fp": int,
    "grid_fn": int,
    "refine_levels": int,
    "delta0": float,
    "equal_fn": None,  # boolean, handled separately
    "interval": str,
}


def _parse_grid_spec(text: str) -> tuple[dict, bool]:
    kwargs: dict = {}
    equal_fn = True
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _GRID_KEY_TYPES:
            raise ValueError(
                f"bad grid setting {item!r}; known keys: {sorted(_GRID_KEY_TYPES)}"
            )
        value = value.strip()
        if key == "equal_fn":
            if value.lower() not in ("0", "1", "true", "false"):
                raise ValueError(f"equal_fn must be 0/1/true/false, got {value!r}")
            equal_fn = value.lower() in ("1", "true")
        else:
            kwargs[key] = _GRID_KEY_TYPES[key](value)
    return kwargs, equal_fn


def _run_surface(args) -> int:
    try:
        records = load_study(args.input)
    except (OSError, ValueError) as exc:  # ValueError: SchemaError, undecodable bytes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    match = [r for r in records if r.participant_id == args.participant]
    if not match:
        print(f"error: participant {args.participant!r} not found", file=sys.stderr)
        return EXIT_BAD_INPUT
    record = match[0]
    kind = ControlKind(args.control_kind) if args.control_kind else record.control_kind
    try:
        kwargs, equal_fn = _parse_grid_spec(args.grid)
        config = SetConfig(alpha=kwargs.pop("alpha", 0.05), control_kind=kind, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    grid = build_grid(record.counts, config, assume_equal_fn=equal_fn)

    def write(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["fp0", "fn0", "fp1", "fn1", "in_set", "p_theta"])
        for fp0, fn0, fp1, fn1, in_set, p_theta in grid.to_rows():
            writer.writerow(
                [repr(fp0), repr(fn0), repr(fp1), repr(fn1), int(in_set), repr(p_theta)]
            )

    if args.out is None:
        write(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # A missing --out directory is refused before any work, not after it.
    if args.out is not None and not Path(args.out).parent.is_dir():
        print(f"error: --out directory {Path(args.out).parent} does not exist",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command == "analyze":
        return _run_analyze(args)
    if args.command == "simulate":
        return _run_simulate(args)
    return _run_surface(args)


if __name__ == "__main__":
    sys.exit(main())
