"""Command line entry points.

analyze   batch responder calls from a study CSV
simulate  operating characteristics of one synthetic cell
surface   per-point membership and p-value export for one participant
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

from .nuisance import _INTERVALS, ControlKind, SetConfig, build_grid
from .simulate import SCENARIOS, SimulationConfig, SimulationSummary, run_cell
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

_CONTROL_KINDS = [kind.value for kind in ControlKind]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respondercall",
        description="Vaccine responder calls with misclassification-adjusted p-values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each setting flag stores into the config field of its dest only when
    # given; every default is the config dataclass's own.
    analyze = sub.add_parser(
        "analyze", help="analyze a study CSV", argument_default=argparse.SUPPRESS
    )
    analyze.add_argument("--input", required=True, help="study CSV path")
    analyze.add_argument(
        "--out",
        default=None,
        help="report path (.json writes the JSON report plus a .csv mirror, "
        ".csv writes only the CSV); default prints JSON to stdout",
    )
    analyze.add_argument("--alpha", type=float)
    analyze.add_argument("--alpha-prime", type=float)
    analyze.add_argument("--fdr", dest="fdr_q", metavar="Q", type=float,
                         help="BH level q")
    analyze.add_argument("--min-total", type=int)
    analyze.add_argument("--fp-max", type=float)
    analyze.add_argument("--fn-max", type=float)
    analyze.add_argument("--grid-fp", type=int)
    analyze.add_argument("--grid-fn", type=int)
    analyze.add_argument("--refine-levels", type=int)
    analyze.add_argument("--delta0", type=float)
    analyze.add_argument(
        "--separate-fn",
        dest="assume_equal_fn",
        action="store_false",
        help="vary fn0 and fn1 independently (constrained by --delta0) "
        "instead of sharing one axis",
    )
    analyze.add_argument("--interval", choices=_INTERVALS)
    analyze.add_argument(
        "--control-kind",
        default=None,
        choices=_CONTROL_KINDS,
        help="override the control kind for every record",
    )

    simulate = sub.add_parser(
        "simulate", help="simulate one cell", argument_default=argparse.SUPPRESS
    )
    simulate.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    simulate.add_argument("--gamma", type=float, required=True)
    simulate.add_argument("--n-control", type=int, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--n-primary", type=int)
    simulate.add_argument("--responder-prob", type=float)
    simulate.add_argument("--alpha", type=float)
    simulate.add_argument("--alpha-prime", type=float)
    simulate.add_argument("--p-control", type=float)
    simulate.add_argument("--fn-max", type=float)
    simulate.add_argument("--grid-fp", type=int)
    simulate.add_argument("--grid-fn", type=int)
    simulate.add_argument("--refine-levels", type=int)
    simulate.add_argument("--out", default=None, help="output CSV path; default stdout")

    surface = sub.add_parser("surface", help="export one participant's rate grid")
    surface.add_argument("--input", required=True, help="study CSV path")
    surface.add_argument("--participant", required=True)
    surface.add_argument(
        "--grid",
        default="",
        help="comma-separated key=value settings: alpha, fp_max, fn_max, "
        "grid_fp, grid_fn, refine_levels, delta0, equal_fn, interval",
    )
    surface.add_argument("--control-kind", choices=_CONTROL_KINDS)
    surface.add_argument("--out", help="output CSV path; default stdout")
    return parser


def _config_from(cls, args):
    """cls built from the flags given; the other fields keep cls's defaults."""
    given = vars(args)
    try:
        return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})
    except ValueError as exc:  # name each refused field by its flag
        flags = {f.name: "--" + f.name.replace("_", "-") for f in fields(cls)}
        flags["fdr_q"] = "--fdr"  # not --fdr-q
        raise ValueError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc))) from None


def _write_summary_csv(summary: SimulationSummary, stream) -> None:
    names = [f.name for f in fields(SimulationSummary)]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    writer.writerow([_cell(getattr(summary, name)) for name in names])


def _run_analyze(args) -> int:
    config = _config_from(AnalysisConfig, args)
    records = load_study(args.input)
    if args.control_kind:
        kind = ControlKind(args.control_kind)
        records = [replace(record, control_kind=kind) for record in records]
    report = analyze_study(records, config)
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
            out = out.with_suffix(".csv")
        with open(out, "w", encoding="utf-8") as fh:
            write_report_csv(report, fh)
    counts = report.responder_counts()
    print(
        f"analyzed {len(report.participants)} of {report.n_input} record(s); "
        f"responders at q={config.fdr_q}: unadjusted {counts['unadjusted']}, "
        f"max-adjusted {counts['max_adjusted']}, min-adjusted {counts['min_adjusted']}",
        file=sys.stderr,
    )
    return EXIT_OK


def _run_simulate(args) -> int:
    summary = run_cell(_config_from(SimulationConfig, args))
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
            convert = _GRID_KEY_TYPES[key]
            try:
                kwargs[key] = convert(value)
            except ValueError:
                raise ValueError(f"{key} must be {convert.__name__}, got {value!r}") from None
    return kwargs, equal_fn


def _run_surface(args) -> int:
    kwargs, equal_fn = _parse_grid_spec(args.grid)
    records = load_study(args.input)
    match = [r for r in records if r.participant_id == args.participant]
    if not match:
        raise ValueError(f"participant {args.participant!r} not found")
    record = match[0]
    kind = ControlKind(args.control_kind) if args.control_kind else record.control_kind
    config = SetConfig(alpha=kwargs.pop("alpha", 0.05), control_kind=kind, **kwargs)
    grid = build_grid(record.counts, config, assume_equal_fn=equal_fn)

    if args.out is None:
        sys.stdout.writelines(grid.to_rows())
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(grid.to_rows())
    return EXIT_OK


def _check_out(args) -> None:
    """Refuse an --out that is a directory or lies in a missing one, before any work."""
    if args.out is None:
        return
    paths = [Path(args.out)]
    if args.command == "analyze":
        if paths[0].suffix not in (".json", ".csv"):
            raise ValueError("--out must end in .json or .csv")
        if paths[0].suffix == ".json":
            paths.append(paths[0].with_suffix(".csv"))
    for path in paths:
        if not path.parent.is_dir():
            raise ValueError(f"--out directory {path.parent} does not exist")
        if path.is_dir():
            raise ValueError(f"--out path {path} is a directory")


_COMMANDS = {"analyze": _run_analyze, "simulate": _run_simulate, "surface": _run_surface}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args)
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # bad settings, input or --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
