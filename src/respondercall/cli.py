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
from contextlib import nullcontext
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

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


# Config fields whose flag is not --<field name>, with that flag's options.
_FLAG_OF = {
    "fdr_q": ("--fdr", {"metavar": "Q", "help": "BH level q"}),
    "assume_equal_fn": ("--separate-fn", {"help": "vary fn0 and fn1 independently "
                        "(constrained by --delta0) instead of sharing one axis"}),
}
_CHOICES = {"interval": _INTERVALS, "scenario": list(SCENARIOS)}
# Each config's field types, with X | None read as X.
_FIELD_TYPES = {
    cls: {name: (get_args(hint) or (hint,))[0] for name, hint in get_type_hints(cls).items()}
    for cls in (AnalysisConfig, SimulationConfig, SetConfig)
}
# surface --grid key -> type: SetConfig's fields but control_kind, plus equal_fn.
_GRID_KEYS = {k: t for k, t in _FIELD_TYPES[SetConfig].items() if k != "control_kind"}
_GRID_KEYS["equal_fn"] = bool


def _flag(name: str) -> tuple[str, dict]:
    """The flag of a config field, and its options beyond type and choices."""
    return _FLAG_OF.get(name, ("--" + name.replace("_", "-"), {}))


def _add_setting_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of cls, typed, and required where the field has no default."""
    # Each setting flag stores into the config field of its dest only when
    # given; every default is the config dataclass's own.
    for f in fields(cls):
        flag, options = _flag(f.name)
        kind = _FIELD_TYPES[cls][f.name]
        if kind is bool:  # the flag flips the field's default
            options = {**options, "action": "store_false" if f.default else "store_true"}
        else:
            options = {**options, "type": kind, "choices": _CHOICES.get(f.name)}
        parser.add_argument(
            flag, dest=f.name, required=f.default is MISSING, default=argparse.SUPPRESS,
            **options,
        )


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
    _add_setting_flags(analyze, AnalysisConfig)
    analyze.add_argument(
        "--control-kind",
        choices=_CONTROL_KINDS,
        help="override the control kind for every record",
    )

    simulate = sub.add_parser("simulate", help="simulate one cell")
    _add_setting_flags(simulate, SimulationConfig)
    simulate.add_argument("--out", help="output CSV path; default stdout")

    surface = sub.add_parser("surface", help="export one participant's rate grid")
    surface.add_argument("--input", required=True, help="study CSV path")
    surface.add_argument("--participant", required=True)
    surface.add_argument(
        "--grid",
        default="",
        help="comma-separated key=value settings: " + ", ".join(_GRID_KEYS),
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
        flags = {f.name: _flag(f.name)[0] for f in fields(cls)}
        raise ValueError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc))) from None


def _output(path):
    """A writable text stream for --out: the file at path, or stdout when path is None."""
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


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
    out = None if args.out is None else Path(args.out)
    if out is None or out.suffix == ".json":
        with _output(out) as fh:
            write_report_json(report, fh)
    if out is not None:  # the CSV itself, or the mirror of a .json
        with _output(out.with_suffix(".csv")) as fh:
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
    with _output(args.out) as fh:
        _write_summary_csv(summary, fh)
    return EXIT_OK


def _parse_grid_spec(text: str) -> tuple[dict, bool]:
    kwargs: dict = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _GRID_KEYS:
            raise ValueError(f"bad grid setting {item!r}; known keys: {sorted(_GRID_KEYS)}")
        if key in kwargs:
            raise ValueError(f"grid setting {key} is given more than once")
        convert = _GRID_KEYS[key]
        if convert is bool:
            if value.lower() not in ("0", "1", "true", "false"):
                raise ValueError(f"{key} must be 0/1/true/false, got {value!r}")
            kwargs[key] = value.lower() in ("1", "true")
        else:
            try:
                kwargs[key] = convert(value)
            except ValueError:
                raise ValueError(f"{key} must be {convert.__name__}, got {value!r}") from None
    return kwargs, kwargs.pop("equal_fn", True)


def _run_surface(args) -> int:
    kwargs, equal_fn = _parse_grid_spec(args.grid)
    records = load_study(args.input)
    match = [r for r in records if r.participant_id == args.participant]
    if not match:
        raise ValueError(f"participant {args.participant!r} not found")
    record = match[0]
    kind = ControlKind(args.control_kind) if args.control_kind else record.control_kind
    config = SetConfig(**{"alpha": AnalysisConfig.alpha, **kwargs}, control_kind=kind)
    grid = build_grid(record.counts, config, assume_equal_fn=equal_fn)

    with _output(args.out) as fh:
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
