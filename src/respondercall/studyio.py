"""Study-level input, filtering, batch analysis and report output.

Input is a CSV with one row per participant and exact header names

    participant_id,n0,N0,n1,N1,c0,C0,c1,C1[,control_kind][,marker]

where control_kind (optional, default generic) selects the confidence
set kind per participant and marker is a free-text label carried
through to reports.  Analysis keeps participants whose smaller primary
total meets a per-protocol floor, computes the three p-values for each,
and applies Benjamini-Hochberg separately to each p-value column.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable

from ._threads import ordered_map
from .adjust import ResponderResult, analyze_participant
from .debias import AssayCounts, InvalidCountsError
from .fdr import FdrDecision, bh_adjust
from .nuisance import ControlKind, SetConfig, set_config_pair

__all__ = [
    "SchemaError",
    "StudyRecord",
    "AnalysisConfig",
    "ParticipantAnalysis",
    "AnalysisReport",
    "load_study",
    "per_protocol_filter",
    "background_subtracted_magnitude",
    "analyze_study",
    "write_report_json",
    "write_report_csv",
]

_REQUIRED_COLUMNS = ("participant_id", "n0", "N0", "n1", "N1", "c0", "C0", "c1", "C1")
_OPTIONAL_COLUMNS = ("control_kind", "marker")


class SchemaError(ValueError):
    """Raised when a study CSV does not match the expected schema."""


@dataclass(frozen=True)
class StudyRecord:
    """One participant's counts plus per-participant options."""

    participant_id: str
    counts: AssayCounts
    control_kind: ControlKind = ControlKind.GENERIC
    marker: str | None = None


def load_study(path: str) -> list[StudyRecord]:
    """Read study records from a CSV file.

    A UTF-8 byte order mark is ignored, and so are rows whose fields
    are all blank.  Raises SchemaError, naming the offending line, for
    a missing or unknown column, a malformed value, counts that fail
    validation, or a duplicated participant_id.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, expected a header row")
        names = [name.strip() for name in header]
        if len(set(names)) != len(names):
            raise SchemaError(f"{path}: duplicated column name in header")
        known = set(_REQUIRED_COLUMNS) | set(_OPTIONAL_COLUMNS)
        unknown = [name for name in names if name not in known]
        if unknown:
            raise SchemaError(f"{path}: unknown column(s) {unknown}")
        missing = [name for name in _REQUIRED_COLUMNS if name not in names]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {missing}")

        records: list[StudyRecord] = []
        seen: set[str] = set()
        for row in reader:
            line = reader.line_num
            if not any(field.strip() for field in row):
                continue
            if len(row) != len(names):
                raise SchemaError(
                    f"{path}:{line}: expected {len(names)} fields, got {len(row)}"
                )
            cells = {name: text.strip() for name, text in zip(names, row)}
            pid = cells["participant_id"]
            if not pid:
                raise SchemaError(f"{path}:{line}: empty participant_id")
            if pid in seen:
                raise SchemaError(f"{path}:{line}: duplicated participant_id {pid!r}")
            seen.add(pid)
            values: dict[str, int] = {}
            for name in _REQUIRED_COLUMNS[1:]:
                text = cells[name]
                try:
                    values[name] = int(text)
                except ValueError:
                    raise SchemaError(
                        f"{path}:{line}: column {name} must be an integer, got {text!r}"
                    ) from None
            try:
                counts = AssayCounts(**values)
            except InvalidCountsError as exc:
                raise SchemaError(f"{path}:{line}: {exc}") from None
            kind = ControlKind.GENERIC
            text = cells.get("control_kind", "").lower()
            if text:
                try:
                    kind = ControlKind(text)
                except ValueError:
                    raise SchemaError(
                        f"{path}:{line}: control_kind must be 'generic' or "
                        f"'negative', got {text!r}"
                    ) from None
            marker = cells.get("marker") or None
            records.append(
                StudyRecord(participant_id=pid, counts=counts, control_kind=kind, marker=marker)
            )
    return records


def per_protocol_filter(
    records: Iterable[StudyRecord], min_total: int = 10_000
) -> tuple[list[StudyRecord], list[StudyRecord]]:
    """Split records into (kept, excluded) by the smaller primary total."""
    kept: list[StudyRecord] = []
    excluded: list[StudyRecord] = []
    for record in records:
        if min(record.counts.N0, record.counts.N1) >= min_total:
            kept.append(record)
        else:
            excluded.append(record)
    return kept, excluded


def background_subtracted_magnitude(counts: AssayCounts) -> float:
    """Background-subtracted response magnitude, in percentage points.

    Each timepoint's primary proportion is floored at its paired
    control proportion before differencing, so per-timepoint values are
    non-negative while the T1 minus T0 difference may be negative.
    """
    at_t1 = max(counts.n1 / counts.N1 - counts.c1 / counts.C1, 0.0)
    at_t0 = max(counts.n0 / counts.N0 - counts.c0 / counts.C0, 0.0)
    return 100.0 * (at_t1 - at_t0)


@dataclass(frozen=True)
class AnalysisConfig:
    """Study-level settings: decision levels, filter and grid shape.

    The grid settings default to those of SetConfig.
    """

    alpha: float = 0.05
    alpha_prime: float = 0.005
    fdr_q: float = 0.05
    min_total: int = 10_000
    delta0: float = SetConfig.delta0
    fp_max: float | None = SetConfig.fp_max
    fn_max: float = SetConfig.fn_max
    grid_fp: int = SetConfig.grid_fp
    grid_fn: int = SetConfig.grid_fn
    refine_levels: int = SetConfig.refine_levels
    assume_equal_fn: bool = True
    interval: str = SetConfig.interval

    def __post_init__(self) -> None:
        if not 0.0 < self.fdr_q < 1.0:
            raise ValueError(f"fdr_q must lie in (0, 1), got {self.fdr_q}")
        set_config_pair(self)


@dataclass(frozen=True)
class ParticipantAnalysis:
    """Per-participant results plus multiplicity decisions."""

    record: StudyRecord
    magnitude_pct: float
    result: ResponderResult
    bh_unadjusted: FdrDecision
    bh_max_adjusted: FdrDecision
    bh_min_adjusted: FdrDecision | None


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the batch analysis produced, in input order."""

    config: AnalysisConfig
    n_input: int
    participants: list[ParticipantAnalysis] = field(default_factory=list)
    excluded: list[StudyRecord] = field(default_factory=list)

    def responder_counts(self) -> dict[str, int]:
        counts = {"unadjusted": 0, "max_adjusted": 0, "min_adjusted": 0}
        for part in self.participants:
            counts["unadjusted"] += int(part.bh_unadjusted.rejected)
            counts["max_adjusted"] += int(part.bh_max_adjusted.rejected)
            if part.bh_min_adjusted is not None:
                counts["min_adjusted"] += int(part.bh_min_adjusted.rejected)
        return counts


def analyze_study(
    records: Iterable[StudyRecord], config: AnalysisConfig | None = None
) -> AnalysisReport:
    """Filter, analyze and multiplicity-correct a whole study.

    Participants are analyzed in parallel (RESPONDER_THREADS caps the
    workers) but reported in input order.  Benjamini-Hochberg runs
    separately on the unadjusted, maximally adjusted and minimally
    adjusted p-value columns; participants whose minimally adjusted
    p-value is undefined are left out of that column's family.
    """
    config = config or AnalysisConfig()
    records = list(records)
    kept, excluded = per_protocol_filter(records, config.min_total)

    def analyze_one(record: StudyRecord) -> tuple[float, ResponderResult]:
        config_max, config_min = set_config_pair(config, record.control_kind)
        result = analyze_participant(
            record.counts, config_max, config_min, assume_equal_fn=config.assume_equal_fn
        )
        return background_subtracted_magnitude(record.counts), result

    analyzed = ordered_map(analyze_one, kept)

    def bh_column(pvalues: list[float | None]) -> list[FdrDecision | None]:
        decisions = iter(bh_adjust([p for p in pvalues if p is not None], config.fdr_q))
        return [None if p is None else next(decisions) for p in pvalues]

    columns = [
        bh_column([getattr(result, name) for _, result in analyzed])
        for name in ("p_unadjusted", "p_max_adjusted", "p_min_adjusted")
    ]
    participants = [
        ParticipantAnalysis(record, magnitude, result, *decisions)
        for record, (magnitude, result), *decisions in zip(kept, analyzed, *columns)
    ]
    return AnalysisReport(
        config=config, n_input=len(records), participants=participants, excluded=excluded
    )


def _decision_dict(decision: FdrDecision | None) -> dict | None:
    if decision is None:
        return None
    return {"p_bh": decision.p_bh, "rejected": decision.rejected}


def _participant_dict(part: ParticipantAnalysis) -> dict:
    record, result = part.record, part.result
    return {
        "participant_id": record.participant_id,
        "control_kind": record.control_kind.value,
        "marker": record.marker,
        "counts": asdict(record.counts),
        "magnitude_pct": part.magnitude_pct,
        "p_unadjusted": result.p_unadjusted,
        "p_max_adjusted": result.p_max_adjusted,
        "p_min_adjusted": result.p_min_adjusted,
        "alpha": result.alpha,
        "alpha_prime": result.alpha_prime,
        "set_nonempty": result.set_nonempty,
        "p_range": list(result.p_range) if result.p_range is not None else None,
        "unadjusted_in_set": result.unadjusted_in_set,
        "bh": {
            "unadjusted": _decision_dict(part.bh_unadjusted),
            "max_adjusted": _decision_dict(part.bh_max_adjusted),
            "min_adjusted": _decision_dict(part.bh_min_adjusted),
        },
    }


def write_report_json(report: AnalysisReport, stream: IO[str]) -> None:
    """Write the report as JSON: config, summary and participant array."""
    payload = {
        "config": asdict(report.config),
        "summary": {
            "n_input": report.n_input,
            "n_analyzed": len(report.participants),
            "n_excluded": len(report.excluded),
            "excluded_ids": [record.participant_id for record in report.excluded],
            "responders": report.responder_counts(),
        },
        "participants": [_participant_dict(part) for part in report.participants],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


_CSV_COLUMNS = [
    "participant_id", "control_kind", "marker",
    "n0", "N0", "n1", "N1", "c0", "C0", "c1", "C1",
    "magnitude_pct", "p_unadjusted", "p_max_adjusted", "p_min_adjusted",
    "set_nonempty", "p_range_low", "p_range_high", "unadjusted_in_set",
    "bh_p_unadjusted", "bh_rejected_unadjusted",
    "bh_p_max_adjusted", "bh_rejected_max_adjusted",
    "bh_p_min_adjusted", "bh_rejected_min_adjusted",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(report: AnalysisReport, stream: IO[str]) -> None:
    """Write one CSV row per participant: its JSON entry, flattened.

    counts go inline, p_range becomes p_range_low/p_range_high, and each
    bh decision becomes bh_p_<column>/bh_rejected_<column>; a missing
    range or decision leaves its cells empty.  alpha and alpha_prime
    appear in the JSON only.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for part in report.participants:
        entry = _participant_dict(part)
        flat = {**entry, **entry["counts"]}
        flat["p_range_low"], flat["p_range_high"] = entry["p_range"] or (None, None)
        for column, decision in entry["bh"].items():
            flat[f"bh_p_{column}"] = decision and decision["p_bh"]
            flat[f"bh_rejected_{column}"] = decision and decision["rejected"]
        writer.writerow([_cell(flat[name]) for name in _CSV_COLUMNS])
