"""Study CSV loading, filtering, batch analysis and report output."""

import csv
import io
import json
import re

import pytest

from respondercall import (
    AnalysisConfig,
    AssayCounts,
    ControlKind,
    SchemaError,
    StudyRecord,
    analyze_study,
    background_subtracted_magnitude,
    bh_adjust,
    load_study,
    per_protocol_filter,
    write_report_csv,
    write_report_json,
)
from respondercall.nuisance import set_config_pair
from respondercall.studyio import _CSV_COLUMNS, _cell


def _write(tmp_path, text):
    path = tmp_path / "study.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_golden_study(golden_study_file):
    records = load_study(str(golden_study_file))
    assert [r.participant_id for r in records] == ["P1", "P2", "P3"]
    assert records[0].counts == AssayCounts(31, 69_540, 85, 93_562, 8, 93_883, 43, 212_650)
    assert all(r.control_kind is ControlKind.GENERIC for r in records)
    assert all(r.marker is None for r in records)


def test_load_optional_columns(tmp_path):
    path = _write(
        tmp_path,
        "participant_id,n0,N0,n1,N1,c0,C0,c1,C1,control_kind,marker\n"
        "A,1,100,2,100,1,100,1,100,negative,IFNg\n"
        "B,1,100,2,100,1,100,1,100,,\n",
    )
    records = load_study(str(path))
    assert records[0].control_kind is ControlKind.NEGATIVE
    assert records[0].marker == "IFNg"
    assert records[1].control_kind is ControlKind.GENERIC
    assert records[1].marker is None


def test_load_errors_name_the_line(tmp_path):
    header = "participant_id,n0,N0,n1,N1,c0,C0,c1,C1\n"
    good = "A,1,100,2,100,1,100,1,100\n"

    with pytest.raises(SchemaError, match="empty file"):
        load_study(str(_write(tmp_path, "")))
    with pytest.raises(SchemaError, match="missing required"):
        load_study(str(_write(tmp_path, "participant_id,n0\nA,1\n")))
    with pytest.raises(SchemaError, match="unknown column"):
        load_study(str(_write(tmp_path, header.replace("c1", "x1"))))
    with pytest.raises(SchemaError, match="duplicated column"):
        load_study(str(_write(tmp_path, header.replace("n1", "n0"))))
    with pytest.raises(SchemaError, match=":3:.*duplicated participant_id"):
        load_study(str(_write(tmp_path, header + good + good)))
    with pytest.raises(SchemaError, match=":2:.*must be an integer"):
        load_study(str(_write(tmp_path, header + "A,one,100,2,100,1,100,1,100\n")))
    with pytest.raises(SchemaError, match=":2:"):
        load_study(str(_write(tmp_path, header + "A,101,100,2,100,1,100,1,100\n")))
    # A count is ASCII digits only, though int() also reads these three.
    for text in ("1_000", "+31", "\u0663\u0661"):
        message = f":2: column N0 must be an integer.*{re.escape(repr(text))}"
        with pytest.raises(SchemaError, match=message):
            load_study(str(_write(tmp_path, header + f"A,1,{text},2,100,1,100,1,100\n")))
    with pytest.raises(SchemaError, match=":2:.*expected 9 fields"):
        load_study(str(_write(tmp_path, header + "A,1,100\n")))
    with pytest.raises(SchemaError, match=":2:.*empty participant_id"):
        load_study(str(_write(tmp_path, header + ",1,100,2,100,1,100,1,100\n")))
    with pytest.raises(SchemaError, match=":2:.*control_kind"):
        load_study(
            str(
                _write(
                    tmp_path,
                    header.rstrip("\n") + ",control_kind\n" + good.rstrip("\n") + ",both\n",
                )
            )
        )


def test_load_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(
        b"\xef\xbb\xbfparticipant_id,n0,N0,n1,N1,c0,C0,c1,C1\r\nA,1,100,2,100,1,100,1,100\r\n"
    )
    records = load_study(str(path))
    assert [r.participant_id for r in records] == ["A"]


def test_load_skips_blank_trailing_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_bytes(
        b"participant_id,n0,N0,n1,N1,c0,C0,c1,C1\r\nA,1,100,2,100,1,100,1,100\r\n\r\n"
    )
    records = load_study(str(path))
    assert [r.participant_id for r in records] == ["A"]
    assert records[0].counts == AssayCounts(1, 100, 2, 100, 1, 100, 1, 100)


def test_per_protocol_boundary():
    at_floor = StudyRecord("at", AssayCounts(1, 10_000, 1, 12_000, 1, 100, 1, 100))
    below = StudyRecord("below", AssayCounts(1, 9_999, 1, 50_000, 1, 100, 1, 100))
    kept, excluded = per_protocol_filter([at_floor, below], min_total=10_000)
    assert [r.participant_id for r in kept] == ["at"]
    assert [r.participant_id for r in excluded] == ["below"]
    kept, excluded = per_protocol_filter([at_floor, below], min_total=0)
    assert len(kept) == 2 and not excluded


def test_magnitude_worked_values():
    first = AssayCounts(4, 51_006, 163, 105_179, 13, 102_745, 84, 213_187)
    fourth = AssayCounts(17, 27_563, 80, 27_968, 34, 79_041, 8, 55_784)
    assert background_subtracted_magnitude(first) == pytest.approx(0.1156, abs=5e-5)
    assert background_subtracted_magnitude(fourth) == pytest.approx(0.2530, abs=5e-5)


def test_magnitude_floors_each_timepoint():
    # T0 primary below its control floors to zero instead of going negative.
    counts = AssayCounts(1, 1000, 30, 1000, 50, 1000, 10, 1000)
    assert background_subtracted_magnitude(counts) == pytest.approx(2.0)
    # A decrease shows up as a negative difference.
    decreasing = AssayCounts(30, 1000, 1, 1000, 10, 1000, 50, 1000)
    assert background_subtracted_magnitude(decreasing) == pytest.approx(-2.0)


def _mixed_records():
    return [
        StudyRecord("big", AssayCounts(30, 40_000, 90, 50_000, 4, 40_000, 5, 50_000)),
        StudyRecord("shift", AssayCounts(50, 10_000, 400, 10_000, 0, 10_000, 500, 10_000)),
        StudyRecord("null", AssayCounts(20, 30_000, 22, 30_000, 3, 30_000, 4, 30_000)),
        StudyRecord("tiny", AssayCounts(2, 4_000, 9, 4_000, 1, 4_000, 1, 4_000)),
    ]


def _mixed_config():
    # The tight false-positive cap makes the "shift" record's set empty.
    return AnalysisConfig(min_total=5_000, fp_max=1e-4, grid_fp=11, grid_fn=2,
                          refine_levels=1)


def test_analyze_study_pipeline():
    report = analyze_study(_mixed_records(), _mixed_config())
    assert report.n_input == 4
    assert [r.participant_id for r in report.excluded] == ["tiny"]
    assert [p.record.participant_id for p in report.participants] == [
        "big", "shift", "null",
    ]

    by_id = {p.record.participant_id: p for p in report.participants}
    assert by_id["shift"].result.set_nonempty is False
    assert by_id["shift"].result.p_min_adjusted is None
    assert by_id["shift"].bh_min_adjusted is None

    # Each column's adjusted values match a direct run over that column.
    unadj = bh_adjust([p.result.p_unadjusted for p in report.participants], 0.05)
    for participant, expected in zip(report.participants, unadj):
        assert participant.bh_unadjusted.p_bh == expected.p_bh
        assert participant.bh_unadjusted.rejected == expected.rejected
    maxadj = bh_adjust([p.result.p_max_adjusted for p in report.participants], 0.05)
    for participant, expected in zip(report.participants, maxadj):
        assert participant.bh_max_adjusted.p_bh == expected.p_bh

    # The undefined record is left out of the minimally adjusted family.
    defined = [p for p in report.participants if p.result.p_min_adjusted is not None]
    minadj = bh_adjust([p.result.p_min_adjusted for p in defined], 0.05)
    for participant, expected in zip(defined, minadj):
        assert participant.bh_min_adjusted.p_bh == expected.p_bh

    counts = report.responder_counts()
    assert set(counts) == {"unadjusted", "max_adjusted", "min_adjusted"}
    assert counts["unadjusted"] == sum(
        p.bh_unadjusted.rejected for p in report.participants
    )


def test_analyze_study_order_equivariance():
    records = _mixed_records()
    config = _mixed_config()
    forward = analyze_study(records, config)
    backward = analyze_study(list(reversed(records)), config)
    assert [p.record.participant_id for p in backward.participants] == [
        "null", "shift", "big",
    ]
    forward_by_id = {p.record.participant_id: p for p in forward.participants}
    for participant in backward.participants:
        reference = forward_by_id[participant.record.participant_id]
        assert participant.result == reference.result
        assert participant.bh_unadjusted.p_bh == reference.bh_unadjusted.p_bh
        assert (participant.bh_min_adjusted is None) == (
            reference.bh_min_adjusted is None
        )


def test_analyze_study_empty_after_filter():
    records = [_mixed_records()[3]]
    report = analyze_study(records, _mixed_config())
    assert report.participants == []
    assert len(report.excluded) == 1
    assert report.responder_counts() == {
        "unadjusted": 0, "max_adjusted": 0, "min_adjusted": 0,
    }


def test_set_configs_levels():
    config = AnalysisConfig(alpha=0.1, alpha_prime=0.02, interval="clopper-pearson")
    config_max, config_min = set_config_pair(config, ControlKind.NEGATIVE)
    assert config_max.alpha == 0.02
    assert config_min.alpha == 0.1
    for sub in (config_max, config_min):
        assert sub.control_kind is ControlKind.NEGATIVE
        assert sub.interval == "clopper-pearson"


def test_json_report_round_trips_exact_floats():
    report = analyze_study(_mixed_records(), _mixed_config())
    stream = io.StringIO()
    write_report_json(report, stream)
    payload = json.loads(stream.getvalue())
    assert payload["summary"]["n_input"] == 4
    assert payload["summary"]["n_excluded"] == 1
    assert payload["summary"]["excluded_ids"] == ["tiny"]
    assert [p["participant_id"] for p in payload["participants"]] == [
        "big", "shift", "null",
    ]
    for entry, participant in zip(payload["participants"], report.participants):
        assert entry["p_unadjusted"] == participant.result.p_unadjusted
        assert entry["p_max_adjusted"] == participant.result.p_max_adjusted
        assert entry["p_min_adjusted"] == participant.result.p_min_adjusted
        assert entry["magnitude_pct"] == participant.magnitude_pct
        if participant.result.p_range is None:
            assert entry["p_range"] is None
        else:
            assert tuple(entry["p_range"]) == participant.result.p_range


def test_csv_report_round_trips_exact_floats():
    report = analyze_study(_mixed_records(), _mixed_config())
    stream = io.StringIO()
    write_report_csv(report, stream)
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    assert rows[0] == _CSV_COLUMNS
    assert len(rows) == 1 + len(report.participants)
    for row, participant in zip(rows[1:], report.participants):
        cells = dict(zip(rows[0], row))
        assert cells["participant_id"] == participant.record.participant_id
        assert float(cells["p_unadjusted"]) == participant.result.p_unadjusted
        assert float(cells["p_max_adjusted"]) == participant.result.p_max_adjusted
        if participant.result.p_min_adjusted is None:
            assert cells["p_min_adjusted"] == ""
            assert cells["bh_p_min_adjusted"] == ""
        else:
            assert float(cells["p_min_adjusted"]) == participant.result.p_min_adjusted
        assert cells["set_nonempty"] in ("true", "false")
        assert cells["n0"] == str(participant.record.counts.n0)


# The records of _mixed_records, plus control kinds and blank and non-blank markers.
MIXED_STUDY = """participant_id,n0,N0,n1,N1,c0,C0,c1,C1,control_kind,marker
big,30,40000,90,50000,4,40000,5,50000,,IFNg
shift,50,10000,400,10000,0,10000,500,10000,generic,
null,20,30000,22,30000,3,30000,4,30000,negative,IL2
tiny,2,4000,9,4000,1,4000,1,4000,,
"""


def test_csv_row_is_the_flattened_json_entry(tmp_path):
    report = analyze_study(load_study(str(_write(tmp_path, MIXED_STUDY))), _mixed_config())
    json_stream, csv_stream = io.StringIO(), io.StringIO()
    write_report_json(report, json_stream)
    write_report_csv(report, csv_stream)
    entries = json.loads(json_stream.getvalue())["participants"]
    reader = csv.DictReader(io.StringIO(csv_stream.getvalue()))
    rows = list(reader)
    assert reader.fieldnames == _CSV_COLUMNS
    assert [row["participant_id"] for row in rows] == ["big", "shift", "null"]
    for entry, row in zip(entries, rows):
        for name in ("participant_id", "control_kind", "marker", "magnitude_pct",
                     "p_unadjusted", "p_max_adjusted", "p_min_adjusted",
                     "set_nonempty", "unadjusted_in_set"):
            assert row[name] == _cell(entry[name]), name
        for name, value in entry["counts"].items():
            assert row[name] == _cell(value), name
        low, high = entry["p_range"] or (None, None)
        assert (row["p_range_low"], row["p_range_high"]) == (_cell(low), _cell(high))
        for column, decision in entry["bh"].items():
            p_bh, rejected = (decision["p_bh"], decision["rejected"]) if decision else (None, None)
            assert row[f"bh_p_{column}"] == _cell(p_bh), column
            assert row[f"bh_rejected_{column}"] == _cell(rejected), column
    # Every kind of cell occurs: a negative control, a blank marker, and an
    # empty set whose undefined min p-value leaves its range and BH cells empty.
    assert rows[2]["control_kind"] == "negative" and rows[0]["marker"] == "IFNg"
    shift = rows[1]
    assert entries[1]["p_min_adjusted"] is None and entries[1]["bh"]["min_adjusted"] is None
    for name in ("marker", "p_min_adjusted", "p_range_low", "p_range_high",
                 "bh_p_min_adjusted", "bh_rejected_min_adjusted"):
        assert shift[name] == "", name
    assert shift["bh_rejected_unadjusted"] == "true" and shift["set_nonempty"] == "false"
