"""Command line entry points, exercised through subprocesses.

The surface byte and memory tests call cli.main in this process, so that
they can patch a module constant or trace allocations.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from respondercall import SetConfig, build_grid, cli, load_study, nuisance

GOLDEN_FLAGS = [
    "--alpha", "0.05", "--alpha-prime", "0.05", "--fp-max", "0.002",
    "--fn-max", "0.0", "--grid-fp", "201", "--grid-fn", "2",
    "--refine-levels", "2",
]
FAST_FLAGS = [
    "--fp-max", "0.002", "--fn-max", "0.0", "--grid-fp", "21", "--grid-fn", "2",
    "--refine-levels", "1",
]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "respondercall", *args],
        capture_output=True, text=True, env=env,
    )


def test_help_screens():
    assert run_cli("--help").returncode == 0
    for sub in ("analyze", "simulate", "surface"):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert sub in proc.stdout or "usage" in proc.stdout


def test_analyze_writes_json_report_and_csv_mirror(golden_study_file, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "analyze", "--input", str(golden_study_file), "--out", str(out), *GOLDEN_FLAGS
    )
    assert proc.returncode == 0, proc.stderr
    assert "analyzed 3 of 3" in proc.stderr
    assert out.exists()
    assert (tmp_path / "report.csv").exists()

    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["summary"]["n_analyzed"] == 3
    by_id = {p["participant_id"]: p for p in payload["participants"]}
    # Values the library produces for the same settings, bit for bit.
    assert by_id["P1"]["p_unadjusted"] == 0.00026362004909230216
    assert by_id["P1"]["p_max_adjusted"] == 0.059101420335557285
    assert by_id["P1"]["p_min_adjusted"] == 0.000442322485754518
    assert by_id["P1"]["p_range"] == [0.000442322485754518, 0.009101420335557284]
    assert by_id["P2"]["p_min_adjusted"] == by_id["P2"]["p_unadjusted"]
    assert by_id["P2"]["p_max_adjusted"] == 0.05060812530153469
    assert by_id["P3"]["p_min_adjusted"] == 6.306372644052059e-05
    assert by_id["P3"]["p_max_adjusted"] == 0.050063063726440524

    with open(tmp_path / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["participant_id"] for row in rows] == ["P1", "P2", "P3"]
    assert float(rows[0]["p_max_adjusted"]) == 0.059101420335557285


def test_analyze_prints_json_to_stdout_by_default(golden_study_file):
    proc = run_cli("analyze", "--input", str(golden_study_file), *FAST_FLAGS)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["participants"]) == 3


def test_analyze_control_kind_override(golden_study_file):
    proc = run_cli(
        "analyze", "--input", str(golden_study_file), "--control-kind", "negative",
        "--fn-max", "0.2", "--grid-fp", "11", "--grid-fn", "3", "--refine-levels", "0",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert all(p["control_kind"] == "negative" for p in payload["participants"])


def test_analyze_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("participant_id,n0\nA,1\n", encoding="utf-8")
    proc = run_cli("analyze", "--input", str(bad))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_analyze_reports_empty_after_filter(golden_study_file):
    proc = run_cli(
        "analyze", "--input", str(golden_study_file), "--min-total", "1000000"
    )
    assert proc.returncode == 3
    assert "per-protocol" in proc.stderr
    # A bad setting is refused before the filter empties the study, and the
    # error names the flag that was typed.
    for flags, message in (
        (["--grid-fn", "1"], "--grid-fn"),
        (["--fdr", "0"], "error: --fdr must lie in (0, 1)"),
        (["--alpha-prime", "1.5"], "error: --alpha-prime must lie in (0, 1)"),
        (["--alpha", "1.5"], "error: --alpha must lie in (0, 1)"),
    ):
        proc = run_cli(
            "analyze", "--input", str(golden_study_file), "--min-total", "1000000",
            *flags,
        )
        assert proc.returncode == 2, (flags, proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert message in proc.stderr, (flags, proc.stderr)


def test_analyze_rejects_unknown_out_suffix(golden_study_file, tmp_path):
    proc = run_cli(
        "analyze", "--input", str(golden_study_file),
        "--out", str(tmp_path / "report.txt"), *FAST_FLAGS,
    )
    assert proc.returncode == 2
    assert "--out" in proc.stderr


def test_missing_input_and_out_directory_exit_2(golden_study_file, tmp_path):
    missing = str(tmp_path / "missing.csv")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"participant_id,n0,N0,n1,N1,c0,C0,c1,C1\n\xe9,1,100,2,100,1,100,1,100\n")
    for args in (["analyze"], ["surface", "--participant", "P1"]):
        for path in (missing, str(latin1)):
            proc = run_cli(*args, "--input", path)
            assert proc.returncode == 2, (args[0], path, proc.stderr)
            assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    out = str(tmp_path / "no_such_dir" / "out.csv")
    taken = tmp_path / "taken.csv"
    taken.mkdir()
    for args in (
        ["analyze", "--input", str(golden_study_file), *FAST_FLAGS],
        ["surface", "--input", str(golden_study_file), "--participant", "P1"],
        ["simulate", "--scenario", "I", "--gamma", "2", "--n-control", "1000",
         "--reps", "2"],
    ):
        proc = run_cli(*args, "--out", out)
        assert proc.returncode == 2, (args[0], proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert "no_such_dir" in proc.stderr
        # An --out that is a directory is refused too, before any work.
        proc = run_cli(*args, "--out", str(taken))
        assert proc.returncode == 2, (args[0], proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert "is a directory" in proc.stderr
    # So is a directory where analyze would write the CSV mirror of x.json.
    (tmp_path / "x.csv").mkdir()
    proc = run_cli(
        "analyze", "--input", str(golden_study_file), *FAST_FLAGS,
        "--out", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "x.csv" in proc.stderr
    assert not (tmp_path / "x.json").exists()


def test_simulate_writes_one_summary_row(tmp_path):
    out = tmp_path / "cell.csv"
    proc = run_cli(
        "simulate", "--scenario", "I", "--gamma", "2", "--n-control", "1000",
        "--reps", "3", "--seed", "5", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario"] == "I"
    assert row["reps"] == "3"
    assert row["seed"] == "5"
    assert float(row["unadjusted_power"]) >= 0.0


def test_simulate_rejects_bad_settings():
    proc = run_cli(
        "simulate", "--scenario", "I", "--gamma", "1.0", "--n-control", "1000",
        "--reps", "2",
    )
    assert proc.returncode == 2
    assert "gamma" in proc.stderr
    proc = run_cli(
        "simulate", "--scenario", "X", "--gamma", "2", "--n-control", "1000",
        "--reps", "2",
    )
    assert proc.returncode == 2
    cell = ["simulate", "--scenario", "I", "--gamma", "2", "--n-control", "1000",
            "--reps", "2"]
    # Only the refused setting is named, not its sibling.
    proc = run_cli(*cell, "--grid-fp", "1")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: --grid-fp must be at least 2, got 1")
    assert "--grid-fn" not in proc.stderr
    for flags, env, word in (
        (["--grid-fn", "1"], None, "error: --grid-fn must be at least 2, got 1"),
        (["--gamma", "nan"], None, "error: --gamma must exceed 1, got nan"),
        (["--seed", "-1"], None, "error: --seed must be non-negative, got -1"),
        (["--refine-levels", "-1"], None, "--refine-levels"),
        ([], {"RESPONDER_THREADS": "abc"}, "RESPONDER_THREADS"),
        (["--alpha-prime", "1.5"], None, "error: --alpha-prime must lie in (0, 1)"),
        (["--n-control", "7"], None, "--n-control=7"),
    ):
        proc = run_cli(*cell, *flags, env_extra=env)
        assert proc.returncode == 2, (flags, proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert word in proc.stderr


def test_surface_exports_the_full_grid(golden_study_file, tmp_path):
    spec = "alpha=0.05,fp_max=0.002,fn_max=0.0,grid_fp=21,grid_fn=2,refine_levels=1"
    out = tmp_path / "surface.csv"
    proc = run_cli(
        "surface", "--input", str(golden_study_file), "--participant", "P1",
        "--grid", spec, "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr

    records = load_study(str(golden_study_file))
    grid = build_grid(
        records[0].counts,
        SetConfig(alpha=0.05, fp_max=0.002, fn_max=0.0, grid_fp=21, grid_fn=2,
                  refine_levels=1),
    )
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fp0", "fn0", "fp1", "fn1", "in_set", "p_theta"]
    expected = list(csv.reader(io.StringIO("".join(grid.to_rows()))))[1:]
    assert len(rows) - 1 == len(expected)
    for i in (1, len(rows) - 1):
        fp0, fn0, fp1, fn1, in_set, p_theta = rows[i]
        assert in_set in ("0", "1")
        assert float(fp0) == float(expected[i - 1][0])
        got, want = float(p_theta), float(expected[i - 1][5])
        assert got == want or (math.isnan(got) and math.isnan(want))
    in_set_p = [
        float(r[5]) for r in rows[1:] if r[4] == "1"
    ]
    assert min(in_set_p) == grid.inf_p
    assert max(in_set_p) == grid.sup_p


def csv_module_surface(grid) -> str:
    """The surface export as csv.writer wrote it, with one repr per cell."""
    rows = np.column_stack([grid.fp0, grid.fn0, grid.fp1, grid.fn1])
    _, keep = np.unique(rows, axis=0, return_index=True)
    columns = (grid.fp0, grid.fn0, grid.fp1, grid.fn1, grid.in_set, grid.p_theta)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["fp0", "fn0", "fp1", "fn1", "in_set", "p_theta"])
    for fp0, fn0, fp1, fn1, in_set, p_theta in zip(*(c[keep].tolist() for c in columns)):
        writer.writerow(
            [repr(fp0), repr(fn0), repr(fp1), repr(fn1), int(in_set), repr(p_theta)]
        )
    return text.getvalue()


@pytest.mark.parametrize("kind", ["generic", "negative"])
@pytest.mark.parametrize("participant, spec, equal_fn", [
    ("P1", "grid_fp=21,grid_fn=5,refine_levels=3", True),
    ("P1", "grid_fp=13,grid_fn=7,refine_levels=2,delta0=0.1", False),
    # fp + fn reaches 1 in a corner, where p_theta is NaN; Q1's set reaches
    # this coarse grid, so its refinement rounds run.
    ("Q1", "fp_max=0.5,fn_max=0.5,grid_fp=13,grid_fn=5,refine_levels=3", True),
])
def test_surface_bytes_match_the_csv_module_writer(
    golden_study_file, tmp_path, capsys, monkeypatch, kind, participant, spec, equal_fn
):
    study = tmp_path / "study.csv"
    study.write_text(golden_study_file.read_text(encoding="utf-8")
                     + "Q1,5,100,20,100,3,100,9,120\n", encoding="utf-8")
    record = {r.participant_id: r for r in load_study(str(study))}[participant]
    settings, _ = cli._parse_grid_spec(spec)
    grid = build_grid(record.counts, SetConfig(alpha=0.05, control_kind=kind, **settings),
                      assume_equal_fn=equal_fn)
    expected = csv_module_surface(grid)
    # Refinement clipped some points onto a grid edge, where they repeat.
    assert expected.count("\n") - 1 < grid.n_points
    assert grid.nonempty
    assert (",nan\n" in expected) == (participant == "Q1")
    argv = ["surface", "--input", str(study), "--participant", participant,
            "--control-kind", kind, "--grid", f"{spec},equal_fn={int(equal_fn)}"]
    out = tmp_path / "surface.csv"
    for block in (nuisance._ROW_BLOCK, 7):
        monkeypatch.setattr(nuisance, "_ROW_BLOCK", block)
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected


def test_surface_export_memory_is_bounded(golden_study_file):
    # The default grid's export is about 17 MB of text, written a block at a time.
    argv = ["surface", "--input", str(golden_study_file), "--participant", "P1",
            "--out", os.devnull]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2**20


def test_surface_rejects_bad_grid_spec(golden_study_file):
    proc = run_cli(
        "surface", "--input", str(golden_study_file), "--participant", "P1",
        "--grid", "bogus=1",
    )
    assert proc.returncode == 2
    assert "bad grid setting" in proc.stderr
    # A value that does not convert is reported under its key.
    for spec, message in (("grid_fp=abc", "error: grid_fp must be int, got 'abc'"),
                          ("alpha=x", "error: alpha must be float, got 'x'")):
        proc = run_cli(
            "surface", "--input", str(golden_study_file), "--participant", "P1",
            "--grid", spec,
        )
        assert proc.returncode == 2, (spec, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message), (spec, proc.stderr)


def test_surface_unknown_participant(golden_study_file):
    proc = run_cli(
        "surface", "--input", str(golden_study_file), "--participant", "nope"
    )
    assert proc.returncode == 2
    assert "not found" in proc.stderr
