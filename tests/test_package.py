"""The package's public names and imports."""

import subprocess
import sys

import respondercall

PUBLIC_API = [
    "AnalysisConfig", "AnalysisReport", "AssayCounts", "CONTROL_PROPORTION",
    "ControlKind", "DENOM_EPS", "DegenerateRatesError", "FdrDecision",
    "InstanceTruth", "InvalidCountsError", "MisclassRates", "NuisanceGrid",
    "ParticipantAnalysis", "Replication", "ResponderResult", "SCENARIOS",
    "SchemaError", "SetConfig", "SimulationConfig", "SimulationSummary",
    "StudyRecord", "__version__", "analyze_participant", "analyze_study",
    "background_subtracted_magnitude", "bh_adjust", "build_grid",
    "clopper_pearson_interval", "control_z", "debias_proportion",
    "default_fp_max", "draw_instance", "in_confidence_set", "load_study",
    "p_value_at", "per_protocol_filter", "run_cell", "run_replications",
    "summarize", "unadjusted_p", "wilson_interval", "write_report_csv",
    "write_report_json",
]


def test_public_api_is_pinned():
    names = respondercall.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == PUBLIC_API
    for name in names:
        assert getattr(respondercall, name) is not None
    # perfbench/reference.py checks outputs with these.
    for name in ("control_z", "debias_proportion", "wilson_interval",
                 "clopper_pearson_interval"):
        assert name in names


def test_scipy_stats_is_never_imported(golden_study_file):
    # Only scipy.special is needed; scipy.stats alone takes most of a second
    # to import.  A fresh interpreter runs a Clopper-Pearson analysis.
    argv = ["analyze", "--input", str(golden_study_file), "--control-kind", "negative",
            "--interval", "clopper-pearson", "--grid-fp", "11", "--grid-fn", "3",
            "--refine-levels", "0"]
    code = (
        "import sys\n"
        "from respondercall import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
