"""The package's public names."""

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
    "max_adjusted_p", "min_adjusted_p", "p_value_at", "per_protocol_filter",
    "responder_z", "run_cell", "run_replications", "summarize", "true_oracle_p",
    "unadjusted_p", "wilson_interval", "write_report_csv", "write_report_json",
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
