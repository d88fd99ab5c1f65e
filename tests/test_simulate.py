"""Data generation, seeded parallel replication and cell summaries."""

import math
import os

import numpy as np
import pytest

from respondercall import (
    CONTROL_PROPORTION,
    AnalysisConfig,
    Replication,
    SimulationConfig,
    draw_instance,
    run_cell,
    run_replications,
    summarize,
    p_value_at,
)
from respondercall._threads import worker_count


def _config(**overrides):
    base = dict(scenario="I", gamma=2.0, n_control=1000, reps=2)
    base.update(overrides)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(scenario="V")
    with pytest.raises(ValueError):
        _config(gamma=1.0)
    with pytest.raises(ValueError):
        _config(gamma=0.5)
    with pytest.raises(ValueError):
        _config(reps=0)
    with pytest.raises(ValueError):
        _config(responder_prob=1.5)
    with pytest.raises(ValueError):
        _config(alpha=0.0)
    with pytest.raises(ValueError):
        _config(n_control=7777)  # not in the lookup, needs p_control
    with pytest.raises(ValueError):
        _config(p_control=0.0)
    # Level and grid settings are checked when the config is built.
    for bad in (dict(grid_fp=1), dict(grid_fn=1), dict(refine_levels=-1),
                dict(fn_max=1.5), dict(alpha_prime=1.0)):
        with pytest.raises(ValueError):
            _config(**bad)
        with pytest.raises(ValueError):
            AnalysisConfig(**bad)
    for bad in (dict(delta0=-0.1), dict(fp_max=2.0), dict(interval="exact"),
                dict(fdr_q=0.0)):
        with pytest.raises(ValueError):
            AnalysisConfig(**bad)


def test_control_proportion_lookup_and_override():
    assert _config(n_control=50_000).control_proportion == CONTROL_PROPORTION[50_000]
    assert _config(n_control=7777, p_control=0.01).control_proportion == 0.01
    assert _config(n_control=1000, p_control=0.25).control_proportion == 0.25


def test_scenario_one_shares_false_positive_rates():
    rng = np.random.default_rng(1)
    for _ in range(20):
        _, truth = draw_instance(_config(scenario="I"), rng)
        assert truth.theta.fp0 == truth.theta.fp1
        assert truth.theta.fn0 == truth.theta.fn1


def test_batch_effect_scenarios_draw_independent_false_positives():
    for scenario in ("II", "III", "IV"):
        rng = np.random.default_rng(2)
        draws = [draw_instance(_config(scenario=scenario), rng)[1] for _ in range(20)]
        assert any(t.theta.fp0 != t.theta.fp1 for t in draws)
        assert all(t.theta.fn0 == t.theta.fn1 for t in draws)


def test_responder_probability_extremes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, truth = draw_instance(_config(responder_prob=0.0), rng)
        assert not truth.responder
        assert truth.p_t1 == truth.p_t0
    for _ in range(10):
        _, truth = draw_instance(_config(responder_prob=1.0), rng)
        assert truth.responder
        assert truth.p_t1 == min(_config().gamma * truth.p_t0, 1.0)


def test_response_scaling_is_capped_at_one():
    config = _config(gamma=400.0, responder_prob=1.0)
    rng = np.random.default_rng(5)
    saw_cap = False
    for _ in range(200):
        _, truth = draw_instance(config, rng)
        assert truth.p_t1 == min(400.0 * truth.p_t0, 1.0)
        if truth.p_t1 == 1.0:
            saw_cap = True
    assert saw_cap


def test_baseline_moment():
    # Mean of the baseline positives proportion across many draws.
    config = _config(n_primary=100)
    rng = np.random.default_rng(2)
    draws = 100_000
    values = np.empty(draws)
    for i in range(draws):
        _, truth = draw_instance(config, rng)
        values[i] = truth.p_t0
    target = 1.0 / 501.0
    se = math.sqrt(500.0 / (501.0**2 * 502.0) / draws)
    assert abs(values.mean() - target) <= 3.0 * se


def test_control_truth_uses_the_configured_proportion():
    rng = np.random.default_rng(7)
    _, truth = draw_instance(_config(n_control=10_000), rng)
    assert truth.p_control == CONTROL_PROPORTION[10_000]


def test_oracle_p_evaluates_at_the_generating_rates():
    # Replication i draws its participant from the i-th child seed.
    config = _config(scenario="III", reps=4, seed=11)
    children = np.random.SeedSequence(config.seed).spawn(config.reps)
    for replication, child in zip(run_replications(config), children):
        counts, truth = draw_instance(config, np.random.default_rng(child))
        assert replication.responder == truth.responder
        assert replication.p_oracle == p_value_at(counts, truth.theta)


def test_run_replications_is_deterministic():
    config = _config(scenario="II", reps=6, seed=321)
    first = run_replications(config)
    second = run_replications(config)
    assert first == second


def test_thread_count_does_not_change_results(monkeypatch):
    config = _config(scenario="II", reps=5, seed=99)
    monkeypatch.setenv("RESPONDER_THREADS", "1")
    serial = run_replications(config)
    monkeypatch.setenv("RESPONDER_THREADS", "3")
    threaded = run_replications(config)
    assert serial == threaded


def test_worker_count(monkeypatch):
    monkeypatch.delenv("RESPONDER_THREADS", raising=False)
    assert worker_count(1) == 1
    assert 1 <= worker_count(100) <= 4
    monkeypatch.setenv("RESPONDER_THREADS", "2")
    assert worker_count(100) == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("RESPONDER_THREADS", "0")
    assert worker_count(100) == 1
    monkeypatch.setenv("RESPONDER_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count(100)
    # The variable is capped at four workers per CPU; no thread is started.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setenv("RESPONDER_THREADS", "4")
    assert worker_count(100) == 4
    monkeypatch.setenv("RESPONDER_THREADS", str(10**9))
    assert worker_count(10**9) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(10**9) == 4


def test_summarize_arithmetic_by_hand():
    config = _config(reps=5)
    replications = [
        Replication(True, 0.01, 0.2, 0.01, 0.01),
        Replication(True, 0.8, 1.0, None, 0.7),
        Replication(True, 0.05, 0.3, 0.06, 0.04),
        Replication(False, 0.05, 0.9, 0.04, 0.5),
        Replication(False, 0.051, 1.0, 1.0, 0.02),
    ]
    summary = summarize(replications, config)
    assert summary.reps == 5
    assert summary.n_responders == 3
    assert summary.n_nonresponders == 2
    assert summary.n_min_undefined == 1
    # Unadjusted: decided at the 0.05 boundary inclusively, across all 5.
    assert summary.unadjusted_power == 100.0 * 2 / 5
    assert summary.unadjusted_type1 == 100.0 * 1 / 5
    assert summary.max_adjusted_power == 0.0
    assert summary.max_adjusted_type1 == 0.0
    # Minimally adjusted: one undefined replication leaves a denominator of 4.
    assert summary.min_adjusted_power == 100.0 * 1 / 4
    assert summary.min_adjusted_type1 == 100.0 * 1 / 4
    # Oracle: p 0.01 and 0.04 from responders, 0.02 from a non-responder.
    assert summary.oracle_power == 100.0 * 2 / 5
    assert summary.oracle_type1 == 100.0 * 1 / 5
    assert summary.scenario == config.scenario
    assert summary.seed == config.seed


def test_summarize_with_every_min_undefined():
    config = _config(reps=3)
    replications = [
        Replication(True, 0.01, 0.2, None, 0.01),
        Replication(False, 0.5, 1.0, None, 0.04),
        Replication(True, 0.03, 0.04, None, 0.9),
    ]
    summary = summarize(replications, config)
    assert summary.n_min_undefined == 3
    assert math.isnan(summary.min_adjusted_type1)
    assert math.isnan(summary.min_adjusted_power)
    # The other procedures keep all three replications as their denominator.
    assert summary.unadjusted_power == 100.0 * 2 / 3
    assert summary.max_adjusted_power == 100.0 * 1 / 3
    assert summary.oracle_type1 == 100.0 * 1 / 3
    assert summary.oracle_power == 100.0 * 1 / 3


def test_single_replication_rates_are_all_or_nothing():
    summary = run_cell(_config(reps=1))
    rates = [
        summary.unadjusted_type1, summary.unadjusted_power,
        summary.max_adjusted_type1, summary.max_adjusted_power,
        summary.min_adjusted_type1, summary.min_adjusted_power,
        summary.oracle_type1, summary.oracle_power,
    ]
    assert all(r in (0.0, 100.0) for r in rates)
    assert summary.n_responders + summary.n_nonresponders == 1
