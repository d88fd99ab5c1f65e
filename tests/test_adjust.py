"""Maximal and minimal adjustment of the responder p-value."""

import tracemalloc

import numpy as np

from respondercall import (
    AssayCounts,
    SetConfig,
    analyze_participant,
    build_grid,
    unadjusted_p,
)


def _random_instance(rng):
    N0 = int(rng.integers(150, 801))
    N1 = int(rng.integers(150, 801))
    C0 = int(rng.integers(150, 801))
    C1 = int(rng.integers(150, 801))
    u0 = float(rng.uniform(0.01, 0.06))
    u1 = u0 * float(np.exp(rng.uniform(-0.5, 0.5)))
    p0 = float(rng.uniform(0.01, 0.06))
    p1 = p0 * float(rng.uniform(0.5, 2.5))
    return AssayCounts(
        int(rng.binomial(N0, min(p0 + u0, 0.9))), N0,
        int(rng.binomial(N1, min(p1 + u1, 0.9))), N1,
        int(rng.binomial(C0, u0)), C0,
        int(rng.binomial(C1, min(u1, 0.5))), C1,
    )


def _expected_from_grid(grid, p_star, alpha):
    members = grid.p_theta[grid.in_set]
    if members.size == 0:
        return 1.0, None
    expected_max = min(1.0, grid.sup_p + alpha)
    if grid.inf_p <= p_star <= grid.sup_p:
        return expected_max, p_star
    distance = np.abs(members - p_star)
    pick = int(np.lexsort((members, distance))[0])
    return expected_max, float(members[pick])


def test_adjustments_follow_the_documented_rules():
    rng = np.random.default_rng(42)
    config = SetConfig(
        alpha=0.05, fp_max=0.15, fn_max=0.1, grid_fp=11, grid_fn=3, refine_levels=1
    )
    saw_bracketed = saw_outside = 0
    for _ in range(40):
        counts = _random_instance(rng)
        grid = build_grid(counts, config)
        p_star = unadjusted_p(counts)
        expected_max, expected_min = _expected_from_grid(grid, p_star, config.alpha)
        result = analyze_participant(counts, config, config)
        assert result.p_max_adjusted == expected_max
        assert result.p_min_adjusted == expected_min
        if expected_min is not None:
            if expected_min == p_star:
                saw_bracketed += 1
            else:
                saw_outside += 1
    # The instance generator must exercise both selection branches.
    assert saw_bracketed > 0
    assert saw_outside > 0


def test_max_adjustment_floors_at_alpha_prime():
    rng = np.random.default_rng(8)
    config = SetConfig(
        alpha=0.01, fp_max=0.15, fn_max=0.0, grid_fp=11, grid_fn=2, refine_levels=1
    )
    for _ in range(20):
        counts = _random_instance(rng)
        assert analyze_participant(counts, config, config).p_max_adjusted >= config.alpha


def test_min_never_exceeds_max_under_a_shared_config():
    rng = np.random.default_rng(9)
    config = SetConfig(
        alpha=0.05, fp_max=0.15, fn_max=0.0, grid_fp=11, grid_fn=2, refine_levels=1
    )
    for _ in range(20):
        counts = _random_instance(rng)
        result = analyze_participant(counts, config, config)
        if result.p_min_adjusted is not None:
            assert result.p_min_adjusted <= result.p_max_adjusted


def test_empty_set_conventions():
    counts = AssayCounts(50, 10_000, 400, 10_000, 0, 10_000, 500, 10_000)
    config = SetConfig(
        alpha=0.05, fp_max=1e-4, fn_max=0.0, grid_fp=11, grid_fn=2, refine_levels=1
    )
    result = analyze_participant(counts, config, config)
    assert result.set_nonempty is False
    assert result.p_range is None
    assert result.p_min_adjusted is None
    assert result.p_max_adjusted == 1.0
    assert result.unadjusted_in_set is False


def test_sup_grows_as_the_set_level_shrinks(participant_one):
    sups = []
    for alpha in (0.05, 0.01, 0.005):
        config = SetConfig(
            alpha=alpha, fp_max=0.002, fn_max=0.0, grid_fp=51, grid_fn=2, refine_levels=0
        )
        sups.append(build_grid(participant_one, config).sup_p)
    assert sups[0] <= sups[1] <= sups[2]


def test_analyze_participant_matches_standalone_calls(participant_one):
    config_max = SetConfig(
        alpha=0.005, fp_max=0.002, fn_max=0.0, grid_fp=51, grid_fn=2, refine_levels=1
    )
    config_min = SetConfig(
        alpha=0.05, fp_max=0.002, fn_max=0.0, grid_fp=51, grid_fn=2, refine_levels=1
    )
    result = analyze_participant(participant_one, config_max, config_min)
    assert result.p_unadjusted == unadjusted_p(participant_one)
    single_max = analyze_participant(participant_one, config_max, config_max)
    single_min = analyze_participant(participant_one, config_min, config_min)
    assert result.p_max_adjusted == single_max.p_max_adjusted
    assert result.p_min_adjusted == single_min.p_min_adjusted
    assert result.alpha == 0.05
    assert result.alpha_prime == 0.005
    grid_max = build_grid(participant_one, config_max)
    grid_min = build_grid(participant_one, config_min)
    assert result.p_range == (grid_max.inf_p, grid_max.sup_p)
    assert result.unadjusted_in_set == (
        grid_min.inf_p <= result.p_unadjusted <= grid_min.sup_p
    )


def test_min_adjustment_clamps_through_a_rounding_tie():
    # p* is near 0.99 and the in-set range is [0, ~4e-46]: both float
    # distances to p* round to the same value, yet sup_p is the nearer.
    counts = AssayCounts(183, 50_000, 141, 50_000, 38, 1_000, 20, 1_000)
    config = SetConfig(alpha=0.05)
    grid = build_grid(counts, config)
    p_star = unadjusted_p(counts)
    assert grid.inf_p == 0.0 < grid.sup_p < p_star
    assert abs(grid.inf_p - p_star) == abs(grid.sup_p - p_star)
    result = analyze_participant(counts, SetConfig(alpha=0.005), config)
    assert result.p_min_adjusted == grid.sup_p
    assert analyze_participant(counts, config, config).p_min_adjusted == grid.sup_p


def test_worked_example_bundle(
    participant_one, participant_two, participant_three, pinned_config
):
    for counts, expect in (
        (participant_one, "lower"),
        (participant_two, "star"),
        (participant_three, "upper"),
    ):
        result = analyze_participant(counts, pinned_config, pinned_config)
        low, high = result.p_range
        assert result.p_max_adjusted == min(1.0, high + 0.05)
        if expect == "lower":
            assert result.p_min_adjusted == low
        elif expect == "star":
            assert result.p_min_adjusted == result.p_unadjusted
            assert result.unadjusted_in_set
        else:
            assert result.p_min_adjusted == high
    result_one = analyze_participant(participant_one, pinned_config, pinned_config)
    assert 0.0575 <= result_one.p_max_adjusted <= 0.0605


def test_separate_fn_analysis_memory_is_bounded(participant_one):
    # A grid keeps one bool and one float per point plus one slab of
    # evaluation temporaries, and the alpha_prime grid is freed before the
    # alpha grid is built.  Full-size columns and temporaries for the two
    # 4.5M-point grids take over 600 MB.
    config = SetConfig(alpha=0.05, delta0=0.05)
    tracemalloc.start()
    try:
        analyze_participant(participant_one, config, config, assume_equal_fn=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20
