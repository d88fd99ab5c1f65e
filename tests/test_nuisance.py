"""Control-compatible rate sets: intervals, membership and the grid."""

import csv
import io
import math

import numpy as np
import pytest

from respondercall import (
    AssayCounts,
    ControlKind,
    MisclassRates,
    SetConfig,
    build_grid,
    clopper_pearson_interval,
    default_fp_max,
    in_confidence_set,
    wilson_interval,
)
from respondercall import nuisance

NEGATIVE = ControlKind.NEGATIVE


def test_wilson_matches_hand_computation():
    low, high = wilson_interval(5, 50, 0.95)
    assert low == pytest.approx(0.043476, abs=5e-6)
    assert high == pytest.approx(0.213602, abs=5e-6)


def test_wilson_boundary_counts_are_exact():
    low, high = wilson_interval(0, 20, 0.95)
    assert low == 0.0
    assert 0.0 < high < 1.0
    low, high = wilson_interval(20, 20, 0.95)
    assert high == 1.0
    assert 0.0 < low < 1.0


def test_wilson_widens_with_confidence():
    low95, high95 = wilson_interval(5, 50, 0.95)
    low99, high99 = wilson_interval(5, 50, 0.99)
    assert low99 < low95
    assert high99 > high95


def test_wilson_contains_point_estimate():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        x = int(rng.integers(0, n + 1))
        low, high = wilson_interval(x, n, 0.95)
        assert low <= x / n <= high
        assert 0.0 <= low <= high <= 1.0


def test_clopper_pearson_closed_forms():
    # With zero successes the upper bound solves (1 - p)^n = (1 - c) / 2,
    # and with all successes the lower bound is the mirror image.
    a = (1.0 - 0.975) / 2.0
    low, high = clopper_pearson_interval(0, 30, 0.975)
    assert low == 0.0
    assert high == pytest.approx(1.0 - a ** (1.0 / 30.0), rel=1e-12)
    low, high = clopper_pearson_interval(30, 30, 0.975)
    assert high == 1.0
    assert low == pytest.approx(a ** (1.0 / 30.0), rel=1e-12)


def test_clopper_pearson_matches_scipy_stats_beta():
    # The bounds come from scipy.special.betaincinv; they must be the very
    # floats scipy.stats.beta.ppf gives, boundary counts included.
    from scipy.stats import beta

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 200_001))
        confidence = float(rng.uniform(0.5, 0.9999))
        a = (1.0 - confidence) / 2.0
        for x in (0, 1, n - 1, n, int(rng.integers(0, n + 1))):
            low, high = clopper_pearson_interval(x, n, confidence)
            assert low == (0.0 if x == 0 else float(beta.ppf(a, x, n - x + 1)))
            assert high == (1.0 if x == n else float(beta.ppf(1.0 - a, x + 1, n - x)))


def test_clopper_pearson_contains_point_estimate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        x = int(rng.integers(0, n + 1))
        low, high = clopper_pearson_interval(x, n, 0.95)
        assert low <= x / n <= high


def test_default_fp_max(participant_one):
    counts = participant_one
    top = max(counts.c0 / counts.C0, counts.c1 / counts.C1)
    expected = min(0.5, 5.0 * top + 10.0 / min(counts.C0, counts.C1))
    assert default_fp_max(counts) == expected
    saturated = AssayCounts(1, 1000, 1, 1000, 900, 1000, 10, 1000)
    assert default_fp_max(saturated) == 0.5


def test_set_config_validation():
    with pytest.raises(ValueError):
        SetConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SetConfig(alpha=1.0)
    with pytest.raises(ValueError):
        SetConfig(alpha=0.05, delta0=-0.1)
    with pytest.raises(ValueError):
        SetConfig(alpha=0.05, fp_max=1.5)
    with pytest.raises(ValueError):
        SetConfig(alpha=0.05, grid_fp=1)
    with pytest.raises(ValueError):
        SetConfig(alpha=0.05, grid_fn=1)
    with pytest.raises(ValueError):
        SetConfig(alpha=0.05, refine_levels=-1)
    with pytest.raises(ValueError):
        SetConfig(alpha=0.05, interval="exact")
    config = SetConfig(alpha=0.05, control_kind="negative")
    assert config.control_kind is ControlKind.NEGATIVE


def test_negative_mode_membership():
    counts = AssayCounts(10, 1000, 30, 1000, 0, 1000, 0, 1000)
    config = SetConfig(alpha=0.05, control_kind=NEGATIVE)
    # All-negative controls are compatible with zero misclassification.
    assert in_confidence_set(counts, MisclassRates.zero(), config)
    # Unequal false negatives are rejected outright at delta0 = 0.
    theta = MisclassRates(0.0, 0.2, 0.0, 0.1)
    assert not in_confidence_set(counts, theta, config)
    relaxed = SetConfig(alpha=0.05, control_kind=NEGATIVE, delta0=0.15)
    assert in_confidence_set(counts, theta, relaxed)
    # A false-positive rate the controls exclude is rejected.
    high_fp = MisclassRates(0.05, 0.0, 0.0, 0.0)
    assert not in_confidence_set(counts, high_fp, config)


def test_negative_mode_interval_bounds_are_closed():
    counts = AssayCounts(10, 1000, 30, 1000, 2, 1000, 5, 1000)
    config = SetConfig(alpha=0.05, control_kind=NEGATIVE)
    low0, high0 = wilson_interval(counts.c0, counts.C0, 0.975)
    low1, high1 = wilson_interval(counts.c1, counts.C1, 0.975)
    on_edge = MisclassRates(high0, 0.0, high1, 0.0)
    assert in_confidence_set(counts, on_edge, config)
    barely_out = MisclassRates(high0 * (1.0 + 1e-9), 0.0, high1, 0.0)
    assert not in_confidence_set(counts, barely_out, config)


def test_negative_mode_interval_choice_changes_membership():
    counts = AssayCounts(10, 1000, 30, 1000, 2, 1000, 5, 1000)
    wil_low, _ = wilson_interval(counts.c0, counts.C0, 0.975)
    cp_low, _ = clopper_pearson_interval(counts.c0, counts.C0, 0.975)
    assert cp_low < wil_low
    probe_fp0 = 0.5 * (cp_low + wil_low)
    theta = MisclassRates(probe_fp0, 0.0, counts.c1 / counts.C1, 0.0)
    wilson_cfg = SetConfig(alpha=0.05, control_kind=NEGATIVE, interval="wilson")
    cp_cfg = SetConfig(alpha=0.05, control_kind=NEGATIVE, interval="clopper-pearson")
    assert not in_confidence_set(counts, theta, wilson_cfg)
    assert in_confidence_set(counts, theta, cp_cfg)


def test_generic_membership_uses_control_distance(participant_one, participant_two):
    config = SetConfig(alpha=0.05)
    assert not in_confidence_set(participant_one, MisclassRates.zero(), config)
    assert in_confidence_set(participant_two, MisclassRates.zero(), config)
    # Loosening alpha cannot shrink the set; tightening cannot grow it.
    assert in_confidence_set(participant_two, MisclassRates.zero(), SetConfig(alpha=0.01))


def test_sets_nest_pointwise():
    counts = AssayCounts(31, 69_540, 85, 93_562, 8, 93_883, 43, 212_650)
    for kind in (ControlKind.GENERIC, NEGATIVE):
        loose = SetConfig(
            alpha=0.1, control_kind=kind, fp_max=0.002, fn_max=0.3,
            grid_fp=15, grid_fn=4, refine_levels=0,
        )
        tight = SetConfig(
            alpha=0.01, control_kind=kind, fp_max=0.002, fn_max=0.3,
            grid_fp=15, grid_fn=4, refine_levels=0,
        )
        grid_loose = build_grid(counts, loose)
        grid_tight = build_grid(counts, tight)
        assert grid_loose.n_points == grid_tight.n_points
        assert not np.any(grid_loose.in_set & ~grid_tight.in_set)


def test_grid_membership_matches_scalar_recheck(participant_one):
    for kind in (ControlKind.GENERIC, NEGATIVE):
        config = SetConfig(
            alpha=0.05, control_kind=kind, fp_max=0.002, fn_max=0.2,
            grid_fp=9, grid_fn=3, refine_levels=1,
        )
        grid = build_grid(participant_one, config)
        for i in range(grid.n_points):
            assert in_confidence_set(participant_one, grid.theta_at(i), config) == bool(
                grid.in_set[i]
            )


def surface_rows(grid) -> list[list[str]]:
    """The cells of each data line of grid.to_rows(), below its header."""
    header, *rows = csv.reader(io.StringIO("".join(grid.to_rows())))
    assert header == ["fp0", "fn0", "fp1", "fn1", "in_set", "p_theta"]
    return rows


def test_grid_rows_sorted_and_unique(participant_one, pinned_config):
    grid = build_grid(participant_one, pinned_config)
    rows = np.array([[float(cell) for cell in row[:4]] for row in surface_rows(grid)])
    points = np.column_stack([grid.fp0, grid.fn0, grid.fp1, grid.fn1])
    assert rows.shape[0] == np.unique(points, axis=0).shape[0]
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    order = np.lexsort((rows[:, 3], rows[:, 2], rows[:, 1], rows[:, 0]))
    assert np.array_equal(order, np.arange(rows.shape[0]))


def test_equal_fn_grid_shares_the_axis(participant_one):
    config = SetConfig(alpha=0.05, fp_max=0.001, fn_max=0.4, grid_fp=7, grid_fn=5,
                       refine_levels=1)
    grid = build_grid(participant_one, config, assume_equal_fn=True)
    assert np.array_equal(grid.fn0, grid.fn1)


def test_separate_fn_grid_size(participant_one):
    config = SetConfig(alpha=0.05, fp_max=0.001, fn_max=0.4, grid_fp=5, grid_fn=3,
                       refine_levels=0)
    shared = build_grid(participant_one, config, assume_equal_fn=True)
    assert shared.n_points == 5 * 5 * 3
    separate = build_grid(participant_one, config, assume_equal_fn=False)
    assert separate.n_points == 5 * 5 * 3 * 3
    assert not np.array_equal(separate.fn0, separate.fn1)


def test_refinement_only_tightens_the_bracket(participant_one, pinned_config):
    base = SetConfig(
        alpha=0.05, fp_max=0.002, fn_max=0.0, grid_fp=201, grid_fn=2, refine_levels=0
    )
    coarse = build_grid(participant_one, base)
    refined = build_grid(participant_one, pinned_config)
    assert refined.n_points > coarse.n_points
    assert refined.sup_p >= coarse.sup_p
    assert refined.inf_p <= coarse.inf_p


def test_empty_set_reports_none():
    counts = AssayCounts(50, 10_000, 400, 10_000, 0, 10_000, 500, 10_000)
    config = SetConfig(
        alpha=0.05, fp_max=1e-4, fn_max=0.0, grid_fp=11, grid_fn=2, refine_levels=1
    )
    grid = build_grid(counts, config)
    assert not grid.nonempty
    assert grid.sup_p is None
    assert grid.inf_p is None
    assert not np.any(grid.in_set)


def test_unusable_corner_is_nan_and_excluded():
    counts = AssayCounts(10, 1000, 30, 1000, 2, 1000, 5, 1000)
    config = SetConfig(
        alpha=0.05, fp_max=0.8, fn_max=0.5, grid_fp=5, grid_fn=3, refine_levels=0
    )
    grid = build_grid(counts, config)
    bad = grid.fp0 + grid.fn0 > 1.0 - 1e-6
    assert bad.any()
    assert np.isnan(grid.p_theta[bad]).all()
    assert not grid.in_set[bad].any()


def test_theta_at_round_trips(participant_one):
    config = SetConfig(alpha=0.05, fp_max=0.001, fn_max=0.2, grid_fp=4, grid_fn=3,
                       refine_levels=0)
    grid = build_grid(participant_one, config)
    rows = {tuple(map(float, row[:4])): row[4:] for row in surface_rows(grid)}
    assert len(rows) == grid.n_points
    for i in (0, grid.n_points // 2, grid.n_points - 1):
        theta = grid.theta_at(i)
        member, p_theta = rows[(theta.fp0, theta.fn0, theta.fp1, theta.fn1)]
        assert member in ("0", "1")
        assert (member == "1", float(p_theta)) == (bool(grid.in_set[i]), float(grid.p_theta[i]))


def test_slab_size_cannot_change_results(participant_one, monkeypatch):
    # These grids fit one default slab; 300 points splits each base mesh.
    for kind in (ControlKind.GENERIC, NEGATIVE):
        for equal_fn in (True, False):
            config = SetConfig(alpha=0.05, control_kind=kind, delta0=0.1, fn_max=0.2,
                               grid_fp=15, grid_fn=5, refine_levels=2)
            whole = build_grid(participant_one, config, assume_equal_fn=equal_fn)
            with monkeypatch.context() as patch:
                patch.setattr(nuisance, "_SLAB_POINTS", 300)
                slabbed = build_grid(participant_one, config, assume_equal_fn=equal_fn)
            n_base = 15 * 15 * 5 ** (1 if equal_fn else 2)
            assert n_base < whole.n_points == slabbed.n_points
            for name in ("in_set", "p_theta", "fp0", "fn0", "fp1", "fn1"):
                assert np.array_equal(getattr(whole, name), getattr(slabbed, name),
                                      equal_nan=name == "p_theta")
            assert (whole.sup_p, whole.inf_p) == (slabbed.sup_p, slabbed.inf_p)
            assert surface_rows(whole) == surface_rows(slabbed)
            for i in (0, n_base // 3, n_base - 1, n_base, whole.n_points - 1, -1):
                theta = slabbed.theta_at(i)
                assert theta == whole.theta_at(i)
                assert theta == MisclassRates(float(whole.fp0[i]), float(whole.fn0[i]),
                                              float(whole.fp1[i]), float(whole.fn1[i]))
            with pytest.raises(IndexError):
                slabbed.theta_at(slabbed.n_points)


def test_grids_compare_and_hash_by_identity(participant_one):
    config = SetConfig(alpha=0.05, fp_max=0.001, fn_max=0.2, grid_fp=4, grid_fn=3,
                       refine_levels=0)
    grid, twin = build_grid(participant_one, config), build_grid(participant_one, config)
    assert grid == grid and not grid != grid
    assert grid != twin and not grid == twin
    assert hash(grid) == hash(grid)
    assert len({grid, twin, grid}) == 2
