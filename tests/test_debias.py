"""Counts, rate handling and the corrected-scale z-test."""

import math

import numpy as np
import pytest

from respondercall import (
    DENOM_EPS,
    AssayCounts,
    DegenerateRatesError,
    InvalidCountsError,
    MisclassRates,
    control_z,
    debias_proportion,
    p_value_at,
    unadjusted_p,
)
from respondercall.debias import p_value_arrays


def test_debias_is_identity_at_zero_rates():
    for p in np.linspace(0.0, 1.0, 23):
        assert debias_proportion(float(p), 0.0, 0.0) == p


def test_debias_known_values():
    assert debias_proportion(0.5, 0.0, 0.0) == 0.5
    assert debias_proportion(0.001, 0.001, 0.0) == 0.0
    # A small observed proportion with a small false-positive rate.
    got = debias_proportion(0.0009085, 0.0002, 0.0)
    assert got == pytest.approx((0.0009085 - 0.0002) / (1.0 - 0.0002), rel=1e-12)
    assert got == pytest.approx(0.0007085, rel=5e-4)


def test_debias_is_not_clipped():
    assert debias_proportion(0.0, 0.01, 0.0) < 0.0
    assert debias_proportion(1.0, 0.0, 0.5) == 2.0


def test_debias_degenerate_denominator():
    with pytest.raises(DegenerateRatesError):
        debias_proportion(0.5, 0.5, 0.5)
    # A denominator comfortably above the tolerance is usable.
    assert math.isfinite(debias_proportion(0.5, 0.5, 0.5 - 2.0 * DENOM_EPS))


def test_counts_validation():
    with pytest.raises(InvalidCountsError):
        AssayCounts(-1, 10, 0, 10, 0, 10, 0, 10)
    with pytest.raises(InvalidCountsError):
        AssayCounts(11, 10, 0, 10, 0, 10, 0, 10)
    with pytest.raises(InvalidCountsError):
        AssayCounts(0, 0, 0, 10, 0, 10, 0, 10)
    with pytest.raises(InvalidCountsError):
        AssayCounts(True, 10, 0, 10, 0, 10, 0, 10)
    with pytest.raises(InvalidCountsError):
        AssayCounts(0.5, 10, 0, 10, 0, 10, 0, 10)
    # Past 2**53 not every integer has an exact float.
    assert AssayCounts(0, 10, 0, 10, 0, 10, 0, 2**53).C1 == 2**53
    with pytest.raises(InvalidCountsError, match="at most 2\\*\\*53"):
        AssayCounts(0, 10, 0, 10, 0, 10, 0, 2**53 + 1)


def test_counts_coerce_integer_like():
    counts = AssayCounts(np.int64(3), 10, 4, 10, 1, 10, 2, 10)
    assert counts.n0 == 3 and type(counts.n0) is int
    assert counts.N1 == 10


def test_rates_validation():
    with pytest.raises(DegenerateRatesError):
        MisclassRates(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateRatesError):
        MisclassRates(0.0, 1.1, 0.0, 0.0)
    with pytest.raises(DegenerateRatesError):
        MisclassRates(0.6, 0.5, 0.0, 0.0)
    zero = MisclassRates.zero()
    assert (zero.fp0, zero.fn0, zero.fp1, zero.fn1) == (0.0, 0.0, 0.0, 0.0)


def test_z_is_zero_for_identical_arms():
    counts = AssayCounts(5, 100, 5, 100, 5, 100, 5, 100)
    assert control_z(counts, MisclassRates.zero()) == 0.0
    assert p_value_at(counts, MisclassRates.zero()) == 0.5


def test_z_infinite_when_variance_vanishes():
    # Observed rates 0 and 0.2 under a shared false-positive rate of 0.1
    # correct to -0.1 and 0.1, so the pooled corrected proportion is
    # exactly zero: no variance, but the arms still differ.
    counts = AssayCounts(0, 100, 20, 100, 0, 100, 0, 100)
    theta = MisclassRates(0.1, 0.0, 0.1, 0.0)
    assert p_value_at(counts, theta) == 0.0
    # Mirrored counts flip the sign.
    flipped = AssayCounts(20, 100, 0, 100, 0, 100, 0, 100)
    assert p_value_at(flipped, theta) == 1.0


def test_degenerate_pooled_with_equal_arms_is_zero():
    counts = AssayCounts(10, 100, 10, 100, 0, 100, 0, 100)
    theta = MisclassRates(0.1, 0.0, 0.1, 0.0)
    assert p_value_at(counts, theta) == 0.5


def test_unusable_denominator_gives_nan():
    # Scalar rate objects refuse degenerate combinations outright, so the
    # NaN convention only surfaces through the array evaluation path.
    with pytest.raises(DegenerateRatesError):
        MisclassRates(0.49999999, 0.5, 0.0, 0.0)
    p = p_value_arrays(
        5, 100, 9, 100,
        np.array([0.49999999, 0.0]), np.array([0.5, 0.0]),
        np.array([0.0, 0.0]), np.array([0.0, 0.0]),
    )
    assert math.isnan(p[0])
    assert 0.0 <= p[1] <= 1.0


def test_matches_textbook_reference(pooled_reference):
    rng = np.random.default_rng(20240101)
    for _ in range(300):
        N0 = int(rng.integers(20, 50_000))
        N1 = int(rng.integers(20, 50_000))
        n0 = int(rng.integers(0, N0 + 1))
        n1 = int(rng.integers(0, N1 + 1))
        if n0 + n1 == 0 or n0 + n1 == N0 + N1:
            continue
        counts = AssayCounts(n0, N0, n1, N1, 0, 1, 0, 1)
        assert unadjusted_p(counts) == pytest.approx(
            pooled_reference(n0, N0, n1, N1), abs=1e-13
        )


def test_unadjusted_equals_zero_rate_evaluation(participant_one):
    assert unadjusted_p(participant_one) == p_value_at(
        participant_one, MisclassRates.zero()
    )


def test_worked_example_z_values(participant_one, participant_two):
    assert control_z(participant_one, MisclassRates.zero()) == pytest.approx(2.31, abs=0.01)
    assert control_z(participant_two, MisclassRates.zero()) == pytest.approx(-0.43, abs=0.01)
    assert unadjusted_p(participant_one) == pytest.approx(2.6362e-4, rel=1e-4)


def test_false_positive_shift_moves_p_upward(participant_one):
    # Granting T1 a higher false-positive rate explains away part of the
    # observed increase, so the p-value must grow.
    base = unadjusted_p(participant_one)
    shifted = p_value_at(participant_one, MisclassRates(0.0, 0.0, 4e-4, 0.0))
    assert shifted > base


def test_p_nonincreasing_in_t1_positives():
    prev = None
    for n1 in range(0, 400, 7):
        counts = AssayCounts(40, 50_000, n1, 60_000, 5, 50_000, 5, 50_000)
        p = unadjusted_p(counts)
        if prev is not None:
            assert p <= prev + 1e-15
        prev = p


def test_swap_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        N = int(rng.integers(50, 5_000))
        n0 = int(rng.integers(0, N + 1))
        n1 = int(rng.integers(0, N + 1))
        fp0, fp1 = (float(x) for x in rng.uniform(0.0, 0.01, size=2))
        fn0, fn1 = (float(x) for x in rng.uniform(0.0, 0.2, size=2))
        counts = AssayCounts(n0, N, n1, N, 1, 1000, 1, 1000)
        theta = MisclassRates(fp0, fn0, fp1, fn1)
        swapped = AssayCounts(n1, N, n0, N, 1, 1000, 1, 1000)
        theta_swapped = MisclassRates(fp1, fn1, fp0, fn0)
        p = p_value_at(counts, theta)
        p_swapped = p_value_at(swapped, theta_swapped)
        assert p_swapped == pytest.approx(1.0 - p, abs=1e-12)


def test_vectorized_p_matches_scalar(participant_one):
    rng = np.random.default_rng(11)
    fp0 = rng.uniform(0.0, 5e-4, size=40)
    fn0 = rng.uniform(0.0, 0.3, size=40)
    fp1 = rng.uniform(0.0, 5e-4, size=40)
    fn1 = rng.uniform(0.0, 0.3, size=40)
    counts = participant_one
    batch = p_value_arrays(
        counts.n0, counts.N0, counts.n1, counts.N1, fp0, fn0, fp1, fn1
    )
    for i in range(40):
        single = p_value_at(
            counts,
            MisclassRates(float(fp0[i]), float(fn0[i]), float(fp1[i]), float(fn1[i])),
        )
        assert batch[i] == single


def test_p_values_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(200):
        N0 = int(rng.integers(10, 2_000))
        N1 = int(rng.integers(10, 2_000))
        counts = AssayCounts(
            int(rng.integers(0, N0 + 1)), N0, int(rng.integers(0, N1 + 1)), N1, 0, 1, 0, 1
        )
        fp = float(rng.uniform(0.0, 0.2))
        fn = float(rng.uniform(0.0, 0.5))
        p = p_value_at(counts, MisclassRates(fp, fn, fp, fn))
        if not math.isnan(p):
            assert 0.0 <= p <= 1.0
