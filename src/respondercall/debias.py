"""Misclassification-corrected proportions and pooled z statistics.

An assay run reports a positive for a truly positive sample with
probability 1 - fn and for a truly negative sample with probability fp.
The observed positive proportion therefore estimates

    p_obs = p * (1 - fn) + (1 - p) * fp

and the true proportion is recovered by inverting that relation:

    p = (p_obs - fp) / (1 - fn - fp)

Each participant carries counts from two timepoints (a pre sample T0 and
a post sample T1) for both the primary samples and a paired control run
on the same plates.  The standardized difference between the corrected
T1 and T0 proportions is a pooled two-proportion z statistic computed on
the corrected scale; its upper tail gives a one-sided p-value for the
alternative that the post-timepoint proportion is larger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "DENOM_EPS",
    "InvalidCountsError",
    "DegenerateRatesError",
    "AssayCounts",
    "MisclassRates",
    "debias_proportion",
    "control_z",
    "responder_z",
    "p_value_at",
    "unadjusted_p",
]

# Smallest tolerated value of the correction denominator 1 - fn - fp.
DENOM_EPS = 1e-6


class InvalidCountsError(ValueError):
    """Raised when assay counts violate basic integrity requirements."""


class DegenerateRatesError(ValueError):
    """Raised when fp + fn leaves no usable correction denominator."""


@dataclass(frozen=True)
class AssayCounts:
    """Positive counts and totals for one participant.

    Lower-case fields are positive counts, upper-case fields totals.
    (n0, N0) and (n1, N1) are the primary samples at T0 and T1;
    (c0, C0) and (c1, C1) are the paired control samples processed in
    the same runs.
    """

    n0: int
    N0: int
    n1: int
    N1: int
    c0: int
    C0: int
    c1: int
    C1: int

    def __post_init__(self) -> None:
        for name in ("n0", "N0", "n1", "N1", "c0", "C0", "c1", "C1"):
            value = getattr(self, name)
            if isinstance(value, bool) or int(value) != value:
                raise InvalidCountsError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for total in ("N0", "N1", "C0", "C1"):
            if getattr(self, total) < 1:
                raise InvalidCountsError(f"{total} must be at least 1")
        for pos, total in (("n0", "N0"), ("n1", "N1"), ("c0", "C0"), ("c1", "C1")):
            k, n = getattr(self, pos), getattr(self, total)
            if k < 0:
                raise InvalidCountsError(f"{pos} must be non-negative, got {k}")
            if k > n:
                raise InvalidCountsError(f"{pos}={k} exceeds {total}={n}")


@dataclass(frozen=True)
class MisclassRates:
    """Per-timepoint false positive and false negative rates.

    The vector (fp0, fn0, fp1, fn1) holds rates for the T0 run followed
    by the T1 run.  Each run's rates must leave a usable correction
    denominator: fp + fn <= 1 - DENOM_EPS.
    """

    fp0: float
    fn0: float
    fp1: float
    fn1: float

    def __post_init__(self) -> None:
        for name in ("fp0", "fn0", "fp1", "fn1"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0 or value > 1.0:
                raise DegenerateRatesError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)
        if self.fp0 + self.fn0 > 1.0 - DENOM_EPS:
            raise DegenerateRatesError(
                f"fp0 + fn0 = {self.fp0 + self.fn0} leaves no correction denominator"
            )
        if self.fp1 + self.fn1 > 1.0 - DENOM_EPS:
            raise DegenerateRatesError(
                f"fp1 + fn1 = {self.fp1 + self.fn1} leaves no correction denominator"
            )

    @classmethod
    def zero(cls) -> "MisclassRates":
        """Rates of a perfectly specific and sensitive assay."""
        return cls(0.0, 0.0, 0.0, 0.0)


def debias_proportion(p_obs: float, fp: float, fn: float) -> float:
    """Correct an observed positive proportion for misclassification.

    Returns (p_obs - fp) / (1 - fn - fp).  The result is intentionally
    not clipped: values outside [0, 1] signal rates inconsistent with
    the observation and are meaningful to callers that scan over
    candidate rates.

    Raises DegenerateRatesError if 1 - fn - fp < DENOM_EPS.
    """
    denom = 1.0 - fn - fp
    if denom < DENOM_EPS:
        raise DegenerateRatesError(
            f"fp={fp} and fn={fn} leave correction denominator {denom}"
        )
    return (p_obs - fp) / denom


def _pooled_z_arrays(x0, N0, x1, N1, fp0, fn0, fp1, fn1):
    """Vectorized pooled z on the corrected scale.

    Counts are scalars; rate arguments may be scalars or arrays.  Where
    the pooled variance estimate is not positive, the statistic is
    +/-inf carrying the sign of the corrected difference, and 0.0 when
    that difference is itself zero.  Entries whose correction
    denominator falls below DENOM_EPS come back as NaN.
    """
    fp0, fn0 = np.asarray(fp0, dtype=float), np.asarray(fn0, dtype=float)
    fp1, fn1 = np.asarray(fp1, dtype=float), np.asarray(fn1, dtype=float)
    d0 = 1.0 - fn0 - fp0
    d1 = 1.0 - fn1 - fp1
    usable = (d0 >= DENOM_EPS) & (d1 >= DENOM_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        q0 = (x0 / N0 - fp0) / d0
        q1 = (x1 / N1 - fp1) / d1
        diff = q1 - q0
        pooled = (N1 * q1 + N0 * q0) / (N0 + N1)
        var = pooled * (1.0 - pooled) * (1.0 / N1 + 1.0 / N0)
        z = diff / np.sqrt(var)
    z = np.where(
        var > 0.0,
        z,
        np.where(diff > 0.0, np.inf, np.where(diff < 0.0, -np.inf, 0.0)),
    )
    return np.where(usable, z, np.nan)


def control_z(counts: AssayCounts, theta: MisclassRates) -> float:
    """Pooled z for the corrected control proportions at T1 versus T0.

    Under candidate rates theta, the corrected control proportions at
    the two timepoints estimate the same quantity, so this statistic
    measures how strongly the paired controls contradict theta.
    """
    return float(_pooled_z_arrays(counts.c0, counts.C0, counts.c1, counts.C1,
                                  theta.fp0, theta.fn0, theta.fp1, theta.fn1))


def responder_z(counts: AssayCounts, theta: MisclassRates) -> float:
    """Pooled z for the corrected primary proportions at T1 versus T0."""
    return float(_pooled_z_arrays(counts.n0, counts.N0, counts.n1, counts.N1,
                                  theta.fp0, theta.fn0, theta.fp1, theta.fn1))


def p_value_arrays(x0, N0, x1, N1, fp0, fn0, fp1, fn1):
    """Vectorized one-sided upper-tail p-values on the corrected scale.

    NaN propagates from unusable correction denominators; infinite
    statistics map to 0.0 and 1.0.
    """
    z = _pooled_z_arrays(x0, N0, x1, N1, fp0, fn0, fp1, fn1)
    return np.clip(ndtr(-z), 0.0, 1.0)


def p_value_at(counts: AssayCounts, theta: MisclassRates) -> float:
    """One-sided p-value for a T1 increase, at candidate rates theta.

    Computed as the upper-tail normal probability of responder_z and
    clamped to [0, 1]; an infinite statistic maps to 0 or 1.
    """
    return float(p_value_arrays(counts.n0, counts.N0, counts.n1, counts.N1,
                                theta.fp0, theta.fn0, theta.fp1, theta.fn1))


def unadjusted_p(counts: AssayCounts) -> float:
    """One-sided p-value ignoring misclassification entirely.

    Equals the textbook pooled two-proportion z-test on the raw primary
    counts, i.e. p_value_at with all rates zero.
    """
    return p_value_at(counts, MisclassRates.zero())
