"""Confidence sets of misclassification rates consistent with controls.

The paired control samples were processed in the same runs as the
primary samples, so they carry the same per-run misclassification
rates.  Rates theta = (fp0, fn0, fp1, fn1) that the controls cannot
reject at level alpha form a confidence set A(alpha); scanning the
primary p-value over that set is what the adjustment procedures in
:mod:`respondercall.adjust` do.

Two kinds of control are supported:

* ``generic``: the control material has an unknown positive proportion
  that is stable across timepoints.  theta is in the set when the
  pooled z of the corrected control proportions satisfies
  |z| <= ndtri(1 - alpha/2).

* ``negative``: the control material is known truly negative, so each
  timepoint's control directly estimates that run's false positive
  rate.  theta is in the set when fp0 and fp1 each lie in a two-sided
  level-(1 - alpha/2) binomial interval for their control count, the
  two intervals sharing the alpha budget.

Both kinds additionally constrain |fn0 - fn1| <= delta0; the false
negative rates are otherwise unidentified by controls and are bounded
only by the grid limits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator

import numpy as np
from scipy.special import betaincinv, ndtri

from .debias import (
    DENOM_EPS,
    AssayCounts,
    MisclassRates,
    _pooled_z_arrays,
    p_value_arrays as _p_value_arrays,
)

__all__ = [
    "ControlKind",
    "SetConfig",
    "NuisanceGrid",
    "wilson_interval",
    "clopper_pearson_interval",
    "in_confidence_set",
    "default_fp_max",
    "build_grid",
]


class ControlKind(str, Enum):
    GENERIC = "generic"
    NEGATIVE = "negative"


_INTERVALS = ("wilson", "clopper-pearson")
_SLAB_POINTS = 2**18  # points per base-mesh slab: bounds evaluation temporaries
_ROW_BLOCK = 8192  # lines per block of surface CSV text: bounds the text held at once
# Base-mesh points a grid may ask for: at 9 bytes a point (a membership flag
# and a p-value), 2**27 points hold about 1.2 GB.
_MAX_GRID_POINTS = 2**27


@dataclass(frozen=True)
class SetConfig:
    """Configuration of the confidence set and its search grid.

    fp_max of None means "derive from the control counts" via
    :func:`default_fp_max` when the grid is built.  grid_fp and grid_fn
    are the number of grid values per false positive / false negative
    axis; refine_levels local refinement rounds are run around the
    in-set extremes of the primary p-value, halving the grid spacing
    each round.
    """

    alpha: float
    control_kind: ControlKind = ControlKind.GENERIC
    delta0: float = 0.0
    fp_max: float | None = None
    fn_max: float = 0.5
    grid_fp: int = 101
    grid_fn: int = 21
    refine_levels: int = 2
    interval: str = "wilson"

    def __post_init__(self) -> None:
        object.__setattr__(self, "control_kind", ControlKind(self.control_kind))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 <= self.delta0 <= 1.0:
            raise ValueError(f"delta0 must lie in [0, 1], got {self.delta0}")
        if self.fp_max is not None and not 0.0 <= self.fp_max <= 1.0:
            raise ValueError(f"fp_max must lie in [0, 1], got {self.fp_max}")
        if not 0.0 <= self.fn_max <= 1.0:
            raise ValueError(f"fn_max must lie in [0, 1], got {self.fn_max}")
        if self.grid_fp < 2:
            raise ValueError(f"grid_fp must be at least 2, got {self.grid_fp}")
        if self.grid_fn < 2:
            raise ValueError(f"grid_fn must be at least 2, got {self.grid_fn}")
        if self.refine_levels < 0:
            raise ValueError("refine_levels must be non-negative")
        if self.interval not in _INTERVALS:
            raise ValueError(f"interval must be one of {_INTERVALS}")


def set_config_pair(
    settings, control_kind: ControlKind = ControlKind.GENERIC
) -> tuple[SetConfig, SetConfig]:
    """(maximal-adjustment, minimal-adjustment) set configurations.

    settings is an AnalysisConfig or a SimulationConfig.  The two sets
    are at its alpha_prime and alpha levels and share its other fields
    named after SetConfig fields; a field it lacks keeps the SetConfig
    default.  Building the pair validates every level and grid setting;
    a bad level is named after the settings field that holds it.
    """
    for name in ("alpha_prime", "alpha"):
        level = getattr(settings, name)
        if not 0.0 < level < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {level}")
    shared = {
        f.name: getattr(settings, f.name)
        for f in fields(SetConfig)
        if f.name != "alpha" and hasattr(settings, f.name)
    }
    return (
        SetConfig(alpha=settings.alpha_prime, control_kind=control_kind, **shared),
        SetConfig(alpha=settings.alpha, control_kind=control_kind, **shared),
    )


def _check_grid_points(grid_fp: int, grid_fn: int, equal_fn: bool) -> None:
    """Refuse a base mesh of more than _MAX_GRID_POINTS points, before any is made.

    The mesh has grid_fp**2 * grid_fn points with a shared fn axis and
    grid_fp**2 * grid_fn**2 with separate fn axes.
    """
    points = grid_fp**2 * grid_fn ** (1 if equal_fn else 2)
    if points > _MAX_GRID_POINTS:
        axes = "shared" if equal_fn else "separate"
        raise ValueError(
            f"grid_fp={grid_fp} and grid_fn={grid_fn} with {axes} fn axes ask for "
            f"{points} grid points; at most {_MAX_GRID_POINTS} (2**27) are allowed"
        )


def wilson_interval(x: int, n: int, confidence: float) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if n < 1 or not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n with n >= 1, got x={x}, n={n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = float(ndtri((1.0 + confidence) / 2.0))
    phat = x / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
    # At the boundary counts the score equation has an exact root at 0 or
    # 1; compute those directly so rounding cannot nudge the bound past it.
    lo = 0.0 if x == 0 else max(0.0, center - half)
    hi = 1.0 if x == n else min(1.0, center + half)
    return (lo, hi)


def clopper_pearson_interval(x: int, n: int, confidence: float) -> tuple[float, float]:
    """Two-sided Clopper-Pearson (exact) interval for a binomial proportion."""
    if n < 1 or not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n with n >= 1, got x={x}, n={n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    a = (1.0 - confidence) / 2.0
    # Beta quantiles: betaincinv(a, b, q) is the q-quantile of Beta(a, b).
    lo = 0.0 if x == 0 else float(betaincinv(x, n - x + 1, a))
    hi = 1.0 if x == n else float(betaincinv(x + 1, n - x, 1.0 - a))
    return (lo, hi)


def default_fp_max(counts: AssayCounts) -> float:
    """Default upper grid bound for the false positive axes.

    Five times the larger observed control proportion plus a 10-count
    allowance at the smaller control total, capped at 0.5.  This keeps
    the grid comfortably wider than any rate the controls could fail
    to reject.
    """
    top = max(counts.c0 / counts.C0, counts.c1 / counts.C1)
    return min(0.5, 5.0 * top + 10.0 / min(counts.C0, counts.C1))


def _fp_bounds(counts: AssayCounts, config: SetConfig) -> tuple[
    tuple[float, float], tuple[float, float]
]:
    """Per-timepoint acceptance intervals for fp under a negative control."""
    confidence = 1.0 - config.alpha / 2.0
    interval = (
        wilson_interval if config.interval == "wilson" else clopper_pearson_interval
    )
    return (
        interval(counts.c0, counts.C0, confidence),
        interval(counts.c1, counts.C1, confidence),
    )


def _membership_arrays(counts: AssayCounts, config: SetConfig, fp0, fn0, fp1, fn1):
    """Vectorized set membership for candidate rate arrays."""
    fp0, fn0 = np.asarray(fp0, dtype=float), np.asarray(fn0, dtype=float)
    fp1, fn1 = np.asarray(fp1, dtype=float), np.asarray(fn1, dtype=float)
    usable = (1.0 - fn0 - fp0 >= DENOM_EPS) & (1.0 - fn1 - fp1 >= DENOM_EPS)
    close_fn = np.abs(fn0 - fn1) <= config.delta0
    if config.control_kind is ControlKind.NEGATIVE:
        (lo0, hi0), (lo1, hi1) = _fp_bounds(counts, config)
        inside = (fp0 >= lo0) & (fp0 <= hi0) & (fp1 >= lo1) & (fp1 <= hi1)
    else:
        crit = float(ndtri(1.0 - config.alpha / 2.0))
        z = _pooled_z_arrays(
            counts.c0, counts.C0, counts.c1, counts.C1, fp0, fn0, fp1, fn1
        )
        # NaN z (unusable denominator) correctly compares False here.
        with np.errstate(invalid="ignore"):
            inside = np.abs(z) <= crit
    return usable & close_fn & inside


def in_confidence_set(
    counts: AssayCounts, theta: MisclassRates, config: SetConfig
) -> bool:
    """Whether the controls fail to reject theta at the configured level."""
    return bool(
        _membership_arrays(counts, config, theta.fp0, theta.fn0, theta.fp1, theta.fn1)
    )


@dataclass(frozen=True, eq=False)
class NuisanceGrid:
    """Evaluated rate grid: membership and primary p-value per point.

    Points are in evaluation order: the base mesh, then each refinement
    block, each stored as its (fp0, fn0, fp1, fn1) axis values and
    enumerated as :func:`_mesh` does.  Points may repeat where clipped
    refinement points coincide, so n_points counts evaluated points;
    to_rows gives the distinct points sorted; no per-point rate column
    is kept.  p_theta is NaN at points whose correction denominator is
    unusable; such points are never in the set.  sup_p and inf_p are
    None exactly when the set is empty.  Grids compare and hash by
    identity.
    """

    meshes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    equal_fn: bool
    in_set: np.ndarray
    p_theta: np.ndarray
    sup_p: float | None
    inf_p: float | None

    @property
    def nonempty(self) -> bool:
        return self.sup_p is not None

    @property
    def n_points(self) -> int:
        return int(self.in_set.size)

    def to_rows(self) -> Iterator[str]:
        """Yield the surface export as CSV text, in blocks of whole lines.

        The header line comes first, then one
        ``fp0,fn0,fp1,fn1,in_set,p_theta`` line per distinct grid point,
        sorted by (fp0, fn0, fp1, fn1), at most _ROW_BLOCK lines per
        block; of duplicated points the first evaluated is kept.  Cells
        are the repr of each value and in_set is 0 or 1.
        """
        yield "fp0,fn0,fp1,fn1,in_set,p_theta\n"
        # Each column's distinct values are its axes' values.  A point's
        # value ranks (codes) per column give one integer key whose order
        # is the rows' lexicographic order.  In equal_fn mode _mesh reads
        # the fn0 axes for both fn columns.
        sources = (0, 1, 2, 1 if self.equal_fn else 3)
        values = [np.unique(np.concatenate([m[s] for m in self.meshes])) for s in sources]
        dims = tuple(v.size for v in values)
        key = np.concatenate([
            np.ravel_multi_index(
                _mesh(*map(np.searchsorted, values, axes), self.equal_fn), dims
            )
            for axes in self.meshes
        ])
        key, keep = np.unique(key, return_index=True)
        # Each distinct rate gets one repr; only p_theta needs one per line.
        labels = [np.array(list(map(repr, v.tolist())), dtype=object) for v in values]
        for start in range(0, key.size, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            codes = np.unravel_index(key[block], dims)
            cells = [label[code].tolist() for label, code in zip(labels, codes)]
            flags = self.in_set[keep[block]].astype(np.int8).tolist()
            p_theta = self.p_theta[keep[block]].tolist()
            yield "".join(
                f"{fp0},{fn0},{fp1},{fn1},{flag},{p!r}\n"
                for fp0, fn0, fp1, fn1, flag, p in zip(*cells, flags, p_theta)
            )


def _axis(limit: float, n: int) -> np.ndarray:
    return np.unique(np.linspace(0.0, limit, n))


def _local_values(center: float, step: float, limit: float) -> np.ndarray:
    if step <= 0.0:
        return np.array([center])
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    return np.clip(center + offsets, 0.0, limit)


def _mesh(fp0_vals, fn0_vals, fp1_vals, fn1_vals, equal_fn: bool):
    """Flat fp0, fn0, fp1, fn1 columns of the product of the axis values.

    With equal_fn the fn axes are one shared axis, fn0_vals (fn1_vals is
    not used), enumerated in (fp0, fp1, fn) order; otherwise the four
    axes are enumerated in (fp0, fn0, fp1, fn1) order.
    """
    if equal_fn:
        g0, g1, gn = np.meshgrid(fp0_vals, fp1_vals, fn0_vals, indexing="ij")
        return g0.ravel(), gn.ravel(), g1.ravel(), gn.ravel()
    grids = np.meshgrid(fp0_vals, fn0_vals, fp1_vals, fn1_vals, indexing="ij")
    return tuple(g.ravel() for g in grids)


def _point(meshes, equal_fn: bool, i: int) -> tuple[float, float, float, float]:
    """(fp0, fn0, fp1, fn1) of point i, 0 <= i < n_points, of the meshes."""
    # fp0 leads both enumeration orders: one fp0 value's points give the rest.
    for fp0_vals, *others in meshes:
        _, *rest = _mesh(fp0_vals[:1], *others, equal_fn)
        size = fp0_vals.size * rest[0].size
        if i < size:
            k, j = divmod(i, rest[0].size)
            return (float(fp0_vals[k]), *(float(column[j]) for column in rest))
        i -= size
    raise IndexError(i)


def build_grid(
    counts: AssayCounts, config: SetConfig, assume_equal_fn: bool = True
) -> NuisanceGrid:
    """Enumerate and evaluate the rate grid for one participant.

    With assume_equal_fn the false negative axes collapse to a single
    shared axis (fn0 = fn1 everywhere); otherwise fn0 and fn1 vary
    independently and points with |fn0 - fn1| > delta0 are simply
    flagged out of the set.  After the base rectangular enumeration,
    refine_levels rounds add local points around the in-set argmax and
    argmin of the primary p-value, halving the axis spacing each round,
    so the reported [inf_p, sup_p] bracket can only widen.  Points are
    kept in evaluation order, neither sorted nor deduplicated; the base
    mesh is evaluated in slabs of consecutive fp0 values.
    """
    _check_grid_points(config.grid_fp, config.grid_fn, assume_equal_fn)
    fp_max = config.fp_max if config.fp_max is not None else default_fp_max(counts)
    fn_max = config.fn_max
    fp_axis = _axis(fp_max, config.grid_fp)
    fn_axis = _axis(fn_max, config.grid_fn)
    step_fp = float(fp_axis[1] - fp_axis[0]) if fp_axis.size > 1 else 0.0
    step_fn = float(fn_axis[1] - fn_axis[0]) if fn_axis.size > 1 else 0.0

    def evaluate(fp0, fn0, fp1, fn1):
        member = _membership_arrays(counts, config, fp0, fn0, fp1, fn1)
        p = _p_value_arrays(counts.n0, counts.N0, counts.n1, counts.N1, fp0, fn0, fp1, fn1)
        return member, p

    meshes = [(fp_axis, fn_axis, fp_axis, fn_axis)]
    per_fp0 = fp_axis.size * fn_axis.size ** (1 if assume_equal_fn else 2)
    in_set = np.empty(fp_axis.size * per_fp0, dtype=bool)
    p_theta = np.empty(in_set.size)
    fp0_per_slab = max(1, _SLAB_POINTS // per_fp0)
    for k in range(0, fp_axis.size, fp0_per_slab):
        fp0_vals = fp_axis[k : k + fp0_per_slab]
        slab = slice(k * per_fp0, (k + fp0_vals.size) * per_fp0)
        in_set[slab], p_theta[slab] = evaluate(
            *_mesh(fp0_vals, fn_axis, fp_axis, fn_axis, assume_equal_fn)
        )

    for level in range(1, config.refine_levels + 1):
        members = np.flatnonzero(in_set)
        if not members.size:
            break
        h_fp = step_fp / 2.0**level
        h_fn = step_fn / 2.0**level
        # Members never have NaN p_theta; argmax/argmin take the first tie.
        in_p = p_theta[members]
        targets = {int(members[np.argmax(in_p)]), int(members[np.argmin(in_p)])}
        steps, limits = (h_fp, h_fn, h_fp, h_fn), (fp_max, fn_max, fp_max, fn_max)
        blocks = [
            tuple(map(_local_values, _point(meshes, assume_equal_fn, i), steps, limits))
            for i in sorted(targets)
        ]
        meshes += blocks
        columns = [_mesh(*axes, assume_equal_fn) for axes in blocks]
        new_in, new_p = evaluate(*(np.concatenate(c) for c in zip(*columns)))
        in_set = np.concatenate([in_set, new_in])
        p_theta = np.concatenate([p_theta, new_p])

    selected = p_theta[in_set]
    return NuisanceGrid(
        meshes=tuple(meshes),
        equal_fn=assume_equal_fn,
        in_set=in_set,
        p_theta=p_theta,
        sup_p=float(selected.max()) if selected.size else None,
        inf_p=float(selected.min()) if selected.size else None,
    )
