"""Misclassification-adjusted p-values for a single participant.

Two adjustments of the unadjusted one-sided p-value p* are computed by
scanning the primary p-value p_theta over a confidence set of
misclassification rates built from the paired controls:

* maximally adjusted: min(1, sup p_theta + alpha_prime) over the set at
  level alpha_prime.  Worst case over every rate vector the controls
  cannot rule out, plus the budget spent ruling the others out; valid
  whenever the controls carry the run effects.  An empty set yields 1.

* minimally adjusted: the in-set p_theta closest to p*, over the set at
  level alpha.  Every in-set value lies in [inf p_theta, sup p_theta],
  so this is p* clamped to that range: exactly p* when it already lies
  within it, otherwise the nearer endpoint.  Best case in the sense of
  changing p* as little as the controls allow; undefined (None) when
  the set is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .debias import AssayCounts, unadjusted_p
from .nuisance import SetConfig, build_grid

__all__ = ["ResponderResult", "analyze_participant"]


@dataclass(frozen=True)
class ResponderResult:
    """All per-participant p-values plus set diagnostics.

    set_nonempty and p_range describe the level-alpha_prime set used by
    the maximal adjustment; unadjusted_in_set reports whether p* lies
    within the in-set p-value bracket of the level-alpha set used by
    the minimal adjustment.
    """

    p_unadjusted: float
    p_max_adjusted: float
    p_min_adjusted: float | None
    alpha: float
    alpha_prime: float
    set_nonempty: bool
    p_range: tuple[float, float] | None
    unadjusted_in_set: bool


def analyze_participant(
    counts: AssayCounts,
    config_max: SetConfig,
    config_min: SetConfig,
    assume_equal_fn: bool = True,
) -> ResponderResult:
    """Compute unadjusted, maximally and minimally adjusted p-values.

    config_max.alpha is the alpha_prime of the maximal adjustment and
    config_min.alpha the level of the minimal adjustment's set; the two
    configurations usually differ only in alpha.  For both adjustments
    at a single level, pass the same configuration twice.
    """
    p_star = unadjusted_p(counts)
    grid = build_grid(counts, config_max, assume_equal_fn=assume_equal_fn)
    p_range = (grid.inf_p, grid.sup_p) if grid.nonempty else None
    del grid  # one grid alive at a time: free this one before the next is built
    grid = build_grid(counts, config_min, assume_equal_fn=assume_equal_fn)
    p_min = min(max(p_star, grid.inf_p), grid.sup_p) if grid.nonempty else None
    return ResponderResult(
        p_unadjusted=p_star,
        p_max_adjusted=min(1.0, p_range[1] + config_max.alpha) if p_range else 1.0,
        p_min_adjusted=p_min,
        alpha=config_min.alpha,
        alpha_prime=config_max.alpha,
        set_nonempty=p_range is not None,
        p_range=p_range,
        # The clamp leaves p* unchanged exactly when it lies in the bracket.
        unadjusted_in_set=p_min == p_star,
    )
