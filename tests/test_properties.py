"""Properties of the confidence-set p-value bracket that hold for any counts."""

import numpy as np
import pytest

from respondercall import AssayCounts, SetConfig, SimulationConfig, build_grid, draw_instance


def reversed_in_time(counts: AssayCounts) -> AssayCounts:
    """counts with T0 and T1 swapped, in the primary and the control samples."""
    return AssayCounts(counts.n1, counts.N1, counts.n0, counts.N0,
                       counts.c1, counts.C1, counts.c0, counts.C0)


def assert_time_reversal(counts: AssayCounts, config: SetConfig, equal_fn: bool) -> None:
    # Swapping T0 and T1 maps the set onto itself, with (fp0, fn0) and
    # (fp1, fn1) traded, and turns every p_theta into 1 - p_theta.
    grid = build_grid(counts, config, assume_equal_fn=equal_fn)
    mirror = build_grid(reversed_in_time(counts), config, assume_equal_fn=equal_fn)
    assert mirror.nonempty == grid.nonempty
    if grid.nonempty:
        assert mirror.sup_p == pytest.approx(1.0 - grid.inf_p, abs=1e-12)
        assert mirror.inf_p == pytest.approx(1.0 - grid.sup_p, abs=1e-12)


def simulated_participants() -> list[AssayCounts]:
    rng = np.random.default_rng(20240101)
    participants = []
    for scenario in ("I", "II", "III"):
        for n_control in (1_000, 10_000):
            config = SimulationConfig(scenario=scenario, gamma=2.0, n_control=n_control,
                                      reps=1)
            participants += [draw_instance(config, rng)[0] for _ in range(4)]
    return participants


def unrefined(alpha: float, kind: str, interval: str, equal_fn: bool) -> SetConfig:
    """A 41 x 5 grid with no refinement rounds, so every level shares its points."""
    return SetConfig(alpha=alpha, control_kind=kind, delta0=0.0 if equal_fn else 0.1,
                     grid_fp=41, grid_fn=5, refine_levels=0, interval=interval)


@pytest.mark.parametrize("kind", ["generic", "negative"])
@pytest.mark.parametrize("interval", ["wilson", "clopper-pearson"])
@pytest.mark.parametrize("equal_fn", [True, False])
def test_time_reversal_maps_the_bracket_onto_its_mirror(kind, interval, equal_fn):
    # On an unrefined grid the fp axes are shared, and so are the fn axes.
    config = unrefined(0.05, kind, interval, equal_fn)
    for counts in simulated_participants():
        assert_time_reversal(counts, config, equal_fn)


@pytest.mark.parametrize("kind", ["generic", "negative"])
@pytest.mark.parametrize("interval", ["wilson", "clopper-pearson"])
@pytest.mark.parametrize("equal_fn", [True, False])
def test_a_lower_level_set_contains_the_higher_level_set(kind, interval, equal_fn):
    # A(0.05) lies inside A(0.005) point by point, so the wider set's
    # [inf_p, sup_p] contains the narrower set's.
    for counts in simulated_participants():
        narrow = build_grid(counts, unrefined(0.05, kind, interval, equal_fn), equal_fn)
        wide = build_grid(counts, unrefined(0.005, kind, interval, equal_fn), equal_fn)
        assert np.all(narrow.in_set <= wide.in_set)
        if narrow.nonempty:
            assert wide.inf_p <= narrow.inf_p <= narrow.sup_p <= wide.sup_p


@pytest.mark.xfail(strict=True, reason="refinement centres on the first of tied "
                   "extremes in evaluation order, which swapping T0 and T1 does not keep")
def test_time_reversal_after_refinement():
    # The base grid's inf ties at 343 points and the mirror's sup at 451; the
    # first of each is not the other's mirror image, so the rounds search
    # different neighbourhoods: the original reaches sup 1.0, the mirror's inf
    # stops at 0.0548.
    counts = AssayCounts(89, 50_000, 105, 50_000, 127, 50_000, 124, 50_000)
    assert_time_reversal(counts, SetConfig(alpha=0.005), True)
