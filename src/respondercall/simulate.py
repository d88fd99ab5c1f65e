"""Synthetic studies for operating-characteristic estimates.

Each replication simulates one participant.  A coin with success
probability responder_prob decides responder status; the T0 positive
proportion is Beta(1, 500) and responders multiply it by gamma at T1
(capped at 1).  A shared false negative rate is Beta(1, 5).  False
positive rates follow the scenario:

    I    one Beta(1, 2000) draw shared by both timepoints (no run effect)
    II   fp0 ~ Beta(1, 2000), fp1 ~ Beta(2, 2000), independent
    III  fp0 ~ Beta(3, 2000), fp1 ~ Beta(6, 2000), independent
    IV   fp0 ~ Beta(1, 2000), fp1 ~ Beta(5, 2000), independent

The paired control material has a fixed true positive proportion tied
to the control total (larger panels pair with rarer analytes), and
every observed count is Binomial(total, p(1 - fn) + (1 - p)fp) with the
run's rates applied to primary and control alike.

Reported rates are percentages of all replications: with the default
responder_prob of 0.5, a perfectly calibrated level-alpha test shows a
type-I column near 100 * alpha / 2 and a power column capped near 50.
Replications draw from independent child streams of one seed sequence
and are reduced in replication order, so results are bit-identical for
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import ordered_map
from .adjust import analyze_participant
from .debias import AssayCounts, MisclassRates, p_value_at
from .nuisance import SetConfig, set_config_pair

__all__ = [
    "SCENARIOS",
    "CONTROL_PROPORTION",
    "SimulationConfig",
    "InstanceTruth",
    "Replication",
    "SimulationSummary",
    "draw_instance",
    "run_replications",
    "summarize",
    "run_cell",
]

# scenario -> (fp0 Beta params, fp1 Beta params, shared draw)
SCENARIOS: dict[str, tuple[tuple[float, float], tuple[float, float], bool]] = {
    "I": ((1.0, 2000.0), (1.0, 2000.0), True),
    "II": ((1.0, 2000.0), (2.0, 2000.0), False),
    "III": ((3.0, 2000.0), (6.0, 2000.0), False),
    "IV": ((1.0, 2000.0), (5.0, 2000.0), False),
}

# control panel size -> true positive proportion of the control material
CONTROL_PROPORTION: dict[int, float] = {
    1_000: 0.03,
    10_000: 0.005,
    50_000: 0.002,
    100_000: 0.001,
}


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation cell: scenario, effect size and panel sizes.

    p_control of None looks the control proportion up from
    CONTROL_PROPORTION by n_control; pass it explicitly for totals
    outside that table.  The grid settings configure the adjustment
    procedures run inside each replication (rates assumed equal across
    timepoints for fn, i.e. a shared fn axis with delta0 = 0).
    """

    scenario: str
    gamma: float
    n_control: int
    reps: int
    seed: int = 20240101
    n_primary: int = 50_000
    responder_prob: float = 0.5
    alpha: float = 0.05
    alpha_prime: float = 0.005
    p_control: float | None = None
    fn_max: float = SetConfig.fn_max
    grid_fp: int = 51
    grid_fn: int = SetConfig.grid_fn
    refine_levels: int = 1

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {sorted(SCENARIOS)}, got {self.scenario!r}"
            )
        if not self.gamma > 1.0:  # NaN fails this test too
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if self.n_primary < 1 or self.n_control < 1:
            raise ValueError("n_primary and n_control must be at least 1")
        if not 0.0 <= self.responder_prob <= 1.0:
            raise ValueError(
                f"responder_prob must lie in [0, 1], got {self.responder_prob}"
            )
        if self.p_control is None and self.n_control not in CONTROL_PROPORTION:
            raise ValueError(
                f"no control proportion on file for n_control={self.n_control}; "
                f"known totals are {sorted(CONTROL_PROPORTION)} (or pass p_control)"
            )
        if self.p_control is not None and not 0.0 < self.p_control < 1.0:
            raise ValueError(f"p_control must lie in (0, 1), got {self.p_control}")
        set_config_pair(self)

    @property
    def control_proportion(self) -> float:
        if self.p_control is not None:
            return self.p_control
        return CONTROL_PROPORTION[self.n_control]


@dataclass(frozen=True)
class InstanceTruth:
    """Generating quantities behind one simulated participant."""

    responder: bool
    p_t0: float
    p_t1: float
    theta: MisclassRates
    p_control: float


@dataclass(frozen=True)
class Replication:
    """All four p-values of one replication; oracle is the test at the true rates."""

    responder: bool
    p_unadjusted: float
    p_max_adjusted: float
    p_min_adjusted: float | None
    p_oracle: float


@dataclass(frozen=True)
class SimulationSummary:
    """Rates (percent of replications) per calling procedure.

    n_min_undefined replications had an empty level-alpha set; they are
    excluded from the minimally adjusted denominators only.
    """

    scenario: str
    n_control: int
    gamma: float
    reps: int
    seed: int
    n_responders: int
    n_nonresponders: int
    n_min_undefined: int
    unadjusted_type1: float
    unadjusted_power: float
    max_adjusted_type1: float
    max_adjusted_power: float
    min_adjusted_type1: float
    min_adjusted_power: float
    oracle_type1: float
    oracle_power: float


def _contaminate(p: float, fp: float, fn: float) -> float:
    return p * (1.0 - fn) + (1.0 - p) * fp


def draw_instance(
    config: SimulationConfig, rng: np.random.Generator
) -> tuple[AssayCounts, InstanceTruth]:
    """Draw one simulated participant.

    The draw order is a compatibility contract (changing it changes
    seeded streams): responder coin, p_t0, fn, fp draw(s), then the
    binomial counts n0, n1, c0, c1.
    """
    fp0_params, fp1_params, shared = SCENARIOS[config.scenario]
    responder = bool(rng.random() < config.responder_prob)
    p_t0 = float(rng.beta(1.0, 500.0))
    p_t1 = min(config.gamma * p_t0, 1.0) if responder else p_t0
    fn = float(rng.beta(1.0, 5.0))
    if shared:
        fp0 = fp1 = float(rng.beta(*fp0_params))
    else:
        fp0 = float(rng.beta(*fp0_params))
        fp1 = float(rng.beta(*fp1_params))
    p_control = config.control_proportion
    n0 = int(rng.binomial(config.n_primary, _contaminate(p_t0, fp0, fn)))
    n1 = int(rng.binomial(config.n_primary, _contaminate(p_t1, fp1, fn)))
    c0 = int(rng.binomial(config.n_control, _contaminate(p_control, fp0, fn)))
    c1 = int(rng.binomial(config.n_control, _contaminate(p_control, fp1, fn)))
    counts = AssayCounts(
        n0=n0, N0=config.n_primary, n1=n1, N1=config.n_primary,
        c0=c0, C0=config.n_control, c1=c1, C1=config.n_control,
    )
    truth = InstanceTruth(
        responder=responder,
        p_t0=p_t0,
        p_t1=p_t1,
        theta=MisclassRates(fp0, fn, fp1, fn),
        p_control=p_control,
    )
    return counts, truth


def _replicate(
    config: SimulationConfig,
    config_max: SetConfig,
    config_min: SetConfig,
    seed_seq: np.random.SeedSequence,
) -> Replication:
    rng = np.random.default_rng(seed_seq)
    counts, truth = draw_instance(config, rng)
    result = analyze_participant(counts, config_max, config_min, assume_equal_fn=True)
    return Replication(
        responder=truth.responder,
        p_unadjusted=result.p_unadjusted,
        p_max_adjusted=result.p_max_adjusted,
        p_min_adjusted=result.p_min_adjusted,
        p_oracle=p_value_at(counts, truth.theta),
    )


def run_replications(config: SimulationConfig) -> list[Replication]:
    """Run all replications of one cell, in replication order."""
    children = np.random.SeedSequence(config.seed).spawn(config.reps)
    config_max, config_min = set_config_pair(config)
    return ordered_map(
        lambda child: _replicate(config, config_max, config_min, child), children
    )


def summarize(replications: list[Replication], config: SimulationConfig) -> SimulationSummary:
    """Declaration rates at level config.alpha, as percent of replications."""
    rates: dict[str, float] = {}
    for name in ("unadjusted", "max_adjusted", "min_adjusted", "oracle"):
        # Replications with an undefined p-value leave this denominator.
        defined = [r for r in replications if getattr(r, "p_" + name) is not None]
        declared = [r.responder for r in defined if getattr(r, "p_" + name) <= config.alpha]
        for rate, responder in (("type1", False), ("power", True)):
            rates[f"{name}_{rate}"] = (
                100.0 * declared.count(responder) / len(defined) if defined else float("nan")
            )
    n_responders = sum(r.responder for r in replications)
    return SimulationSummary(
        scenario=config.scenario,
        n_control=config.n_control,
        gamma=config.gamma,
        reps=len(replications),
        seed=config.seed,
        n_responders=n_responders,
        n_nonresponders=len(replications) - n_responders,
        n_min_undefined=sum(r.p_min_adjusted is None for r in replications),
        **rates,
    )


def run_cell(config: SimulationConfig) -> SimulationSummary:
    """Simulate one cell and summarize it."""
    return summarize(run_replications(config), config)
