"""Seeded synthetic inputs drawn from the paper's simulation model.

A participant is a responder with probability 1/2; the T0 positive share is
Beta(1, 500) and a responder's T1 share is GAMMA times larger.  Each run's
false negative rate is one Beta(1, 5) draw shared by both timepoints, and
the false positive rates follow the row's run-effect scenario.  Generic
control material has the positive share tied to its panel size; negative
control material has none.  Every count is Binomial(total, p(1 - fn) +
(1 - p)fp).  Panel sizes vary by +/-20% around the row's nominal size.

The same (seed, name) always gives the same file.  Nothing here imports
the package: it receives only the CSV files written below.
"""

from __future__ import annotations

import csv
import zlib

import numpy as np

GAMMA = 2.0
MIN_TOTAL = 10_000  # the package's default per-protocol floor

# control panel size -> positive share of generic control material
GENERIC_CONTROL_SHARE = {1_000: 0.03, 10_000: 0.005, 50_000: 0.002, 100_000: 0.001}

# run-effect scenario -> Beta parameters of (fp0, fp1)
FP_BETA = {
    "II": ((1.0, 2000.0), (2.0, 2000.0)),
    "III": ((3.0, 2000.0), (6.0, 2000.0)),
    "IV": ((1.0, 2000.0), (5.0, 2000.0)),
}

# (control kind, nominal primary panel, nominal control panel, scenario).
# Four rows pass the per-protocol floor and two (5,000 cells) do not.
STUDY_MIX = (
    ("generic", 50_000, 10_000, "II"),
    ("negative", 100_000, 50_000, "III"),
    ("generic", 100_000, 100_000, "IV"),
    ("negative", 20_000, 1_000, "II"),
    ("generic", 5_000, 10_000, "III"),
    ("negative", 5_000, 10_000, "IV"),
)

# One row above the floor and one below, for studies analysed on 4.5M-point grids.
SEPARATE_FN_MIX = {
    kind: ((kind, 50_000, 10_000, "III"), (kind, 5_000, 10_000, "II"))
    for kind in ("generic", "negative")
}

MARKERS = ("IFNg", "IL2", "TNFa")
HEADER = ("participant_id", "n0", "N0", "n1", "N1", "c0", "C0", "c1", "C1", "control_kind", "marker")


def _participant(rng: np.random.Generator, kind: str, n_primary: int, n_control: int, scenario: str):
    responder = rng.random() < 0.5
    p_t0 = rng.beta(1.0, 500.0)
    p_t1 = min(GAMMA * p_t0, 1.0) if responder else p_t0
    fn = rng.beta(1.0, 5.0)
    (a0, b0), (a1, b1) = FP_BETA[scenario]
    fp0, fp1 = rng.beta(a0, b0), rng.beta(a1, b1)
    p_control = 0.0 if kind == "negative" else GENERIC_CONTROL_SHARE[n_control]
    N0, N1 = (int(round(n_primary * rng.uniform(0.8, 1.2))) for _ in range(2))
    C0, C1 = (int(round(n_control * rng.uniform(0.8, 1.2))) for _ in range(2))

    def count(total: int, p: float, fp: float) -> int:
        return int(rng.binomial(total, p * (1.0 - fn) + (1.0 - p) * fp))

    return {
        "n0": count(N0, p_t0, fp0), "N0": N0,
        "n1": count(N1, p_t1, fp1), "N1": N1,
        "c0": count(C0, p_control, fp0), "C0": C0,
        "c1": count(C1, p_control, fp1), "C1": C1,
    }


def write_study(path: str, seed: int, name: str, mix) -> list[str]:
    """Write one study CSV for the rows of mix; return ids above the floor."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    kept = []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for j, (kind, n_primary, n_control, scenario) in enumerate(mix):
            counts = _participant(rng, kind, n_primary, n_control, scenario)
            pid = f"{name}-p{j}"
            writer.writerow([pid, *counts.values(), kind, MARKERS[j % len(MARKERS)]])
            if min(counts["N0"], counts["N1"]) >= MIN_TOTAL:
                kept.append(pid)
    return kept
