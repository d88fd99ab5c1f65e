"""Reference computations and output checks, written without the package.

Everything here follows the method's formulas (see the package README and
module docstrings) and never imports ``respondercall``: a fault in the
package cannot hide by being reproduced in its own check.  Scalar values
use ``math`` (the pooled p-value is ``0.5 * erfc(z / sqrt(2))``); whole
grids use NumPy with ``scipy.special.erfc`` for speed.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from statistics import NormalDist

import numpy as np
from scipy.special import erfc

DENOM_EPS = 1e-6  # smallest usable correction denominator 1 - fn - fp
REL_TOL = 1e-9
Z_MARGIN = 1e-9  # control z this close to the critical value counts as boundary
FP_MARGIN = 1e-9  # fp this close to a binomial bound counts as boundary

_COUNT_FIELDS = ("n0", "N0", "n1", "N1", "c0", "C0", "c1", "C1")


def close(a, b, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --- scalar formulas ------------------------------------------------------


def pooled_z(x0, N0, x1, N1, fp0=0.0, fn0=0.0, fp1=0.0, fn1=0.0) -> float:
    """Pooled two-proportion z of corrected T1 versus T0 proportions."""
    d0, d1 = 1.0 - fn0 - fp0, 1.0 - fn1 - fp1
    if d0 < DENOM_EPS or d1 < DENOM_EPS:
        return math.nan
    q0 = (x0 / N0 - fp0) / d0
    q1 = (x1 / N1 - fp1) / d1
    diff = q1 - q0
    pooled = (N1 * q1 + N0 * q0) / (N0 + N1)
    var = pooled * (1.0 - pooled) * (1.0 / N1 + 1.0 / N0)
    if var > 0.0:
        return diff / math.sqrt(var)
    return math.copysign(math.inf, diff) if diff else 0.0


def upper_tail(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def primary_p(c: dict, theta=(0.0, 0.0, 0.0, 0.0)) -> float:
    fp0, fn0, fp1, fn1 = theta
    return upper_tail(pooled_z(c["n0"], c["N0"], c["n1"], c["N1"], fp0, fn0, fp1, fn1))


def control_z(c: dict, theta) -> float:
    fp0, fn0, fp1, fn1 = theta
    return pooled_z(c["c0"], c["C0"], c["c1"], c["C1"], fp0, fn0, fp1, fn1)


def observed(p: float, fp: float, fn: float) -> float:
    """Expected observed positive share of true share p under rates fp, fn."""
    return p * (1.0 - fn) + (1.0 - p) * fp


def corrected(p_obs: float, fp: float, fn: float) -> float:
    return (p_obs - fp) / (1.0 - fn - fp)


def wilson(x: int, n: int, confidence: float) -> tuple[float, float]:
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    phat = x / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z / denom * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    lo = 0.0 if x == 0 else max(0.0, center - half)
    hi = 1.0 if x == n else min(1.0, center + half)
    return lo, hi


def binom_cdf(k: int, n: int, p: float, log_coefs: list[float] | None = None) -> float:
    """P(X <= k) for X ~ Binomial(n, p), summed term by term in log space.

    log_coefs, if given, holds log C(n, i) for i = 0..k.
    """
    if k < 0:
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    if log_coefs is None:
        log_coefs = _log_binom_coefs(n, k)
    lp, lq = math.log(p), math.log1p(-p)
    return min(1.0, sum(math.exp(lc + i * lp + (n - i) * lq) for i, lc in enumerate(log_coefs)))


def _log_binom_coefs(n: int, k: int) -> list[float]:
    base = math.lgamma(n + 1)
    return [base - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(k + 1)]


def _bisect(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Root of a function that is positive at lo and negative at hi."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(x: int, n: int, confidence: float) -> tuple[float, float]:
    """Exact interval by inverting the binomial tails."""
    a = (1.0 - confidence) / 2.0
    coefs = _log_binom_coefs(n, x)
    lo = 0.0 if x == 0 else _bisect(lambda p: a - (1.0 - binom_cdf(x - 1, n, p, coefs[:-1])))
    hi = 1.0 if x == n else _bisect(lambda p: binom_cdf(x, n, p, coefs) - a)
    return lo, hi


def bh_reference(pvalues: list[float], q: float) -> tuple[list[float], list[bool]]:
    """BH adjusted values by their definition, rejections by the step-up rule."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    ranked = [pvalues[i] for i in order]
    adjusted = [0.0] * m
    for r in range(m):
        adjusted[order[r]] = min(min(1.0, m * ranked[s] / (s + 1)) for s in range(r, m))
    k = max((r + 1 for r in range(m) if ranked[r] <= (r + 1) * q / m), default=0)
    cutoff = ranked[k - 1] if k else -1.0
    return adjusted, [p <= cutoff for p in pvalues]


def magnitude(c: dict) -> float:
    at_t1 = max(c["n1"] / c["N1"] - c["c1"] / c["C1"], 0.0)
    at_t0 = max(c["n0"] / c["N0"] - c["c0"] / c["C0"], 0.0)
    return 100.0 * (at_t1 - at_t0)


def default_fp_max(c: dict) -> float:
    top = max(c["c0"] / c["C0"], c["c1"] / c["C1"])
    return min(0.5, 5.0 * top + 10.0 / min(c["C0"], c["C1"]))


def binom_upper_tail(k: int, n: int, p: float) -> float:
    return 1.0 - binom_cdf(k - 1, n, p)


# --- grid formulas --------------------------------------------------------


def grid_p_and_z(c: dict, fp0, fn0, fp1, fn1):
    """Primary p-value and control z at arrays of candidate rates."""

    def z(x0, N0, x1, N1):
        with np.errstate(divide="ignore", invalid="ignore"):
            q0 = (x0 / N0 - fp0) / (1.0 - fn0 - fp0)
            q1 = (x1 / N1 - fp1) / (1.0 - fn1 - fp1)
            diff = q1 - q0
            pooled = (N1 * q1 + N0 * q0) / (N0 + N1)
            var = pooled * (1.0 - pooled) * (1.0 / N1 + 1.0 / N0)
            out = np.where(var > 0.0, diff / np.sqrt(var), np.sign(diff) * np.inf)
        out = np.where((var <= 0.0) & (diff == 0.0), 0.0, out)
        usable = (1.0 - fn0 - fp0 >= DENOM_EPS) & (1.0 - fn1 - fp1 >= DENOM_EPS)
        return np.where(usable, out, np.nan)

    p = 0.5 * erfc(z(c["n0"], c["N0"], c["n1"], c["N1"]) / math.sqrt(2.0))
    return p, z(c["c0"], c["C0"], c["c1"], c["C1"])


def membership(c: dict, kind: str, alpha: float, delta0: float, fp0, fn0, fp1, fn1, z_c):
    """(inside, boundary): set membership and points too close to call."""
    gap = np.abs(fn0 - fn1)
    inside = gap <= delta0
    boundary = (gap > 0.0) & (np.abs(gap - delta0) <= FP_MARGIN)
    if kind == "negative":
        (lo0, hi0), (lo1, hi1) = (
            wilson(c["c0"], c["C0"], 1.0 - alpha / 2.0),
            wilson(c["c1"], c["C1"], 1.0 - alpha / 2.0),
        )
        inside &= (fp0 >= lo0) & (fp0 <= hi0) & (fp1 >= lo1) & (fp1 <= hi1)
        for v, edges in ((fp0, (lo0, hi0)), (fp1, (lo1, hi1))):
            for edge in edges:
                boundary |= np.abs(v - edge) <= FP_MARGIN
    else:
        crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        with np.errstate(invalid="ignore"):
            inside &= np.abs(z_c) <= crit
            boundary |= np.abs(np.abs(z_c) - crit) <= Z_MARGIN
    usable = (1.0 - fn0 - fp0 >= DENOM_EPS) & (1.0 - fn1 - fp1 >= DENOM_EPS)
    return inside & usable, boundary


def base_grid(c: dict, grid_fp: int, grid_fn: int, fn_max: float, separate: bool, delta0: float):
    """Base rectangular grid points (fp0, fn0, fp1, fn1) before refinement.

    With separate fn axes only the (fn0, fn1) pairs within delta0 plus one
    axis step are enumerated: every other pair is outside the set.
    """
    fp = default_fp_max(c) * np.arange(grid_fp) / (grid_fp - 1)
    fn = fn_max * np.arange(grid_fn) / (grid_fn - 1)
    if not separate:
        g0, g1, gn = np.meshgrid(fp, fp, fn, indexing="ij")
        return g0.ravel(), gn.ravel(), g1.ravel(), gn.ravel()
    reach = int(math.floor(delta0 / (fn[1] - fn[0]))) + 1
    pairs = [(i, j) for i in range(grid_fn) for j in range(grid_fn) if abs(i - j) <= reach]
    n0 = np.array([fn[i] for i, _ in pairs])
    n1 = np.array([fn[j] for _, j in pairs])
    g0, g1, gp = np.meshgrid(fp, fp, np.arange(len(pairs)), indexing="ij")
    return g0.ravel(), n0[gp.ravel()], g1.ravel(), n1[gp.ravel()]


# --- output checks --------------------------------------------------------


def read_study(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for name in _COUNT_FIELDS:
            row[name] = int(row[name])
    return rows


def check_formulas(rc, rows: list[dict], alpha: float) -> list[str]:
    """Package scalar functions against the formulas, on the study's counts."""
    problems = []
    for row in rows:
        pid = row["participant_id"]
        counts = rc.AssayCounts(**{k: row[k] for k in _COUNT_FIELDS})
        if not close(rc.unadjusted_p(counts), primary_p(row)):
            problems.append(f"{pid}: unadjusted_p differs from the pooled erfc formula")
        fp = (row["c0"] / row["C0"]) / 2.0
        theta = (fp, 0.1, 2.0 * fp, 0.1)
        if not close(rc.control_z(counts, rc.MisclassRates(*theta)), control_z(row, theta)):
            problems.append(f"{pid}: control_z differs from the corrected pooled z")
        if not close(rc.debias_proportion(row["n1"] / row["N1"], fp, 0.1),
                     corrected(row["n1"] / row["N1"], fp, 0.1)):
            problems.append(f"{pid}: debias_proportion differs from (p - fp) / (1 - fn - fp)")
        confidence = 1.0 - alpha / 2.0
        for x, n in ((row["c0"], row["C0"]), (row["c1"], row["C1"])):
            for got, want, rel, name in (
                (rc.wilson_interval(x, n, confidence), wilson(x, n, confidence), REL_TOL, "Wilson"),
                (rc.clopper_pearson_interval(x, n, confidence),
                 clopper_pearson(x, n, confidence), 1e-6, "Clopper-Pearson"),
            ):
                if not all(close(g, w, rel=rel) for g, w in zip(got, want)):
                    problems.append(f"{pid}: {name} bounds for {x}/{n} {got} != {want}")
    return problems


def _check_bracket(pid, row, part, settings) -> list[str]:
    """Grid properties of one participant's max- and min-adjusted values."""
    problems = []
    kind, p_star = row["control_kind"], part["p_unadjusted"]
    pts = base_grid(row, settings["grid_fp"], settings["grid_fn"], settings["fn_max"],
                    settings["separate"], settings["delta0"])
    p, z_c = grid_p_and_z(row, *pts)

    inside, boundary = membership(row, kind, settings["alpha_prime"], settings["delta0"], *pts, z_c)
    sure = p[inside & ~boundary]
    if sure.size and not part["set_nonempty"]:
        problems.append(f"{pid}: {sure.size} base points lie in the alpha' set, reported empty")
    if part["set_nonempty"]:
        inf_p, sup_p = part["p_range"]
        tol = 1e-12 + REL_TOL * sup_p
        if sure.size and (sure.max() > sup_p + tol or sure.min() < inf_p - tol):
            problems.append(
                f"{pid}: in-set base points span [{sure.min()!r}, {sure.max()!r}], "
                f"outside the reported bracket [{inf_p!r}, {sup_p!r}]"
            )
        if not close(part["p_max_adjusted"], min(1.0, sup_p + settings["alpha_prime"])):
            problems.append(f"{pid}: p_max != min(1, sup + alpha')")
    elif part["p_max_adjusted"] != 1.0:
        problems.append(f"{pid}: empty set but p_max = {part['p_max_adjusted']!r}")
    if part["p_max_adjusted"] < settings["alpha_prime"]:
        problems.append(f"{pid}: p_max below alpha'")

    inside, boundary = membership(row, kind, settings["alpha"], settings["delta0"], *pts, z_c)
    sure = p[inside & ~boundary]
    p_min = part["p_min_adjusted"]
    if part["unadjusted_in_set"] and p_min != p_star:
        problems.append(f"{pid}: p* is bracketed but p_min = {p_min!r} != p* = {p_star!r}")
    if sure.size:
        if p_min is None:
            problems.append(f"{pid}: {sure.size} base points lie in the alpha set, p_min undefined")
        elif np.abs(sure - p_star).min() < abs(p_min - p_star) - 1e-12 - REL_TOL * p_star:
            problems.append(f"{pid}: an in-set base point is closer to p* than p_min")
        if sure.min() <= p_star <= sure.max() and not part["unadjusted_in_set"]:
            problems.append(f"{pid}: in-set base points bracket p* but unadjusted_in_set is false")
    return problems


def _csv_value(text: str):
    if text in ("", "true", "false"):
        return None if text == "" else text == "true"
    return float(text)


def check_analysis(rows: list[dict], json_path: str, csv_path: str, settings: dict) -> list[str]:
    """An `analyze` report against the study it was computed from."""
    with open(json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        mirror = list(csv.DictReader(fh))
    problems = []
    kept = [r for r in rows if min(r["N0"], r["N1"]) >= settings["min_total"]]
    excluded = [r["participant_id"] for r in rows if r not in kept]
    parts = report["participants"]
    if [p["participant_id"] for p in parts] != [r["participant_id"] for r in kept]:
        return [f"{json_path}: analysed ids differ from the per-protocol filter"]
    if report["summary"]["excluded_ids"] != excluded:
        problems.append(f"{json_path}: excluded ids differ from the per-protocol filter")
    if len(mirror) != len(parts):
        problems.append(f"{csv_path}: {len(mirror)} rows for {len(parts)} participants")

    columns = {
        "unadjusted": [p["p_unadjusted"] for p in parts],
        "max_adjusted": [p["p_max_adjusted"] for p in parts],
    }
    defined = [i for i, p in enumerate(parts) if p["p_min_adjusted"] is not None]
    columns["min_adjusted"] = [parts[i]["p_min_adjusted"] for i in defined]
    for name, values in columns.items():
        where = defined if name == "min_adjusted" else range(len(parts))
        adjusted, rejected = bh_reference(values, settings["fdr_q"])
        for i, adj, rej in zip(where, adjusted, rejected):
            got = parts[i]["bh"][name]
            if not close(got["p_bh"], adj) or (
                got["rejected"] != rej and not close(adj, settings["fdr_q"])
            ):
                problems.append(f"{parts[i]['participant_id']}: BH {name} {got} != {adj!r}/{rej}")

    for row, part, flat in zip(kept, parts, mirror):
        pid = row["participant_id"]
        if part["control_kind"] != row["control_kind"]:
            problems.append(f"{pid}: control kind {part['control_kind']!r}")
        if not close(part["p_unadjusted"], primary_p(row)):
            problems.append(f"{pid}: p* {part['p_unadjusted']!r} != {primary_p(row)!r}")
        if not close(part["magnitude_pct"], magnitude(row)):
            problems.append(f"{pid}: magnitude {part['magnitude_pct']!r} != {magnitude(row)!r}")
        low, high = part["p_range"] if part["p_range"] is not None else (None, None)
        for column, value in (
            ("p_unadjusted", part["p_unadjusted"]),
            ("p_max_adjusted", part["p_max_adjusted"]),
            ("p_min_adjusted", part["p_min_adjusted"]),
            ("p_range_low", low),
            ("p_range_high", high),
            ("unadjusted_in_set", part["unadjusted_in_set"]),
        ):
            if _csv_value(flat[column]) != value:
                problems.append(f"{pid}: CSV {column} {flat[column]!r} != JSON {value!r}")
        problems += _check_bracket(pid, row, part, settings)
    return problems


def _lexicographic_strictly_increasing(keys: np.ndarray) -> bool:
    a, b = keys[:-1], keys[1:]
    ok = np.zeros(len(a), dtype=bool)
    undecided = np.ones(len(a), dtype=bool)
    for j in range(keys.shape[1]):
        ok |= undecided & (b[:, j] > a[:, j])
        undecided &= b[:, j] == a[:, j]
    return bool(ok.all())


def check_surface(row: dict, path: str, settings: dict) -> list[str]:
    """A `surface` export: sorted unique rows matching p_theta and in_set."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "fp0,fn0,fp1,fn1,in_set,p_theta":
        return [f"{path}: header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    base = settings["grid_fp"] ** 2 * settings["grid_fn"]
    if data.shape[0] < base:
        problems.append(f"{path}: {data.shape[0]} rows, fewer than the {base} base points")
    if not _lexicographic_strictly_increasing(data[:, :4]):
        problems.append(f"{path}: rows are not sorted and unique")
    fp_max = default_fp_max(row)
    fp, fn = data[:, [0, 2]], data[:, [1, 3]]
    if fp.min() < 0.0 or fp.max() > fp_max * (1 + 1e-12) or fn.min() < 0 or fn.max() > settings["fn_max"]:
        problems.append(f"{path}: rates outside [0, fp_max] x [0, fn_max]")
    fp0, fn0, fp1, fn1 = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    p, z_c = grid_p_and_z(row, fp0, fn0, fp1, fn1)
    both_nan = np.isnan(p) & np.isnan(data[:, 5])
    with np.errstate(invalid="ignore"):
        same = np.isclose(data[:, 5], p, rtol=REL_TOL, atol=1e-12) | both_nan
    if not same.all():
        i = int(np.argmin(same))
        problems.append(f"{path}: {int((~same).sum())} p_theta values differ, first {data[i].tolist()} vs {p[i]!r}")
    inside, boundary = membership(row, row["control_kind"], settings["alpha"], settings["delta0"],
                                  fp0, fn0, fp1, fn1, z_c)
    wrong = (inside != (data[:, 4] == 1)) & ~boundary
    if wrong.any():
        problems.append(f"{path}: {int(wrong.sum())} in_set flags differ from the control test")
    if not inside.any():
        problems.append(f"{path}: no point of the export lies in the set")
    return problems


def check_simulation(path: str, cell: dict) -> tuple[list[str], dict]:
    """A `simulate` summary against a redraw of its unadjusted and oracle calls.

    The draw order (responder coin, p_t0, fn, fp draw(s), then binomial
    n0, n1, c0, c1) is the simulator's documented seeded-stream contract.
    Returns problems plus the counts needed for the pooled type-I check.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        (summary,) = list(csv.DictReader(fh))
    reps, seed, alpha = cell["reps"], int(summary["seed"]), cell["alpha"]
    (a0, b0), (a1, b1), shared = cell["fp_beta"]
    responders = 0
    declared = {"unadjusted": [0, 0], "oracle": [0, 0]}
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(child)
        responder = bool(rng.random() < cell["responder_prob"])
        p_t0 = float(rng.beta(1.0, 500.0))
        p_t1 = min(cell["gamma"] * p_t0, 1.0) if responder else p_t0
        fn = float(rng.beta(1.0, 5.0))
        fp0 = float(rng.beta(a0, b0))
        fp1 = fp0 if shared else float(rng.beta(a1, b1))
        N, C, pc = cell["n_primary"], cell["n_control"], cell["p_control"]
        c = {
            "n0": int(rng.binomial(N, observed(p_t0, fp0, fn))), "N0": N,
            "n1": int(rng.binomial(N, observed(p_t1, fp1, fn))), "N1": N,
            "c0": int(rng.binomial(C, observed(pc, fp0, fn))), "C0": C,
            "c1": int(rng.binomial(C, observed(pc, fp1, fn))), "C1": C,
        }
        responders += responder
        for name, p in (("unadjusted", primary_p(c)), ("oracle", primary_p(c, (fp0, fn, fp1, fn)))):
            declared[name][responder] += p <= alpha
    problems = []
    if int(summary["reps"]) != reps or int(summary["n_responders"]) != responders:
        problems.append(f"{path}: reps/responders {summary['reps']}/{summary['n_responders']} != {reps}/{responders}")
    for name, (type1, power) in declared.items():
        for column, count in ((f"{name}_type1", type1), (f"{name}_power", power)):
            if not close(float(summary[column]), 100.0 * count / reps):
                problems.append(f"{path}: {column} {summary[column]} != {100.0 * count / reps!r}")
    max_type1 = round(float(summary["max_adjusted_type1"]) * reps / 100.0)
    return problems, {"nonresponders": reps - responders, "max_type1": max_type1}


def check_type1(nonresponders: int, rejections: int, alpha: float) -> list[str]:
    """Max-adjusted null rejections must not exceed nominal beyond chance."""
    if nonresponders and binom_upper_tail(rejections, nonresponders, alpha) < 1e-4:
        return [f"max-adjusted rejects {rejections} of {nonresponders} nulls at alpha={alpha}"]
    return []
