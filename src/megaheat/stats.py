"""Trend and group-comparison statistics.

Per-station trends use the Mann-Kendall test with tie-corrected variance
and the Theil-Sen slope. Groups of stations combine through a regional
variant whose cross-station covariance comes from a rank-based estimator.
Multiplicity control is Benjamini-Yekutieli; group contrasts use a
two-proportion z-test with Newcombe score intervals, the Wilcoxon
rank-sum test, and Spearman rank correlation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.special

from .series import AnnualSeries

ALPHA = 0.05


@dataclass
class TrendResult:
    s: int
    var_s: float
    z: float
    p: float
    slope: float
    p_adj: float | None = None
    untestable: bool = False


@dataclass(frozen=True)
class RegionalTrendResult:
    s: int
    var_s: float
    z: float
    p: float
    flags: tuple


@dataclass(frozen=True)
class GroupTrendSummary:
    group_id: str
    n: int
    n_sig: int
    proportion: float
    field_significant: bool


@dataclass(frozen=True)
class PropTestResult:
    diff: float
    p: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p: float
    undefined: bool


def _two_sided_p(z):
    return min(1.0, 2.0 * float(scipy.special.ndtr(-abs(z))))


def _z_with_continuity(s, var_s):
    if s == 0 or var_s <= 0.0:
        return 0.0
    shift = -1.0 if s > 0 else 1.0
    return (s + shift) / math.sqrt(var_s)


@functools.lru_cache(maxsize=256)
def _pairs(n):
    """Index arrays (i, j) over all pairs i < j of n items, in row-major order.

    Built once per n and shared by every caller, so they are read-only.
    """
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _midranks(x):
    """Ranks along the last axis, tied values sharing the mean of their
    1-based positions; a row holding NaN ranks as all NaN.

    Every rank is a multiple of 1/2, so the float64 result is exact and
    equals SciPy's ``rankdata(x, axis=-1)`` (method "average").
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        return np.array([_midranks(row) for row in x]).reshape(x.shape)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    s = np.sort(x)
    # the values tied with x[i] fill the 1-based sorted positions lo+1 .. hi
    return (np.searchsorted(s, x, "left") + np.searchsorted(s, x, "right") + 1) / 2.0


def _kendall_s(values):
    i, j = _pairs(values.size)
    return int(np.sign(values[j] - values[i]).sum())


def _mk_variance(values):
    n = values.size
    _, counts = np.unique(values, return_counts=True)
    ties = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    return (n * (n - 1) * (2 * n + 5) - ties) / 18.0


def theil_sen(times, values):
    """Median of pairwise slopes (values[j]-values[i])/(times[j]-times[i])."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    i, j = _pairs(values.size)
    return float(np.median((values[j] - values[i]) / (times[j] - times[i])))


def mann_kendall(series):
    """Mann-Kendall trend test on an annual series.

    Fewer than 4 values, or all values equal, yields an untestable result
    with s=0 and p=1. The slope denominator uses actual year spacing, so
    omitted years widen the gap.
    """
    if isinstance(series, AnnualSeries):
        years = series.years.astype(float)
        values = np.asarray(series.values, dtype=float)
    else:
        values = np.asarray(series, dtype=float)
        years = np.arange(values.size, dtype=float)
    keep = np.isfinite(values)
    values, years = values[keep], years[keep]
    n = values.size

    if n < 4 or np.unique(values).size < 2:
        slope = theil_sen(years, values) if n >= 2 else float("nan")
        return TrendResult(s=0, var_s=0.0, z=0.0, p=1.0, slope=slope, untestable=True)

    s = _kendall_s(values)
    var_s = _mk_variance(values)
    z = _z_with_continuity(s, var_s)
    return TrendResult(
        s=s, var_s=var_s, z=z, p=_two_sided_p(z), slope=theil_sen(years, values)
    )


def rank_covariance(x, y):
    """Covariance of two Kendall scores over a common period.

    Uses concordance counts plus midrank cross-products; for y identical
    to tie-free x this reproduces the Mann-Kendall variance exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("series must share the same years")
    n = x.size
    if n < 2:
        return 0.0
    i, j = _pairs(n)
    concordance = float(np.sum(np.sign(x[j] - x[i]) * np.sign(y[j] - y[i])))
    rx = _midranks(x)
    ry = _midranks(y)
    return (concordance + 4.0 * float(rx @ ry) - n * (n + 1) ** 2) / 3.0


def _common_years_numerators(members):
    """Covariance numerators 3*cov for every station pair, or None.

    Applies when all members cover the same years with finite values.
    Stacking them as a k x n matrix, the concordance sums are the Gram
    matrix of the per-station sign vectors over year pairs i < j and the
    midrank cross-products the Gram matrix of the rank vectors.  Every
    entry is an integer (midranks are multiples of 1/2), so the float64
    products are exact and each pair's value equals rank_covariance * 3.
    """
    years = members[0].years
    if not all(np.array_equal(s.years, years) for s in members[1:]):
        return None
    x = np.array([s.values for s in members])
    if not np.all(np.isfinite(x)):
        return None
    n = years.size
    i, j = _pairs(n)
    signs = np.sign(x[:, j] - x[:, i])
    ranks = _midranks(x)
    return signs @ signs.T + 4.0 * (ranks @ ranks.T) - n * (n + 1) ** 2


def regional_mann_kendall(series_list, results=None):
    """Group-level Mann-Kendall over a set of station annual series.

    The group score is the sum of station scores; its variance adds
    pairwise covariances estimated over each pair's overlapping years.
    Pairs without overlap skip the covariance term; a raw variance below
    1% of the summed station variances is floored there. Both events are
    flagged. Stations individually untestable are excluded and flagged.

    ``results`` holds each series' mann_kendall result when the caller
    has them already.  Members covering identical years get all their
    covariances from two matrix products; otherwise each pair goes
    through rank_covariance on its common years.
    """
    if not series_list:
        raise ValueError("empty station group")
    if results is None:
        results = [mann_kendall(s) for s in series_list]

    members = []
    flags = []
    for s, r in zip(series_list, results, strict=True):
        if r.untestable:
            flags.append(f"{s.key}: untestable station excluded")
        else:
            members.append((s, r))

    if not members:
        return RegionalTrendResult(
            s=0, var_s=0.0, z=0.0, p=1.0, flags=tuple(flags + ["no testable stations"])
        )

    s_r = sum(r.s for _, r in members)
    var_sum = sum(r.var_s for _, r in members)
    cov_sum = 0.0
    numerators = _common_years_numerators([s for s, _ in members])
    if numerators is not None:
        # added one at a time in combinations order, as the per-pair path does
        for cov in (numerators[_pairs(len(members))] / 3.0).tolist():
            cov_sum += cov
    else:
        for (sa, _), (sb, _) in combinations(members, 2):
            map_a = sa.as_dict()
            map_b = sb.as_dict()
            common = sorted(map_a.keys() & map_b.keys())
            if not common:
                flags.append(f"{sa.key}/{sb.key}: no overlapping years; covariance skipped")
                continue
            xa = np.array([map_a[y] for y in common])
            xb = np.array([map_b[y] for y in common])
            cov_sum += rank_covariance(xa, xb)

    var_raw = var_sum + 2.0 * cov_sum
    floor = 0.01 * var_sum
    if var_raw < floor:
        var_r = floor
        flags.append("variance floored at 1% of summed station variances")
    else:
        var_r = var_raw

    z = _z_with_continuity(s_r, var_r)
    return RegionalTrendResult(s=s_r, var_s=var_r, z=z, p=_two_sided_p(z), flags=tuple(flags))


def by_fdr_adjust(pvalues):
    """Benjamini-Yekutieli adjustment, safe under dependency.

    Sorted p-values scale by m*c(m)/rank with c(m) the harmonic sum, then
    a step-up minimum from the right enforces monotonicity; output keeps
    the input order.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.size == 0:
        return np.empty(0)
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    harmonic = float(np.sum(1.0 / np.arange(1, m + 1)))
    raw = p[order] * m * harmonic / np.arange(1, m + 1)
    adjusted = np.minimum(np.minimum.accumulate(raw[::-1])[::-1], 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


def field_significance(group_id, results, alpha=ALPHA):
    """Count stations significant after adjustment; the group is field
    significant whenever at least one station is."""
    p_adjusted = [r.p_adj if isinstance(r, TrendResult) else float(r) for r in results]
    if not p_adjusted:
        raise ValueError("empty group")
    n = len(p_adjusted)
    n_sig = sum(1 for p in p_adjusted if p < alpha)
    return GroupTrendSummary(
        group_id=group_id,
        n=n,
        n_sig=n_sig,
        proportion=n_sig / n,
        field_significant=n_sig >= 1,
    )


def _wilson_bounds(k, n, z):
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return center - half, center + half


def equal_proportions_test(k1, n1, k2, n2, alpha=ALPHA):
    """Two-sample proportion comparison.

    The p-value is the pooled z-test with continuity correction; the
    confidence interval is Newcombe's hybrid of per-group Wilson score
    intervals.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both sample sizes must be at least 1")
    if not (0 <= k1 <= n1 and 0 <= k2 <= n2):
        raise ValueError("counts must satisfy 0 <= k <= n")

    p1, p2 = k1 / n1, k2 / n2
    diff = p1 - p2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        p = 1.0
    else:
        correction = 0.5 * (1.0 / n1 + 1.0 / n2)
        z = max(0.0, abs(diff) - correction) / se
        p = _two_sided_p(z)

    zq = float(scipy.special.ndtri(1.0 - alpha / 2.0))
    l1, u1 = _wilson_bounds(k1, n1, zq)
    l2, u2 = _wilson_bounds(k2, n2, zq)
    ci_low = diff - math.sqrt((p1 - l1) ** 2 + (u2 - p2) ** 2)
    ci_high = diff + math.sqrt((u1 - p1) ** 2 + (p2 - l2) ** 2)
    return PropTestResult(diff=diff, p=p, ci_low=ci_low, ci_high=ci_high)


def wilcoxon_ranksum(a, b, method="auto"):
    """Rank-sum test for a location difference between two samples.

    Returns (W, p) with W the midrank sum of the first sample. "auto"
    enumerates exactly when the pooled size is at most 12 with no ties,
    otherwise uses the tie-corrected normal approximation with continuity
    correction. Exact mode enumerates midrank sums, so it tolerates ties.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    n = n1 + n2
    ranks = _midranks(pooled)
    w = float(ranks[:n1].sum())
    mu = n1 * (n + 1) / 2.0

    if method == "auto":
        tie_free = np.unique(pooled).size == n
        method = "exact" if (n <= 12 and tie_free) else "normal"

    if method == "exact":
        deviation = abs(w - mu)
        hits = 0
        total = 0
        for combo in combinations(range(n), n1):
            total += 1
            if abs(ranks[list(combo)].sum() - mu) >= deviation - 1e-9:
                hits += 1
        return w, hits / total
    if method != "normal":
        raise ValueError(f"unknown method {method!r}")

    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(counts**3 - counts)) / (n * (n - 1))
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_w <= 0.0:
        return w, 1.0
    z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var_w)
    return w, _two_sided_p(z)


def spearman(x, y):
    """Spearman rank correlation with the t-based two-sided p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("inputs must have equal length")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if np.unique(x).size < 2 or np.unique(y).size < 2:
        return SpearmanResult(rho=float("nan"), p=float("nan"), undefined=True)

    rx = _midranks(x)
    ry = _midranks(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    rho = float(cx @ cy / math.sqrt((cx @ cx) * (cy @ cy)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return SpearmanResult(rho=rho, p=0.0, undefined=False)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(scipy.special.stdtr(n - 2, -abs(t)))
    return SpearmanResult(rho=rho, p=min(1.0, p), undefined=False)


def comparison_direction(median_diff, p, alpha=ALPHA):
    """Label which side is higher, or not-significant at the threshold."""
    if p < alpha and median_diff > 0:
        return "UC-higher"
    if p < alpha and median_diff < 0:
        return "nonUC-higher"
    return "not-significant"
