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
import statistics
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

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
    # each input series' TrendResult, in input order; not part of equality
    stations: tuple = field(default=(), compare=False)


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
    """Two-sided standard normal tail of z, 2 * Phi(-|z|)."""
    return math.erfc(abs(z) / math.sqrt(2.0))


# Steps of the t tail's continued fraction.  Over 1 to 79 degrees of freedom
# and |t| from 1e-8 to 300, 30 steps agree with an arbitrary-precision
# incomplete beta to about 1e-13, relative.
_T_TAIL_STEPS = 30
_TINY = 1e-300
_LGAMMA_HALF = math.lgamma(0.5)


def _t_tail(df, t):
    """Two-sided Student-t tail P(|T| >= |t|) on df degrees of freedom,
    element by element over finite t and df > 0.

    It is the regularized incomplete beta I_x(df/2, 1/2) at x = df / (df +
    t^2) (Abramowitz & Stegun 26.7.1), from its continued fraction by the
    modified Lentz method (Numerical Recipes 6.4).  Where x >= (a + 1) / (a
    + b + 2) the fraction converges slowly, and the symmetry I_x(a, b) = 1 -
    I_{1-x}(b, a) is used instead, with 1 - x taken as t^2 / (df + t^2).
    The fraction runs a fixed number of steps in +, -, * and / only, and
    the prefactor x^a (1-x)^b / B(a, b) is computed element by element
    with math, so an element's value does not depend on the batch it is in.
    """
    df = np.asarray(df, dtype=float)
    t2 = np.square(np.asarray(t, dtype=float))
    total = df + t2
    x = df / total
    y = t2 / total
    a = df / 2.0
    front = np.array(
        [
            math.exp(math.lgamma(a_ + 0.5) - math.lgamma(a_) - _LGAMMA_HALF + a_ * math.log(x_) + 0.5 * math.log(y_))
            if y_ > 0.0 and x_ > 0.0
            else 0.0
            for a_, x_, y_ in zip(a.ravel().tolist(), x.ravel().tolist(), y.ravel().tolist())
        ]
    ).reshape(x.shape)
    flip = x >= (a + 1.0) / (a + 2.5)
    # the fraction of I_z(p, q): (p, q, z) = (a, 1/2, x), or (1/2, a, 1 - x)
    p = np.where(flip, 0.5, a)
    q = np.where(flip, a, 0.5)
    z = np.where(flip, y, x)
    pq, p1, p_1 = p + q, p + 1.0, p - 1.0
    c = np.ones_like(z)
    d = 1.0 / _off_zero(1.0 - pq * z / p1)
    h = d
    for m in range(1, _T_TAIL_STEPS + 1):
        even = m * (q - m) * z / ((p_1 + 2 * m) * (p + 2 * m))
        odd = -(p + m) * (pq + m) * z / ((p + 2 * m) * (p1 + 2 * m))
        for coef in (even, odd):
            d = 1.0 / _off_zero(1.0 + coef * d)
            c = _off_zero(1.0 + coef / c)
            h = h * (d * c)
    part = front * h / p
    return np.where(flip, 1.0 - part, part)


def _off_zero(v):
    """v with entries of magnitude under _TINY replaced by _TINY, as the
    Lentz method does to step past a zero denominator."""
    return np.where(np.abs(v) < _TINY, _TINY, v)


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
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    finite = ~np.isnan(rows).any(axis=1)
    ranks = np.full(rows.shape, np.nan)
    n = rows.shape[1]
    if n and finite.any():
        block = rows[finite]
        size = block.size
        flat = (np.argsort(block, axis=1, kind="stable") + np.arange(0, size, n)[:, None]).ravel()
        # the runs of equal values in each sorted row; each row starts a run
        s = block.ravel()[flat]
        starts = np.ones(size, dtype=bool)
        np.not_equal(s[1:], s[:-1], out=starts[1:])
        starts[::n] = True
        begin = np.flatnonzero(starts)
        length = np.diff(begin, append=size)
        # a run of length c starting at 0-based position b holds the ranks
        # b+1 .. b+c, whose mean is b + (c+1)/2
        ranked = np.empty(size)
        ranked[flat] = np.repeat(begin % n + (length + 1) / 2.0, length)
        ranks[finite] = ranked.reshape(-1, n)
    return ranks.reshape(x.shape)


def _pair_diffs(x):
    """x[:, j] - x[:, i] for every pair of columns i < j, row by row."""
    i, j = _pairs(x.shape[1])
    # np.take gathers columns several times faster than x[:, j]
    return np.take(x, j, axis=1) - np.take(x, i, axis=1)


def median(x):
    """The median along the last axis of x, bit for bit as np.median,
    which imports numpy.ma on its first call.

    np.median takes the mean of the middle one or two values, a sum that
    starts from +0.0: so a zero median is +0.0 whichever signed zeros meet
    in the middle, and (-0.0 + -tiny) / 2 stays -0.0.  A row holding NaN
    has the median NaN, which sorts last, and so has an empty row.
    """
    x = np.sort(x, axis=-1)
    n = x.shape[-1]
    if not n:
        return np.full(x.shape[:-1], np.nan)
    h = n // 2
    mid = x[..., h] + 0.0 if n % 2 else (x[..., h - 1] + x[..., h] + 0.0) / 2.0
    last = x[..., -1]
    return np.where(np.isnan(last), last, mid)


def _sen_rows(times, diffs):
    """Theil-Sen slope of each row given its _pair_diffs over the shared
    times: the median of the pairwise slopes."""
    i, j = _pairs(times.size)
    return median(diffs / (times[j] - times[i]))


# pairwise slopes per stacked median: a piece's diffs, slopes and their
# sort stay within about 256 KiB of float64 each
_SEN_ENTRIES = 1 << 15


def _stacked_sen(rows):
    """Theil-Sen slope of each (int64 years, values) row, NaN under two
    years.  Rows over equal years share stacked medians, taken in pieces of
    as many rows as hold at most _SEN_ENTRIES pairwise slopes (one row at
    least); _sen_rows works row by row, so the pieces change no slope."""
    slopes = np.full(len(rows), np.nan)
    stacks: dict = {}
    for k, (years, _) in enumerate(rows):
        if years.size >= 2:
            stacks.setdefault(years.tobytes(), []).append(k)
    for ks in stacks.values():
        times = rows[ks[0]][0].astype(float)
        step = max(1, _SEN_ENTRIES // (times.size * (times.size - 1) // 2))
        for lo in range(0, len(ks), step):
            piece = ks[lo : lo + step]
            slopes[piece] = _sen_rows(times, _pair_diffs(np.array([rows[k][1] for k in piece])))
    return slopes.tolist()


def sen_slopes(series_list):
    """Theil-Sen slope of each AnnualSeries as a list of floats: the median
    of its pairwise slopes over actual year gaps, NaN for a series under
    two years or a None entry.  Series over equal years share one stacked
    median, and each slope equals that of a lone call bit for bit.
    """
    none = np.empty(0, dtype=np.int64)
    return _stacked_sen([(none, none) if s is None else (s.years, s.values) for s in series_list])


def _trend_results(s, var_s, slopes, testable):
    """A TrendResult per station from its integer score S, tie-corrected
    variance, Sen slope and whether it is testable."""
    z = np.zeros(s.size)
    moving = (s != 0) & (var_s > 0.0)
    z[moving] = (s[moving] - np.sign(s[moving])) / np.sqrt(var_s[moving])
    p = [_two_sided_p(z_) for z_ in z.tolist()]
    return [
        TrendResult(s=s_, var_s=v, z=z_, p=p_, slope=slope) if ok else _untestable(slope)
        for s_, v, z_, p_, slope, ok in zip(
            s.tolist(), var_s.tolist(), z.tolist(), p, slopes, testable.tolist()
        )
    ]


def _untestable(slope):
    return TrendResult(s=0, var_s=0.0, z=0.0, p=1.0, slope=slope, untestable=True)


def mann_kendall(series):
    """Mann-Kendall trend test on an AnnualSeries, over its finite values:
    the station result of regional_mann_kendall on the lone series.

    Fewer than 4 values, or all values equal, yields an untestable result
    with s=0 and p=1. The slope denominator uses actual year spacing, so
    omitted years widen the gap.
    """
    return regional_mann_kendall([series]).stations[0]


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
    rx, ry = _midranks(np.stack((x, y)))
    return (concordance + 4.0 * float(rx @ ry) - n * (n + 1) ** 2) / 3.0


def regional_mann_kendall(series_list):
    """Group-level Mann-Kendall over a set of station annual series.

    The group score is the sum of station scores; its variance adds
    pairwise covariances estimated over each pair's overlapping years.
    Pairs without overlap skip the covariance term; a raw variance below
    1% of the summed station variances is floored there. Both events are
    flagged. Stations individually untestable are excluded and flagged.
    A non-finite value counts as an absent year, and the result's
    ``stations`` holds each series' own Mann-Kendall result.

    Every group is one k x N block over the union of its years, with a
    0/1 year mask M.  Station a's sign matrix A_a[t, u] = sign(x_a(t) -
    x_a(u)), zero where a lacks t or u, gives its S (the sum over t > u)
    and, with station b, the concordance over their common years C (the
    Gram product of the sign vectors over t > u).  Row t of A_a @ m_b, m_b
    row b of M, is q_ab(t): twice the midrank of x_a(t) among C, less
    |C| + 1.  So 3 * rank_covariance over C is the concordance plus
    sum_C q_ab q_ba, and a station's own entry is 3 times its
    tie-corrected Mann-Kendall variance.  Every term is an integer: a sign
    is -1, 0 or 1 and q sums at most N of them, exact in float32 while N
    stays below 2**24, and the products are summed in float64.
    """
    if not series_list:
        raise ValueError("empty station group")
    k = len(series_list)
    years, at = np.unique(np.concatenate([s.years for s in series_list]), return_inverse=True)
    n_years = years.size
    x = np.full((k, n_years), np.nan)
    x[np.repeat(np.arange(k), [s.years.size for s in series_list]), at] = (
        np.concatenate([s.values for s in series_list])
    )
    present = np.isfinite(x)
    x[~present] = np.nan
    n = present.sum(axis=1)
    mask = present.astype(np.float32)
    slopes = _stacked_sen([(years[row], values[row]) for row, values in zip(present, x)])

    # comparisons with NaN are false, so an absent year's signs are 0
    signs = np.subtract(x[:, :, None] > x[:, None, :], x[:, :, None] < x[:, None, :], dtype=np.float32)
    i, j = _pairs(n_years)
    pair_signs = np.take(signs.reshape(k, n_years * n_years), j * n_years + i, axis=1).astype(float)
    q = (signs.reshape(k * n_years, n_years) @ mask.T).reshape(k, n_years, k).astype(float)
    numerators = pair_signs @ pair_signs.T + np.einsum("atb,bta->ab", q, q)
    own = np.diagonal(numerators)

    # a station of equal values has no sign but 0, and no variance
    testable = (n >= 4) & (own > 0.0)
    stations = tuple(_trend_results(pair_signs.sum(axis=1).astype(np.int64), own / 3.0, slopes, testable))

    flags = [f"{s.key}: untestable station excluded" for s, r in zip(series_list, stations) if r.untestable]
    members = np.flatnonzero(testable)
    if not members.size:
        return RegionalTrendResult(
            s=0, var_s=0.0, z=0.0, p=1.0, flags=tuple(flags + ["no testable stations"]), stations=stations
        )

    s_r = sum(stations[m].s for m in members.tolist())
    var_sum = sum(stations[m].var_s for m in members.tolist())
    first, second = (members[side] for side in _pairs(members.size))
    overlap = (mask @ mask.T)[first, second] > 0.0
    cov_sum = 0.0
    # added one at a time in combinations order, as rank_covariance per pair would be
    for cov in (numerators[first, second][overlap] / 3.0).tolist():
        cov_sum += cov
    flags += [
        f"{series_list[a].key}/{series_list[b].key}: no overlapping years; covariance skipped"
        for a, b in zip(first[~overlap].tolist(), second[~overlap].tolist())
    ]

    var_raw = var_sum + 2.0 * cov_sum
    floor = 0.01 * var_sum
    if var_raw < floor:
        var_r = floor
        flags.append("variance floored at 1% of summed station variances")
    else:
        var_r = var_raw

    z = _z_with_continuity(s_r, var_r)
    return RegionalTrendResult(
        s=s_r, var_s=var_r, z=z, p=_two_sided_p(z), flags=tuple(flags), stations=stations
    )


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


def field_significance(group_id, p_adjusted, alpha=ALPHA):
    """Count stations whose adjusted p-value is below alpha; the group is
    field significant whenever at least one station is."""
    n = len(p_adjusted)
    if not n:
        raise ValueError("empty group")
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

    zq = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    l1, u1 = _wilson_bounds(k1, n1, zq)
    l2, u2 = _wilson_bounds(k2, n2, zq)
    ci_low = diff - math.sqrt((p1 - l1) ** 2 + (u2 - p2) ** 2)
    ci_high = diff + math.sqrt((u1 - p1) ** 2 + (p2 - l2) ** 2)
    return PropTestResult(diff=diff, p=p, ci_low=ci_low, ci_high=ci_high)


def wilcoxon_ranksum(a, b):
    """Rank-sum test for a location difference between two samples.

    Returns (W, p) with W the midrank sum of the first sample.  The p-value
    enumerates every split of the ranks exactly when the pooled size is at
    most 12 with no ties; otherwise it is the tie-corrected normal
    approximation with continuity correction.
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

    values, counts = np.unique(pooled, return_counts=True)
    if n <= 12 and values.size == n:
        deviation = abs(w - mu)
        hits = 0
        total = 0
        for combo in combinations(range(n), n1):
            total += 1
            if abs(ranks[list(combo)].sum() - mu) >= deviation - 1e-9:
                hits += 1
        return w, hits / total

    tie_term = float(np.sum(counts**3 - counts)) / (n * (n - 1))
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_w <= 0.0:
        return w, 1.0
    z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var_w)
    return w, _two_sided_p(z)


def spearman_t(x, ys):
    """Spearman rank correlation of x with every column of ys, n rows each,
    and its t statistic on n - 2 degrees of freedom.

    Returns (rho, t, undefined) arrays with one entry per column; a
    column, or x, holding a single distinct value is undefined, with rho
    and t NaN, and |rho| = 1 has t infinite.  Centred midranks are
    multiples of 1/2, so every dot product is exact in any order and each
    column's rho and t equal those of a lone call.
    """
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, m = ys.shape
    rho = np.full(m, np.nan)
    t = np.full(m, np.nan)
    undefined = ys.min(axis=0) == ys.max(axis=0)
    if x.min() == x.max():
        undefined[:] = True
    cols = np.flatnonzero(~undefined)
    if not cols.size:
        return rho, t, undefined
    rx = _midranks(x)
    ry = _midranks(ys[:, cols].T)
    cx = rx - rx.mean()
    cy = ry - ry.mean(axis=1, keepdims=True)
    r = np.clip(cy @ cx / np.sqrt((cx @ cx) * np.sum(cy * cy, axis=1)), -1.0, 1.0)
    rho[cols] = r
    t[cols] = np.inf
    inner = np.abs(r) != 1.0
    t[cols[inner]] = r[inner] * np.sqrt((n - 2) / (1.0 - r[inner] * r[inner]))
    return rho, t, undefined


def spearman_p(df, t):
    """Two-sided p of Spearman t statistics on df degrees of freedom, as
    arrays: NaN where t is NaN (undefined), 0 where t is infinite.

    Each entry's p is the same whatever batch it is evaluated in.
    """
    t = np.asarray(t, dtype=float)
    p = np.where(np.isnan(t), np.nan, 0.0)
    inner = np.isfinite(t)
    p[inner] = _t_tail(np.broadcast_to(df, t.shape)[inner], t[inner])
    return p


def spearman(x, y):
    """Spearman rank correlation with the t-based two-sided p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("inputs must have equal length")
    if x.size < 3:
        raise ValueError("need at least 3 observations")
    rho, t, undefined = spearman_t(x, y[:, None])
    p = spearman_p(x.size - 2, t)
    return SpearmanResult(rho=float(rho[0]), p=float(p[0]), undefined=bool(undefined[0]))


def comparison_direction(median_diff, p, alpha=ALPHA):
    """Label which side is higher, or not-significant at the threshold."""
    if p < alpha and median_diff > 0:
        return "UC-higher"
    if p < alpha and median_diff < 0:
        return "nonUC-higher"
    return "not-significant"
