"""Spatial and temporal gap filling for station records.

Monthly series are completed one timestep at a time: a locally weighted
regression of value on station elevation produces a first guess, and
ordinary kriging of the regression residuals adds the spatial correction.
Daily series are completed with linearly weighted moving averages of the
windows flanking each gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qc import STUDY_WINDOW
from .series import DailySeries, MonthlySeries, ProvenanceMask, copy_onto, month_index

EARTH_RADIUS_KM = 6371.0


def great_circle_km(lat1, lon1, lat2, lon2):
    """Haversine distance in km; broadcasts like the numpy ufuncs it wraps."""
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    half_dp = (p2 - p1) / 2.0
    half_dl = (np.radians(lon2) - np.radians(lon1)) / 2.0
    a = np.sin(half_dp) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(half_dl) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass(frozen=True)
class GwrConfig:
    """Settings for the locally weighted elevation regression.

    neighbors is the adaptive bandwidth: the kernel reaches to the k-th
    nearest training station. min_train is the smallest usable number of
    observed stations per timestep.
    """

    neighbors: int = 20
    min_train: int = 3

    def __post_init__(self):
        for name in ("neighbors", "min_train"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 3:
                raise ValueError(f"{name} must be an integer >= 3, got {value!r}")


def _bisquare_weights(dist, k):
    """Row-wise bisquare weights with bandwidth = distance to k-th nearest.

    dist has shape (targets, train). k >= train count means uniform
    weights (the wide-bandwidth limit).
    """
    m, n = dist.shape
    if k >= n:
        return np.ones((m, n))
    h = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    # (1 - (dist / h)^2)^2, in place
    with np.errstate(divide="ignore", invalid="ignore"):
        w = dist / h
    w *= w
    np.subtract(1.0, w, out=w)
    w *= w
    w[~(dist < h)] = 0.0
    # coincident bandwidth (k-th neighbor at distance zero): keep the
    # stations at the target itself
    if not np.all(h > 0):
        w = np.where(h > 0, w, (dist == 0).astype(float))
    # a distance tie putting every neighbor exactly at h zeroes the whole
    # row; fall back to uniform weights over the stations within reach
    dead = w.sum(axis=1) == 0.0
    if np.any(dead):
        w[dead] = (dist[dead] <= h[dead]).astype(float)
    return w


@dataclass(frozen=True)
class _WlsGeometry:
    """The value-free part of a per-row weighted regression on elevation:
    the weights, the weight and elevation sums, and which rows fall back
    to the weighted mean."""

    weights: np.ndarray
    elev: np.ndarray
    target_elev: np.ndarray
    sw: np.ndarray
    swx: np.ndarray
    use_mean: np.ndarray
    det: np.ndarray


def _wls_geometry(weights, elev, target_elev):
    """Sums and fallback flags of the per-row weighted least squares.

    A row falls back to the weighted mean when its weighted elevations
    are all equal within 1e-9 relative (floored at 1 m) or its normal
    equations are numerically singular.
    """
    sw = weights.sum(axis=1)
    swx = weights @ elev
    swxx = weights @ (elev * elev)

    masked = np.where(weights > 0, elev, np.nan)
    xmin = np.nanmin(masked, axis=1)
    xmax = np.nanmax(masked, axis=1)
    scale = np.maximum(np.maximum(np.abs(xmin), np.abs(xmax)), 1.0)
    flat = (xmax - xmin) <= 1e-9 * scale

    det = sw * swxx - swx * swx
    unstable = det <= 1e-12 * np.maximum(sw * swxx, 1e-300)
    use_mean = flat | unstable
    return _WlsGeometry(
        weights, elev, target_elev, sw, swx, use_mean, np.where(use_mean, 1.0, det)
    )


def _wls_predict(geometry, values):
    """Per-row weighted least squares of values on elevation, evaluated
    at the target elevations."""
    g = geometry
    swy = g.weights @ values
    swxy = g.weights @ (g.elev * values)
    slope = (g.sw * swxy - g.swx * swy) / g.det
    intercept = (swy - slope * g.swx) / g.sw
    mean = swy / g.sw
    return np.where(g.use_mean, mean, intercept + slope * g.target_elev)


def _gwr_geometry(d_targets, d_train, elev, target_elev, k):
    """Regression geometry for targets and for the training sites
    themselves, from target x train and train x train distances."""
    return (
        _wls_geometry(_bisquare_weights(d_targets, k), elev, target_elev),
        _wls_geometry(_bisquare_weights(d_train, k), elev, elev),
    )


def _gwr_apply(geometry, values):
    """(predictions at targets, residuals at training sites)."""
    at_targets, at_train = geometry
    return _wls_predict(at_targets, values), values - _wls_predict(at_train, values)


def gwr_fit_predict(train, targets, cfg):
    """Predict values at target sites from (lat, lon, elev, value) rows.

    Returns (predictions at targets, residuals at training sites). The
    residuals use each training site as its own target with itself kept in
    the weight set.
    """
    train = np.asarray(train, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if train.ndim != 2 or train.shape[1] != 4:
        raise ValueError("train must be (n, 4): lat, lon, elev, value")
    if targets.ndim != 2 or targets.shape[1] != 3:
        raise ValueError("targets must be (m, 3): lat, lon, elev")
    n = train.shape[0]
    if n < cfg.min_train:
        raise ValueError(f"need at least min_train={cfg.min_train} training stations, got {n}")
    if not np.all(np.isfinite(train[:, 2])):
        raise ValueError("training elevations must all be present")

    lat, lon, elev, vals = train.T
    tlat, tlon, telev = targets.T
    geometry = _gwr_geometry(
        great_circle_km(tlat[:, None], tlon[:, None], lat[None, :], lon[None, :]),
        great_circle_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :]),
        elev,
        telev,
        cfg.neighbors,
    )
    return _gwr_apply(geometry, vals)


@dataclass
class Variogram:
    """Exponential semivariogram; gamma(0) is 0 exactly, with nugget as
    the limit from the right."""

    nugget: float
    sill: float
    range_km: float
    degenerate: bool = False

    def __post_init__(self):
        if self.nugget < 0:
            raise ValueError("nugget must be >= 0")
        if self.sill < self.nugget:
            raise ValueError("sill must be >= nugget")
        if self.range_km <= 0:
            raise ValueError("range_km must be > 0")

    def gamma(self, dist):
        return _gamma(-3.0 * np.asarray(dist, dtype=float), self.nugget, self.sill, self.range_km)


def _gamma(neg3_dist, nugget, sill, range_km):
    """Variogram.gamma of the distances dist, given as -3.0 * dist (the
    first operation of the model, so callers can hoist it); the parameters
    broadcast against neg3_dist.  -3.0 * dist is negative exactly where
    dist is positive."""
    g = nugget + (sill - nugget) * -np.expm1(neg3_dist / range_km)
    return np.where(neg3_dist < 0.0, g, 0.0)


_ZERO_RESIDUAL_ATOL = 1e-9

# Range search of the variogram fit: a log-spaced grid of _RANGE_GRID points
# from _RANGE_MIN_KM to _RANGE_MAX_SCALE times the binned distance span, then
# _RANGE_ZOOMS passes that re-grid between the neighbours of the best point.
# Each of the _RANGE_BASINS lowest local minima of the first grid is zoomed,
# because two basins can come within a grid step of each other in cost.  The
# upper bound stands in for an unbounded range: a field whose semivariance
# grows linearly over the binned distances is best fitted as the range runs
# off to infinity, and at 1e9 spans the model is linear to within 1e-9.
_RANGE_MIN_KM = 1e-6
_RANGE_MAX_SCALE = 1e9
_RANGE_GRID = 64
_RANGE_ZOOMS = 5
_RANGE_BASINS = 3

# Problems per stacked range search.  A zoom pass holds a few (basins zoomed,
# grid, bins) arrays, up to 250 KB each at 16 problems of 10 bins.
_FIT_CHUNK = 16

# Matrix entries per stacked kriging solve (8 MB of float64), so that a mask
# group of many timesteps over hundreds of sites is solved in pieces.
_SOLVE_ENTRIES = 1 << 20


def _rowdot(a, b):
    """Row-wise a[r] @ b[r] of two (rows, n) stacks, one BLAS dot per row,
    as `a[r] @ b[r]` computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _fit_exponential(gam, dmean, cnt, half_max):
    """Global weighted-LS fit of nugget + delta * (1 - exp(-3d/range)).

    Takes a stack of problems with the same number of bins: gam, dmean and
    cnt are (problems, bins), half_max is (problems,).  Variable
    projection: at a fixed range the model is linear in (nugget, delta),
    so the count-weighted least squares has a closed form, leaving a 1-D
    search over log range between _RANGE_MIN_KM and _RANGE_MAX_SCALE *
    half_max.  At each range the unconstrained 2x2 solution counts where
    both parameters come out non-negative; otherwise the better of the two
    boundary solutions (delta = 0, and nugget = 0 with delta clipped at 0)
    is the constrained optimum, the problem being convex in (nugget,
    delta).  Costs come from the residuals themselves, not from expanded
    normal-equation sums, which lose precision to cancellation.

    Each problem's arithmetic is the same as on its own: every reduction
    over the bins is one BLAS dot or matrix-vector product per problem
    (and per zoomed basin), so a problem's fit does not depend on the
    others in the stack.  Returns (nugget, delta, range_km), each
    (problems,).
    """
    rows = np.arange(half_max.size)
    sw = cnt.sum(axis=1)
    sy = _rowdot(cnt, gam)
    mean = sy / sw
    cost_mean = _rowdot(cnt, (mean[:, None] - gam) ** 2)
    d3 = -3.0 * dmean
    cg = cnt * gam

    def fits(log_r, p):
        # log_r is (search, grid point), search s on problem p[s]; the sums,
        # parameters and costs are shaped like log_r, f and the residuals
        # carry a trailing bin axis, and each weighted sum over the bins is
        # one matrix-vector product per search
        f = -np.expm1(d3[p, None, :] / np.exp(log_r)[..., None])
        g, c = gam[p, None, :], cnt[p, :, None]
        w, y, m, cm = (x[p, None] for x in (sw, sy, mean, cost_mean))
        sf = (f @ c)[..., 0]
        sff = ((f * f) @ c)[..., 0]
        sfy = (f @ cg[p, :, None])[..., 0]
        delta_zero = np.maximum(sfy / sff, 0.0)
        cost_zero = ((delta_zero[..., None] * f - g) ** 2 @ c)[..., 0]
        det = w * sff - sf * sf
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_free = (w * sfy - sf * y) / det
            nugget_free = (y - delta_free * sf) / w
            resid = nugget_free[..., None] + delta_free[..., None] * f - g
            cost_free = (resid**2 @ c)[..., 0]
            # NaN or inf from a singular system fails this test too
            free_ok = np.minimum(nugget_free, delta_free) >= 0.0
        use_zero = cost_zero < cm
        nugget = np.where(free_ok, nugget_free, np.where(use_zero, 0.0, m))
        delta = np.where(free_ok, delta_free, np.where(use_zero, delta_zero, 0.0))
        cost = np.where(free_ok, cost_free, np.minimum(cost_zero, cm))
        return nugget, delta, cost

    lo = np.log(_RANGE_MIN_KM)
    hi = np.log(_RANGE_MAX_SCALE * half_max)
    log_r = np.linspace(lo, hi, _RANGE_GRID, axis=-1)
    nugget, delta, cost = fits(log_r, rows)
    k = np.argmin(cost, axis=1)
    best = [cost[rows, k], nugget[rows, k], delta[rows, k], log_r[rows, k]]

    # a grid point is a local minimum when strictly below its left
    # neighbour and no higher than its right one, so a flat run counts
    # once; search s zooms basin slot[s] of problem p[s], one search for
    # each of a problem's _RANGE_BASINS lowest minima
    padded = np.pad(cost, ((0, 0), (1, 1)), constant_values=np.inf)
    minima = (cost < padded[:, :-2]) & (cost <= padded[:, 2:])
    order = np.argsort(np.where(minima, cost, np.inf), axis=1, kind="stable")
    order = order[:, :_RANGE_BASINS]
    p, slot = np.nonzero(np.take_along_axis(minima, order, axis=1))
    searches = np.arange(p.size)
    search_of = np.zeros_like(order)
    search_of[p, slot] = searches
    centers = log_r[p, order[p, slot]]
    step = (log_r[:, 1] - log_r[:, 0])[p, None]
    offsets = np.linspace(-1.0, 1.0, _RANGE_GRID)
    for _ in range(_RANGE_ZOOMS):
        log_r = np.clip(centers[:, None] + step * offsets, lo, hi[p, None])
        nugget, delta, cost = fits(log_r, p)
        k = np.argmin(cost, axis=1)
        centers = log_r[searches, k]
        # a problem takes its lowest basin, the first of equals; empty slots
        # stay at inf
        basin_cost = np.full(order.shape, np.inf)
        basin_cost[p, slot] = cost[searches, k]
        b = np.argmin(basin_cost, axis=1)
        s = search_of[rows, b]
        better = basin_cost[rows, b] < best[0]
        for i, x in enumerate((cost[s, k[s]], nugget[s, k[s]], delta[s, k[s]], centers[s])):
            best[i] = np.where(better, x, best[i])
        step *= 2.0 / (_RANGE_GRID - 1)
    return best[1], best[2], np.exp(best[3])


def _fit_stacked(fits):
    """Complete a list of _bin_residuals results: each (gam, dmean, cnt,
    half_max) problem becomes its fitted variogram, through one stacked
    range search per count of filled bins, in chunks of _FIT_CHUNK
    problems; variograms pass through."""
    fitted = list(fits)
    by_bins = {}
    for p, fit in enumerate(fits):
        if not isinstance(fit, Variogram):
            by_bins.setdefault(fit[0].size, []).append(p)
    for batch in by_bins.values():
        for start in range(0, len(batch), _FIT_CHUNK):
            chunk = batch[start : start + _FIT_CHUNK]
            stacks = (np.array(column) for column in zip(*(fits[p] for p in chunk)))
            params = (x.tolist() for x in _fit_exponential(*stacks))
            for p, nugget, delta, range_km in zip(chunk, *params):
                fitted[p] = Variogram(nugget, nugget + delta, range_km)
    return fitted


@dataclass(frozen=True)
class _VariogramBins:
    """The value-free part of the empirical variogram: the site pairs
    within half the maximum distance, their distance bins, and each
    filled bin's pair count and mean distance."""

    i: np.ndarray
    j: np.ndarray
    bins: np.ndarray
    counts: np.ndarray
    filled: np.ndarray
    dmean: np.ndarray
    half_max: float


def _variogram_bins(d, i, j):
    """Bin the site pairs (i, j) at distances d; None when every site is
    coincident, leaving no distance structure to fit."""
    half_max = float(d.max() / 2.0)
    if half_max <= 0.0:
        return None
    keep = d <= half_max
    width = half_max / 10.0
    bins = np.minimum((d[keep] / width).astype(int), 9)
    counts = np.bincount(bins, minlength=10).astype(float)
    dist_sum = np.bincount(bins, weights=d[keep], minlength=10)
    filled = counts > 0
    return _VariogramBins(
        i[keep], j[keep], bins, counts, filled, dist_sum[filled] / counts[filled], half_max
    )


def _bin_residuals(bins, residuals):
    """The variogram of residuals when it needs no range search, else the
    range search's input for _fit_stacked: the binned semivariances as a
    (gam, dmean, cnt, half_max) problem."""
    if bins is None or np.max(np.abs(residuals)) <= _ZERO_RESIDUAL_ATOL:
        return Variogram(0.0, 0.0, 1.0, degenerate=True)
    sv = 0.5 * (residuals[bins.i] - residuals[bins.j]) ** 2
    gamma_sum = np.bincount(bins.bins, weights=sv, minlength=10)
    cnt = bins.counts[bins.filled]
    gam = gamma_sum[bins.filled] / cnt

    if cnt.size < 3:
        # not enough bins to constrain three parameters
        sill = float(np.average(gam, weights=cnt))
        if sill <= 0.0:
            return Variogram(0.0, 0.0, 1.0, degenerate=True)
        return Variogram(0.0, sill, bins.half_max)
    return gam, bins.dmean, cnt, bins.half_max


def fit_variogram(lat, lon, residuals):
    """Fit an exponential variogram to residuals at sites.

    Empirical semivariances go into 10 equal-width distance bins reaching
    half the maximum pairwise distance.  The model is fitted to the bin
    means weighted by pair counts, and the fit is the global weighted
    least-squares minimum over nugget >= 0, sill >= nugget and a range
    between 1e-6 km and 1e9 times that half distance, found by variable
    projection (see _fit_exponential).  Residuals that are all zero (to
    1e-9 absolute) give the degenerate variogram that tells callers to
    skip kriging.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.size
    n_pairs = n * (n - 1) // 2
    if n_pairs < 5:
        raise ValueError(f"need at least 5 site pairs, got {n_pairs}")
    i, j = np.triu_indices(n, k=1)
    d = great_circle_km(lat[i], lon[i], lat[j], lon[j])
    return _fit_stacked([_bin_residuals(_variogram_bins(d, i, j), residuals)])[0]


def _solve_or_none(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def _krige(d_ss, d_ts, residuals, variograms):
    """Ordinary kriging of each row of residuals (steps x sites) under its
    own variogram, from site x site and target x site distances.

    The systems are built and solved as stacks of about _SOLVE_ENTRIES
    matrix entries.  A stack holding a singular system is solved again one
    system at a time, so that only the singular ones drop to
    inverse-distance-squared weighting.  Returns (estimates, fallback),
    (steps x targets) and (steps,).
    """
    steps, n = residuals.shape
    neg3_ss, neg3_ts = -3.0 * d_ss, -3.0 * d_ts
    estimates = np.empty((steps, d_ts.shape[0]))
    fallback = np.zeros(steps, dtype=bool)
    size = max(1, _SOLVE_ENTRIES // (n + 1) ** 2)
    for start in range(0, steps, size):
        chunk = range(start, min(start + size, steps))
        params = np.array([[v.nugget, v.sill, v.range_km] for v in variograms[start : chunk.stop]])
        nugget, sill, range_km = params.T[:, :, None, None]
        a = np.ones((len(chunk), n + 1, n + 1))
        a[:, :n, :n] = _gamma(neg3_ss, nugget, sill, range_km)
        a[:, n, n] = 0.0
        b = np.ones((len(chunk), n + 1, d_ts.shape[0]))
        b[:, :n, :] = _gamma(neg3_ts, nugget, sill, range_km).transpose(0, 2, 1)
        try:
            weights = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            weights = [_solve_or_none(a_s, b_s) for a_s, b_s in zip(a, b)]
        for s, w in zip(chunk, weights):
            if w is None:
                estimates[s] = _idw_squared(d_ts, residuals[s])
                fallback[s] = True
            else:
                estimates[s] = residuals[s] @ w[:n, :]
    return estimates, fallback


def ordinary_krige(site_lat, site_lon, residuals, variogram, target_lat, target_lon):
    """Ordinary kriging of residuals at target points.

    Returns (estimates, used_fallback). A singular kriging system drops to
    inverse-distance-squared weighting; used_fallback reports that.
    """
    site_lat = np.asarray(site_lat, dtype=float)
    site_lon = np.asarray(site_lon, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    target_lat = np.atleast_1d(np.asarray(target_lat, dtype=float))
    target_lon = np.atleast_1d(np.asarray(target_lon, dtype=float))
    if residuals.size == 0:
        raise ValueError("kriging needs at least one site")

    d_ts = great_circle_km(
        target_lat[:, None], target_lon[:, None], site_lat[None, :], site_lon[None, :]
    )
    d_ss = great_circle_km(
        site_lat[:, None], site_lon[:, None], site_lat[None, :], site_lon[None, :]
    )
    estimates, fallback = _krige(d_ss, d_ts, residuals[None, :], [variogram])
    return estimates[0], bool(fallback[0])


def _idw_squared(d_ts, residuals):
    out = np.empty(d_ts.shape[0])
    for row, d in enumerate(d_ts):
        hit = d == 0.0
        if np.any(hit):
            out[row] = residuals[np.argmax(hit)]
        else:
            w = 1.0 / d**2
            out[row] = w @ residuals / w.sum()
    return out


def impute_monthly(series, stations, cfg=None, window=STUDY_WINDOW):
    """Fill missing monthly slots across a station network; ``stations``
    is a sequence of StationMeta that covers every series' station.

    Every timestep of the window is treated independently: stations
    observed at that timestep (with a known elevation) train the
    elevation regression; missing stations get the regression prediction
    plus the kriged residual. Returns (completed series, provenance
    masks, notes), with completed series spanning December before the
    window through its end so winter seasons at the window edge stay
    computable; the leading December is passed through, never imputed.

    Timesteps sharing a set of training stations share everything but the
    values: distances, regression weights and sums, and variogram bins are
    built once per such set (gwr_fit_predict, fit_variogram and
    ordinary_krige compose the same helpers).  Each element takes three
    passes: the regression and the binned semivariances per set; one
    stacked range search over every timestep of the element that needs a
    variogram fit; and the kriging solves per set, stacked.  One set's
    distances are held at a time.
    """
    cfg = cfg or GwrConfig()
    meta = {st.station_id: st for st in stations}
    year0, year1 = window
    t0 = month_index(year0, 1)
    n_steps = (year1 - year0 + 1) * 12

    notes = []
    out_series = []
    out_masks = []

    by_element = {}
    for s in series:
        by_element.setdefault(s.element, []).append(s)

    for element in sorted(by_element):
        group = sorted(by_element[element], key=lambda s: s.station_id)
        ids = [s.station_id for s in group]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate {element} series for a station")
        lat = np.array([meta[i].lat for i in ids])
        lon = np.array([meta[i].lon for i in ids])
        elev = np.array(
            [meta[i].elev if meta[i].elev is not None else np.nan for i in ids]
        )
        for sid in ids:
            if meta[sid].elev is None:
                notes.append(f"{element} {sid}: no elevation; missing slots unimputable")

        n_st = len(group)
        grid = np.full((n_st, n_steps + 1), np.nan)
        for row, s in enumerate(group):
            copy_onto(grid[row], t0 - 1, s)
        codes = np.where(np.isfinite(grid), ProvenanceMask.OBSERVED, ProvenanceMask.UNIMPUTABLE)

        has_elev = np.isfinite(elev)
        observed = np.isfinite(grid)
        steps = np.flatnonzero(~observed[:, 1:].all(axis=0)) + 1
        reasons = {}
        if steps.size:
            # dist[r, c] takes station r as the first point, as the public
            # gwr_fit_predict, fit_variogram and ordinary_krige do, so its
            # slices equal their distances bit for bit
            dist = great_circle_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
            train_masks, group_of = np.unique(
                (observed[:, steps] & has_elev[:, None]).T, axis=0, return_inverse=True
            )
            kriged = []
            for g, train_mask in enumerate(train_masks):
                part = _regress_group(
                    grid,
                    codes,
                    reasons,
                    steps[group_of.ravel() == g],
                    np.flatnonzero(train_mask),
                    np.flatnonzero(has_elev & ~train_mask),
                    dist,
                    elev,
                    cfg,
                )
                if part is not None:
                    kriged.append(part)
            fitted = iter(_fit_stacked([vg for part in kriged for vg in part.variograms]))
            for part in kriged:
                part.variograms[:] = [next(fitted) for _ in part.variograms]
            for part in kriged:
                _krige_group(grid, reasons, part, dist)
        for t in sorted(reasons):
            year, month = divmod(t0 + t - 1, 12)
            notes.append(f"{element} {year}-{month + 1:02d}: {reasons[t]}")

        for row, sid in enumerate(ids):
            out_series.append(
                MonthlySeries(
                    station_id=sid,
                    element=element,
                    first_year=year0 - 1,
                    first_month=12,
                    values=grid[row],
                )
            )
            out_masks.append(ProvenanceMask(codes=codes[row]))

    return out_series, out_masks, notes


@dataclass(frozen=True)
class _KrigedSteps:
    """A mask group's timesteps that go on to kriging, between the passes
    of impute_monthly: their grid columns, regression residuals and
    variograms (or the range-search problems still to be fitted)."""

    train_rows: np.ndarray
    target_rows: np.ndarray
    steps: list
    residuals: list
    variograms: list


def _regress_group(grid, codes, reasons, steps, train_rows, target_rows, dist, elev, cfg):
    """Regression pass over the grid columns `steps`, which share their
    training stations.

    Writes the regression predictions into grid and codes, and the note on
    each step that needs one into reasons, keyed by step.  Returns the
    steps whose residuals have a variogram to krige with, or None.
    """
    n_train = train_rows.size
    if n_train < cfg.min_train:
        for t in steps:
            reasons[t] = f"{n_train} usable stations < min_train; unimputable"
        return None
    if target_rows.size == 0:
        return None

    d_train = dist[np.ix_(train_rows, train_rows)]
    d_targets = dist[np.ix_(target_rows, train_rows)]
    # elevations and values are strided columns of one (n, 4) array, the
    # layout gwr_fit_predict receives: BLAS rounds `weights @ x` differently
    # for a strided and a contiguous x
    train = np.empty((n_train, 4))
    train[:, 2] = elev[train_rows]
    gwr = _gwr_geometry(d_targets, d_train, train[:, 2], elev[target_rows], cfg.neighbors)
    krige = n_train * (n_train - 1) // 2 >= 5
    if krige:
        i, j = np.triu_indices(n_train, k=1)
        bins = _variogram_bins(d_train[i, j], i, j)

    kriged = _KrigedSteps(train_rows, target_rows, [], [], [])
    for t in steps:
        train[:, 3] = grid[train_rows, t]
        pred, resid = _gwr_apply(gwr, train[:, 3])
        grid[target_rows, t] = pred
        codes[target_rows, t] = ProvenanceMask.IMPUTED
        if not krige:
            reasons[t] = "too few site pairs; regression only"
            continue
        vg = _bin_residuals(bins, resid)
        if not (isinstance(vg, Variogram) and vg.degenerate):
            kriged.steps.append(t)
            kriged.residuals.append(resid)
            kriged.variograms.append(vg)
    return kriged if kriged.steps else None


def _krige_group(grid, reasons, kriged, dist):
    """Kriging pass: add the kriged residuals to the regression predictions
    in grid, and note each step that fell back to inverse distance."""
    train, targets = kriged.train_rows, kriged.target_rows
    correction, used_idw = _krige(
        dist[np.ix_(train, train)],
        dist[np.ix_(targets, train)],
        np.array(kriged.residuals),
        kriged.variograms,
    )
    grid[np.ix_(targets, kriged.steps)] += correction.T
    for t in np.array(kriged.steps)[used_idw]:
        reasons[t] = "singular kriging system; inverse-distance fallback"


def lwma_fill(series):
    """Fill gaps in a daily series with flank-weighted moving averages.

    A gap of n days uses the 2n observed days on each side, weights rising
    linearly toward the gap; the fill is the average of the two one-sided
    means. Gaps at the series edge use the single available side. A flank
    that would cross another missing day stays unfilled and is flagged.
    """
    values = series.values.copy()
    missing = ~np.isfinite(series.values)
    codes = np.full(values.size, ProvenanceMask.OBSERVED)
    codes[missing] = ProvenanceMask.UNIMPUTABLE
    size = values.size

    # gap g covers days [starts[g], stops[g]); a flank is clean when it
    # ends before the neighbouring gap (or the series edge) begins
    edges = np.flatnonzero(np.diff(np.concatenate(([False], missing, [False]))))
    starts, stops = edges[::2], edges[1::2]
    lengths = stops - starts
    span = 2 * lengths
    before_ok = starts - span >= np.concatenate(([0], stops[:-1]))
    after_ok = stops + span <= np.concatenate((starts[1:], [size]))
    at_left = starts == 0
    at_right = stops == size
    # an edge gap has only the other flank; a gap spanning the series has none
    fillable = np.where(at_left, after_ok, np.where(at_right, before_ok, before_ok & after_ok))

    for n in sorted(set(lengths[fillable].tolist())):
        gaps = np.flatnonzero(fillable & (lengths == n))
        w_up = np.arange(1, 2 * n + 1, dtype=float)
        # an edge gap's missing flank is gathered clipped and then ignored
        before = values.take(starts[gaps, None] + np.arange(-2 * n, 0), mode="clip")
        after = values.take(stops[gaps, None] + np.arange(2 * n), mode="clip")
        # The fills must equal a 1-D dot per flank bit for bit.  Reversed
        # weights have a negative stride, which keeps numpy off BLAS both
        # there and in this product: both sum left to right.  The rising
        # weights go through BLAS ddot, whose rounding no batched product
        # reproduces once a weight (3 and up) makes a product inexact, so
        # those numerators take the same 1-D dot per gap.
        num_after = after @ w_up[::-1]
        if n == 1:
            num_before = before @ w_up
        else:
            num_before = np.array([w_up @ row for row in before])
        denom = float(n * (2 * n + 1))  # 1 + 2 + ... + 2n
        fill = np.where(
            at_left[gaps],
            num_after / denom,
            np.where(at_right[gaps], num_before / denom, (num_before + num_after) / (2.0 * denom)),
        )
        days = starts[gaps, None] + np.arange(n)
        values[days] = fill[:, None]
        codes[days] = ProvenanceMask.IMPUTED

    completed = DailySeries(
        station_id=series.station_id,
        element=series.element,
        start=series.start,
        values=values,
    )
    return completed, ProvenanceMask(codes=codes)
