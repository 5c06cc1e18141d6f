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
import scipy.linalg

from .qc import STUDY_WINDOW
from .series import DailySeries, MonthlySeries, ProvenanceMask, month_index

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
        if self.neighbors < 3:
            raise ValueError("neighbors must be >= 3")
        if self.min_train < 3:
            raise ValueError("min_train must be >= 3")


def _bisquare_weights(dist, k):
    """Row-wise bisquare weights with bandwidth = distance to k-th nearest.

    dist has shape (targets, train). k >= train count means uniform
    weights (the wide-bandwidth limit).
    """
    m, n = dist.shape
    if k >= n:
        return np.ones((m, n))
    h = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (1.0 - (dist / h) ** 2) ** 2
    w = np.where(dist < h, w, 0.0)
    # coincident bandwidth (k-th neighbor at distance zero): keep the
    # stations at the target itself
    w = np.where(h > 0, w, (dist == 0).astype(float))
    # a distance tie putting every neighbor exactly at h zeroes the whole
    # row; fall back to uniform weights over the stations within reach
    dead = w.sum(axis=1) == 0.0
    if np.any(dead):
        w[dead] = (dist[dead] <= h[dead]).astype(float)
    return w


def _wls_on_elevation(weights, elev, values, target_elev):
    """Per-row weighted least squares of values on elevation.

    Falls back to the weighted mean when the weighted elevations are all
    equal within 1e-9 relative (floored at 1 m) or the normal equations
    are numerically singular.
    """
    sw = weights.sum(axis=1)
    swx = weights @ elev
    swxx = weights @ (elev * elev)
    swy = weights @ values
    swxy = weights @ (elev * values)

    masked = np.where(weights > 0, elev, np.nan)
    xmin = np.nanmin(masked, axis=1)
    xmax = np.nanmax(masked, axis=1)
    scale = np.maximum(np.maximum(np.abs(xmin), np.abs(xmax)), 1.0)
    flat = (xmax - xmin) <= 1e-9 * scale

    det = sw * swxx - swx * swx
    unstable = det <= 1e-12 * np.maximum(sw * swxx, 1e-300)
    use_mean = flat | unstable

    safe_det = np.where(use_mean, 1.0, det)
    slope = (sw * swxy - swx * swy) / safe_det
    intercept = (swy - slope * swx) / sw
    mean = swy / sw
    return np.where(use_mean, mean, intercept + slope * target_elev)


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

    def predict(tlat, tlon, telev):
        dist = great_circle_km(tlat[:, None], tlon[:, None], lat[None, :], lon[None, :])
        w = _bisquare_weights(dist, cfg.neighbors)
        return _wls_on_elevation(w, elev, vals, telev)

    preds = predict(targets[:, 0], targets[:, 1], targets[:, 2])
    resid = vals - predict(lat, lon, elev)
    return preds, resid


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
        dist = np.asarray(dist, dtype=float)
        g = self.nugget + (self.sill - self.nugget) * -np.expm1(-3.0 * dist / self.range_km)
        return np.where(dist > 0, g, 0.0)


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


def _fit_exponential(gam, dmean, cnt, half_max):
    """Global weighted-LS fit of nugget + delta * (1 - exp(-3d/range)).

    Variable projection: at a fixed range the model is linear in (nugget,
    delta), so the count-weighted least squares has a closed form, leaving
    a 1-D search over log range between _RANGE_MIN_KM and _RANGE_MAX_SCALE
    * half_max.  At each range the unconstrained 2x2 solution counts where
    both parameters come out non-negative; otherwise the better of the two
    boundary solutions (delta = 0, and nugget = 0 with delta clipped at 0)
    is the constrained optimum, the problem being convex in (nugget,
    delta).  Costs come from the residuals themselves, not from expanded
    normal-equation sums, which lose precision to cancellation.  Returns
    (nugget, delta, range_km).
    """
    sw = cnt.sum()
    sy = cnt @ gam
    cg = cnt * gam
    mean = sy / sw
    cost_mean = cnt @ (mean - gam) ** 2
    d3 = -3.0 * dmean

    def fits(log_r):
        # f carries a trailing bin axis; sums, parameters and costs are
        # shaped like log_r
        f = -np.expm1(d3 / np.exp(log_r)[..., None])
        sf = f @ cnt
        sff = (f * f) @ cnt
        sfy = f @ cg
        delta_zero = np.maximum(sfy / sff, 0.0)
        cost_zero = (delta_zero[..., None] * f - gam) ** 2 @ cnt
        det = sw * sff - sf * sf
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_free = (sw * sfy - sf * sy) / det
            nugget_free = (sy - delta_free * sf) / sw
            cost_free = (nugget_free[..., None] + delta_free[..., None] * f - gam) ** 2 @ cnt
            # NaN or inf from a singular system fails this test too
            free_ok = np.minimum(nugget_free, delta_free) >= 0.0
        use_zero = cost_zero < cost_mean
        nugget = np.where(free_ok, nugget_free, np.where(use_zero, 0.0, mean))
        delta = np.where(free_ok, delta_free, np.where(use_zero, delta_zero, 0.0))
        cost = np.where(free_ok, cost_free, np.minimum(cost_zero, cost_mean))
        return nugget, delta, cost

    lo, hi = np.log(_RANGE_MIN_KM), np.log(_RANGE_MAX_SCALE * half_max)
    log_r = np.linspace(lo, hi, _RANGE_GRID)
    nugget, delta, cost = fits(log_r)
    k = int(np.argmin(cost))
    best = (cost[k], nugget[k], delta[k], log_r[k])

    # a grid point is a local minimum when strictly below its left
    # neighbour and no higher than its right one, so a flat run counts once
    padded = np.concatenate(([np.inf], cost, [np.inf]))
    minima = np.flatnonzero((cost < padded[:-2]) & (cost <= padded[2:]))
    minima = minima[np.argsort(cost[minima], kind="stable")[:_RANGE_BASINS]]
    centers = log_r[minima]
    rows = np.arange(centers.size)
    step = log_r[1] - log_r[0]
    offsets = np.linspace(-1.0, 1.0, _RANGE_GRID)
    for _ in range(_RANGE_ZOOMS):
        log_r = np.clip(centers[:, None] + step * offsets, lo, hi)
        nugget, delta, cost = fits(log_r)
        k = np.argmin(cost, axis=1)
        centers = log_r[rows, k]
        b = int(np.argmin(cost[rows, k]))
        if cost[b, k[b]] < best[0]:
            best = (cost[b, k[b]], nugget[b, k[b]], delta[b, k[b]], centers[b])
        step *= 2.0 / (_RANGE_GRID - 1)
    return float(best[1]), float(best[2]), float(np.exp(best[3]))


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
    if np.max(np.abs(residuals)) <= _ZERO_RESIDUAL_ATOL:
        return Variogram(0.0, 0.0, 1.0, degenerate=True)

    i, j = np.triu_indices(n, k=1)
    d = great_circle_km(lat[i], lon[i], lat[j], lon[j])
    sv = 0.5 * (residuals[i] - residuals[j]) ** 2

    half_max = d.max() / 2.0
    if half_max <= 0.0:
        # every site coincident: no distance structure to fit
        return Variogram(0.0, 0.0, 1.0, degenerate=True)
    keep = d <= half_max
    width = half_max / 10.0
    bins = np.minimum((d[keep] / width).astype(int), 9)
    counts = np.bincount(bins, minlength=10).astype(float)
    gamma_sum = np.bincount(bins, weights=sv[keep], minlength=10)
    dist_sum = np.bincount(bins, weights=d[keep], minlength=10)

    filled = counts > 0
    gam = gamma_sum[filled] / counts[filled]
    dmean = dist_sum[filled] / counts[filled]
    cnt = counts[filled]

    if filled.sum() < 3:
        # not enough bins to constrain three parameters
        sill = float(np.average(gam, weights=cnt))
        if sill <= 0.0:
            return Variogram(0.0, 0.0, 1.0, degenerate=True)
        return Variogram(0.0, sill, float(half_max))

    nugget, delta, range_km = _fit_exponential(gam, dmean, cnt, float(half_max))
    return Variogram(nugget, nugget + delta, range_km)


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
    n = residuals.size
    if n == 0:
        raise ValueError("kriging needs at least one site")

    d_ts = great_circle_km(
        target_lat[:, None], target_lon[:, None], site_lat[None, :], site_lon[None, :]
    )
    d_ss = great_circle_km(
        site_lat[:, None], site_lon[:, None], site_lat[None, :], site_lon[None, :]
    )

    a = np.ones((n + 1, n + 1))
    a[:n, :n] = variogram.gamma(d_ss)
    a[n, n] = 0.0
    b = np.ones((n + 1, target_lat.size))
    b[:n, :] = variogram.gamma(d_ts).T

    try:
        weights = scipy.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return _idw_squared(d_ts, residuals), True
    return residuals @ weights[:n, :], False


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
    """Fill missing monthly slots across a station network.

    Every timestep of the window is treated independently: stations
    observed at that timestep (with a known elevation) train the
    elevation regression; missing stations get the regression prediction
    plus the kriged residual. Returns (completed series, provenance
    masks, notes), with completed series spanning December before the
    window through its end so winter seasons at the window edge stay
    computable; the leading December is passed through, never imputed.
    """
    cfg = cfg or GwrConfig()
    meta = stations if isinstance(stations, dict) else {st.station_id: st for st in stations}
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
            s_t0 = month_index(s.first_year, s.first_month)
            lo = max(s_t0, t0 - 1)
            hi = min(s_t0 + s.values.size, t0 + n_steps)
            if hi > lo:
                grid[row, lo - (t0 - 1) : hi - (t0 - 1)] = s.values[lo - s_t0 : hi - s_t0]
        codes = np.where(np.isfinite(grid), ProvenanceMask.OBSERVED, ProvenanceMask.UNIMPUTABLE)

        has_elev = np.isfinite(elev)
        for t in range(1, n_steps + 1):
            col = grid[:, t]
            obs = np.isfinite(col)
            if obs.all():
                continue
            year, month = divmod(t0 + t - 1, 12)
            stamp = f"{year}-{month + 1:02d}"
            train_rows = obs & has_elev
            n_train = int(train_rows.sum())
            if n_train < cfg.min_train:
                notes.append(
                    f"{element} {stamp}: {n_train} usable stations < min_train; unimputable"
                )
                continue
            target_rows = np.where(~obs & has_elev)[0]
            if target_rows.size == 0:
                continue

            train = np.column_stack(
                [lat[train_rows], lon[train_rows], elev[train_rows], col[train_rows]]
            )
            targets = np.column_stack(
                [lat[target_rows], lon[target_rows], elev[target_rows]]
            )
            pred, resid = gwr_fit_predict(train, targets, cfg)

            if n_train * (n_train - 1) // 2 >= 5:
                vg = fit_variogram(lat[train_rows], lon[train_rows], resid)
                if not vg.degenerate:
                    correction, used_idw = ordinary_krige(
                        lat[train_rows],
                        lon[train_rows],
                        resid,
                        vg,
                        lat[target_rows],
                        lon[target_rows],
                    )
                    pred = pred + correction
                    if used_idw:
                        notes.append(
                            f"{element} {stamp}: singular kriging system; "
                            "inverse-distance fallback"
                        )
            else:
                notes.append(f"{element} {stamp}: too few site pairs; regression only")

            grid[target_rows, t] = pred
            codes[target_rows, t] = ProvenanceMask.IMPUTED

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


def lwma_fill(series):
    """Fill gaps in a daily series with flank-weighted moving averages.

    A gap of n days uses the 2n observed days on each side, weights rising
    linearly toward the gap; the fill is the average of the two one-sided
    means. Gaps at the series edge use the single available side. A flank
    that would cross another missing day stays unfilled and is flagged.
    """
    values = series.values.copy()
    observed = np.isfinite(series.values)
    codes = np.where(observed, ProvenanceMask.OBSERVED, ProvenanceMask.UNIMPUTABLE)
    size = values.size

    missing = ~observed
    edges = np.flatnonzero(np.diff(np.concatenate(([False], missing, [False]))))
    for g0, g_end in zip(edges[::2], edges[1::2]):
        g1 = g_end - 1
        n = g1 - g0 + 1
        span = 2 * n
        denom = float(n * (2 * n + 1))  # 1 + 2 + ... + 2n

        before_ok = g0 - span >= 0 and observed[g0 - span : g0].all()
        after_ok = g1 + 1 + span <= size and observed[g1 + 1 : g1 + 1 + span].all()
        at_left_edge = g0 == 0
        at_right_edge = g1 == size - 1

        w_up = np.arange(1, span + 1, dtype=float)
        fill = None
        if at_left_edge and at_right_edge:
            fill = None
        elif at_left_edge:
            if after_ok:
                fill = float(w_up[::-1] @ values[g1 + 1 : g1 + 1 + span]) / denom
        elif at_right_edge:
            if before_ok:
                fill = float(w_up @ values[g0 - span : g0]) / denom
        elif before_ok and after_ok:
            num_before = float(w_up @ values[g0 - span : g0])
            num_after = float(w_up[::-1] @ values[g1 + 1 : g1 + 1 + span])
            fill = (num_before + num_after) / (2.0 * denom)

        if fill is not None:
            values[g0 : g1 + 1] = fill
            codes[g0 : g1 + 1] = ProvenanceMask.IMPUTED

    completed = DailySeries(
        station_id=series.station_id,
        element=series.element,
        start=series.start,
        values=values,
    )
    return completed, ProvenanceMask(codes=codes)
