"""Seasonal aggregates and annual heat indices.

Station-level monthly series turn into winter/summer means, daily series
into three annual indices: cooling degree days, the warmest mean of three
consecutive nights, and the within-year 95th percentile of daily maxima.
Station values average into regional series per station group.
"""

from __future__ import annotations

import numpy as np

from .series import AnnualSeries, date_to_serial, month_first_days, month_index

CDD_BASE_C = 23.89

SEASON_MONTHS = {"DJF": ((-1, 12), (0, 1), (0, 2)), "JJA": ((0, 6), (0, 7), (0, 8))}


def seasonal_annual_series(series):
    """Three-month seasonal means as {(station, season, element):
    AnnualSeries}, in key order; each series' metric is named like
    "jja_tmax".

    Winter (DJF) of year Y spans December of Y-1 through February of Y.
    A season missing any of its three months is omitted, and a season
    complete in no year yields no series.
    """
    keyed = {}
    for s in series:
        base = month_index(s.first_year, s.first_month)
        last_year = (base + s.values.size - 1) // 12
        n_years = last_year - s.first_year + 1
        if n_years <= 0:
            continue
        # year x month grid from January of the year before the record, NaN
        # where the record has no value
        grid = np.full((n_years + 1) * 12, np.nan)
        start = base - month_index(s.first_year - 1, 1)
        grid[start : start + s.values.size] = s.values
        grid = grid.reshape(n_years + 1, 12)
        for season, months in SEASON_MONTHS.items():
            # m0, m1, m2: the season's months in year first_year + y, summed
            # in season order (another order can round differently)
            m0, m1, m2 = (grid[1 + off : 1 + off + n_years, month - 1] for off, month in months)
            complete = np.isfinite(m0) & np.isfinite(m1) & np.isfinite(m2)
            if complete.any():
                keyed[(s.station_id, season, s.element)] = AnnualSeries(
                    key=s.station_id,
                    metric=f"{season.lower()}_{s.element.lower()}",
                    years=np.flatnonzero(complete) + s.first_year,
                    values=(m0[complete] + m1[complete] + m2[complete]) / 3.0,
                )
    return dict(sorted(keyed.items()))


def _complete_years(first, last):
    """(years, lo, hi) arrays: the calendar years fully inside the days
    first..last, as index ranges counted from first."""
    y0 = first.year if (first.month, first.day) == (1, 1) else first.year + 1
    y1 = last.year if (last.month, last.day) == (12, 31) else last.year - 1
    years = np.arange(y0, max(y0, y1 + 1))
    # day offsets of 1 January of each year and of the year after the last
    edges = month_first_days(np.arange(y0, y0 + years.size + 1) * 12) - date_to_serial(first)
    return years, edges[:-1], edges[1:]


def _finite_years(values, first, last):
    """_complete_years of first..last whose values are all finite."""
    years, lo, hi = _complete_years(first, last)
    missing = np.concatenate(([0], np.cumsum(~np.isfinite(values))))
    keep = missing[hi] == missing[lo]
    return years[keep], lo[keep], hi[keep]


def annual_cdd(tmax, tmin):
    """Cooling degree days per complete calendar year.

    Daily contribution is max(0, (tmax + tmin)/2 - CDD_BASE_C); a year missing
    any day in either element is omitted.
    """
    if tmax.station_id != tmin.station_id:
        raise ValueError("tmax and tmin must be the same station")
    if tmax.element != "TMAX" or tmin.element != "TMIN":
        raise ValueError("expected a TMAX series and a TMIN series")
    # the days both series cover
    first, last = max(tmax.start, tmin.start), min(tmax.end, tmin.end)
    n_days = max((last - first).days + 1, 0)
    vx = tmax.values[(first - tmax.start).days :][:n_days]
    vn = tmin.values[(first - tmin.start).days :][:n_days]
    excess = (vx + vn) / 2.0 - CDD_BASE_C
    years, lo, hi = _finite_years(excess, first, last)
    # summing only the positive excesses keeps the total identical for
    # identical weather whether or not the year has a Feb 29; one pairwise
    # sum per year, as a sum over the whole record would round differently
    totals = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        year = excess[a:b]
        totals.append(float(year[year > 0.0].sum()))
    return AnnualSeries(tmax.station_id, "cdd", years, totals)


def annual_cnm(tmin):
    """Warmest three-consecutive-night mean of daily minima, per complete
    calendar year; windows never span a year boundary."""
    if tmin.element != "TMIN":
        raise ValueError("expected a TMIN series")
    years, lo, hi = _finite_years(tmin.values, tmin.start, tmin.end)
    if not years.size:
        return AnnualSeries(tmin.station_id, "cnm", years, [])
    # window k covers days k..k+2, its mean summed in day order; a year's
    # windows start on lo..hi-3, and the segments between years are reduced
    # too and dropped.  The trailing NaN keeps the last segment start inside
    # the array.
    v = tmin.values
    means = np.append((v[:-2] + v[1:-1] + v[2:]) / 3, np.nan)
    maxima = np.maximum.reduceat(means, np.column_stack([lo, hi - 2]).ravel())[::2]
    return AnnualSeries(tmin.station_id, "cnm", years, maxima)


def _percentile_95_sorted(rows):
    """95th percentile of each row of an ascending-sorted 2-D block of 365
    or 366 columns, interpolating linearly between the order statistics
    that bracket the 1-based rank r = 0.95*(n-1) + 1, which is never whole."""
    rank = 0.95 * (rows.shape[1] - 1) + 1.0
    whole = int(rank)
    return rows[:, whole - 1] + (rank - whole) * (rows[:, whole] - rows[:, whole - 1])


def annual_p95(tmax):
    """Within-year 95th percentile of daily maxima per complete year."""
    if tmax.element != "TMAX":
        raise ValueError("expected a TMAX series")
    years, lo, hi = _finite_years(tmax.values, tmax.start, tmax.end)
    out = np.empty(years.size)
    # one sorted year x day block per year length (365 and 366)
    for n_days in set((hi - lo).tolist()):
        rows = np.flatnonzero(hi - lo == n_days)
        block = np.sort(tmax.values[lo[rows, None] + np.arange(n_days)], axis=1)
        out[rows] = _percentile_95_sorted(block)
    return AnnualSeries(tmax.station_id, "p95", years, out)


def regional_annual_series(station_series, key):
    """Unweighted mean across stations, per year, over reporting stations.

    The values sit in one year x station matrix, stations in key order.
    The years where the same stations report share one row-wise mean over
    their compressed block, a reduction along the contiguous last axis,
    which sums each year exactly as np.mean of that year's values does.
    """
    if not station_series:
        raise ValueError("empty station group")
    metrics = {s.metric for s in station_series}
    if len(metrics) != 1:
        raise ValueError(f"mixed metrics in one group: {sorted(metrics)}")
    ordered = sorted(station_series, key=lambda s: s.key)
    years, rows = np.unique(np.concatenate([s.years for s in ordered]), return_inverse=True)
    columns = np.repeat(np.arange(len(ordered)), [s.years.size for s in ordered])
    values = np.zeros((years.size, len(ordered)))
    reports = np.zeros(values.shape, dtype=bool)
    values[rows, columns] = np.concatenate([s.values for s in ordered])
    reports[rows, columns] = True
    by_mask: dict = {}
    for year, mask in enumerate(reports):
        by_mask.setdefault(mask.tobytes(), []).append(year)
    means = np.empty(years.size)
    for rows in by_mask.values():
        means[rows] = values[np.ix_(rows, np.flatnonzero(reports[rows[0]]))].mean(axis=1)
    return AnnualSeries(key=key, metric=metrics.pop(), years=years, values=means)
