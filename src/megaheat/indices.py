"""Seasonal aggregates and annual heat indices.

Station-level monthly series turn into winter/summer means, daily series
into three annual indices: cooling degree days, the warmest mean of three
consecutive nights, and the within-year 95th percentile of daily maxima.
Station values average into regional series per station group.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .series import AnnualSeries, DailySeries, MonthlySeries, month_index

CDD_BASE_C = 23.89

SEASON_MONTHS = {"DJF": ((-1, 12), (0, 1), (0, 2)), "JJA": ((0, 6), (0, 7), (0, 8))}
_SEASONS = tuple(SEASON_MONTHS)


@dataclass(frozen=True)
class SeasonalValue:
    station_id: str
    year: int
    season: str
    element: str
    value: float


def seasonal_means(series):
    """Three-month seasonal means per station year.

    Winter (DJF) of year Y spans December of Y-1 through February of Y.
    A season missing any of its three months is omitted.
    """
    out = []
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
        # months[y, k, m]: month m of season k in year first_year + y
        months = np.stack(
            [
                np.stack(
                    [grid[1 + off : 1 + off + n_years, month - 1] for off, month in SEASON_MONTHS[season]],
                    axis=1,
                )
                for season in _SEASONS
            ],
            axis=1,
        )
        complete = np.isfinite(months).all(axis=2)
        means = (months[:, :, 0] + months[:, :, 1] + months[:, :, 2]) / 3.0
        year_idx, season_idx = np.nonzero(complete)
        for y, k, value in zip(
            (year_idx + s.first_year).tolist(), season_idx.tolist(), means[complete].tolist()
        ):
            out.append(SeasonalValue(s.station_id, y, _SEASONS[k], s.element, value))
    out.sort(key=lambda v: (v.station_id, v.element, v.year, v.season))
    return out


def seasonal_annual_series(values):
    """Regroup SeasonalValue records into one AnnualSeries per
    (station, season, element), metric named like "jja_tmax"."""
    grouped = {}
    for v in values:
        grouped.setdefault((v.station_id, v.season, v.element), []).append(v)
    out = []
    for (station, season, element), group in sorted(grouped.items()):
        group.sort(key=lambda v: v.year)
        out.append(
            AnnualSeries(
                key=station,
                metric=f"{season.lower()}_{element.lower()}",
                years=np.array([v.year for v in group], dtype=int),
                values=np.array([v.value for v in group]),
            )
        )
    return out


def _complete_year_slices(series):
    """(year, start, stop) index ranges for calendar years fully covered."""
    first, last = series.start, series.end
    year = first.year if (first.month, first.day) == (1, 1) else first.year + 1
    out = []
    while True:
        jan1 = dt.date(year, 1, 1)
        dec31 = dt.date(year, 12, 31)
        if dec31 > last:
            break
        out.append((year, (jan1 - first).days, (dec31 - first).days + 1))
        year += 1
    return out


def _annual_from_daily(series, metric, reducer):
    years, vals = [], []
    for year, lo, hi in _complete_year_slices(series):
        window = series.values[lo:hi]
        if np.all(np.isfinite(window)):
            years.append(year)
            vals.append(reducer(window))
    return AnnualSeries(
        key=series.station_id,
        metric=metric,
        years=np.array(years, dtype=int),
        values=np.array(vals, dtype=float),
    )


def annual_cdd(tmax, tmin, base=CDD_BASE_C):
    """Cooling degree days per complete calendar year.

    Daily contribution is max(0, (tmax + tmin)/2 - base); a year missing
    any day in either element is omitted.
    """
    if tmax.station_id != tmin.station_id:
        raise ValueError("tmax and tmin must be the same station")
    if tmax.element != "TMAX" or tmin.element != "TMIN":
        raise ValueError("expected a TMAX series and a TMIN series")
    by_year_max = {y: (lo, hi) for y, lo, hi in _complete_year_slices(tmax)}
    by_year_min = {y: (lo, hi) for y, lo, hi in _complete_year_slices(tmin)}
    years, vals = [], []
    for year in sorted(by_year_max.keys() & by_year_min.keys()):
        lo_x, hi_x = by_year_max[year]
        lo_n, hi_n = by_year_min[year]
        vx = tmax.values[lo_x:hi_x]
        vn = tmin.values[lo_n:hi_n]
        if np.all(np.isfinite(vx)) and np.all(np.isfinite(vn)):
            years.append(year)
            # summing only the positive excesses keeps the total identical
            # for identical weather whether or not the year has a Feb 29
            excess = (vx + vn) / 2.0 - base
            vals.append(float(excess[excess > 0.0].sum()))
    return AnnualSeries(
        key=tmax.station_id,
        metric="cdd",
        years=np.array(years, dtype=int),
        values=np.array(vals, dtype=float),
    )


def max_consecutive_mean(values, width=3):
    """Largest mean over any run of `width` consecutive values."""
    v = np.asarray(values, dtype=float)
    if v.size < width:
        raise ValueError(f"need at least {width} values, got {v.size}")
    windows = np.lib.stride_tricks.sliding_window_view(v, width)
    return float((windows.sum(axis=1) / width).max())


def annual_cnm(tmin):
    """Warmest three-consecutive-night mean of daily minima, per complete
    calendar year; windows never span a year boundary."""
    if tmin.element != "TMIN":
        raise ValueError("expected a TMIN series")
    return _annual_from_daily(tmin, "cnm", max_consecutive_mean)


def percentile_95(values):
    """95th percentile with linear interpolation between order statistics.

    The rank is r = 0.95*(n-1) + 1 over the sorted values (1-based); the
    result interpolates between the two bracketing order statistics.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        raise ValueError("percentile of an empty set")
    if n == 1:
        return float(v[0])
    rank = 0.95 * (n - 1) + 1.0
    whole = int(rank)
    frac = rank - whole
    if whole >= n:
        return float(v[-1])
    if frac == 0.0:
        return float(v[whole - 1])
    return float(v[whole - 1] + frac * (v[whole] - v[whole - 1]))


def annual_p95(tmax):
    """Within-year 95th percentile of daily maxima per complete year."""
    if tmax.element != "TMAX":
        raise ValueError("expected a TMAX series")
    return _annual_from_daily(tmax, "p95", percentile_95)


def regional_annual_series(station_series, key):
    """Unweighted mean across stations, per year, over reporting stations."""
    if not station_series:
        raise ValueError("empty station group")
    metrics = {s.metric for s in station_series}
    if len(metrics) != 1:
        raise ValueError(f"mixed metrics in one group: {sorted(metrics)}")
    ordered = sorted(station_series, key=lambda s: s.key)
    maps = [s.as_dict() for s in ordered]
    years = sorted({int(y) for m in maps for y in m})
    vals = []
    for y in years:
        reporting = [m[y] for m in maps if y in m]
        vals.append(float(np.mean(reporting)))
    return AnnualSeries(
        key=key,
        metric=metrics.pop(),
        years=np.array(years, dtype=int),
        values=np.array(vals, dtype=float),
    )
