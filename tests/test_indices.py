import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from megaheat.indices import (
    CDD_BASE_C,
    _complete_years,
    annual_cdd,
    annual_cnm,
    annual_p95,
    regional_annual_series,
    seasonal_annual_series,
)
from megaheat.series import AnnualSeries, DailySeries, MonthlySeries


def _monthly(values, first_year, first_month=1, station="S1", element="TAVG"):
    return MonthlySeries(
        station_id=station,
        element=element,
        first_year=first_year,
        first_month=first_month,
        values=np.asarray(values, dtype=float),
    )


def _daily(values, start, station="S1", element="TMAX"):
    return DailySeries(
        station_id=station, element=element, start=start, values=np.asarray(values, dtype=float)
    )


def _full_year(year, rng=None, base=20.0):
    n = 366 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 365
    if rng is None:
        return np.full(n, base)
    return base + rng.normal(0, 5, n)


class TestSeasonalMeans:
    def test_jja_mean(self):
        v = np.full(12, np.nan)
        v[5], v[6], v[7] = 20.0, 30.0, 25.0
        out = seasonal_annual_series([_monthly(v, 1990)])
        assert list(out) == [("S1", "JJA", "TAVG")]
        jja = out[("S1", "JJA", "TAVG")]
        assert (jja.key, jja.metric) == ("S1", "jja_tavg")
        assert list(jja.years) == [1990]
        assert jja.values[0] == pytest.approx(25.0)

    def test_djf_uses_previous_december(self):
        # Dec 1959 = 0, Jan 1960 = -10, Feb 1960 = -5
        v = np.full(15, np.nan)  # Dec 1959 .. Feb 1961
        v[0], v[1], v[2] = 0.0, -10.0, -5.0
        out = seasonal_annual_series([_monthly(v, 1959, first_month=12)])
        djf = out[("S1", "DJF", "TAVG")]
        assert djf.metric == "djf_tavg"
        assert list(djf.years) == [1960]
        assert djf.values[0] == pytest.approx(-5.0)

    def test_missing_month_omits_season(self):
        v = np.full(12, 10.0)
        v[6] = np.nan  # July
        out = seasonal_annual_series([_monthly(v, 1990)])
        assert not any(a.metric.startswith("jja") for a in out.values())

    def test_season_outside_coverage_omitted(self):
        # series starts in January: no Dec(Y-1), so no DJF at all
        out = seasonal_annual_series([_monthly(np.full(12, 1.0), 2000)])
        assert list(out) == [("S1", "JJA", "TAVG")]

    def test_shift_by_twelve_months_shifts_years(self):
        rng = np.random.default_rng(17)
        v = rng.normal(10, 8, 120)
        v[rng.random(120) < 0.08] = np.nan
        a = seasonal_annual_series([_monthly(v, 1980)])
        b = seasonal_annual_series([_monthly(v, 1981)])
        assert list(a) == list(b)
        for sa, sb in zip(a.values(), b.values()):
            assert list(sa.years + 1) == list(sb.years)
            assert list(sa.values) == list(sb.values)

    def test_seasonal_annual_series_grouping(self):
        a = np.full(21, np.nan)  # Dec 1989 .. Aug 1991
        a[0:3] = 1.0  # DJF 1990
        a[6:9] = 30.0  # JJA 1990
        a[18:21] = 31.0  # JJA 1991
        b = np.full(12, np.nan)
        b[5:8] = 28.0  # JJA 1990
        out = seasonal_annual_series(
            [_monthly(b, 1990, station="B", element="TMAX"),
             _monthly(a, 1989, first_month=12, station="A", element="TMAX")]
        )
        assert list(out) == [("A", "DJF", "TMAX"), ("A", "JJA", "TMAX"), ("B", "JJA", "TMAX")]
        assert [(s.key, s.metric) for s in out.values()] == [
            ("A", "djf_tmax"), ("A", "jja_tmax"), ("B", "jja_tmax")
        ]
        a_jja = out[("A", "JJA", "TMAX")]
        assert list(a_jja.years) == [1990, 1991]
        assert_allclose(a_jja.values, [30.0, 31.0])


def _seasonal_means_by_year(series):
    """Per-year, per-season reference for seasonal_annual_series: one
    (station, metric, year, value) tuple per complete season, sorted by
    station, season, element and year."""
    out = []
    for s in series:
        for year in range(s.first_year, s.month_of(s.values.size - 1)[0] + 1):
            for season, months in (("DJF", ((year - 1, 12), (year, 1), (year, 2))),
                                   ("JJA", ((year, 6), (year, 7), (year, 8)))):
                got = [s.value_in(y, m) for y, m in months]
                if all(np.isfinite(got)):
                    out.append((s.station_id, season, s.element, year, (got[0] + got[1] + got[2]) / 3.0))
    out.sort(key=lambda v: v[:4])
    return [(sid, f"{season.lower()}_{element.lower()}", year, value) for sid, season, element, year, value in out]


def _random_gappy_monthly(rng):
    series = []
    for i in range(30):
        v = rng.normal(15.0, 8.0, int(rng.integers(1, 80)))
        v[rng.random(v.size) < 0.1] = np.nan
        series.append(
            _monthly(v, int(rng.integers(1950, 1960)), int(rng.integers(1, 13)),
                     station=f"S{i % 10}", element=("TMIN", "TAVG", "TMAX")[i // 10])
        )
    return series


class TestSeasonalMeansMatchPerYearLoop:
    def test_random_gappy_series_bit_identical(self):
        series = _random_gappy_monthly(np.random.default_rng(51))
        got = [
            (a.key, a.metric, int(year), float(value))
            for a in seasonal_annual_series(series).values()
            for year, value in zip(a.years, a.values)
        ]
        assert got == _seasonal_means_by_year(series)
        assert len(got) > 100

    def test_key_matches_the_label(self):
        # the key is what the series' key and metric label spell, in key order
        out = seasonal_annual_series(_random_gappy_monthly(np.random.default_rng(52)))
        assert len(out) > 20 and list(out) == sorted(out)
        for key, a in out.items():
            season, element = a.metric.split("_")
            assert key == (a.key, season.upper(), element.upper())

    def test_empty_series_yields_nothing(self):
        assert seasonal_annual_series([_monthly([], 1990)]) == {}


class TestAnnualCdd:
    def test_single_hot_day_contribution(self):
        tmax = _full_year(2001, base=10.0)
        tmin = _full_year(2001, base=5.0)
        tmax[100], tmin[100] = 35.0, 25.0
        cdd = annual_cdd(
            _daily(tmax, dt.date(2001, 1, 1)), _daily(tmin, dt.date(2001, 1, 1), element="TMIN")
        )
        assert list(cdd.years) == [2001]
        assert cdd.values[0] == pytest.approx(35.0 / 2 + 25.0 / 2 - 23.89, rel=1e-12)
        assert cdd.values[0] == pytest.approx(6.11, abs=1e-9)

    def test_cold_year_is_zero(self):
        start = dt.date(2002, 1, 1)
        cdd = annual_cdd(
            _daily(_full_year(2002, base=20.0), start),
            _daily(_full_year(2002, base=10.0), start, element="TMIN"),
        )
        assert cdd.values[0] == 0.0

    def test_ten_days_one_degree_over(self):
        tmax = _full_year(2003, base=10.0)
        tmin = _full_year(2003, base=5.0)
        tmax[50:60] = 24.89 + 1.0
        tmin[50:60] = 24.89 - 1.0
        start = dt.date(2003, 1, 1)
        cdd = annual_cdd(_daily(tmax, start), _daily(tmin, start, element="TMIN"))
        assert cdd.values[0] == pytest.approx(10.0, rel=1e-9)

    def test_incomplete_year_omitted(self):
        start = dt.date(2001, 3, 1)
        n = (dt.date(2002, 12, 31) - start).days + 1
        tmax = _daily(np.full(n, 30.0), start)
        tmin = _daily(np.full(n, 20.0), start, element="TMIN")
        cdd = annual_cdd(tmax, tmin)
        assert list(cdd.years) == [2002]

    def test_missing_day_omits_year(self):
        tmax = _full_year(2001, base=30.0)
        tmin = _full_year(2001, base=20.0)
        tmin[200] = np.nan
        start = dt.date(2001, 1, 1)
        cdd = annual_cdd(_daily(tmax, start), _daily(tmin, start, element="TMIN"))
        assert cdd.years.size == 0

    def test_warming_never_decreases_cdd(self):
        rng = np.random.default_rng(18)
        start = dt.date(2001, 1, 1)
        for _ in range(20):
            tmax = _full_year(2001, rng, base=26.0)
            tmin = _full_year(2001, rng, base=16.0)
            a = annual_cdd(_daily(tmax, start), _daily(tmin, start, element="TMIN"))
            b = annual_cdd(
                _daily(tmax + 1.0, start), _daily(tmin + 1.0, start, element="TMIN")
            )
            assert b.values[0] >= a.values[0] >= 0.0


class TestAnnualCnm:
    def test_constant_year(self):
        tmin = _daily(_full_year(2001, base=4.25), dt.date(2001, 1, 1), element="TMIN")
        cnm = annual_cnm(tmin)
        assert list(cnm.years) == [2001]
        assert cnm.values[0] == pytest.approx(4.25)

    def test_increasing_year_takes_last_window(self):
        v = np.linspace(0, 36.4, 365)
        cnm = annual_cnm(_daily(v, dt.date(2001, 1, 1), element="TMIN"))
        assert cnm.values[0] == pytest.approx(v[-3:].mean(), rel=1e-12)

    def test_windows_stay_within_year(self):
        # hot streak split across Dec 31 / Jan 1 must not form a window
        start = dt.date(2001, 1, 1)
        n = (dt.date(2002, 12, 31) - start).days + 1
        v = np.zeros(n)
        v[363:368] = 30.0  # Dec 30 2001 .. Jan 3 2002
        cnm = annual_cnm(_daily(v, start, element="TMIN"))
        dec = np.array([30.0, 30.0])  # only 2 hot nights inside 2001
        assert cnm.values[0] == pytest.approx((dec.sum() + 0.0) / 3, rel=1e-12)
        assert cnm.values[1] == pytest.approx((30.0 * 3) / 3, rel=1e-12)


class TestAnnualP95:
    def test_annual_wrapper(self):
        v = _full_year(2001)
        v[:100] = np.linspace(30, 40, 100)
        p95 = annual_p95(_daily(v, dt.date(2001, 1, 1)))
        assert list(p95.years) == [2001]
        assert p95.values[0] == pytest.approx(float(np.percentile(v, 95.0)), rel=1e-12)


def _year_slices(series):
    return _year_ranges(series.start, series.end)


def _year_ranges(first, last):
    """(year, lo, hi) per calendar year fully inside first..last, by a
    loop over dt.date values."""
    year = first.year if (first.month, first.day) == (1, 1) else first.year + 1
    out = []
    while dt.date(year, 12, 31) <= last:
        out.append((year, (dt.date(year, 1, 1) - first).days, (dt.date(year, 12, 31) - first).days + 1))
        year += 1
    return out


# Per-year loops: the reference the year x day block versions must match
# bit for bit.
def _by_year(series, reducer):
    years, vals = [], []
    for year, lo, hi in _year_slices(series):
        window = series.values[lo:hi]
        if np.all(np.isfinite(window)):
            years.append(year)
            vals.append(reducer(window))
    return years, vals


def _cnm_by_year(tmin):
    def warmest(v):
        windows = np.lib.stride_tricks.sliding_window_view(v, 3)
        return float((windows.sum(axis=1) / 3).max())

    return _by_year(tmin, warmest)


def _p95_by_year(tmax):
    def p95(v):
        v = np.sort(v)
        rank = 0.95 * (v.size - 1) + 1.0
        whole = int(rank)
        frac = rank - whole
        return float(v[whole - 1] + frac * (v[whole] - v[whole - 1]))

    return _by_year(tmax, p95)


def _cdd_by_year(tmax, tmin, base=CDD_BASE_C):
    by_year_min = {y: (lo, hi) for y, lo, hi in _year_slices(tmin)}
    years, vals = [], []
    for year, lo_x, hi_x in _year_slices(tmax):
        if year not in by_year_min:
            continue
        lo_n, hi_n = by_year_min[year]
        vx, vn = tmax.values[lo_x:hi_x], tmin.values[lo_n:hi_n]
        if np.all(np.isfinite(vx)) and np.all(np.isfinite(vn)):
            years.append(year)
            excess = (vx + vn) / 2.0 - base
            vals.append(float(excess[excess > 0.0].sum()))
    return years, vals


class TestHeatIndicesMatchPerYearLoop:
    def _pairs(self, rng, n):
        # partial edge years, leap years (2000 included, 1900 excluded),
        # NaN days and runs, and TMIN records offset from TMAX ones
        for _ in range(n):
            start = dt.date(int(rng.choice([1899, 1950, 1999])), 1, 1) + dt.timedelta(
                days=int(rng.integers(0, 400))
            )
            size = int(rng.integers(300, 6 * 366))
            tmax = np.round(rng.normal(26.0, 6.0, size), 1)
            tmin = np.round(tmax - rng.uniform(5.0, 12.0, size), 1)
            for v in (tmax, tmin):
                v[rng.random(size) < 0.0005] = np.nan
                if rng.random() < 0.3:
                    lo = int(rng.integers(0, size))
                    v[lo : lo + int(rng.integers(1, 40))] = np.nan
            shift = int(rng.integers(-40, 40))
            yield (
                _daily(tmax, start, element="TMAX"),
                _daily(tmin[max(shift, 0) :], start + dt.timedelta(days=max(shift, 0)), element="TMIN"),
            )

    @staticmethod
    def _assert_same(got, years, vals):
        assert got.years.dtype.kind == "i" and got.values.dtype == float
        assert got.years.tolist() == years
        assert got.values.tolist() == vals  # exact

    def test_seeded_records(self):
        rng = np.random.default_rng(61)
        for tmax, tmin in self._pairs(rng, 60):
            self._assert_same(annual_cnm(tmin), *_cnm_by_year(tmin))
            self._assert_same(annual_p95(tmax), *_p95_by_year(tmax))
            self._assert_same(annual_cdd(tmax, tmin), *_cdd_by_year(tmax, tmin))

    def test_synthetic_world(self):
        from megaheat.synth import SynthParams, synth_generate

        world = synth_generate(62, SynthParams(n_pairs=1, uc_stations=2, nonuc_stations=2, gap_rate=0.005))
        by_station = {}
        for s in world.daily:
            by_station.setdefault(s.station_id, {})[s.element] = s
        for elements in by_station.values():
            tmax, tmin = elements["TMAX"], elements["TMIN"]
            self._assert_same(annual_cnm(tmin), *_cnm_by_year(tmin))
            self._assert_same(annual_p95(tmax), *_p95_by_year(tmax))
            self._assert_same(annual_cdd(tmax, tmin), *_cdd_by_year(tmax, tmin))

    def test_short_and_disjoint_records(self):
        tmax = _daily(np.full(200, 30.0), dt.date(2001, 3, 1))
        tmin = _daily(np.full(200, 20.0), dt.date(2003, 3, 1), element="TMIN")
        for got in (annual_cnm(tmin), annual_p95(tmax), annual_cdd(tmax, tmin)):
            assert got.years.size == 0 and got.values.size == 0


class TestCompleteYearsMatchDateLoop:
    def test_random_spans(self):
        rng = np.random.default_rng(31)
        base = dt.date(1895, 1, 1)
        edges = [dt.date(1899, 12, 31), dt.date(1900, 1, 1), dt.date(1999, 12, 31), dt.date(2000, 1, 1)]
        for i in range(600):
            first = base + dt.timedelta(days=int(rng.integers(0, 45_000)))
            last = first + dt.timedelta(days=int(rng.integers(-400, 4_000)))
            if i % 10 == 0:
                first = edges[i // 10 % 4]
            if i % 7 == 0:
                last = edges[(i // 7 + 1) % 4] + dt.timedelta(days=365 * int(rng.integers(0, 30)))
            years, lo, hi = _complete_years(first, last)
            ref = _year_ranges(first, last)
            for got, column in zip((years, lo, hi), zip(*ref) if ref else ((), (), ())):
                assert got.dtype == np.array([0]).dtype
                assert got.tolist() == list(column)


def _regional_by_year(station_series, key):
    """The per-year reference: np.mean of each year's reporting values,
    stations in key order."""
    ordered = sorted(station_series, key=lambda s: s.key)
    maps = [dict(zip(s.years, s.values)) for s in ordered]
    years = sorted({int(y) for m in maps for y in m})
    vals = [float(np.mean([m[y] for m in maps if y in m])) for y in years]
    return AnnualSeries(key=key, metric=ordered[0].metric, years=np.array(years, dtype=int), values=np.array(vals))


def _ragged_group(rng, k, magnitude):
    """k stations over random subsets of 60 years, keys in shuffled order."""
    out = []
    for m in rng.permutation(k):
        keep = rng.random(60) < rng.uniform(0.3, 1.0)
        keep[rng.integers(0, 60)] = True
        years = np.flatnonzero(keep) + 1956
        values = rng.normal(0.0, 1.0, years.size) * magnitude * 10.0 ** rng.uniform(-1, 1, years.size)
        out.append(AnnualSeries(f"S{m:02d}", "p95", years, values))
    return out


class TestRegionalSeriesMatchesPerYearLoop:
    """The year x station block against np.mean per year, bit for bit."""

    def _assert_same(self, group):
        got, ref = regional_annual_series(group, key="g"), _regional_by_year(group, "g")
        assert got.years.tolist() == ref.years.tolist()
        assert got.values.tolist() == ref.values.tolist()

    def test_ragged_groups_across_magnitudes(self):
        rng = np.random.default_rng(5)
        for i in range(300):
            k = int(rng.integers(1, 30)) if i % 3 else int(rng.integers(8, 30))
            self._assert_same(_ragged_group(rng, k, 10.0 ** rng.uniform(-3, 3)))

    def test_full_reporting_wide_group(self):
        rng = np.random.default_rng(6)
        years = np.arange(1956, 2016)
        for k in (8, 9, 16, 17, 29, 40):
            group = [
                AnnualSeries(f"S{m:02d}", "cdd", years, rng.normal(0, 1, 60) * 10.0 ** rng.uniform(-3, 3, 60))
                for m in range(k)
            ]
            self._assert_same(group)


class TestRegionalSeries:
    def test_mean_of_two(self):
        a = AnnualSeries("A", "cdd", np.array([1990]), np.array([10.0]))
        b = AnnualSeries("B", "cdd", np.array([1990]), np.array([20.0]))
        out = regional_annual_series([a, b], key="metro")
        assert out.key == "metro" and out.metric == "cdd"
        assert list(out.years) == [1990]
        assert out.values[0] == pytest.approx(15.0)

    def test_single_station_identity(self):
        a = AnnualSeries("A", "cnm", np.array([1990, 1991]), np.array([1.0, 2.0]))
        out = regional_annual_series([a], key="g")
        assert_allclose(out.values, a.values)
        assert list(out.years) == [1990, 1991]

    def test_partial_reporting(self):
        a = AnnualSeries("A", "p95", np.array([1990, 1991]), np.array([10.0, 12.0]))
        b = AnnualSeries("B", "p95", np.array([1991]), np.array([20.0]))
        out = regional_annual_series([a, b], key="g")
        assert list(out.years) == [1990, 1991]
        assert_allclose(out.values, [10.0, 16.0])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            regional_annual_series([], key="g")

    def test_mixed_metrics_rejected(self):
        a = AnnualSeries("A", "cdd", np.array([1990]), np.array([1.0]))
        b = AnnualSeries("B", "cnm", np.array([1990]), np.array([2.0]))
        with pytest.raises(ValueError, match="metric"):
            regional_annual_series([a, b], key="g")


class TestCsv:
    def test_base_constant(self):
        assert CDD_BASE_C == 23.89
