import datetime as dt

import numpy as np
import pytest

from megaheat.qc import (
    DAILY_END_CUTOFF,
    DAILY_JJA_MAX_MISSING_FRAC,
    DAILY_MAX_GAP_DAYS,
    DAILY_MIN_SPAN_MONTHS,
    MONTHLY_MAX_GAP_MONTHS,
    MONTHLY_MAX_MISSING_FRAC,
    STUDY_WINDOW,
    filter_daily_stations,
    filter_monthly_stations,
    observed_in_window,
)
from megaheat.series import DailySeries, MonthlySeries


def monthly(values, first_year=1956, first_month=1, sid="S1", element="TAVG"):
    return MonthlySeries(
        station_id=sid,
        element=element,
        first_year=first_year,
        first_month=first_month,
        values=np.asarray(values, dtype=float),
    )


def daily(start, values, sid="S1", element="TMAX"):
    return DailySeries(
        station_id=sid, element=element, start=start, values=np.asarray(values, dtype=float)
    )


def full_window_monthly(sid="S1"):
    return monthly(np.full(720, 15.0), sid=sid)


class TestMonthlyFilter:
    def test_defaults_pin_thresholds(self):
        assert MONTHLY_MAX_MISSING_FRAC == 0.10
        assert MONTHLY_MAX_GAP_MONTHS == 12
        assert STUDY_WINDOW == (1956, 2015)

    def test_complete_series_kept(self):
        kept, reports = filter_monthly_stations([full_window_monthly()])
        assert len(kept) == 1
        assert reports[0].verdict == "kept"

    def test_73_of_720_missing_dropped(self):
        s = full_window_monthly()
        # scattered: stride 9 never builds a long run
        s.values[np.arange(73) * 9] = np.nan
        kept, reports = filter_monthly_stations([s])
        assert kept == []
        r = reports[0]
        assert r.verdict == "dropped"
        assert r.reason == "missing_frac"
        assert r.missing_frac == pytest.approx(73 / 720)

    def test_72_of_720_missing_kept(self):
        s = full_window_monthly()
        s.values[np.arange(72) * 9] = np.nan
        kept, _ = filter_monthly_stations([s])
        assert len(kept) == 1

    def test_exactly_twelve_consecutive_kept(self):
        s = full_window_monthly()
        s.values[100:112] = np.nan
        kept, reports = filter_monthly_stations([s])
        assert len(kept) == 1
        assert reports[0].longest_gap == 12

    def test_thirteen_consecutive_dropped(self):
        s = full_window_monthly()
        s.values[100:113] = np.nan
        kept, reports = filter_monthly_stations([s])
        assert kept == []
        assert reports[0].reason == "gap_months"
        assert reports[0].longest_gap == 13

    def test_coverage_hole_at_window_start_counts_as_gap(self):
        # complete 1960-2015 record: 48 window months never observed
        s = monthly(np.full(672, 15.0), first_year=1960)
        kept, reports = filter_monthly_stations([s])
        assert kept == []
        assert reports[0].reason == "gap_months"
        assert reports[0].longest_gap == 48

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            filter_monthly_stations([full_window_monthly()], window=(2015, 1956))

    def test_dropped_station_carries_one_reason(self):
        s = full_window_monthly()
        s.values[:200] = np.nan  # violates both rules
        _, reports = filter_monthly_stations([s])
        assert reports[0].reason == "missing_frac"


def complete_daily(start, end, sid="S1", element="TMAX", fill=20.0):
    n = (end - start).days + 1
    return daily(start, np.full(n, fill), sid=sid, element=element)


class TestDailyFilter:
    def test_defaults_pin_thresholds(self):
        assert DAILY_MIN_SPAN_MONTHS == 719
        assert DAILY_END_CUTOFF == dt.date(2014, 1, 1)
        assert DAILY_JJA_MAX_MISSING_FRAC == 0.20
        assert DAILY_MAX_GAP_DAYS == 30

    def test_short_record_ending_2010_dropped(self):
        s = complete_daily(dt.date(1977, 7, 1), dt.date(2010, 10, 31))  # 400 months
        kept, reports = filter_daily_stations([s])
        assert kept == []
        assert reports[0].reason == "short_record"

    def test_short_record_ending_2015_kept(self):
        s = complete_daily(dt.date(1982, 3, 1), dt.date(2015, 6, 30))  # 400 months
        kept, _ = filter_daily_stations([s])
        assert len(kept) == 1

    def test_thirty_one_day_gap_dropped(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[1000:1031] = np.nan
        kept, reports = filter_daily_stations([s])
        assert kept == []
        assert reports[0].reason == "gap_days"
        assert reports[0].longest_gap == 31

    def test_thirty_day_gap_kept(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[1000:1030] = np.nan
        kept, reports = filter_daily_stations([s])
        assert len(kept) == 1
        assert reports[0].longest_gap == 30

    def test_jja_missing_fraction_boundary(self):
        # 5-summer window: 460 JJA days; exactly 20% missing is kept,
        # one more day dropped
        start, end = dt.date(2000, 1, 1), dt.date(2014, 1, 31)
        missing_days = []
        for year, take in zip(range(2000, 2005), (19, 19, 19, 19, 16)):
            d0 = dt.date(year, 6, 1)
            missing_days += [d0 + dt.timedelta(days=k) for k in range(take)]
        assert len(missing_days) == 92

        s = complete_daily(start, end)
        for d in missing_days:
            s.values[s.index_of(d)] = np.nan
        kept, reports = filter_daily_stations([s], window=(2000, 2004))
        assert len(kept) == 1
        assert reports[0].missing_frac == pytest.approx(0.2)

        s = complete_daily(start, end)
        for d in missing_days + [dt.date(2004, 6, 17)]:
            s.values[s.index_of(d)] = np.nan
        kept, reports = filter_daily_stations([s], window=(2000, 2004))
        assert kept == []
        assert reports[0].reason == "jja_missing"

    def test_all_missing_dropped(self):
        s = daily(dt.date(2000, 1, 1), np.full(100, np.nan))
        kept, reports = filter_daily_stations([s])
        assert kept == []
        assert reports[0].reason == "no_data"

    def test_leading_nan_pad_not_a_gap(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[:90] = np.nan  # record effectively starts in April
        kept, reports = filter_daily_stations([s])
        assert len(kept) == 1
        assert reports[0].longest_gap == 0



class TestObservedInWindow:
    def test_monthly_values_only_before_the_window(self):
        s = monthly(np.full(24, 10.0), first_year=1990)
        assert not observed_in_window([s], (1992, 1995))
        assert observed_in_window([s], (1991, 1995))

    def test_monthly_last_window_month_counts(self):
        v = np.full(36, np.nan)
        v[23] = 5.0  # December 1991
        s = monthly(v, first_year=1990)
        assert observed_in_window([s], (1980, 1991))
        assert not observed_in_window([s], (1992, 1999))

    def test_daily_gap_covering_the_window(self):
        start = dt.date(1990, 1, 1)
        v = np.full((dt.date(1999, 12, 31) - start).days + 1, 20.0)
        lo, hi = (dt.date(1992, 1, 1) - start).days, (dt.date(1993, 12, 31) - start).days
        v[lo : hi + 1] = np.nan
        s = daily(start, v)
        assert not observed_in_window([s], (1992, 1993))
        v[hi] = 21.0
        assert observed_in_window([s], (1992, 1993))

    def test_any_series_is_enough(self):
        empty = daily(dt.date(2000, 1, 1), [np.nan, np.nan])
        after = monthly([1.0], first_year=2020)
        assert not observed_in_window([empty, after], (2000, 2015))
        assert observed_in_window([empty, after, monthly([1.0], first_year=2015)], (2000, 2015))
        assert not observed_in_window([], (2000, 2015))
