import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        s = full_window_monthly()
        kept, reports = filter_monthly_stations([s], [s.values])
        assert len(kept) == 1
        assert reports[0].verdict == "kept"

    def test_73_of_720_missing_dropped(self):
        s = full_window_monthly()
        # scattered: stride 9 never builds a long run
        s.values[np.arange(73) * 9] = np.nan
        kept, reports = filter_monthly_stations([s], [s.values])
        assert kept == []
        r = reports[0]
        assert r.verdict == "dropped"
        assert r.reason == "missing_frac"
        assert r.missing_frac == pytest.approx(73 / 720)

    def test_72_of_720_missing_kept(self):
        s = full_window_monthly()
        s.values[np.arange(72) * 9] = np.nan
        kept, _ = filter_monthly_stations([s], [s.values])
        assert len(kept) == 1

    def test_exactly_twelve_consecutive_kept(self):
        s = full_window_monthly()
        s.values[100:112] = np.nan
        kept, reports = filter_monthly_stations([s], [s.values])
        assert len(kept) == 1
        assert reports[0].longest_gap == 12

    def test_thirteen_consecutive_dropped(self):
        s = full_window_monthly()
        s.values[100:113] = np.nan
        kept, reports = filter_monthly_stations([s], [s.values])
        assert kept == []
        assert reports[0].reason == "gap_months"
        assert reports[0].longest_gap == 13

    def test_coverage_hole_at_window_start_counts_as_gap(self):
        # complete 1960-2015 record: 48 window months never observed
        s = monthly(np.full(672, 15.0), first_year=1960)
        kept, reports = filter_monthly_stations([s], [s.values])
        assert kept == []
        assert reports[0].reason == "gap_months"
        assert reports[0].longest_gap == 48

    def test_empty_window_rejected(self):
        s = full_window_monthly()
        with pytest.raises(ValueError):
            filter_monthly_stations([s], [s.values], window=(2015, 1956))

    def test_dropped_station_carries_one_reason(self):
        s = full_window_monthly()
        s.values[:200] = np.nan  # violates both rules
        _, reports = filter_monthly_stations([s], [s.values])
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
        kept, reports = filter_daily_stations([s], [s.values])
        assert kept == []
        assert reports[0].reason == "short_record"

    def test_short_record_ending_2015_kept(self):
        s = complete_daily(dt.date(1982, 3, 1), dt.date(2015, 6, 30))  # 400 months
        kept, _ = filter_daily_stations([s], [s.values])
        assert len(kept) == 1

    def test_thirty_one_day_gap_dropped(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[1000:1031] = np.nan
        kept, reports = filter_daily_stations([s], [s.values])
        assert kept == []
        assert reports[0].reason == "gap_days"
        assert reports[0].longest_gap == 31

    def test_thirty_day_gap_kept(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[1000:1030] = np.nan
        kept, reports = filter_daily_stations([s], [s.values])
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
        kept, reports = filter_daily_stations([s], [s.values], window=(2000, 2004))
        assert len(kept) == 1
        assert reports[0].missing_frac == pytest.approx(0.2)

        s = complete_daily(start, end)
        for d in missing_days + [dt.date(2004, 6, 17)]:
            s.values[s.index_of(d)] = np.nan
        kept, reports = filter_daily_stations([s], [s.values], window=(2000, 2004))
        assert kept == []
        assert reports[0].reason == "jja_missing"

    def test_all_missing_dropped(self):
        s = daily(dt.date(2000, 1, 1), np.full(100, np.nan))
        kept, reports = filter_daily_stations([s], [s.values])
        assert kept == []
        assert reports[0].reason == "no_data"

    def test_leading_nan_pad_not_a_gap(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[:90] = np.nan  # record effectively starts in April
        kept, reports = filter_daily_stations([s], [s.values])
        assert len(kept) == 1
        assert reports[0].longest_gap == 0



def _daily_rules_oracle(s, window):
    """(reason, summer missing fraction, longest gap) of one daily series,
    walking its days one datetime.date at a time."""
    observed = [k for k, v in enumerate(s.values) if not math.isnan(v)]
    if not observed:
        return "no_data", 1.0, 0
    first = s.start + dt.timedelta(days=observed[0])
    last = s.start + dt.timedelta(days=observed[-1])
    months = (last.year - first.year) * 12 + last.month - first.month + 1
    day = max(first, dt.date(window[0], 1, 1))
    summer = summer_missing = run = gap = 0
    while day <= min(last, dt.date(window[1], 12, 31)):
        missing = math.isnan(s.values[(day - s.start).days])
        if day.month in (6, 7, 8):
            summer += 1
            summer_missing += missing
        run = run + 1 if missing else 0
        gap = max(gap, run)
        day += dt.timedelta(days=1)
    frac = summer_missing / summer if summer else 0.0
    if months < DAILY_MIN_SPAN_MONTHS and last < DAILY_END_CUTOFF:
        reason = "short_record"
    elif frac > DAILY_JJA_MAX_MISSING_FRAC:
        reason = "jja_missing"
    elif gap > DAILY_MAX_GAP_DAYS:
        reason = "gap_days"
    else:
        reason = ""
    return reason, frac, gap


@st.composite
def _gappy_daily(draw, around):
    """A daily series near the year `around` (a leap century or not) with
    runs of missing days, starting before, inside or after the window."""
    start = dt.date(around - 2, 1, 1) + dt.timedelta(days=draw(st.integers(0, 5 * 366)))
    values = np.full(draw(st.integers(1, 5 * 366)), 20.0)
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(st.integers(0, values.size - 1))
        values[lo : lo + draw(st.integers(1, 120))] = np.nan
    return daily(start, values, sid=f"S{start.toordinal()}")


class TestDailyRulesOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), around=st.sampled_from([1900, 1960, 2000]), years=st.integers(0, 3))
    def test_reports_match_the_per_day_walk(self, data, around, years):
        window = (around, around + years)
        series = data.draw(st.lists(_gappy_daily(around), min_size=1, max_size=4))
        _, reports = filter_daily_stations(series, [s.values for s in series], window=window)
        for s, r in zip(series, reports, strict=True):
            assert (r.reason, r.missing_frac, r.longest_gap) == _daily_rules_oracle(s, window)
            assert r.verdict == ("kept" if r.reason == "" else "dropped")
            lo, hi = (dt.date(window[0], 1, 1) - s.start).days, (dt.date(window[1], 12, 31) - s.start).days
            assert r.observed_in_window == (not np.isnan(s.values[max(lo, 0) : max(hi + 1, 0)]).all())

    def test_widest_window_equals_the_study_window(self):
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        s.values[200:230] = np.nan
        s.values[-3000:-2940] = np.nan
        short = complete_daily(dt.date(1990, 3, 1), dt.date(2000, 2, 29), sid="S2")
        _, study = filter_daily_stations([s, short], [s.values, short.values], window=STUDY_WINDOW)
        _, widest = filter_daily_stations([s, short], [s.values, short.values], window=(1, 9999))
        assert widest == study
        assert [r.reason for r in study] == ["gap_days", "short_record"]
        assert study[0].longest_gap == 60

    def test_values_stream_past_all_nan_frames(self):
        # as stage_qc calls it: frames whose values are an all-NaN view, and
        # the values as a one-pass iterator; the kept entries are the frames
        s = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31))
        gappy = complete_daily(dt.date(1956, 1, 1), dt.date(2015, 12, 31), sid="S2")
        gappy.values[500:540] = np.nan
        series = [s, gappy]
        frames = [dataclasses.replace(x, values=np.broadcast_to(np.nan, x.values.shape)) for x in series]
        kept, reports = filter_daily_stations(frames, (x.values for x in series))
        assert kept == [frames[0]] and kept[0] is frames[0]
        assert reports == filter_daily_stations(series, [x.values for x in series])[1]
        assert [r.reason for r in reports] == ["", "gap_days"]



def _observed_in_window(series, window):
    """Whether any of the series holds a value inside the window, from the
    reports of the filter of each series' kind."""
    reports = []
    for kind, qc_filter in ((MonthlySeries, filter_monthly_stations), (DailySeries, filter_daily_stations)):
        of_kind = [s for s in series if isinstance(s, kind)]
        reports += qc_filter(of_kind, [s.values for s in of_kind], window=window)[1]
    return any(r.observed_in_window for r in reports)


class TestObservedInWindow:
    def test_monthly_values_only_before_the_window(self):
        s = monthly(np.full(24, 10.0), first_year=1990)
        assert not _observed_in_window([s], (1992, 1995))
        assert _observed_in_window([s], (1991, 1995))

    def test_monthly_last_window_month_counts(self):
        v = np.full(36, np.nan)
        v[23] = 5.0  # December 1991
        s = monthly(v, first_year=1990)
        assert _observed_in_window([s], (1980, 1991))
        assert not _observed_in_window([s], (1992, 1999))

    def test_daily_gap_covering_the_window(self):
        start = dt.date(1990, 1, 1)
        v = np.full((dt.date(1999, 12, 31) - start).days + 1, 20.0)
        lo, hi = (dt.date(1992, 1, 1) - start).days, (dt.date(1993, 12, 31) - start).days
        v[lo : hi + 1] = np.nan
        s = daily(start, v)
        assert not _observed_in_window([s], (1992, 1993))
        v[hi] = 21.0
        assert _observed_in_window([s], (1992, 1993))

    def test_any_series_is_enough(self):
        empty = daily(dt.date(2000, 1, 1), [np.nan, np.nan])
        after = monthly([1.0], first_year=2020)
        assert not _observed_in_window([empty, after], (2000, 2015))
        assert _observed_in_window([empty, after, monthly([1.0], first_year=2015)], (2000, 2015))
        assert not _observed_in_window([], (2000, 2015))
