"""Station retention rules for monthly and daily records.

Monthly rules evaluate the full study window: a window month outside the
series' coverage counts as missing, so the missing-fraction and
consecutive-gap rules double as coverage requirements.  Daily records get
an explicit length rule instead, so the summer-missing and consecutive-gap
rules there look only at the observed extent intersected with the window.
Each report also says whether its series observed a value in the window.

All thresholds are strict ("more than"): an exactly-12-month hole or an
exactly-30-day gap survives.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .series import DailySeries, MonthlySeries, date_to_serial, day_months, month_index

STUDY_WINDOW = (1956, 2015)

MONTHLY_MAX_MISSING_FRAC = 0.10
MONTHLY_MAX_GAP_MONTHS = 12

DAILY_MIN_SPAN_MONTHS = 719
DAILY_END_CUTOFF = dt.date(2014, 1, 1)
DAILY_JJA_MAX_MISSING_FRAC = 0.20
DAILY_MAX_GAP_DAYS = 30

JJA_MONTHS = (6, 7, 8)


@dataclass(frozen=True)
class QcParams:
    """The retention thresholds of both filters; the defaults are the study's."""

    monthly_max_missing_frac: float = MONTHLY_MAX_MISSING_FRAC
    monthly_max_gap_months: int = MONTHLY_MAX_GAP_MONTHS
    daily_min_span_months: int = DAILY_MIN_SPAN_MONTHS
    daily_end_cutoff: dt.date = DAILY_END_CUTOFF
    daily_jja_max_missing_frac: float = DAILY_JJA_MAX_MISSING_FRAC
    daily_max_gap_days: int = DAILY_MAX_GAP_DAYS

    def __post_init__(self):
        for name in ("monthly_max_missing_frac", "daily_jja_max_missing_frac"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        for name in ("monthly_max_gap_months", "daily_min_span_months", "daily_max_gap_days"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass
class QcReport:
    station_id: str
    element: str
    verdict: str  # "kept" | "dropped"
    reason: str  # rule identifier, "" when kept
    missing_frac: float
    longest_gap: int  # months (monthly rules) or days (daily rules)
    observed_in_window: bool


def _longest_run(mask: np.ndarray) -> int:
    if mask.size == 0 or not mask.any():
        return 0
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False])).astype(np.int8)))
    return int((edges[1::2] - edges[::2]).max())


def filter_monthly_stations(
    frames: list[MonthlySeries], values, window: tuple[int, int] = STUDY_WINDOW, params: QcParams = QcParams()
):
    """Drop monthly series with too much missing data inside the window;
    ``values`` yields each frame's values in turn.

    Rules, in precedence order: missing fraction > params.monthly_max_missing_frac,
    then any run of more than params.monthly_max_gap_months consecutive
    missing months.  Returns (kept frames, one QcReport per frame).
    """
    w0 = month_index(window[0], 1)
    w1 = month_index(window[1], 12)
    n_window = w1 - w0 + 1
    if n_window <= 0:
        raise ValueError(f"empty study window {window}")

    kept: list[MonthlySeries] = []
    reports: list[QcReport] = []
    for s, v in zip(frames, values):
        observed = np.zeros(n_window, dtype=bool)
        s0 = month_index(s.first_year, s.first_month)
        lo = max(w0, s0)
        hi = min(w1, s0 + v.size - 1)
        if hi >= lo:
            observed[lo - w0 : hi - w0 + 1] = ~np.isnan(v[lo - s0 : hi - s0 + 1])
        missing = ~observed
        frac = float(missing.mean())
        gap = _longest_run(missing)
        if frac > params.monthly_max_missing_frac:
            verdict, reason = "dropped", "missing_frac"
        elif gap > params.monthly_max_gap_months:
            verdict, reason = "dropped", "gap_months"
        else:
            verdict, reason = "kept", ""
            kept.append(s)
        reports.append(QcReport(s.station_id, s.element, verdict, reason, frac, gap, bool(observed.any())))
    return kept, reports


def filter_daily_stations(
    frames: list[DailySeries], values, window: tuple[int, int] = STUDY_WINDOW, params: QcParams = QcParams()
):
    """Drop daily series per the record-length, summer-missing, and
    consecutive-gap rules, in that precedence, with the thresholds of params.

    ``values`` yields each frame's values in turn, so one series' values
    are held at a time.  Returns (kept frames, one QcReport per frame).

    The length rule is a conjunction: a series drops when its span is under
    daily_min_span_months AND it ends before daily_end_cutoff.  The summer
    and gap rules look at the observed extent intersected with the window;
    the reported missing_frac is the summer missing fraction.
    """
    win_lo = date_to_serial(dt.date(window[0], 1, 1))
    win_hi = date_to_serial(dt.date(window[1], 12, 31))
    cutoff = date_to_serial(params.daily_end_cutoff)
    # one summer calendar over the window clipped to the records' extent;
    # each series reads its slice of it
    serial0s = [date_to_serial(s.start) for s in frames]
    ends = [s0 + s.values.size - 1 for s0, s in zip(serial0s, frames)]
    cal_lo = max(win_lo, min(serial0s, default=win_lo))
    cal_hi = min(win_hi, max(ends, default=win_lo))
    months = day_months(np.arange(cal_lo, cal_hi + 1)) % 12 + 1
    jja_calendar = np.isin(months, JJA_MONTHS)

    kept: list[DailySeries] = []
    reports: list[QcReport] = []
    for serial0, s, v in zip(serial0s, frames, values):
        obs = ~np.isnan(v)
        if not obs.any():
            reports.append(QcReport(s.station_id, s.element, "dropped", "no_data", 1.0, 0, False))
            continue
        # the first and last observed days, as day serials
        first, last = serial0 + int(np.argmax(obs)), serial0 + int(obs.size - 1 - np.argmax(obs[::-1]))
        m0, m1 = day_months([first, last]).tolist()
        length_drop = m1 - m0 + 1 < params.daily_min_span_months and last < cutoff

        lo, hi = max(first, win_lo), min(last, win_hi)
        jja_frac = 0.0
        gap = 0
        in_window = False
        if hi >= lo:
            vals = v[lo - serial0 : hi - serial0 + 1]
            missing = np.isnan(vals)
            jja = jja_calendar[lo - cal_lo : hi - cal_lo + 1]
            if jja.any():
                jja_frac = float(missing[jja].mean())
            gap = _longest_run(missing)
            in_window = not missing.all()

        if length_drop:
            verdict, reason = "dropped", "short_record"
        elif jja_frac > params.daily_jja_max_missing_frac:
            verdict, reason = "dropped", "jja_missing"
        elif gap > params.daily_max_gap_days:
            verdict, reason = "dropped", "gap_days"
        else:
            verdict, reason = "kept", ""
            kept.append(s)
        reports.append(QcReport(s.station_id, s.element, verdict, reason, jja_frac, gap, in_window))
    return kept, reports
