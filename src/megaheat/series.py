"""Station metadata and time-series containers shared across the package.

Temperatures are stored as float64 degrees Celsius.  Missing observations
carry NaN as an explicit marker; sentinel temperatures from source files
(-9999 and friends) never survive parsing.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

EPOCH = dt.date(1970, 1, 1)


def date_to_serial(d: dt.date) -> int:
    """Days since 1970-01-01."""
    return (d - EPOCH).days


def serial_to_date(serial: int) -> dt.date:
    return EPOCH + dt.timedelta(days=int(serial))


def month_index(year: int, month: int) -> int:
    """Months since January year 0; a linear key for calendar months."""
    return year * 12 + (month - 1)


@dataclass
class StationMeta:
    """One row of the station inventory.

    elev is meters above sea level, or None when the inventory carried the
    -999.9 missing sentinel.
    """

    station_id: str
    lat: float
    lon: float
    elev: float | None = None


@dataclass
class DailySeries:
    """A contiguous run of daily values for one (station, element).

    values[i] belongs to calendar day ``start + i days``.  The array always
    spans start..end with no holes in the index; gaps in the record are NaN
    runs, not absent slots.
    """

    station_id: str
    element: str
    start: dt.date
    values: np.ndarray

    @property
    def end(self) -> dt.date:
        return self.start + dt.timedelta(days=len(self.values) - 1)

    def index_of(self, d: dt.date) -> int:
        return (d - self.start).days

    def day_serials(self) -> np.ndarray:
        s0 = date_to_serial(self.start)
        return np.arange(s0, s0 + len(self.values), dtype=np.int64)


@dataclass
class MonthlySeries:
    """A contiguous run of monthly values for one (station, element).

    values[i] belongs to the calendar month ``(first_year, first_month)``
    advanced by i months.
    """

    station_id: str
    element: str
    first_year: int
    first_month: int
    values: np.ndarray

    def month_of(self, i: int) -> tuple[int, int]:
        m = month_index(self.first_year, self.first_month) + i
        return m // 12, m % 12 + 1

    def index_of(self, year: int, month: int) -> int:
        return month_index(year, month) - month_index(self.first_year, self.first_month)

    def value_in(self, year: int, month: int) -> float:
        i = self.index_of(year, month)
        if i < 0 or i >= len(self.values):
            return float("nan")
        return float(self.values[i])


@dataclass
class AnnualSeries:
    """year -> value map for one (key, metric); years strictly increasing."""

    key: str
    metric: str
    years: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.years = np.asarray(self.years, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.years.size != self.values.size:
            raise ValueError("years and values differ in length")
        if self.years.size and np.any(np.diff(self.years) <= 0):
            raise ValueError("years must be strictly increasing")

    def __len__(self) -> int:
        return int(self.years.size)

    def as_dict(self) -> dict[int, float]:
        return {int(y): float(v) for y, v in zip(self.years, self.values)}


@dataclass
class ParseIssue:
    """A record-level problem found while reading an input file."""

    line: int
    message: str
    station_id: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = f"line {self.line}"
        if self.station_id:
            prefix += f" [{self.station_id}]"
        return f"{prefix}: {self.message}"


@dataclass
class ProvenanceMask:
    """Per-slot origin codes aligned with a series' value array.

    Codes: 'o' observed, 'i' imputed, 'u' unimputable (still missing).
    """

    codes: np.ndarray  # dtype '<U1' or 'S1'

    OBSERVED = "o"
    IMPUTED = "i"
    UNIMPUTABLE = "u"

    @classmethod
    def observed_where(cls, values: np.ndarray) -> "ProvenanceMask":
        codes = np.where(np.isnan(values), cls.UNIMPUTABLE, cls.OBSERVED)
        return cls(codes=codes.astype("<U1"))
