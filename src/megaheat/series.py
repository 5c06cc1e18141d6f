"""Station metadata and time-series containers shared across the package.

Temperatures are stored as float64 degrees Celsius.  Missing observations
carry NaN as an explicit marker; sentinel temperatures from source files
(-9999 and friends) never survive parsing.
"""

from __future__ import annotations

import datetime as dt
import zipfile
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


def save_series(path, series) -> None:
    """Write daily or monthly series (not both) to one uncompressed ``.npz``.

    The file holds the station ids, the elements, each series' start (a
    day serial for daily series; first year and first month for monthly
    ones), the lengths, and all values as one float64 array.  np.savez
    stamps every entry with zipfile's fixed 1980 date, so the same series
    always give the same bytes.
    """
    series = list(series)
    arrays = {
        "station_id": np.array([s.station_id for s in series], dtype=str),
        "element": np.array([s.element for s in series], dtype=str),
        "length": np.array([len(s.values) for s in series], dtype=np.int64),
        "values": np.concatenate([np.asarray(s.values, dtype=np.float64) for s in series])
        if series
        else np.empty(0),
    }
    if all(isinstance(s, MonthlySeries) for s in series):
        arrays["first_year"] = np.array([s.first_year for s in series], dtype=np.int64)
        arrays["first_month"] = np.array([s.first_month for s in series], dtype=np.int64)
    elif all(isinstance(s, DailySeries) for s in series):
        arrays["start_day"] = np.array([date_to_serial(s.start) for s in series], dtype=np.int64)
    else:
        raise TypeError("save_series takes only DailySeries or only MonthlySeries")
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_series(path) -> list:
    """The series save_series wrote to path, in the order it wrote them.

    Loading never unpickles, so reading a file runs no code.  Raises
    OSError when the file cannot be read and ValueError when it is not a
    series file (not an ``.npz``, truncated, or with inconsistent arrays).
    Each series' values are a view into one array read from the file.
    """
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with npz:
                arrays = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a readable .npz archive: {exc}") from exc

    monthly = "first_year" in arrays
    starts = ("first_year", "first_month") if monthly else ("start_day",)
    missing = sorted({"station_id", "element", "length", "values", *starts} - arrays.keys())
    if missing:
        raise ValueError(f"series file lacks {', '.join(missing)}")
    ids, elements, lengths, values = (arrays[k] for k in ("station_id", "element", "length", "values"))
    columns = [ids, elements, lengths] + [arrays[k] for k in starts]
    if (
        ids.dtype.kind != "U"
        or elements.dtype.kind != "U"
        or values.dtype != np.float64
        or any(a.dtype.kind != "i" for a in columns[2:])
        or any(a.shape != ids.shape for a in columns)
        or ids.ndim != 1
        or values.ndim != 1
        or np.any(lengths < 0)
        or int(lengths.sum()) != values.size
    ):
        raise ValueError("series file arrays do not fit together")
    chunks = np.split(values, np.cumsum(lengths)[:-1]) if ids.size else []
    if monthly:
        if np.any((arrays["first_month"] < 1) | (arrays["first_month"] > 12)):
            raise ValueError("series file holds a month outside 1-12")
        return [
            MonthlySeries(sid, el, year, month, v)
            for sid, el, year, month, v in zip(
                ids.tolist(),
                elements.tolist(),
                arrays["first_year"].tolist(),
                arrays["first_month"].tolist(),
                chunks,
            )
        ]
    try:
        return [
            DailySeries(sid, el, serial_to_date(day), v)
            for sid, el, day, v in zip(ids.tolist(), elements.tolist(), arrays["start_day"].tolist(), chunks)
        ]
    except OverflowError as exc:
        raise ValueError(f"series file holds a start day outside the calendar: {exc}") from exc


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
