"""Station metadata and time-series containers shared across the package.

Temperatures are stored as float64 degrees Celsius.  Missing observations
carry NaN as an explicit marker; sentinel temperatures from source files
(-9999 and friends) never survive parsing.

Series pass between stages as ``.npz`` files, written piece by piece and
read back one series at a time (read_series), so that no stage needs a
whole file's values in memory at once.  Every text file, input or output,
is read by read_text and written by write_text, as UTF-8 whatever the
locale.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import os
import zipfile
from dataclasses import dataclass, field, replace

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


def _frame_arrays(series: list) -> tuple:
    """The station ids, elements and lengths of the series, and their starts
    (a day serial for daily series; first year and first month for monthly
    ones), as two dicts of arrays."""
    ids = {
        "station_id": np.array([s.station_id for s in series], dtype=str),
        "element": np.array([s.element for s in series], dtype=str),
        "length": np.array([len(s.values) for s in series], dtype=np.int64),
    }
    if all(isinstance(s, MonthlySeries) for s in series):
        starts = {
            "first_year": np.array([s.first_year for s in series], dtype=np.int64),
            "first_month": np.array([s.first_month for s in series], dtype=np.int64),
        }
    elif all(isinstance(s, DailySeries) for s in series):
        starts = {"start_day": np.array([date_to_serial(s.start) for s in series], dtype=np.int64)}
    else:
        raise TypeError("a series file takes only DailySeries or only MonthlySeries")
    return ids, starts


def _save_npz(path, arrays: dict) -> None:
    """One uncompressed ``.npz`` of 1-D arrays, byte for byte what np.savez
    writes; np.savez stamps every entry with zipfile's fixed 1980 date, so
    the same arrays always give the same bytes.

    An entry is an array, or a (dtype, pieces, size) triple: 1-D arrays,
    ``size`` values in all, written one after another as the one array of
    that dtype np.concatenate would give.  They are never joined in memory,
    and pieces may be an iterator that makes each one only as it is written;
    if making them fails, or they do not add up to ``size``, the file is
    removed, so no partial file is left behind.
    """
    fh = open(path, "wb")
    try:
        with fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name, entry in arrays.items():
                dtype, pieces, size = entry if isinstance(entry, tuple) else (entry.dtype, [entry], entry.size)
                descr = np.lib.format.dtype_to_descr(np.dtype(dtype))
                header = {"descr": descr, "fortran_order": False, "shape": (size,)}
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(member, header)
                    for piece in pieces:
                        piece = np.ascontiguousarray(piece, dtype=dtype).reshape(-1)
                        member.write(piece.view(np.uint8))
                        size -= piece.size
                if size:
                    raise ValueError(f"{name}: pieces do not add up to the size in its header")
    except BaseException:
        os.remove(path)
        raise


def save_series(path, frames, values) -> None:
    """Write daily or monthly series (not both) to one uncompressed ``.npz``.

    ``frames`` give each series' station, element, start and length (the
    length of its values); ``values`` yields each series' values in turn,
    so the values need not all be held at once.  The file holds the
    station ids, the elements, each series' start (a day serial for daily
    series; first year and first month for monthly ones), the lengths, and
    all values as one float64 array.  The same series always give the
    same bytes.
    """
    ids, starts = _frame_arrays(list(frames))
    _save_npz(path, {**ids, "values": (np.float64, values, int(ids["length"].sum())), **starts})


def _read_npz(path, skip=()) -> dict:
    """Every array of an ``.npz`` but those named in skip; never unpickles,
    so reading runs no code."""
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with npz:
                return {name: npz[name] for name in npz.files if name not in skip}
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a readable .npz archive: {exc}") from exc


def _series_slices(arrays: dict, per_series: dict, concatenated: dict, count: str = "length") -> list:
    """Each series' slice of the ``concatenated`` arrays, after checking that all fit together.

    Both dicts map array names to a dtype kind ('U', 'i', or 'f' for
    float64).  ``per_series`` arrays, ``count`` among them, hold one entry
    per series; ``concatenated`` ones hold every series' ``count`` entries
    in turn.
    """
    kinds = {**per_series, **concatenated}
    missing = sorted(kinds.keys() - arrays.keys())
    if missing:
        raise ValueError(f"series file lacks {', '.join(missing)}")
    lengths = arrays[count]
    if (
        any(arrays[k].dtype != np.float64 if kind == "f" else arrays[k].dtype.kind != kind for k, kind in kinds.items())
        or lengths.ndim != 1
        or any(arrays[k].shape != lengths.shape for k in per_series)
        or np.any(lengths < 0)
        or any(arrays[k].shape != (int(lengths.sum()),) for k in concatenated)
    ):
        raise ValueError("series file arrays do not fit together")
    ends = np.cumsum(lengths).tolist()
    return [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]


def _frame_kinds(arrays: dict) -> dict:
    """The dtype kinds of the per-series frame arrays _frame_arrays wrote."""
    starts = ("first_year", "first_month") if "first_year" in arrays else ("start_day",)
    return {"station_id": "U", "element": "U", "length": "i", **dict.fromkeys(starts, "i")}


def _nan_frames(arrays: dict) -> list:
    """One series per frame of the arrays, its values a read-only all-NaN
    view as long as the frame."""
    if "first_year" in arrays:
        if np.any((arrays["first_month"] < 1) | (arrays["first_month"] > 12)):
            raise ValueError("series file holds a month outside 1-12")
        kind = MonthlySeries
        firsts = map(month_index, arrays["first_year"].tolist(), arrays["first_month"].tolist())
    else:
        kind, firsts = DailySeries, arrays["start_day"].tolist()
    ids, elements, lengths = (arrays[name].tolist() for name in ("station_id", "element", "length"))
    try:
        return [
            series_at(kind, sid, el, first, np.broadcast_to(np.nan, n))
            for sid, el, first, n in zip(ids, elements, firsts, lengths)
        ]
    except OverflowError as exc:
        raise ValueError(f"series file holds a start day outside the calendar: {exc}") from exc


def _read_floats(entry, n: int) -> np.ndarray:
    values = np.empty(n)
    if entry.readinto(values.view(np.uint8)) != values.nbytes:
        raise ValueError("series file values end before their lengths do")
    return values


def _stored_values(path, lengths: list):
    """Each series' values in turn, read from the ``values.npy`` entry of
    the series file at path, whose header must hold as many float64 values
    as the lengths add up to.  The entry is read to its end, where zipfile
    checks its CRC-32, before the last series is yielded, so a consumer
    that stops at the last frame has had that check too."""
    try:
        with zipfile.ZipFile(path) as archive:
            if "values.npy" not in archive.namelist():
                raise ValueError("series file lacks values")
            with archive.open("values.npy") as entry:
                # save_series and np.savez write a 1-D array's header as version 1.0
                version = np.lib.format.read_magic(entry)
                if version != (1, 0):
                    raise ValueError(f"values.npy has npy format version {version}, not (1, 0)")
                shape, _, dtype = np.lib.format.read_array_header_1_0(entry)
                if dtype != np.float64 or shape != (sum(lengths),):
                    raise ValueError("series file arrays do not fit together")
                for n in lengths[:-1]:
                    yield _read_floats(entry, n)
                last = [_read_floats(entry, n) for n in lengths[-1:]]
                if entry.read(1):
                    raise ValueError("series file values run past their lengths")
                yield from last
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a readable .npz archive: {exc}") from exc


def read_series(path) -> tuple:
    """The series save_series wrote to path, as (frames, values).

    ``frames`` are the series in the order they were written, each with a
    read-only all-NaN view of its length for values; ``values`` yields each
    one's values in turn, read into a fresh float64 array.  Raises OSError
    when the file cannot be read and ValueError when it is not a series
    file (not an ``.npz``, truncated, corrupt, or with inconsistent
    arrays), about the values as they are read.
    """
    arrays = _read_npz(path, skip=("values",))
    _series_slices(arrays, _frame_kinds(arrays), {})
    frames = _nan_frames(arrays)
    values = _stored_values(path, arrays["length"].tolist())
    if not frames:
        # no frame will ask for values, so the entry is checked now
        list(values)
    return frames, values


def load_series(path) -> list:
    """The series save_series wrote to path, in the order it wrote them:
    read_series as a list, raising as it does."""
    frames, values = read_series(path)
    return [replace(frame, values=v) for frame, v in zip(frames, values)]


def first_slot(series) -> int:
    """The slot of a series' first value on one linear axis: its first
    month's month_index, or its first day's serial."""
    if isinstance(series, MonthlySeries):
        return month_index(series.first_year, series.first_month)
    return date_to_serial(series.start)


def series_at(kind, station_id: str, element: str, first: int, values: np.ndarray):
    """The ``kind`` series (DailySeries or MonthlySeries) whose values start
    at slot ``first``; the inverse of first_slot."""
    if kind is MonthlySeries:
        return MonthlySeries(station_id, element, first // 12, first % 12 + 1, values)
    return DailySeries(station_id, element, serial_to_date(first), values)


def copy_onto(dst: np.ndarray, first: int, series) -> None:
    """Write series' values into dst, whose element 0 is slot ``first``,
    where the two overlap."""
    own = first_slot(series)
    lo, hi = max(first, own), min(first + dst.size, own + series.values.size)
    if hi > lo:
        dst[lo - first : hi - first] = series.values[lo - own : hi - own]


def npz_stamp(path) -> list:
    """(entry name, CRC-32, size) of each entry of an ``.npz``, from its zip
    directory alone; ValueError when it is not a zip archive."""
    try:
        with zipfile.ZipFile(path) as archive:
            return [(info.filename, info.CRC, info.file_size) for info in archive.infolist()]
    except zipfile.BadZipFile as exc:
        raise ValueError(f"not a readable .npz archive: {exc}") from exc


def save_fills(path, frames, fills, stamp) -> None:
    """Write what imputation adds to some series to one uncompressed ``.npz``.

    ``frames`` are daily or monthly series (not both); only their station
    ids, elements, starts and lengths are saved, as save_series saves them.
    ``fills[i]`` is (offsets into frames[i], values) of its filled slots,
    offsets increasing; the file holds the fill counts (``n_fills``) and
    every series' ``offset`` (int64) and ``value`` (float64) in turn.
    ``stamp`` is the npz_stamp of the file the series came from, saved as
    ``parsed_entry``, ``parsed_crc`` and ``parsed_size``.  The same
    arguments always give the same bytes.
    """
    ids, starts = _frame_arrays(list(frames))
    arrays = {**ids, **starts}
    arrays["n_fills"] = np.array([len(offsets) for offsets, _ in fills], dtype=np.int64)
    arrays["offset"] = (np.int64, [offsets for offsets, _ in fills], int(arrays["n_fills"].sum()))
    arrays["value"] = (np.float64, [values for _, values in fills], int(arrays["n_fills"].sum()))
    arrays["parsed_entry"] = np.array([name for name, _, _ in stamp], dtype=str)
    arrays["parsed_crc"] = np.array([crc for _, crc, _ in stamp], dtype=np.int64)
    arrays["parsed_size"] = np.array([size for _, _, size in stamp], dtype=np.int64)
    _save_npz(path, arrays)


@dataclass(frozen=True)
class Fills:
    """The filled slots save_fills wrote, per series.

    ``frames`` are the series' frames: series whose values are a read-only
    all-NaN view as long as the frame.  ``offsets[i]`` and ``values[i]``
    are frame i's filled slots; ``stamp`` is the npz_stamp of the file the
    series came from.
    """

    frames: list
    offsets: list
    values: list
    stamp: list

    def complete(self, i: int, source):
        """Frame i with the values of ``source``, the series of its station
        and element, where they overlap, and its fills.  Where the frame is
        the source's own, the fills go into the source's values in place.
        ValueError when a fill lands on an observed slot."""
        frame, offsets = self.frames[i], self.offsets[i]
        first = first_slot(frame)
        if (first_slot(source), source.values.size) == (first, frame.values.size):
            values = source.values
        else:
            values = np.full(frame.values.size, np.nan)
            copy_onto(values, first, source)
        if np.isfinite(values[offsets]).any():
            raise ValueError(f"{frame.station_id} {frame.element}: a fill lands on an observed slot")
        values[offsets] = self.values[i]
        return replace(frame, values=values)


def load_fills(path) -> Fills:
    """The fills save_fills wrote to path; raises as load_series does, also
    when a fill offset lies outside its frame or offsets do not increase."""
    arrays = _read_npz(path)
    slices = _series_slices(
        arrays, {**_frame_kinds(arrays), "n_fills": "i"}, {"offset": "i", "value": "f"}, count="n_fills"
    )
    # the stamp arrays hold one entry per zip entry, checked as per-series arrays
    _series_slices(arrays, {"parsed_entry": "U", "parsed_crc": "i", "parsed_size": "i"}, {}, count="parsed_size")
    lengths, counts, offsets = arrays["length"], arrays["n_fills"], arrays["offset"]
    # in range, offsets increase within a frame exactly when they increase
    # across the frames laid end to end
    laid = offsets + np.repeat(np.cumsum(lengths) - lengths, counts)
    if np.any((offsets < 0) | (offsets >= np.repeat(lengths, counts))) or np.any(np.diff(laid) <= 0):
        raise ValueError("fills file holds a fill offset outside its frame, or offsets that do not increase")
    return Fills(
        frames=_nan_frames(arrays),
        offsets=[offsets[sl] for sl in slices],
        values=[arrays["value"][sl] for sl in slices],
        stamp=list(zip(*(arrays[name].tolist() for name in ("parsed_entry", "parsed_crc", "parsed_size")))),
    )


def save_annual(path, key_columns, series: dict) -> None:
    """Write annual series keyed by string tuples to one uncompressed ``.npz``.

    ``series`` maps a key, one string per name in ``key_columns``, to an
    AnnualSeries.  The file holds, in key order, one string array per key
    column, the lengths, and all years (int64) and values (float64) in
    turn; the same series give the same bytes.  Keys must not end in a
    NUL character, which string arrays drop.
    """
    keys = sorted(series)
    arrays = {name: np.array([key[i] for key in keys], dtype=str) for i, name in enumerate(key_columns)}
    arrays["length"] = np.array([len(series[key]) for key in keys], dtype=np.int64)
    arrays["year"] = (np.int64, [series[key].years for key in keys], int(arrays["length"].sum()))
    arrays["value"] = (np.float64, [series[key].values for key in keys], int(arrays["length"].sum()))
    _save_npz(path, arrays)


def load_annual(path, key_columns) -> dict:
    """{key tuple: AnnualSeries} as save_annual wrote them under key_columns.

    Each series' key is its first key column and its metric the others
    joined by ':'.  Raises as load_series does, also when a key repeats.
    """
    arrays = _read_npz(path)
    slices = _series_slices(
        arrays, {**dict.fromkeys(key_columns, "U"), "length": "i"}, {"year": "i", "value": "f"}
    )
    keys = zip(*(arrays[name].tolist() for name in key_columns))
    out = {
        key: AnnualSeries(key=key[0], metric=":".join(key[1:]), years=arrays["year"][sl], values=arrays["value"][sl])
        for key, sl in zip(keys, slices)
    }
    if len(out) != len(slices):
        raise ValueError("annual file repeats a key")
    return out


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


@dataclass
class ParseIssue:
    """A record-level problem found while reading an input file."""

    line: int
    message: str
    station_id: str = ""


@dataclass
class ProvenanceMask:
    """Per-slot origin codes aligned with a series' value array.

    Codes: 'o' observed, 'i' imputed, 'u' unimputable (still missing).
    """

    codes: np.ndarray  # dtype '<U1' or 'S1'

    OBSERVED = "o"
    IMPUTED = "i"
    UNIMPUTABLE = "u"


def read_text(path) -> str:
    """The text of the file at path, decoded as UTF-8 with its line ends
    kept (newline=""), so that csv sees a quoted line break whole.
    UnicodeDecodeError, a ValueError, when the file is not UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def read_csv(path):
    """A csv.reader over the text of the file at path, as read_text decodes
    it; the text is read at once, and the rows parsed as they are taken."""
    return csv.reader(io.StringIO(read_text(path), newline=""))


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, line ends as they are in text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write the header and rows to path as CSV, each line ended by "\\n".
    The writer quotes a cell for the characters of its line terminator
    only, so a carriage return in a name would end the row for a reader:
    such a table quotes every cell."""
    rows = [header, *rows]
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(rows)
        if "\r" not in buf.getvalue():
            break
    write_text(path, buf.getvalue())


def json_text(doc, sort_keys: bool = True) -> str:
    """doc as JSON, indented by two, keys sorted unless sort_keys is false, with a final line end."""
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"
