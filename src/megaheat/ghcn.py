"""Fixed-width climate record parsing and serialization.

Three layouts are supported:

* daily element-month lines, 269 chars: station id (1-11), year (12-15),
  month (16-17), element (18-21), then 31 groups of a 5-char signed integer
  value in tenths of a degree C plus 3 flag chars; -9999 means missing;
* monthly year-per-line records, 115 chars: station id (1-11), year (12-15),
  element (16-19), then 12 groups of a 5-char value in hundredths of a
  degree C plus 3 flags; -9999 means missing;
* station inventory lines, 37 chars: id (1-11), lat (13-20), lon (22-30),
  elevation in meters (32-37, one decimal, -999.9 missing).

Lines are split and filtered over the whole file; integer fields are then
parsed in blocks of a few thousand lines.  An integer field must match
``" *-?[0-9]+"`` (year and month take no sign); inventory lat, lon and
elevation must be plain decimal text: spaces, an optional sign, digits
with at most one decimal point, and nothing else.

Per-record problems (bad length, non-numeric fields, impossible months)
are reported as ParseIssue entries carrying 1-based line numbers while the
remaining records still parse.  Quality flags are not retained.
"""

from __future__ import annotations

import math
import os
import re
from typing import Iterable

import numpy as np

from .series import (
    DailySeries,
    MonthlySeries,
    ParseIssue,
    StationMeta,
    serial_to_date,
)

DAILY_ELEMENTS = (b"TMAX", b"TMIN")
MONTHLY_ELEMENTS = (b"TMIN", b"TAVG", b"TMAX")
MISSING_INT = -9999
MISSING_ELEV = -999.9

_DAILY_LEN = 269
_MONTHLY_LEN = 115
_STATION_LEN = 37

# fields per _parse_int_fields block: a few thousand daily lines, whose byte
# columns and int32 accumulator stay in a core's cache
_BLOCK_FIELDS = 1 << 16

# plain decimal text; float() alone would also take "nan", "inf", "1e3", "1_0"
_DECIMAL = re.compile(rb" *[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+) *")


def _read_bytes(source) -> bytes:
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    if hasattr(source, "read"):
        data = source.read()
        return data.encode() if isinstance(data, str) else data
    raise TypeError(f"cannot read records from {type(source)!r}")


def _split_lines(buf: bytes):
    """Offsets and lengths of physical lines, tolerating CRLF and a missing
    final newline.  Empty lines are dropped (they carry no record)."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    nl = np.flatnonzero(arr == 0x0A)
    starts = np.concatenate(([0], nl + 1))
    ends = np.concatenate((nl, [arr.size]))
    if starts[-1] == ends[-1]:  # trailing newline: no final fragment
        starts, ends = starts[:-1], ends[:-1]
    # strip \r
    cr = (ends > starts) & (arr[np.maximum(ends - 1, 0)] == 0x0D)
    ends = ends - cr.astype(np.int64)
    numbers = np.arange(1, starts.size + 1, dtype=np.int64)
    keep = ends > starts
    return arr, starts[keep], ends[keep], numbers[keep]


def _gather_lines(arr, starts, ends, numbers, expected_len):
    """Return (matrix, line_numbers, issues) where matrix rows are exactly
    expected_len bytes."""
    lengths = ends - starts
    good = lengths == expected_len
    issues = [
        ParseIssue(line=int(n), message=f"expected {expected_len}-char line, got {int(ln)}")
        for n, ln in zip(numbers[~good], lengths[~good])
    ]
    starts, numbers = starts[good], numbers[good]
    if starts.size == 0:
        return np.empty((0, expected_len), dtype=np.uint8), numbers, issues
    stride = expected_len + 1
    if (
        starts.size > 1
        and starts[0] == 0
        and np.all(np.diff(starts) == stride)
        and arr.size >= starts[-1] + expected_len
    ):
        n = starts.size
        mat = arr[: (n - 1) * stride + expected_len]
        if mat.size == n * stride - 1:
            mat = np.concatenate((mat, np.zeros(1, dtype=np.uint8)))
        matrix = mat.reshape(n, stride)[:, :expected_len]
    else:
        matrix = arr[starts[:, None] + np.arange(expected_len)]
    return matrix, numbers, issues


def _parse_int_fields(fields: np.ndarray, allow_sign: bool = True):
    """Parse right-justified integer byte fields of shape (lines, ..., width).

    Returns int32 (values, ok).  A field is ok when it matches ``" *-?[0-9]+"``
    (``" *[0-9]+"`` without allow_sign), checked as three rules: every byte
    is a digit, a space or '-'; a space or '-' only ever follows a space;
    the last byte is a digit.  Values of fields that are not ok are
    unspecified.  Lines go through in blocks of about _BLOCK_FIELDS fields,
    each copied once into one contiguous byte column per position; int32
    holds any field of up to 9 chars.
    """
    values = np.zeros(fields.shape[:-1], dtype=np.int32)
    ok = np.empty(fields.shape[:-1], dtype=bool)
    step = max(1, _BLOCK_FIELDS // math.prod(fields.shape[1:-1]))
    for lo in range(0, len(fields), step):
        cols = np.moveaxis(fields[lo : lo + step], -1, 0).copy()
        val, good = values[lo : lo + step], ok[lo : lo + step]
        neg = np.zeros(good.shape, dtype=bool)
        for p, c in enumerate(cols):
            digit = c - np.uint8(0x30)
            is_digit = digit < 10
            space = c == 0x20
            blank = space
            if allow_sign:
                minus = c == 0x2D
                blank = space | minus
                neg |= minus
            if p == 0:
                np.logical_or(is_digit, blank, out=good)
            else:
                good &= is_digit | (blank & after_space)
            after_space = space
            digit *= is_digit
            val *= 10
            val += digit
        good &= is_digit
        np.negative(val, out=val, where=neg)
    return values, ok


def _format_int_fields(values: np.ndarray, width: int) -> np.ndarray:
    """Right-justified fixed-width rendering; inverse of _parse_int_fields."""
    v = np.asarray(values, dtype=np.int64)
    lo, hi = -(10 ** (width - 1)) + 1, 10**width - 1
    if v.size and (v.min() < lo or v.max() > hi):
        raise ValueError(f"value out of range for {width}-char field")
    a = np.abs(v)
    digits = np.empty(v.shape + (width,), dtype=np.int64)
    for p in range(width):
        digits[..., width - 1 - p] = a // 10**p % 10
    sig = np.maximum.accumulate(digits > 0, axis=-1)
    sig[..., -1] = True
    chars = np.where(sig, digits + 0x30, 0x20).astype(np.uint8)
    neg = v < 0
    if np.any(neg):
        flat = chars.reshape(-1, width)
        fs = np.argmax(sig, axis=-1).ravel()
        rows = np.flatnonzero(neg.ravel())
        flat[rows, fs[rows] - 1] = 0x2D
    return chars


def _month_starts(month_idx: np.ndarray):
    """Day serial of month start and month length for linear month indices
    (year*12 + month-1)."""
    m = np.asarray(month_idx, dtype=np.int64) - 1970 * 12
    start = m.astype("M8[M]").astype("M8[D]").astype(np.int64)
    nxt = (m + 1).astype("M8[M]").astype("M8[D]").astype(np.int64)
    return start, nxt - start


def _bytes_column(matrix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    w = hi - lo
    return np.ascontiguousarray(matrix[:, lo:hi]).view(f"S{w}")[:, 0]


def _station_id(raw: bytes) -> str:
    """The 11-char id field as every parser reports it: padding stripped."""
    return raw.decode("ascii", "replace").strip()


def _series_rows(ids: np.ndarray, element: np.ndarray, ok: np.ndarray) -> list[np.ndarray]:
    """The ok rows of each (reported id, element) series, in file order; series sorted by that pair.

    Grouping by the reported id, not the raw field, makes lines under
    ``PAD1       `` and `` PAD1      `` one series.
    """
    raw, raw_of_row = np.unique(ids, return_inverse=True)
    _, sid_of_raw = np.unique(np.array([_station_id(r) for r in raw.tolist()], dtype=object), return_inverse=True)
    elements, element_of_row = np.unique(element, return_inverse=True)
    rows = np.flatnonzero(ok)
    keys = (sid_of_raw[raw_of_row] * elements.size + element_of_row)[rows]
    order = np.argsort(keys, kind="stable")
    return np.split(rows[order], np.flatnonzero(np.diff(keys[order])) + 1) if rows.size else []


def _value_fields(matrix, rows, lo: int, n: int, scale: float):
    """Degrees C (MISSING_INT as NaN) and ok mask of the n value groups of
    8 chars that start at column lo, for the given rows of the line matrix."""
    # a view when every line is a wanted record, else one copy of those rows
    block = matrix[:, lo:] if rows.size == len(matrix) else matrix[rows, lo:]
    ints, ok = _parse_int_fields(block.reshape(-1, n, 8)[:, :, :5])
    values = ints / scale
    values[ints == MISSING_INT] = np.nan
    return values, ok


def _dedup_last(keys: np.ndarray) -> np.ndarray:
    """Indices keeping the last occurrence of each key, in key order."""
    _, idx = np.unique(keys[::-1], return_index=True)
    return keys.size - 1 - idx


def parse_ghcnd(source) -> tuple[list[DailySeries], list[ParseIssue]]:
    """Parse daily fixed-width records into one series per (station, element).

    Elements other than TMAX/TMIN are skipped.  Day slots beyond the month's
    length are ignored.  Output is sorted by station id then element; when a
    (station, year, month) line repeats, the later line wins.
    """
    buf = _read_bytes(source)
    if not buf:
        return [], []
    arr, starts, ends, numbers = _split_lines(buf)
    matrix, numbers, issues = _gather_lines(arr, starts, ends, numbers, _DAILY_LEN)

    # row-filter narrow column slices rather than the 269-byte matrix;
    # full-width fancy indexing would copy the whole file per filter pass
    element = _bytes_column(matrix, 17, 21)
    rows = np.flatnonzero(np.isin(element, DAILY_ELEMENTS))
    numbers, element = numbers[rows], element[rows]

    year, ok_y = _parse_int_fields(matrix[:, 11:15][rows], allow_sign=False)
    month, ok_m = _parse_int_fields(matrix[:, 15:17][rows], allow_sign=False)
    ok_head = ok_y & ok_m & (month >= 1) & (month <= 12)
    for n in numbers[~ok_head]:
        issues.append(ParseIssue(line=int(n), message="bad year/month field"))
    rows, numbers, element = rows[ok_head], numbers[ok_head], element[ok_head]
    year, month = year[ok_head], month[ok_head]

    ids = matrix[:, 0:11][rows].view("S11")[:, 0]
    values, ok_v = _value_fields(matrix, rows, 21, 31, 10.0)
    matrix = arr = buf = source = None
    mstart, dim = _month_starts(year * 12 + (month - 1))
    in_month = np.arange(31)[None, :] < dim[:, None]
    ok_line = (ok_v | ~in_month).all(axis=1)
    for n in numbers[~ok_line]:
        issues.append(ParseIssue(line=int(n), message="non-numeric value field"))

    day_col = np.arange(31)
    out: list[DailySeries] = []
    for rows in _series_rows(ids, element, ok_line):
        rows = rows[_dedup_last(mstart[rows])]
        ms, dm = mstart[rows], dim[rows]
        s0 = int(ms.min())
        s1 = int((ms + dm).max()) - 1
        vals = np.full(s1 - s0 + 1, np.nan)
        idx = (ms[:, None] - s0) + day_col[None, :]
        mask = in_month[rows]
        vals[idx[mask]] = values[rows][mask]
        r0 = rows[0]
        out.append(
            DailySeries(
                station_id=_station_id(ids[r0]),
                element=element[r0].decode("ascii"),
                start=serial_to_date(s0),
                values=vals,
            )
        )
    return out, issues


def parse_ghcnm(source) -> tuple[list[MonthlySeries], list[ParseIssue]]:
    """Parse monthly year-per-line records into one series per
    (station, element) for TMIN/TAVG/TMAX."""
    buf = _read_bytes(source)
    if not buf:
        return [], []
    arr, starts, ends, numbers = _split_lines(buf)
    matrix, numbers, issues = _gather_lines(arr, starts, ends, numbers, _MONTHLY_LEN)

    element = _bytes_column(matrix, 15, 19)
    rows = np.flatnonzero(np.isin(element, MONTHLY_ELEMENTS))
    numbers, element = numbers[rows], element[rows]

    year, ok_y = _parse_int_fields(matrix[:, 11:15][rows], allow_sign=False)
    for n in numbers[~ok_y]:
        issues.append(ParseIssue(line=int(n), message="bad year field"))
    rows, numbers, element, year = rows[ok_y], numbers[ok_y], element[ok_y], year[ok_y]

    ids = matrix[:, 0:11][rows].view("S11")[:, 0]
    values, ok_v = _value_fields(matrix, rows, 19, 12, 100.0)
    matrix = arr = buf = source = None
    ok_line = ok_v.all(axis=1)
    for n in numbers[~ok_line]:
        issues.append(ParseIssue(line=int(n), message="non-numeric value field"))

    out: list[MonthlySeries] = []
    for rows in _series_rows(ids, element, ok_line):
        rows = rows[_dedup_last(year[rows])]
        ys = year[rows]
        y0, y1 = int(ys.min()), int(ys.max())
        vals = np.full((y1 - y0 + 1) * 12, np.nan)
        idx = (ys[:, None] - y0) * 12 + np.arange(12)[None, :]
        vals[idx.ravel()] = values[rows].ravel()
        r0 = rows[0]
        out.append(
            MonthlySeries(
                station_id=_station_id(ids[r0]),
                element=element[r0].decode("ascii"),
                first_year=y0,
                first_month=1,
                values=vals,
            )
        )
    return out, issues


def parse_stations(source) -> tuple[list[StationMeta], list[ParseIssue]]:
    """Parse inventory lines; out-of-range coordinates and duplicate ids are
    rejected with diagnostics."""
    buf = _read_bytes(source)
    stations: list[StationMeta] = []
    issues: list[ParseIssue] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(buf.splitlines(), 1):
        if not raw.strip():
            continue
        if len(raw) < _STATION_LEN:
            issues.append(ParseIssue(line=lineno, message="short inventory line"))
            continue
        sid = _station_id(raw[0:11])
        fields = (raw[12:20], raw[21:30], raw[31:37])
        if not all(_DECIMAL.fullmatch(f) for f in fields):
            issues.append(ParseIssue(line=lineno, message="non-numeric inventory field", station_id=sid))
            continue
        lat, lon, elev = map(float, fields)
        if not sid:
            issues.append(ParseIssue(line=lineno, message="empty station id"))
            continue
        if not -90.0 <= lat <= 90.0:
            issues.append(ParseIssue(line=lineno, message=f"lat {lat} out of range", station_id=sid))
            continue
        if not -180.0 <= lon <= 180.0:
            issues.append(ParseIssue(line=lineno, message=f"lon {lon} out of range", station_id=sid))
            continue
        if sid in seen:
            issues.append(ParseIssue(line=lineno, message="duplicate station id", station_id=sid))
            continue
        seen.add(sid)
        stations.append(
            StationMeta(station_id=sid, lat=lat, lon=lon, elev=None if elev == MISSING_ELEV else elev)
        )
    return stations, issues


def _encode_prefixes(texts: Iterable[str], width: int) -> np.ndarray:
    blob = "".join(texts).encode("ascii")
    return np.frombuffer(blob, dtype=np.uint8).reshape(-1, width)


def serialize_ghcnd(series: list[DailySeries]) -> bytes:
    """Render daily series back to the fixed-width layout (flags as spaces).

    Coverage is padded to whole months; padded slots carry -9999.
    """
    chunks: list[bytes] = []
    for s in sorted(series, key=lambda s: (s.station_id, s.element)):
        first_mi = s.start.year * 12 + (s.start.month - 1)
        last = s.end
        last_mi = last.year * 12 + (last.month - 1)
        mi = np.arange(first_mi, last_mi + 1)
        mstart, dim = _month_starts(mi)
        grid = np.full((mi.size, 31), MISSING_INT, dtype=np.int64)
        serials = s.day_serials()
        month_row = np.searchsorted(mstart, serials, side="right") - 1
        day_in_month = serials - mstart[month_row]
        ints = np.where(np.isnan(s.values), MISSING_INT, np.rint(s.values * 10)).astype(np.int64)
        grid[month_row, day_in_month] = ints
        grid[np.arange(31)[None, :] >= dim[:, None]] = MISSING_INT

        lines = np.full((mi.size, _DAILY_LEN + 1), 0x20, dtype=np.uint8)
        prefixes = [
            f"{s.station_id:<11s}{y:04d}{m:02d}{s.element:<4s}"
            for y, m in zip(mi // 12, mi % 12 + 1)
        ]
        lines[:, :21] = _encode_prefixes(prefixes, 21)
        value_block = lines[:, 21:_DAILY_LEN].reshape(mi.size, 31, 8)
        value_block[:, :, :5] = _format_int_fields(grid, 5)
        lines[:, _DAILY_LEN] = 0x0A
        chunks.append(lines.tobytes())
    return b"".join(chunks)


def serialize_ghcnm(series: list[MonthlySeries]) -> bytes:
    """Render monthly series back to the year-per-line layout."""
    chunks: list[bytes] = []
    for s in sorted(series, key=lambda s: (s.station_id, s.element)):
        first_mi = s.first_year * 12 + (s.first_month - 1)
        last_mi = first_mi + s.values.size - 1
        y0, y1 = first_mi // 12, last_mi // 12
        grid = np.full(((y1 - y0 + 1), 12), MISSING_INT, dtype=np.int64)
        pos = np.arange(first_mi, first_mi + s.values.size) - y0 * 12
        grid.ravel()[pos] = np.where(
            np.isnan(s.values), MISSING_INT, np.rint(s.values * 100)
        ).astype(np.int64)

        years = np.arange(y0, y1 + 1)
        lines = np.full((years.size, _MONTHLY_LEN + 1), 0x20, dtype=np.uint8)
        prefixes = [f"{s.station_id:<11s}{y:04d}{s.element:<4s}" for y in years]
        lines[:, :19] = _encode_prefixes(prefixes, 19)
        value_block = lines[:, 19:_MONTHLY_LEN].reshape(years.size, 12, 8)
        value_block[:, :, :5] = _format_int_fields(grid, 5)
        lines[:, _MONTHLY_LEN] = 0x0A
        chunks.append(lines.tobytes())
    return b"".join(chunks)


def serialize_stations(stations: list[StationMeta]) -> bytes:
    lines = []
    for st in stations:
        elev = MISSING_ELEV if st.elev is None else st.elev
        lines.append(f"{st.station_id:<11s} {st.lat:8.4f} {st.lon:9.4f} {elev:6.1f}\n")
    return "".join(lines).encode("ascii")
