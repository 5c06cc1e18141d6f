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

The two value layouts differ only in the facts one _Layout record holds,
and one reader and one writer serve both.  Each line covers a run of slots
on one linear axis: a daily line the day serials of its month, a monthly
line the month_index values of its year's 12 months.

A record file is read in blocks of whole lines, about _BLOCK_BYTES each,
and never held whole.  Each line kept reduces to a row of a per-line table
(station id, element, first slot, slot count, int32 value fields); each
series' frame, and then one series at a time its float64 values, are
built from that table.  An integer field must match
``" *-?[0-9]+"`` (year and month take no sign); year 0 has no calendar date
and is rejected like a month outside 1-12; inventory lat, lon and
elevation must be plain decimal text: spaces, an optional sign, digits
with at most one decimal point, and nothing else.

Per-record problems (bad length, non-numeric fields, impossible years or
months) are reported as ParseIssue entries carrying 1-based line numbers
while the remaining records still parse.  Quality flags are not retained.

The writer checks that a series' values fit a 5-char field, then gathers
each value group from one table of the 8-char groups of -9999 ... 99999,
built on first use; write_records writes a file one series at a time.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .series import (
    DailySeries,
    MonthlySeries,
    ParseIssue,
    StationMeta,
    first_slot,
    series_at,
)

MISSING_INT = -9999
MISSING_ELEV = -999.9

_STATION_LEN = 37


@dataclass(frozen=True)
class _Layout:
    """The facts of one value-record layout.

    In 0-based, end-exclusive columns a line holds the station id (0-11),
    the year (11-15), a month (15-17) when has_month, the element at
    element_cols, then ``groups`` value groups of 8 chars from column
    values_at: a 5-char integer in 1/scale degree C and 3 flag chars.
    """

    length: int
    element_cols: tuple[int, int]
    elements: tuple[bytes, ...]
    has_month: bool
    values_at: int
    groups: int
    scale: float


_DAILY = _Layout(269, (17, 21), (b"TMAX", b"TMIN"), True, 21, 31, 10.0)
_MONTHLY = _Layout(115, (15, 19), (b"TMIN", b"TAVG", b"TMAX"), False, 19, 12, 100.0)

_FIELD_MIN, _FIELD_MAX = -9999, 99999  # the values a 5-char field holds

# fields per _parse_int_fields block: a couple of thousand daily lines,
# whose byte columns and int32 accumulator stay in a core's cache
_BLOCK_FIELDS = 1 << 16

# bytes per read of a record file; each block is cut after its last line break
_BLOCK_BYTES = 1 << 20

# plain decimal text; float() alone would also take "nan", "inf", "1e3", "1_0"
_DECIMAL = re.compile(rb" *[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+) *")


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
    expected_len bytes: a view of arr when the lines start at one fixed
    step (LF or CRLF ends, with or without a final line break), else one
    copy of those lines."""
    lengths = ends - starts
    good = lengths == expected_len
    issues = [
        ParseIssue(line=int(n), message=f"expected {expected_len}-char line, got {int(ln)}")
        for n, ln in zip(numbers[~good], lengths[~good])
    ]
    starts, numbers = starts[good], numbers[good]
    if starts.size == 0:
        return np.empty((0, expected_len), dtype=np.uint8), numbers, issues
    windows = np.lib.stride_tricks.sliding_window_view(arr, expected_len)
    step = int(starts[1] - starts[0]) if starts.size > 1 else 1
    if np.all(np.diff(starts) == step):
        return windows[starts[0] :: step][: starts.size], numbers, issues
    return windows[starts], numbers, issues


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


@functools.cache
def _group_table() -> np.ndarray:
    """Entry i is the 8-char value group of _FIELD_MIN + i: the 5-char field as
    b"%5d" renders it, then 3 blank flag chars; built on first use."""
    return np.array([b"%5d   " % v for v in range(_FIELD_MIN, _FIELD_MAX + 1)], dtype="S8")


def _bytes_column(matrix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    w = hi - lo
    return np.ascontiguousarray(matrix[:, lo:hi]).view(f"S{w}")[:, 0]


def _station_id(raw: bytes) -> str:
    """The 11-char id field as every parser reports it: padding stripped."""
    return raw.decode("ascii", "replace").strip()


def _series_rows(ids: np.ndarray, element: np.ndarray) -> list[np.ndarray]:
    """The rows of each (reported id, element) series, in file order; series sorted by that pair.

    Grouping by the reported id, not the raw field, makes lines under
    ``PAD1       `` and `` PAD1      `` one series.
    """
    if ids.size == 0:
        return []
    raw, raw_of_row = np.unique(ids, return_inverse=True)
    _, sid_of_raw = np.unique(np.array([_station_id(r) for r in raw.tolist()], dtype=object), return_inverse=True)
    elements, element_of_row = np.unique(element, return_inverse=True)
    keys = sid_of_raw[raw_of_row] * elements.size + element_of_row
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def _dedup_last(keys: np.ndarray) -> np.ndarray:
    """Indices keeping the last occurrence of each key, in key order."""
    _, idx = np.unique(keys[::-1], return_index=True)
    return keys.size - 1 - idx


def _line_slots(layout: _Layout, months: np.ndarray):
    """First slot and slot count of the lines that start in the given months
    (month_index values): a daily line holds its month's days, slot = day
    serial; a monthly line holds its year's 12 months, slot = month_index."""
    if not layout.has_month:
        return months, np.full(months.shape, layout.groups)
    days = (months - 1970 * 12 + np.array([[0], [1]])).astype("M8[M]").astype("M8[D]").astype(np.int64)
    return days[0], days[1] - days[0]


def _line_blocks(fh):
    """The bytes of a binary file in blocks of whole lines, read about
    _BLOCK_BYTES at a time; every block but the last ends in a line break."""
    rest = []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join(rest + [chunk[:cut]])
            rest = []
        if cut < len(chunk):
            rest.append(chunk[cut:])
    if rest:
        yield b"".join(rest)


def _block_rows(layout: _Layout, block: bytes, number: int):
    """The table rows (id, element, first slot, slot count, int32 value
    fields) of the lines of a block, the first being line ``number``, whose
    element is wanted and whose fields parse; its bad-length issues; and
    the numbers of its lines with a bad header or a non-numeric field."""
    arr, starts, ends, numbers = _split_lines(block)
    matrix, numbers, issues = _gather_lines(arr, starts, ends, numbers + (number - 1), layout.length)

    # row-filter narrow column slices rather than the whole line matrix;
    # full-width fancy indexing would copy every line per filter pass
    element = _bytes_column(matrix, *layout.element_cols)
    rows = np.flatnonzero(np.isin(element, layout.elements))
    numbers, element = numbers[rows], element[rows]

    # year 0 has no calendar date, so it is a damaged field like any other
    year, ok_head = _parse_int_fields(matrix[:, 11:15][rows], allow_sign=False)
    ok_head &= year > 0
    month = np.ones_like(year)
    if layout.has_month:
        month, ok_m = _parse_int_fields(matrix[:, 15:17][rows], allow_sign=False)
        ok_head &= ok_m & (month >= 1) & (month <= 12)
    bad_head = numbers[~ok_head]
    rows, numbers, element = rows[ok_head], numbers[ok_head], element[ok_head]
    first, count = _line_slots(layout, year[ok_head] * 12 + (month[ok_head] - 1))
    ints, ok = _parse_int_fields(matrix[rows, layout.values_at :].reshape(-1, layout.groups, 8)[:, :, :5])
    good = (ok | (np.arange(layout.groups) >= count[:, None])).all(axis=1)
    ids = matrix[:, 0:11][rows[good]].view("S11")[:, 0]
    return (ids, element[good], first[good], count[good], ints[good]), issues, bad_head, numbers[~good]


def _read(layout: _Layout, source):
    """(frames, values, issues) of a record file, its bytes or a path,
    read in blocks of whole lines into a per-line table.

    frames holds one series per (station, element) of the layout's
    elements, sorted by station id then element, each with a read-only
    all-NaN view as long as its values; values yields their values in
    turn, one series at a time.  When a line's (station, element, year[,
    month]) repeats, the later line whose value fields parse wins.  Issues
    list bad line lengths, then bad headers, then non-numeric value
    fields, each in line order.
    """
    in_memory = isinstance(source, bytes)
    n, number, issues, bad_lines = 0, 1, [], []
    with io.BytesIO(source) if in_memory else open(source, "rb") as fh:
        # preallocated to the most whole lines the size allows, as columns
        # gathered per block and joined at the end leave the heap
        # fragmented; a pipe reports size 0, and the table then grows
        cap = ((len(source) if in_memory else os.fstat(fh.fileno()).st_size) + 1) // (layout.length + 1) + 1
        table = [np.empty(cap, "S11"), np.empty(cap, "S4"), np.empty(cap, np.int64), np.empty(cap, np.int64)]
        table.append(np.empty((cap, layout.groups), np.int32))
        for block in _line_blocks(fh):
            rows, block_issues, *bad = _block_rows(layout, block, number)
            number += block.count(b"\n")
            issues += block_issues
            bad_lines.append(bad)
            k = rows[0].size
            if n + k > table[0].size:
                table = [np.concatenate((c[:n], np.empty((max(k, n),) + c.shape[1:], c.dtype))) for c in table]
            for column, part in zip(table, rows):
                column[n : n + k] = part
            n += k
    head = "bad year/month field" if layout.has_month else "bad year field"
    for message, lines in zip((head, "non-numeric value field"), zip(*bad_lines)):
        issues += [ParseIssue(line=int(line), message=message) for line in np.concatenate(lines)]

    ids, element, first, count, ints = (column[:n] for column in table)
    keeps = [rows[_dedup_last(first[rows])] for rows in _series_rows(ids, element)]
    spans = [(int(first[k[0]]), int((first[k] + count[k]).max())) for k in keeps]
    kind = DailySeries if layout.has_month else MonthlySeries
    frames = [
        series_at(kind, _station_id(ids[k[0]]), element[k[0]].decode("ascii"), lo, np.broadcast_to(np.nan, hi - lo))
        for k, (lo, hi) in zip(keeps, spans)
    ]

    def values():
        col = np.arange(layout.groups)
        for k, (lo, hi) in zip(keeps, spans):
            f, v = first[k], ints[k]
            mask = col < count[k][:, None]
            degrees = v / layout.scale
            degrees[v == MISSING_INT] = np.nan
            out = np.full(hi - lo, np.nan)
            out[((f[:, None] - lo) + col)[mask]] = degrees[mask]
            yield out

    return frames, values(), issues


def read_ghcnd(source):
    """(frames, values, issues) of TMAX and TMIN daily lines (see _read); day slots past a month's end are ignored."""
    return _read(_DAILY, source)


def read_ghcnm(source):
    """(frames, values, issues) of TMIN, TAVG and TMAX monthly lines (see _read)."""
    return _read(_MONTHLY, source)


def parse_ghcnd(source) -> tuple[list[DailySeries], list[ParseIssue]]:
    """The series and issues read_ghcnd gives, each series holding its values."""
    frames, values, issues = read_ghcnd(source)
    return [replace(frame, values=v) for frame, v in zip(frames, values)], issues


def parse_ghcnm(source) -> tuple[list[MonthlySeries], list[ParseIssue]]:
    """The series and issues read_ghcnm gives, each series holding its values."""
    frames, values, issues = read_ghcnm(source)
    return [replace(frame, values=v) for frame, v in zip(frames, values)], issues


def parse_stations(buf: bytes) -> tuple[list[StationMeta], list[ParseIssue]]:
    """Parse inventory lines; out-of-range coordinates and duplicate ids are
    rejected with diagnostics."""
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


def _serialize(layout: _Layout, series):
    """Each series' lines, sorted by station id then element, as one uint8
    block per series covering its slots; slots outside the series carry
    MISSING_INT, flags are spaces.  Every value group is gathered from
    _group_table, after a check that the values fit its fields."""
    for s in sorted(series, key=lambda s: (s.station_id, s.element)):
        scaled = np.rint(s.values * layout.scale)
        scaled[np.isnan(scaled)] = MISSING_INT
        if scaled.size and not (_FIELD_MIN <= scaled.min() and scaled.max() <= _FIELD_MAX):
            raise ValueError(f"value out of range for 5-char field: {_FIELD_MIN}..{_FIELD_MAX} in 1/{layout.scale:g} degree C")
        start, end = first_slot(s), first_slot(s) + s.values.size
        if layout.has_month:
            m0, m1 = np.array([start, end - 1]).astype("M8[D]").astype("M8[M]").astype(np.int64) + 1970 * 12
            months = np.arange(m0, m1 + 1)
        else:
            months = np.arange(start - start % 12, end, 12)
        line_first, count = _line_slots(layout, months)
        # the table index of every value group; a line's slots are its first `count` groups
        index = np.full((months.size, layout.groups), MISSING_INT - _FIELD_MIN, dtype=np.intp)
        at = np.flatnonzero(np.arange(layout.groups) < count[:, None])[start - line_first[0] : end - line_first[0]]
        index.reshape(-1)[at] = scaled - _FIELD_MIN

        lines = np.full((months.size, layout.length + 1), 0x20, dtype=np.uint8)
        lines[:, :11] = np.frombuffer(f"{s.station_id:<11s}".encode("ascii"), dtype=np.uint8)
        # the year and month fields as one zero-padded number, yyyymm (or yyyy)
        head, width = (months // 12 * 100 + months % 12 + 1, 6) if layout.has_month else (months // 12, 4)
        lines[:, 11 : 11 + width] = head[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10 + 0x30
        lines[:, slice(*layout.element_cols)] = np.frombuffer(f"{s.element:<4s}".encode("ascii"), dtype=np.uint8)
        lines[:, layout.values_at : layout.length] = _group_table()[index].view(np.uint8).reshape(months.size, -1)
        lines[:, layout.length] = 0x0A
        yield lines


def serialize_ghcnd(series: list[DailySeries]) -> bytes:
    """Render daily series as whole-month lines (see _serialize)."""
    return b"".join(_serialize(_DAILY, series))


def serialize_ghcnm(series: list[MonthlySeries]) -> bytes:
    """Render monthly series as whole-year lines (see _serialize)."""
    return b"".join(_serialize(_MONTHLY, series))


def write_records(path, series) -> None:
    """Write daily or monthly series (not both) to path as serialize_ghcnd or
    serialize_ghcnm renders them, one series at a time; on failure the file is removed."""
    layout = _MONTHLY if any(isinstance(s, MonthlySeries) for s in series) else _DAILY
    fh = open(path, "wb")
    try:
        with fh:
            for block in _serialize(layout, series):
                fh.write(block)
    except BaseException:
        os.remove(path)
        raise


def serialize_stations(stations: list[StationMeta]) -> bytes:
    lines = []
    for st in stations:
        elev = MISSING_ELEV if st.elev is None else st.elev
        lines.append(f"{st.station_id:<11s} {st.lat:8.4f} {st.lon:9.4f} {elev:6.1f}\n")
    return "".join(lines).encode("ascii")
