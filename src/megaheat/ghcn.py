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

A record file, or a pipe, is read once and never held whole: framing
reads blocks of whole lines into one reused buffer (a line too long for
it is read through and reported by its length), spills the parsed value
fields of each wanted line to a temporary file and keeps its 10-byte
index row in memory; the values pass reads the spilled rows back.

An integer field must match ``" *-?[0-9]+"`` (year and month take no
sign); year 0 has no calendar date and is rejected like a month outside
1-12; inventory lat, lon and elevation must be plain decimal text:
spaces, an optional sign, digits with at most one decimal point, and
nothing else.

Per-record problems (bad length, an id with a byte outside ASCII,
non-numeric fields, impossible years or months) are reported as
ParseIssue entries carrying 1-based line numbers while the remaining
records still parse.  Quality flags are not retained.

The writer checks that a series' values fit a 5-char field, then gathers
each value group from one table of the 8-char groups of -9999 ... 99999,
built on first use; write_records writes a file one series at a time.
"""

from __future__ import annotations

import functools
import io
import os
import re
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .series import (
    DailySeries,
    MonthlySeries,
    ParseIssue,
    StationMeta,
    day_months,
    first_slot,
    month_first_days,
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
    elements lists the elements read, sorted; an element's code is its index.
    """

    length: int
    element_cols: tuple[int, int]
    elements: tuple[bytes, ...]
    has_month: bool
    values_at: int
    groups: int
    scale: float


_DAILY = _Layout(269, (17, 21), (b"TMAX", b"TMIN"), True, 21, 31, 10.0)
_MONTHLY = _Layout(115, (15, 19), (b"TAVG", b"TMAX", b"TMIN"), False, 19, 12, 100.0)

_FIELD_MIN, _FIELD_MAX = -9999, 99999  # the values a 5-char field holds

# bytes per read of a record file; each block is cut after its last line break
_BLOCK_BYTES = 1 << 18

# plain decimal text; float() alone would also take "nan", "inf", "1e3", "1_0"
_DECIMAL = re.compile(rb" *[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+) *")


def _split_lines(buf):
    """Offsets and lengths of physical lines, tolerating CRLF and a missing
    final newline, and the count of physical lines.  Empty lines are
    dropped (they carry no record)."""
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
    return arr, starts[keep], ends[keep], numbers[keep], starts.size


def _bad_length(line: int, expected_len: int, length: int) -> ParseIssue:
    return ParseIssue(line=line, message=f"expected {expected_len}-char line, got {length}")


def _gather_lines(arr, starts, ends, numbers, expected_len):
    """Return (matrix, line_numbers, issues) of the lines exactly
    expected_len bytes long; matrix rows are a view of arr when the lines
    start at one fixed step (LF or CRLF ends, with or without a final line
    break), else one copy of those lines."""
    lengths = ends - starts
    good = lengths == expected_len
    issues = [_bad_length(int(n), expected_len, int(ln)) for n, ln in zip(numbers[~good], lengths[~good])]
    starts, numbers = starts[good], numbers[good]
    if starts.size == 0:
        return np.empty((0, expected_len), dtype=np.uint8), numbers, issues
    step = int(starts[1] - starts[0]) if starts.size > 1 else 1
    if np.all(np.diff(starts) == step):
        return np.ndarray((starts.size, expected_len), np.uint8, arr, int(starts[0]), (step, 1)), numbers, issues
    return np.lib.stride_tricks.sliding_window_view(arr, expected_len)[starts], numbers, issues


def _parse_int_fields(fields: np.ndarray, allow_sign: bool = True):
    """Parse right-justified integer byte fields of shape (lines, ..., width).

    Returns int32 (values, ok).  A field is ok when it matches
    ``" *-?[0-9]+"`` (``" *[0-9]+"`` without allow_sign), checked as three
    rules: every byte is a digit, a space or '-'; a space or '-' only ever
    follows a space; the last byte is a digit.  Values of fields that are
    not ok are unspecified.  Each byte position is read where it lies,
    with no copy of the fields; int32 holds any field of up to 9 chars.
    Callers pass at most one read block's fields, which stay in cache.
    """
    values = np.zeros(fields.shape[:-1], dtype=np.int32)
    neg = np.zeros(values.shape, dtype=bool)
    for p in range(fields.shape[-1]):
        # the byte less '0': a digit's value, 0xF0 for a space, 0xFD for '-'
        digit = fields[..., p] - np.uint8(0x30)
        is_digit = digit < 10
        space = digit == 0xF0
        blank = space
        if allow_sign:
            minus = digit == 0xFD
            blank = space | minus
            neg |= minus
        if p == 0:
            ok = is_digit | blank
        else:
            ok &= is_digit | (blank & after_space)
        after_space = space
        digit *= is_digit
        values *= 10
        values += digit
    ok &= is_digit
    np.negative(values, out=values, where=neg)
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
    """The 11-char id field as every parser reports it: padding stripped.
    Every parser drops a line whose id is not ASCII before it reports one."""
    return raw.decode("ascii", "replace").strip()


def _series_rows(station, element, first, count, n_elements: int):
    """(rows, bounds): series k, of those sorted by (station code, element
    code), keeps the lines rows[bounds[k] : bounds[k + 1]], in slot order.

    Lines with a count of 0 are dropped; of a series' lines that start at
    one slot, the last in the file is kept.  Element codes run below
    n_elements.
    """
    if station.size == 0:
        return np.empty(0, np.intp), np.zeros(1, np.intp)
    # one key per (series, first slot), worked out in place; dropped lines sort first
    keys = station.astype(np.int64)
    keys *= n_elements
    keys += element
    low, span = int(first.min()), int(first.max() - first.min()) + 1
    keys *= span
    keys += first
    keys -= low
    keys[count == 0] = -1
    rows = np.argsort(keys, kind="stable")
    keys.sort()
    kept = np.append(keys[1:] != keys[:-1], True) & (keys >= 0)
    if not kept.all():
        rows, keys = rows[kept], keys[kept]
    keys //= span
    starts = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
    return rows, np.append(starts, keys.size)


def _line_slots(layout: _Layout, months: np.ndarray):
    """First slot and slot count of the lines that start in the given months
    (month_index values): a daily line holds its month's days, slot = day
    serial; a monthly line holds its year's 12 months, slot = month_index."""
    if not layout.has_month or months.size == 0:
        return months, np.full(months.shape, layout.groups)
    # the first day of every month from the first month given to the one after the last
    lo = int(months.min())
    days = month_first_days(np.arange(lo, int(months.max()) + 2))
    return days[months - lo], np.diff(days)[months - lo]


def _line_blocks(fh, longest: int):
    """The bytes of a binary file in blocks of whole lines, read into one
    reused buffer of _BLOCK_BYTES (and room for a line of longest bytes
    and a CR LF break at least); every block but the last ends in a line
    break.  A block is a uint8 view of the buffer, valid until the next
    block is asked for: the partial line after its last break then moves
    to the buffer's front, and the next read fills the rest.  A line that
    fills the buffer, longer than longest bytes whatever its break, is not
    held: it is read through to its line break and its length comes in
    place of a block."""
    buf, held = bytearray(max(_BLOCK_BYTES, longest + 2)), 0
    while True:
        if held == len(buf):
            length, held = _read_through(fh, buf)
            yield length
        got = fh.readinto(memoryview(buf)[held:])
        if not got:
            break
        # after a line read through, the bytes held may hold line breaks too
        cut = buf.rfind(b"\n", 0, held + got) + 1
        held += got
        if cut:
            yield np.frombuffer(buf, np.uint8, cut)
            buf[: held - cut] = buf[cut:held]
            held -= cut
    if held:
        yield np.frombuffer(buf, np.uint8, held)


def _read_through(fh, buf: bytearray):
    """Read on from a buffer that one line fills, through that line's break,
    reusing the buffer.  Returns the line's length (without its break or a
    final CR) and the count of bytes read after the break, moved to the
    buffer's front."""
    spanned, last = len(buf), buf[-1]
    while got := fh.readinto(buf):
        brk = buf.find(b"\n", 0, got)
        if brk < 0:
            spanned, last = spanned + got, buf[got - 1]
            continue
        if brk:
            last = buf[brk - 1]
        buf[: got - brk - 1] = buf[brk + 1 : got]
        return spanned + brk - (last == 0x0D), got - brk - 1
    return spanned - (last == 0x0D), 0


def _block_rows(layout: _Layout, block, number: int):
    """The framing of a block's lines, the first being line ``number``.

    Returns, for the lines whose element is wanted: their raw ids, element
    codes, header bytes (year, and month when the layout has one), the
    first value group that does not parse (groups when all do) and line
    numbers; and their int32 value fields.  Then the block's count of lines
    and its bad-length issues.  Any column may be a view of the block.
    """
    arr, starts, ends, numbers, lines = _split_lines(block)
    matrix, numbers, issues = _gather_lines(arr, starts, ends, numbers + (number - 1), layout.length)
    code = _bytes_column(matrix, *layout.element_cols).view(">u4")
    element = np.full(code.shape, len(layout.elements), np.uint8)
    for k, want in enumerate(np.frombuffer(b"".join(layout.elements), ">u4")):
        element[code == want] = k
    wanted = element < len(layout.elements)
    if not wanted.all():
        matrix, numbers, element = matrix[wanted], numbers[wanted], element[wanted]
    ints, ok = _parse_int_fields(matrix[:, layout.values_at :].reshape(-1, layout.groups, 8)[:, :, :5])
    first_bad = np.full(len(ok), layout.groups, np.uint8)
    if not ok.all():
        first_bad[:] = np.where(ok.all(axis=1), layout.groups, ok.argmin(axis=1))
    head = matrix[:, 11 : layout.element_cols[0]]
    return (_bytes_column(matrix, 0, 11), element, head, first_bad, numbers), ints, lines, issues


def _index_rows(layout: _Layout, pending, bad, codes: dict):
    """The index columns of the framed lines, one at least, whose _block_rows
    columns pending holds; codes numbers each reported id as first seen.  A
    line with a non-ASCII id, a bad header or a bad value field in its slots
    gets slot count 0, and its number goes to that list of bad."""
    ids, element, head, first_bad, numbers = map(np.concatenate, pending)
    ascii = ids.view(np.uint8).reshape(-1, 11).max(axis=1) < 0x80
    # an id is decoded once per run of lines under one raw id
    run = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    of_run = [codes.setdefault(_station_id(raw), len(codes)) for raw in ids[run].tolist()]
    station = np.repeat(np.array(of_run, np.uint32), np.diff(np.append(run, ids.size)))
    # year 0 has no calendar date, so it is a damaged field like any other
    year, ok = _parse_int_fields(head[:, :4], allow_sign=False)
    ok &= year > 0
    month = 1
    if layout.has_month:
        month, ok_month = _parse_int_fields(head[:, 4:], allow_sign=False)
        ok &= ok_month & (month >= 1) & (month <= 12)
    first, slots = _line_slots(layout, year * 12 + (month - 1))
    parsed = first_bad >= slots
    for lines, mask in zip(bad, (~ascii, ascii & ~ok, ascii & ok & ~parsed)):
        lines += numbers[mask].tolist()
    return station, element, first.astype(np.int32, copy=False), (slots * (ascii & ok & parsed)).astype(np.uint8)


def _frame(layout: _Layout, fh, spill):
    """The framing pass, one read of a record file front to back: each framed
    line's int32 value fields go to spill as one row.  Returns the index
    columns, the sorted reported ids that station codes index, and the issues."""
    pending, held, number, issues, bad = ([], [], [], [], []), 0, 1, [], ([], [], [])
    chunks, codes = [tuple(np.empty(0, dtype) for dtype in (np.uint32, np.uint8, np.int32, np.uint8))], {}
    step = max(_BLOCK_BYTES // 64, 1)
    for block in _line_blocks(fh, layout.length):
        if isinstance(block, int):  # the length of a line too long to hold, read through
            issues.append(_bad_length(number, layout.length, block))
            number += 1
            continue
        line_columns, ints, block_lines, block_issues = _block_rows(layout, block, number)
        # any column may be a view of the reused buffer: copy it out before the next read
        for parts, column in zip(pending, line_columns):
            parts.append(column.copy())
        spill.write(ints)
        held, number = held + len(ints), number + block_lines
        issues += block_issues
        # headers, slots and ids once per step framed lines, a few blocks' worth, not per block
        if held >= step:
            chunks.append(_index_rows(layout, pending, bad, codes))
            pending, held = ([], [], [], [], []), 0
    if held:
        chunks.append(_index_rows(layout, pending, bad, codes))
    head_message = "bad year/month field" if layout.has_month else "bad year field"
    for message, lines in zip(("non-ASCII station id", head_message, "non-numeric value field"), bad):
        issues += [ParseIssue(line=line, message=message) for line in lines]
    station, element, first, count = map(np.concatenate, zip(*chunks))
    table = sorted(codes)
    rank = dict(zip(table, range(len(table))))
    station = np.array([rank[sid] for sid in codes], np.uint32)[station]
    return (station, element, first, count), table, issues


def _spilled(spill, rows: np.ndarray, groups: int, buf: bytearray) -> np.ndarray:
    """The int32 rows of groups values at the given indices of spill, read
    over ranges of rows of at most _BLOCK_BYTES (or one row) into buf."""
    width = 4 * groups
    at = np.argsort(rows, kind="stable")
    ordered = rows[at]
    step = max(_BLOCK_BYTES // width, 1)
    bounds = [0, *(np.flatnonzero(np.diff((ordered - ordered[0]) // step)) + 1).tolist(), rows.size]
    ints = np.empty((rows.size, groups), np.int32)
    for part in map(slice, bounds[:-1], bounds[1:]):
        lo, size = int(ordered[part.start]), (int(ordered[part.stop - 1]) + 1 - int(ordered[part.start])) * width
        spill.seek(lo * width)
        spill.readinto(memoryview(buf)[:size])
        ints[at[part]] = np.frombuffer(buf, np.int32, size // 4).reshape(-1, groups)[ordered[part] - lo]
    return ints


def _records(layout: _Layout, source):
    """Frame a record file (bytes or a path), yield (frames, issues), then
    each series' values in turn; see _read."""
    with tempfile.TemporaryFile() as spill:
        with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:
            (station, element, first, count), table, issues = _frame(layout, fh, spill)
        rows, bounds = _series_rows(station, element, first, count, len(layout.elements))
        # a series' lines are in slot order: its first line starts it, its last ends it
        heads, tails = rows[bounds[:-1]], rows[bounds[1:] - 1]
        starts, ends = first[heads], first[tails] + count[tails]
        kind = DailySeries if layout.has_month else MonthlySeries
        yield [
            series_at(kind, table[sid], layout.elements[e].decode("ascii"), a, np.broadcast_to(np.nan, b - a))
            for sid, e, a, b in zip(station[heads].tolist(), element[heads].tolist(), starts.tolist(), ends.tolist())
        ], issues

        # values pass: the rows of consecutive series, about a block's worth,
        # read back from the spill and built into one array of their values
        buf = bytearray(max(_BLOCK_BYTES, 4 * layout.groups))
        col = np.arange(layout.groups, dtype=np.uint8)
        # a batch closes where the running count of lines passes a multiple of a block's lines
        cuts = np.flatnonzero(np.diff(bounds[1:] // (_BLOCK_BYTES // (layout.length + 1) + 1))) + 1
        for batch in np.split(np.arange(heads.size), cuts) if heads.size else []:
            lines = rows[bounds[batch[0]] : bounds[batch[-1] + 1]]
            ints = _spilled(spill, lines, layout.groups, buf)
            f, c = first[lines], count[lines]
            # each series' values start at its offset in the batch's array
            at = np.concatenate(([0], np.cumsum(ends[batch] - starts[batch])))
            f += np.repeat(at[:-1] - starts[batch], np.diff(bounds[batch[0] : batch[-1] + 2]))
            mask = col < c[:, None]
            v = ints[mask]
            out = v / layout.scale
            np.putmask(out, v == MISSING_INT, np.nan)
            if not np.array_equal(f[1:], f[:-1] + c[:-1]):  # the lines' slots do not follow on: scatter
                out, degrees = np.full(at[-1], np.nan), out
                out[(f[:, None] + col)[mask]] = degrees
            for a, b in zip(at[:-1].tolist(), at[1:].tolist()):
                yield out[a:b]


def _read(layout: _Layout, source):
    """(frames, values, issues) of a record file, its bytes or a path, read once.

    The framing pass reads blocks of whole lines, appends the int32 value
    fields of each line whose element is wanted to the spill, an unnamed
    temporary file in tempfile's directory (TMPDIR, else /tmp; 124 bytes a
    daily line, 48 a monthly one), which is on disk only when that
    directory is: on a tmpfs it is memory that the process's resident set
    does not count.  Each line's 10-byte index row (station code, element
    code, first slot, slot count) is held in memory.  frames holds one
    series per (station, element) of the layout's elements, grouped from
    the lines whose id is ASCII and whose fields parse and sorted by
    station id then element, each with a read-only all-NaN view as long as
    its values.  values yields the series' values in turn, read back from
    the spill about a block's worth at a time.  When a line's (station, element, year[,
    month]) repeats, the later line whose value fields parse wins.  Issues
    list bad line lengths, then non-ASCII ids, then bad headers, then
    non-numeric value fields, each in line order.

    A file that grows while it is framed is read to its end as it stands;
    it is closed once framed, so a later change to it changes no value.
    The spill is closed when values is exhausted, closed or dropped.
    """
    records = _records(layout, source)
    frames, issues = next(records)
    return frames, records, issues


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
        if not raw[0:11].isascii():
            issues.append(ParseIssue(line=lineno, message="non-ASCII station id"))
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
            m0, m1 = day_months(np.array([start, end - 1]))
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
