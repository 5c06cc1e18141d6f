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

A record file is read in two passes and never held whole.  The framing
pass reads blocks of whole lines into one reused buffer of _BLOCK_BYTES,
parses every header field, checks every value field, and keeps per line
kept only its raw id, element, first slot, slot count and byte offset
(32 bytes, in any order of lines); a line too long for the buffer (a
whole file with CR-only line breaks, say) is read through to its line
break in that buffer and reported by its length.  Lines are grouped into
series and each series' frame comes from its lines.  The values pass
then reads each series' kept lines back from the same source by offset,
about _BLOCK_BYTES at a time, parses their value fields and builds the
series' float64 values, one series at a time; a file that changed in
between is an error, not other values.  A pipe is first copied to a
temporary file, so that it can be read twice.

An integer field must match ``" *-?[0-9]+"`` (year and month take no
sign); year 0 has no calendar date and is rejected like a month outside
1-12; inventory lat, lon and elevation must be plain decimal text:
spaces, an optional sign, digits with at most one decimal point, and
nothing else.

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
import shutil
import tempfile
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


def _rows_at(arr, starts, length):
    """The rows of arr of the given length at starts (at least one): a view
    when they start at one fixed step, else one copy of them."""
    step = int(starts[1] - starts[0]) if starts.size > 1 else 1
    if np.all(np.diff(starts) == step):
        return np.ndarray((starts.size, length), np.uint8, arr, int(starts[0]), (step, 1))
    return np.lib.stride_tricks.sliding_window_view(arr, length)[starts]


def _bad_length(line: int, expected_len: int, length: int) -> ParseIssue:
    return ParseIssue(line=line, message=f"expected {expected_len}-char line, got {length}")


def _gather_lines(arr, starts, ends, numbers, expected_len):
    """Return (matrix, starts, line_numbers, issues) of the lines exactly
    expected_len bytes long; matrix rows are a view of arr when the lines
    start at one fixed step (LF or CRLF ends, with or without a final line
    break), else one copy of those lines."""
    lengths = ends - starts
    good = lengths == expected_len
    issues = [_bad_length(int(n), expected_len, int(ln)) for n, ln in zip(numbers[~good], lengths[~good])]
    starts, numbers = starts[good], numbers[good]
    if starts.size == 0:
        return np.empty((0, expected_len), dtype=np.uint8), starts, numbers, issues
    return _rows_at(arr, starts, expected_len), starts, numbers, issues


def _parse_int_fields(fields: np.ndarray, allow_sign: bool = True, parse: bool = True):
    """Parse right-justified integer byte fields of shape (lines, ..., width).

    Returns int32 (values, ok), values None unless parse.  A field is ok
    when it matches ``" *-?[0-9]+"`` (``" *[0-9]+"`` without allow_sign),
    checked as three rules: every byte is a digit, a space or '-'; a space
    or '-' only ever follows a space; the last byte is a digit.  Values of
    fields that are not ok are unspecified.  Lines go through in blocks of
    about _BLOCK_FIELDS fields, each copied once into one contiguous byte
    column per position; int32 holds any field of up to 9 chars.
    """
    values = np.zeros(fields.shape[:-1], dtype=np.int32) if parse else None
    ok = np.empty(fields.shape[:-1], dtype=bool)
    step = max(1, _BLOCK_FIELDS // math.prod(fields.shape[1:-1]))
    for lo in range(0, len(fields), step):
        cols = np.moveaxis(fields[lo : lo + step], -1, 0).copy()
        good = ok[lo : lo + step]
        if parse:
            val, neg = values[lo : lo + step], np.zeros(good.shape, dtype=bool)
        for p, c in enumerate(cols):
            digit = c - np.uint8(0x30)
            is_digit = digit < 10
            space = c == 0x20
            blank = space
            if allow_sign:
                minus = c == 0x2D
                blank = space | minus
            if p == 0:
                np.logical_or(is_digit, blank, out=good)
            else:
                good &= is_digit | (blank & after_space)
            after_space = space
            if parse:
                if allow_sign:
                    neg |= minus
                digit *= is_digit
                val *= 10
                val += digit
        good &= is_digit
        if parse:
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
    ``PAD1       `` and `` PAD1      `` one series.  Ids are sorted once
    per run of rows with one raw id, so rows in any order group alike, and
    a file that lists a station's lines together sorts one id per station.
    The 4 element bytes, read as one big-endian integer, sort as the bytes do.
    """
    if ids.size == 0:
        return []
    run = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    raw, raw_of_run = np.unique(ids[run], return_inverse=True)
    _, sid_of_raw = np.unique(np.array([_station_id(r) for r in raw.tolist()], dtype=object), return_inverse=True)
    codes = element.view(">u4")
    elements = np.unique(codes)
    keys = np.repeat(sid_of_raw[raw_of_run] * elements.size, np.diff(np.append(run, ids.size)))
    keys += np.searchsorted(elements, codes)
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(keys)
    return np.split(order, np.cumsum(sizes[sizes > 0])[:-1])


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


def _value_fields(layout: _Layout, matrix: np.ndarray, count: np.ndarray, parse: bool = True):
    """The int32 value fields of record lines (None unless parse), and
    whether every field within each line's slot count parses."""
    fields = matrix[:, layout.values_at :].reshape(-1, layout.groups, 8)[:, :, :5]
    ints, ok = _parse_int_fields(fields, parse=parse)
    return ints, (ok | (np.arange(layout.groups) >= count[:, None])).all(axis=1)


def _line_blocks(fh, longest: int):
    """The bytes of a binary file in blocks of whole lines, read into one
    reused buffer of _BLOCK_BYTES (and room for a line of longest bytes
    and a CR LF break at least); every block but the last ends in a line
    break.  A block is a uint8 view of the buffer, valid until the next
    block is asked for: the partial line after its last break then moves
    to the buffer's front, and the next read fills the rest.  A line that
    fills the buffer, longer than longest bytes whatever its break, is not
    held: it is read through to its line break and comes as a pair (its
    length, the bytes it spans with its break) in place of a block."""
    buf, held = bytearray(max(_BLOCK_BYTES, longest + 2)), 0
    while True:
        if held == len(buf):
            length, size, held = _read_through(fh, buf)
            yield length, size
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
    final CR), the bytes it spans with its break, and the count of bytes
    read after the break, moved to the buffer's front."""
    spanned, last = len(buf), buf[-1]
    while got := fh.readinto(buf):
        brk = buf.find(b"\n", 0, got)
        if brk < 0:
            spanned, last = spanned + got, buf[got - 1]
            continue
        if brk:
            last = buf[brk - 1]
        buf[: got - brk - 1] = buf[brk + 1 : got]
        return spanned + brk - (last == 0x0D), spanned + brk + 1, got - brk - 1
    return spanned - (last == 0x0D), spanned, 0


def _block_rows(layout: _Layout, block, number: int):
    """The framing of a block's lines, the first being line ``number``.

    Returns, for the lines whose element is wanted and whose fields parse,
    their raw ids, elements, first slots, slot counts and byte offsets in
    the block; the block's count of lines and its bad-length issues; and
    the numbers of its lines with a bad header, then with a non-numeric
    value field.  Value fields are checked, not kept.  No array returned is
    a view of the block.
    """
    arr, starts, ends, numbers, lines = _split_lines(block)
    matrix, starts, numbers, issues = _gather_lines(arr, starts, ends, numbers + (number - 1), layout.length)
    element = _bytes_column(matrix, *layout.element_cols)
    wanted = np.isin(element, layout.elements)
    matrix, starts, numbers, element = matrix[wanted], starts[wanted], numbers[wanted], element[wanted]
    # year 0 has no calendar date, so it is a damaged field like any other
    year, ok_head = _parse_int_fields(matrix[:, 11:15], allow_sign=False)
    ok_head &= year > 0
    month = np.ones_like(year)
    if layout.has_month:
        month, ok_m = _parse_int_fields(matrix[:, 15:17], allow_sign=False)
        ok_head &= ok_m & (month >= 1) & (month <= 12)
    first, count = _line_slots(layout, year * 12 + (month - 1))
    _, ok_fields = _value_fields(layout, matrix, count, parse=False)
    good = ok_head & ok_fields
    line_columns = (_bytes_column(matrix, 0, 11)[good], element[good], first[good], count[good], starts[good])
    return line_columns, lines, issues, numbers[~ok_head], numbers[ok_head & ~ok_fields]


def _stamp(fh):
    st = os.fstat(fh.fileno())
    return st.st_size, st.st_mtime_ns


def _open_records(source):
    """A seekable binary handle on a record file's bytes or path and, for a
    path, the size and mtime_ns it had when opened.  A file that cannot
    seek (a pipe) is first copied block by block to an unnamed temporary
    file, which is read in its place."""
    if isinstance(source, bytes):
        return io.BytesIO(source), None
    fh = open(source, "rb")
    if fh.seekable():
        return fh, _stamp(fh)
    with fh:
        copy = tempfile.TemporaryFile()
        try:
            shutil.copyfileobj(fh, copy, _BLOCK_BYTES)
            copy.seek(0)
        except BaseException:
            copy.close()
            raise
    return copy, None


def _read_back(layout: _Layout, fh, buf: np.ndarray, offsets: np.ndarray):
    """The lines at the given ascending byte offsets of fh, read again into
    buf, each read over one contiguous range of at most _BLOCK_BYTES (or
    one line); yields (slice of offsets, lines), the lines a view of buf.
    ValueError when the file ends before a line does."""
    # every line starting within one step of a read's first line ends within it
    step = max(_BLOCK_BYTES - layout.length, 1)
    bounds = [0, *(np.flatnonzero(np.diff((offsets - offsets[0]) // step)) + 1).tolist(), offsets.size]
    for part in map(slice, bounds[:-1], bounds[1:]):
        at = int(offsets[part.start])
        size = int(offsets[part.stop - 1]) + layout.length - at
        fh.seek(at)
        if fh.readinto(buf[:size]) != size:
            raise ValueError("the record file is shorter than when it was framed")
        yield part, _rows_at(buf[:size], offsets[part] - at, layout.length)


def _frame(layout: _Layout, fh):
    """The framing pass over a seekable record file: the columns of its
    kept lines (raw id, element, first slot, slot count and byte offset),
    sized to the most whole lines the file can hold and cut to the lines
    kept, and its issues; see _read."""
    fh.seek(0, io.SEEK_END)
    cap = (fh.tell() + 1) // (layout.length + 1) + 1
    fh.seek(0)
    columns = [np.empty(cap, dtype) for dtype in ("S11", "S4", np.int64, np.uint8, np.int64)]
    n, at, number, issues, bad_lines = 0, 0, 1, [], []
    for block in _line_blocks(fh, layout.length):
        if isinstance(block, tuple):  # a line too long to hold, read through
            length, size = block
            issues.append(_bad_length(number, layout.length, length))
            at, number = at + size, number + 1
            continue
        line_columns, block_lines, block_issues, *bad = _block_rows(layout, block, number)
        k = line_columns[0].size
        if n + k > cap:
            raise ValueError("the record file grew while it was read")
        for column, part in zip(columns, line_columns):
            column[n : n + k] = part
        columns[-1][n : n + k] += at
        n, at, number = n + k, at + block.size, number + block_lines
        issues += block_issues
        bad_lines.append(bad)
    head = "bad year/month field" if layout.has_month else "bad year field"
    for message, numbers in zip((head, "non-numeric value field"), zip(*bad_lines)):
        issues += [ParseIssue(line=int(line), message=message) for line in np.concatenate(numbers)]
    return [column[:n] for column in columns], issues


def _records(layout: _Layout, source):
    """Frame a record file (bytes or a path), yield (frames, issues), then
    each series' values in turn; see _read."""
    fh, stamp = _open_records(source)
    with fh:
        (ids, element, first, count, offset), issues = _frame(layout, fh)
        series = _series_rows(ids, element)
        spans = [(int(first[r].min()), int((first[r] + count[r]).max())) for r in series]
        kind = DailySeries if layout.has_month else MonthlySeries
        yield [
            series_at(kind, _station_id(ids[r[0]]), element[r[0]].decode("ascii"), a, np.broadcast_to(np.nan, b - a))
            for r, (a, b) in zip(series, spans)
        ], issues

        # values pass: the kept lines of consecutive series, about a block's
        # worth at a time, read back in file order, checked against their
        # framing and parsed together; then each series' values in turn
        buf = np.empty(max(_BLOCK_BYTES, layout.length), np.uint8)
        col = np.arange(layout.groups)
        # a batch closes where the running count of lines passes a multiple of a block's lines
        ends = np.cumsum([r.size for r in series])
        cuts = np.flatnonzero(np.diff(ends // (_BLOCK_BYTES // (layout.length + 1) + 1))) + 1
        for batch in np.split(np.arange(len(series)), cuts) if series else []:
            if stamp is not None and _stamp(fh) != stamp:
                raise ValueError("the record file changed since it was framed")
            kept = [series[k][_dedup_last(first[series[k]])] for k in batch]
            batch_rows = np.concatenate(kept)
            order = np.argsort(batch_rows)
            ints = np.empty((batch_rows.size, layout.groups), np.int32)
            for part, lines in _read_back(layout, fh, buf, offset[batch_rows[order]]):
                pos = order[part]
                rows = batch_rows[pos]
                parsed, same = _value_fields(layout, lines, count[rows])
                same &= _bytes_column(lines, 0, 11) == ids[rows]
                same &= _bytes_column(lines, *layout.element_cols) == element[rows]
                if not same.all():
                    line = int(offset[rows[~same][0]])
                    raise ValueError(f"the line at byte {line} of the record file changed since it was framed")
                ints[pos] = parsed
            bounds = np.cumsum([0] + [len(rows) for rows in kept])
            for k, rows, begin, end in zip(batch, kept, bounds[:-1], bounds[1:]):
                a, b = spans[k]
                f, c = first[rows], count[rows]
                mask = col < c[:, None]
                v = ints[begin:end][mask]
                degrees = v / layout.scale
                degrees[v == MISSING_INT] = np.nan
                out = np.full(b - a, np.nan)
                if np.array_equal(f[1:], f[:-1] + c[:-1]):  # the lines' slots follow on: one slice
                    out[f[0] - a : f[0] - a + v.size] = degrees
                else:
                    out[((f[:, None] - a) + col)[mask]] = degrees
                yield out


def _read(layout: _Layout, source):
    """(frames, values, issues) of a record file, its bytes or a path, read
    in two passes over the source.

    The framing pass reads blocks of whole lines and keeps, per line whose
    element is wanted and whose fields parse, only its raw id, element,
    first slot, slot count and byte offset (32 bytes).  frames holds one
    series per (station, element) of the layout's elements, grouped from
    those lines and sorted by station id then element, each with a
    read-only all-NaN view as long as its values.  values is the values
    pass: it yields the series' values in turn, one series at a time, each
    built from its kept lines read back from the source by offset and
    parsed, those of consecutive series about a block's worth at a time.
    When a line's (station, element, year[, month]) repeats, the later line
    whose value fields parse wins.  Issues list bad line lengths, then bad
    headers, then non-numeric value fields, each in line order.

    values raises ValueError when the file changed between the passes: its
    size or mtime differs, it ends early, or a line read back no longer
    parses or carries another id or element; framing raises it when the
    file grows as it is read.  The source stays open until values is
    exhausted, closed or dropped.
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
