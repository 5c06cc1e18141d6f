import calendar
import datetime as dt
import gc
import os
import re
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from megaheat import ghcn
from megaheat.ghcn import (
    parse_ghcnd,
    parse_ghcnm,
    parse_stations,
    serialize_ghcnd,
    serialize_ghcnm,
    serialize_stations,
)
from megaheat.series import DailySeries, MonthlySeries, ParseIssue, StationMeta, first_slot, save_series

# Fixture lines are assembled by hand here so the parser and the package's
# own serializer are checked against an independent construction.

MISSING = -9999


def dly_line(station, year, month, element, values):
    fields = []
    for d in range(31):
        v = values[d] if d < len(values) else MISSING
        fields.append(f"{v:5d}   ")
    line = f"{station:<11s}{year:04d}{month:02d}{element:<4s}" + "".join(fields)
    assert len(line) == 269
    return line


def ghcnm_line(station, year, element, values):
    line = f"{station:<11s}{year:04d}{element:<4s}" + "".join(f"{v:5d}   " for v in values)
    assert len(line) == 115
    return line


def inv_line(station, lat, lon, elev):
    line = f"{station:<11s} {lat:8.4f} {lon:9.4f} {elev:6.1f}"
    assert len(line) == 37
    return line


class TestParseGhcnd:
    def test_first_day_value_is_tenths(self):
        # 311 tenths of a degree C on 1956-07-01
        line = dly_line("USW00000001", 1956, 7, "TMAX", [311])
        series, issues = parse_ghcnd(line.encode())
        assert issues == []
        assert len(series) == 1
        s = series[0]
        assert s.station_id == "USW00000001"
        assert s.element == "TMAX"
        assert s.start == dt.date(1956, 7, 1)
        assert s.values[0] == pytest.approx(31.1, abs=1e-12)

    def test_division_by_ten_is_exact_for_layout(self):
        # the 5-char field " 3110" holds integer 3110, i.e. 311.0 degC
        line = dly_line("USW00000001", 1956, 7, "TMAX", [3110])
        series, _ = parse_ghcnd(line.encode())
        assert series[0].values[0] == pytest.approx(311.0, abs=1e-12)

    def test_missing_sentinel(self):
        line = dly_line("USW00000001", 1956, 7, "TMAX", [MISSING, 250])
        series, _ = parse_ghcnd(line.encode())
        s = series[0]
        assert np.isnan(s.values[0])
        assert s.values[1] == pytest.approx(25.0)

    def test_other_elements_skipped(self):
        line = dly_line("USW00000001", 1956, 7, "PRCP", [100])
        series, issues = parse_ghcnd(line.encode())
        assert series == []
        assert issues == []

    def test_days_beyond_month_length_skipped(self):
        # non-leap February: only 28 slots even though the line carries 31
        line = dly_line("USW00000001", 1957, 2, "TMIN", [10] * 31)
        series, _ = parse_ghcnd(line.encode())
        s = series[0]
        assert len(s.values) == 28
        assert s.end == dt.date(1957, 2, 28)

    def test_leap_february(self):
        line = dly_line("USW00000001", 1956, 2, "TMIN", [10] * 31)
        series, _ = parse_ghcnd(line.encode())
        assert len(series[0].values) == 29

    def test_multi_month_series_is_contiguous(self):
        lines = "\n".join(
            [
                dly_line("USW00000001", 1956, 7, "TMAX", [100] * 31),
                dly_line("USW00000001", 1956, 9, "TMAX", [120] * 30),
            ]
        )
        series, _ = parse_ghcnd(lines.encode())
        s = series[0]
        assert s.start == dt.date(1956, 7, 1)
        assert s.end == dt.date(1956, 9, 30)
        # all of August is a hole -> NaN slots, but the slots exist
        assert len(s.values) == 31 + 31 + 30
        assert np.all(np.isnan(s.values[31:62]))

    def test_bad_line_length_reported_with_line_number(self):
        good = dly_line("USW00000001", 1956, 7, "TMAX", [100])
        data = (good + "\n" + "too short" + "\n" + good.replace("07", "08")).encode()
        series, issues = parse_ghcnd(data)
        assert len(series) == 1
        assert len(series[0].values) == 62
        assert len(issues) == 1
        assert issues[0].line == 2

    def test_non_numeric_value_field_reported(self):
        good = dly_line("USW00000002", 1956, 7, "TMAX", [100])
        bad = dly_line("USW00000001", 1956, 7, "TMAX", [100])
        bad = bad[:21] + "12a45" + bad[26:]
        series, issues = parse_ghcnd((bad + "\n" + good).encode())
        assert [s.station_id for s in series] == ["USW00000002"]
        assert len(issues) == 1
        assert issues[0].line == 1

    def test_bad_month_reported(self):
        line = dly_line("USW00000001", 1956, 7, "TMAX", [100])
        line = line[:15] + "13" + line[17:]
        series, issues = parse_ghcnd(line.encode())
        assert series == []
        assert len(issues) == 1

    def test_year_zero_reported(self):
        # year 0 has no calendar date; the line is a header issue, and the
        # station's other lines still parse
        lines = [dly_line("USW00000001", 0, 7, "TMAX", [100]), dly_line("USW00000001", 1956, 7, "TMAX", [200])]
        series, issues = parse_ghcnd("\n".join(lines).encode())
        assert issues == [ParseIssue(line=1, message="bad year/month field")]
        assert [(s.start, s.values[0]) for s in series] == [(dt.date(1956, 7, 1), 20.0)]

    def test_output_sorted_by_station_then_element(self):
        lines = "\n".join(
            [
                dly_line("USW00000002", 1956, 7, "TMAX", [100]),
                dly_line("USW00000001", 1956, 7, "TMIN", [50]),
                dly_line("USW00000001", 1956, 7, "TMAX", [100]),
            ]
        )
        series, _ = parse_ghcnd(lines.encode())
        keys = [(s.station_id, s.element) for s in series]
        assert keys == sorted(keys)

    def test_duplicate_month_last_line_wins(self):
        lines = "\n".join(
            [
                dly_line("USW00000001", 1956, 7, "TMAX", [100]),
                dly_line("USW00000001", 1956, 7, "TMAX", [200]),
            ]
        )
        series, _ = parse_ghcnd(lines.encode())
        assert series[0].values[0] == pytest.approx(20.0)

    def test_later_duplicate_with_a_non_numeric_field_keeps_the_earlier_line(self):
        bad = dly_line("USW00000001", 1956, 7, "TMAX", [200, 300])
        lines = [dly_line("USW00000001", 1956, 7, "TMAX", [100, 150]), bad[:29] + "  1x3" + bad[34:]]
        series, issues = parse_ghcnd("\n".join(lines).encode())
        assert issues == [ParseIssue(line=2, message="non-numeric value field")]
        (s,) = series
        assert s.start == dt.date(1956, 7, 1) and s.values.size == 31
        assert (s.values[0], s.values[1]) == (10.0, 15.0)

    def test_value_issues_in_line_order_across_series(self):
        # series are parsed in station order, issues still come in line order
        lines = [dly_line(sid, 1956, 7, "TMAX", [100]) for sid in ("USW00000002", "USW00000001", "USW00000002")]
        lines = [line[:21] + "  1x3" + line[26:] for line in lines[:2]] + lines[2:]
        lines.insert(1, "too short")
        series, issues = parse_ghcnd("\n".join(lines).encode())
        assert issues == [
            ParseIssue(line=2, message="expected 269-char line, got 9"),
            ParseIssue(line=1, message="non-numeric value field"),
            ParseIssue(line=3, message="non-numeric value field"),
        ]
        assert [s.station_id for s in series] == ["USW00000002"]


_FIELD_BYTES = st.one_of(st.sampled_from(b" -0123456789"), st.integers(0, 255))


def _assert_grammar(fields, allow_sign, values, ok):
    """Each field is ok exactly when it matches the grammar, and then holds int(field)."""
    grammar = rb" *-?[0-9]+" if allow_sign else rb" *[0-9]+"
    assert values.dtype == np.int32 and values.shape == ok.shape == fields.shape[:-1]
    for index in np.ndindex(ok.shape):
        field = fields[index].tobytes()
        assert ok[index] == bool(re.fullmatch(grammar, field)), field
        if ok[index]:
            assert values[index] == int(field), field


class TestParseIntFields:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        width=st.integers(1, 5),
        n=st.integers(0, 40),
        allow_sign=st.booleans(),
        block=st.integers(1, 9),
    )
    def test_matches_the_field_grammar(self, data, width, n, allow_sign, block):
        raw = data.draw(st.lists(_FIELD_BYTES, min_size=n * width, max_size=n * width))
        fields = np.array(raw, dtype=np.uint8).reshape(n, width)
        with mock.patch.object(ghcn, "_BLOCK_FIELDS", block):
            values, ok = ghcn._parse_int_fields(fields, allow_sign=allow_sign)
        _assert_grammar(fields, allow_sign, values, ok)

    @settings(max_examples=25, deadline=None)
    @given(
        edge=st.lists(_FIELD_BYTES, min_size=4 * 31 * 5, max_size=4 * 31 * 5),
        allow_sign=st.booleans(),
    )
    def test_rows_on_each_side_of_a_block_boundary(self, edge, allow_sign):
        # lines of 31 five-byte fields, as in the daily layout; the two
        # lines on each side of the first block boundary are drawn
        step = ghcn._BLOCK_FIELDS // 31
        fields = np.frombuffer(b" -123" * (31 * (step + 3)), dtype=np.uint8).reshape(step + 3, 31, 5).copy()
        fields[step - 2 : step + 2] = np.array(edge, dtype=np.uint8).reshape(4, 31, 5)
        values, ok = ghcn._parse_int_fields(fields, allow_sign=allow_sign)
        edge_lines = slice(step - 2, step + 2)
        _assert_grammar(fields[edge_lines], allow_sign, values[edge_lines], ok[edge_lines])
        rest = np.ones(step + 3, dtype=bool)
        rest[edge_lines] = False
        assert (ok[rest] == allow_sign).all()
        if allow_sign:
            assert (values[rest] == -123).all()

    def test_bad_daily_lines_on_a_block_boundary(self):
        step = ghcn._BLOCK_FIELDS // 31
        months = [(1800 + k // 12, k % 12 + 1) for k in range(step + 2)]
        lines = [dly_line("USW00000001", y, m, "TMAX", [10] * 31) for y, m in months]
        for k in (step - 1, step):
            lines[k] = lines[k][:21] + "  1x3" + lines[k][26:]
        series, issues = parse_ghcnd(("\n".join(lines) + "\n").encode())
        assert issues == [
            ParseIssue(step, "non-numeric value field"),
            ParseIssue(step + 1, "non-numeric value field"),
        ]
        (s,) = series
        assert s.start == dt.date(1800, 1, 1)
        assert np.isnan(s.values).sum() == sum(
            (dt.date(y + m // 12, m % 12 + 1, 1) - dt.date(y, m, 1)).days for y, m in months[step - 1 : step + 1]
        )


class TestGatherLines:
    """Lines of the record width that start at one fixed step are a view of
    the input; other lines are gathered into one copy."""

    LINES = [dly_line("USW00000001", 1956, m, "TMAX", [m]).encode() for m in (1, 2, 3)]

    def _gather(self, blob):
        arr, starts, ends, numbers, _ = ghcn._split_lines(blob)
        matrix, numbers, issues = ghcn._gather_lines(arr, starts, ends, numbers, 269)
        return arr, matrix, numbers.tolist(), issues

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("final_break", [True, False])
    @pytest.mark.parametrize("count", [1, 3])
    def test_regular_lines_are_a_view(self, end, final_break, count):
        blob = end.join(self.LINES[:count]) + (end if final_break else b"")
        arr, matrix, numbers, issues = self._gather(blob)
        assert np.shares_memory(matrix, arr)
        assert [row.tobytes() for row in matrix] == self.LINES[:count]
        assert numbers == list(range(1, count + 1)) and issues == []

    def test_irregular_lines_are_a_copy(self):
        blob = b"\n".join([self.LINES[0], b"short", self.LINES[1], b"", self.LINES[2]]) + b"\n"
        arr, matrix, numbers, issues = self._gather(blob)
        assert not np.shares_memory(matrix, arr)
        assert [row.tobytes() for row in matrix] == self.LINES
        assert numbers == [1, 3, 5]
        assert issues == [ParseIssue(line=2, message="expected 269-char line, got 5")]


def _daily_world(stations, years):
    """Daily TMAX and TMIN series of whole years from 1961, in tenths of a degree, some days missing."""
    rng = np.random.default_rng(5)
    days = (dt.date(1961 + years, 1, 1) - dt.date(1961, 1, 1)).days
    out = []
    for k in range(stations):
        for element in ("TMAX", "TMIN"):
            values = np.round(rng.normal(15.0, 8.0, days) * 10.0) / 10.0
            values[rng.integers(0, days, days // 97)] = np.nan
            out.append(DailySeries(f"USW{k:08d}", element, dt.date(1961, 1, 1), values))
    return out


class TestMemory:
    """parse_ghcnd and save_series never hold a copy of the file's value fields.

    The budget follows the design, whatever the world's size:
    - while lines are split, a one-byte newline mask over the input; after
      that, the parsed values, 8 bytes per slot.  The larger of the two
      counts once;
    - per line, at most 16 index values of 8 bytes: line numbers, the
      header fields, the slots and the series grouping;
    - one batch of whole series in flight: under 24 bytes per field (line
      bytes, byte columns, int32 values, masks) over at most _BLOCK_FIELDS
      plus one series' fields, and one series' scatter, under 48 bytes per
      field (float64 degrees, int64 slot index, masks);
    - 1 MiB for Python objects: the series, issues and lists;
    - lines that do not start at one fixed step (a damaged line) add one
      gathered copy of the good lines.
    save_series writes the values where they lie: above the series it is
    given it holds only frame arrays and zip buffers, under 1 MiB.  A
    design that holds line-wide value arrays needs at least twice the
    parsed values; one that joins or copies the values to write them needs
    them once more.
    """

    STATIONS, YEARS = 24, 40

    @pytest.fixture(scope="class")
    def blob(self):
        return serialize_ghcnd(_daily_world(self.STATIONS, self.YEARS))

    @staticmethod
    def _budget(blob, series, gathered_lines):
        n_lines = blob.count(b"\n")
        output = sum(s.values.nbytes for s in series)
        # a daily line holds at least 28 slots
        series_fields = (max(s.values.size for s in series) // 28 + 1) * 31
        batch = 24 * (ghcn._BLOCK_FIELDS + series_fields) + 48 * series_fields
        return max(len(blob), output) + 128 * n_lines + batch + 2**20 + 269 * gathered_lines

    @pytest.mark.parametrize("damage", ["clean", "crlf", "short line"])
    def test_parse_and_save_peak(self, blob, damage, tmp_path):
        gathered = 0
        if damage == "crlf":
            blob = blob.replace(b"\n", b"\r\n")
        elif damage == "short line":
            lines = blob.split(b"\n")
            lines[len(lines) // 2] = lines[len(lines) // 2][:-1]
            blob = b"\n".join(lines)
            gathered = len(lines) - 2
        tracemalloc.start()
        try:
            series, issues = parse_ghcnd(blob)
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            save_series(tmp_path / "parsed.npz", series, [s.values for s in series])
            save_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(series) == 2 * self.STATIONS and len(issues) == (damage == "short line")
        assert parse_peak < self._budget(blob, series, gathered), parse_peak
        assert save_peak < 2**20, save_peak


def _with_field(line, k, field):
    """line with its k-th value field (5 chars, from column 21 or 19) replaced."""
    at = (21 if len(line) == 269 else 19) + 8 * k
    return line[:at] + field + line[at + 5 :]


def _edge_lines(layout):
    """Record lines that put the reader's cases next to block cuts:
    interleaved stations, a blank, a short and a long line, a repeated
    record whose later good line wins and a later repeat with a
    non-numeric field that loses, bad headers, and non-numeric fields on
    neighbouring lines."""
    if layout == "daily":
        e1, e2 = "TMAX", "TMIN"

        def rec(sid, k, element, base):
            return dly_line(sid, 1960 + k // 12, k % 12 + 1, element, [base + d for d in range(31)])

        def bad_head(line):
            return line[:15] + "13" + line[17:]
    else:
        e1, e2 = "TAVG", "TMIN"

        def rec(sid, k, element, base):
            return ghcnm_line(sid, 1960 + k, element, [base + m for m in range(12)])

        def bad_head(line):
            return line[:11] + "0000" + line[15:]

    a, b = "USW00000001", "USC00000002"
    return (e1, e2), [
        rec(a, 0, e1, 10),
        rec(b, 0, e1, 20),
        "",
        rec(a, 1, e1, 30),
        rec(a, 2, e1, 40)[:100],
        rec(b, 1, e1, 50) + "  ",
        rec(a, 0, e1, 60),
        _with_field(rec(a, 0, e1, 70), 3, " 1x3 "),
        rec(a, 3, e2, 80),
        _with_field(rec(b, 2, e2, 90), 0, "  -  "),
        _with_field(rec(a, 4, e2, 100), 1, "   x1"),
        rec(a, 5, e2, 110)[:11] + "19x0" + rec(a, 5, e2, 110)[15:],
        bad_head(rec(b, 3, e2, 120)),
        rec(b, 3, e2, 130),
    ]


class TestBlockEdges:
    """Reading in blocks of whole lines gives what one block over the whole
    input gives, wherever the block edges fall: inside a line, between its
    \\r and \\n, or exactly between lines."""

    @staticmethod
    def _parsed(parse, source, block):
        with mock.patch.object(ghcn, "_BLOCK_BYTES", block):
            series, issues = parse(source)
        return [(s.station_id, s.element, first_slot(s), s.values.tobytes()) for s in series], issues

    @pytest.mark.parametrize("layout", ["daily", "monthly"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_break", [True, False])
    def test_block_size_changes_nothing(self, layout, end, final_break):
        parse = parse_ghcnd if layout == "daily" else parse_ghcnm
        (e1, e2), lines = _edge_lines(layout)
        blob = (end.join(lines) + (end if final_break else "")).encode()
        whole = self._parsed(parse, blob, 10**7)

        series, issues = whole
        assert issues == [
            ParseIssue(5, f"expected {len(lines[0])}-char line, got 100"),
            ParseIssue(6, f"expected {len(lines[0])}-char line, got {len(lines[0]) + 2}"),
            *(ParseIssue(n, "bad year/month field" if layout == "daily" else "bad year field") for n in (12, 13)),
            *(ParseIssue(n, "non-numeric value field") for n in (8, 10, 11)),
        ]
        assert [(sid, element) for sid, element, _, _ in series] == [
            ("USC00000002", e1),
            ("USC00000002", e2),
            ("USW00000001", e1),
            ("USW00000001", e2),
        ]
        # the repeated first record keeps its second copy, the last good one
        first_values = np.frombuffer(series[2][3], dtype=np.float64)[:3]
        assert_array_equal(first_values * (10 if layout == "daily" else 100), [60, 61, 62])

        length = len(lines[0]) + len(end)
        for block in (1, 2, 3, 50, length - 2, length - 1, length, length + 1, 2 * length + 3, 3 * length - 1):
            assert self._parsed(parse, blob, block) == whole, block

    @pytest.mark.parametrize("layout", ["daily", "monthly"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("final_break", [True, False])
    def test_lines_longer_than_the_buffer(self, layout, end, final_break):
        # a line that fills the buffer is read through, not held, and
        # reported as a buffer holding it reports it; the lines after it
        # keep their numbers and offsets.  Lines ending in CR alone make the
        # file one line.
        parse = parse_ghcnd if layout == "daily" else parse_ghcnm
        _, lines = _edge_lines(layout)
        lines = lines[:3] + ["x" * 5000, "y" * 999 + "\r"] + lines[3:] + ["z" * 3000]
        blob = (end.join(lines) + (end if final_break else "")).encode()
        whole = self._parsed(parse, blob, 10**7)
        expected = f"expected {len(lines[0])}-char line, got"
        if end == "\r":
            assert whole == ([], [ParseIssue(1, f"{expected} {len(blob) - final_break}")])
        else:
            # the CR before a line break is stripped, one CR only
            cr_line = 999 + (end == "\r\n")
            for issue in ((4, 5000), (5, cr_line), (len(lines), 3000)):
                assert ParseIssue(issue[0], f"{expected} {issue[1]}") in whole[1]
        for block in (300, 999, 1000, 1001, 1002, 1003, 2048, 4999, 5000, 5001, 5002, 6000):
            assert self._parsed(parse, blob, block) == whole, block

    @pytest.mark.parametrize("order", ["month by month", "shuffled"])
    def test_line_order_changes_nothing(self, order):
        # serialize_ghcnd writes series by series; a GHCN-Daily file lists a
        # station's elements month by month, and any order groups alike
        blob = serialize_ghcnd(_daily_world(3, 2))
        lines = blob.splitlines(keepends=True)
        if order == "month by month":
            lines.sort(key=lambda line: (line[:11], line[11:17], line[17:21]))
        else:
            np.random.default_rng(2).shuffle(lines)
        assert b"".join(lines) != blob
        whole = self._parsed(parse_ghcnd, blob, 10**7)
        for block in (300, 4096, 10**7):
            assert self._parsed(parse_ghcnd, b"".join(lines), block) == whole, block

    @pytest.mark.parametrize("layout", ["daily", "monthly"])
    def test_a_pipe_parses_like_a_file(self, layout, tmp_path):
        # a pipe is read as it comes, like a file, and opens the one
        # temporary file a file opens (the spill), no copy of the pipe
        parse = parse_ghcnd if layout == "daily" else parse_ghcnm
        _, lines = _edge_lines(layout)
        blob = ("\n".join(lines * 20) + "\n").encode()
        path, fifo = tmp_path / "file", tmp_path / "records"
        path.write_bytes(blob)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        with mock.patch.object(tempfile, "TemporaryFile", wraps=tempfile.TemporaryFile) as opened:
            piped = self._parsed(parse, fifo, 300)
            by_pipe = opened.call_count
            assert self._parsed(parse, path, 300) == piped
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert by_pipe == opened.call_count - by_pipe == 1
        assert piped == self._parsed(parse, blob, 10**7)


class TestChangedBetweenPasses:
    """read_ghcnd frames a file and spills its parsed value fields; values
    reads them back from the spill, never from the file.  A file rewritten
    in between changes no value, one that grows while it is framed is read
    as it stands, and no descriptor outlives the values."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "ghcnd.dly"
        path.write_bytes(serialize_ghcnd(_daily_world(2, 2)))
        return path

    @pytest.mark.parametrize("change", ["non-numeric field", "truncated"])
    @pytest.mark.parametrize("same_mtime", [False, True])
    def test_rewritten_file_changes_no_value(self, path, change, same_mtime):
        before = path.stat()
        blob = path.read_bytes()
        expected = [s.values.tobytes() for s in parse_ghcnd(blob)[0]]
        frames, values, _ = ghcn.read_ghcnd(path)
        if change == "truncated":
            path.write_bytes(blob[: len(blob) // 2])
        else:
            lines = blob.decode().split("\n")
            lines[len(lines) // 2] = _with_field(lines[len(lines) // 2], 3, " 1x3 ")
            path.write_bytes("\n".join(lines).encode())
        if same_mtime:
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert len(frames) == 4
        assert [v.tobytes() for v in values] == expected

    @staticmethod
    def _open_fds():
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.parametrize("end", ["exhausted", "closed", "dropped"])
    def test_source_and_spill_are_closed(self, path, end):
        before = self._open_fds()
        frames, values, _ = ghcn.read_ghcnd(path)
        # the source is closed once framed; the spill stays open for values
        assert self._open_fds() == before + 1
        next(values)
        if end == "exhausted":
            assert len(list(values)) == len(frames) - 1
        elif end == "closed":
            values.close()
        else:
            del values
            gc.collect()
        assert self._open_fds() == before

    def test_file_grown_while_framed_is_read_as_it_stands(self, path, monkeypatch):
        # the appended lines repeat the file's, and a repeated line's later
        # good copy wins, so the series are the file's own; every byte,
        # those appended included, is read once
        blob = path.read_bytes()
        expected = parse_ghcnd(blob)
        blocks, read = ghcn._line_blocks, []

        def appending(fh, longest):
            for k, block in enumerate(blocks(fh, longest)):
                read.append(block.size)
                yield block
                if k == 0:
                    with open(path, "ab") as extra:
                        extra.write(blob)

        monkeypatch.setattr(ghcn, "_line_blocks", appending)
        monkeypatch.setattr(ghcn, "_BLOCK_BYTES", 4096)
        series, issues = parse_ghcnd(path)
        assert sum(read) == 2 * len(blob) and len(read) > 2
        assert issues == expected[1] == []
        assert [(s.station_id, s.element, first_slot(s), s.values.tobytes()) for s in series] == [
            (s.station_id, s.element, first_slot(s), s.values.tobytes()) for s in expected[0]
        ]


class TestParseGhcnm:
    def test_hundredths(self):
        line = ghcnm_line("USW00000001", 1960, "TAVG", [-512] + [MISSING] * 11)
        series, issues = parse_ghcnm(line.encode())
        assert issues == []
        s = series[0]
        assert s.element == "TAVG"
        assert s.first_year == 1960 and s.first_month == 1
        assert s.values[0] == pytest.approx(-5.12, abs=1e-12)
        assert np.all(np.isnan(s.values[1:]))

    def test_missing_and_element_filter(self):
        lines = "\n".join(
            [
                ghcnm_line("USW00000001", 1960, "TMIN", [MISSING] * 12),
                ghcnm_line("USW00000001", 1960, "PRCP", [100] * 12),
            ]
        )
        series, _ = parse_ghcnm(lines.encode())
        assert len(series) == 1
        assert np.all(np.isnan(series[0].values))

    def test_years_contiguous_with_hole(self):
        lines = "\n".join(
            [
                ghcnm_line("USW00000001", 1960, "TAVG", [100] * 12),
                ghcnm_line("USW00000001", 1962, "TAVG", [200] * 12),
            ]
        )
        series, _ = parse_ghcnm(lines.encode())
        s = series[0]
        assert len(s.values) == 36
        assert np.all(np.isnan(s.values[12:24]))
        assert s.value_in(1962, 1) == pytest.approx(2.0)

    def test_year_zero_reported(self):
        # a year-0 line would otherwise stretch the series over 1,960 years
        lines = [ghcnm_line("USW00000001", 0, "TAVG", [100] * 12), ghcnm_line("USW00000001", 1960, "TAVG", [200] * 12)]
        series, issues = parse_ghcnm("\n".join(lines).encode())
        assert issues == [ParseIssue(line=1, message="bad year field")]
        assert [(s.first_year, s.values.size) for s in series] == [(1960, 12)]


class TestPaddedIds:
    """Lines whose id fields differ only in padding belong to one series;
    a repeated month still keeps the later line.  Blocks of 64 bytes hold
    one line each, so every line is checked in its own chunk, and either
    form of the id may be the first seen."""

    @staticmethod
    def _parse_every_way(parse, lines):
        """parse of the lines, which gives the same in either order and at
        either block size."""
        results = []
        for block in (ghcn._BLOCK_BYTES, 64):
            for order in ([0, 1, 2], [1, 0, 2]):
                with mock.patch.object(ghcn, "_BLOCK_BYTES", block):
                    series, issues = parse("\n".join(lines[k] for k in order).encode())
                results.append(([(s.station_id, s.element, first_slot(s), s.values.tobytes()) for s in series], issues))
        assert all(result == results[0] for result in results)
        return parse("\n".join(lines).encode())

    def test_daily(self):
        lines = [
            dly_line("PAD1", 1956, 7, "TMAX", [100]),
            dly_line(" PAD1", 1956, 8, "TMAX", [150]),
            dly_line(" PAD1", 1956, 7, "TMAX", [200]),
        ]
        series, issues = self._parse_every_way(parse_ghcnd, lines)
        assert issues == []
        assert [(s.station_id, s.element) for s in series] == [("PAD1", "TMAX")]
        assert series[0].start == dt.date(1956, 7, 1) and series[0].values.size == 62
        assert series[0].values[0] == 20.0 and series[0].values[31] == 15.0

    def test_monthly(self):
        lines = [
            ghcnm_line("PAD1", 1960, "TAVG", [100] * 12),
            ghcnm_line(" PAD1", 1961, "TAVG", [200] * 12),
            ghcnm_line(" PAD1", 1960, "TAVG", [300] * 12),
        ]
        series, issues = self._parse_every_way(parse_ghcnm, lines)
        assert issues == []
        assert [(s.station_id, s.element) for s in series] == [("PAD1", "TAVG")]
        assert series[0].first_year == 1960 and series[0].values.size == 24
        assert series[0].values[0] == 3.0 and series[0].values[12] == 2.0


class TestParseStations:
    def test_example_line(self):
        line = inv_line("USW00000001", 42.36, -71.06, 12.0)
        assert line == "USW00000001  42.3600  -71.0600   12.0"
        stations, issues = parse_stations(line.encode())
        assert issues == []
        st = stations[0]
        assert st.station_id == "USW00000001"
        assert st.lat == pytest.approx(42.36)
        assert st.lon == pytest.approx(-71.06)
        assert st.elev == pytest.approx(12.0)

    def test_missing_elevation(self):
        line = inv_line("USW00000001", 42.36, -71.06, -999.9)
        stations, _ = parse_stations(line.encode())
        assert stations[0].elev is None

    def test_out_of_range_lat_rejected(self):
        line = inv_line("USW00000001", 95.0, -71.06, 12.0)
        stations, issues = parse_stations(line.encode())
        assert stations == []
        assert len(issues) == 1
        assert "lat" in issues[0].message

    def test_out_of_range_lon_rejected(self):
        line = inv_line("USW00000001", 45.0, -190.0, 12.0)
        stations, issues = parse_stations(line.encode())
        assert stations == []
        assert len(issues) == 1

    def test_duplicate_id_rejected(self):
        data = "\n".join(
            [
                inv_line("USW00000001", 42.0, -71.0, 12.0),
                inv_line("USW00000001", 43.0, -72.0, 13.0),
            ]
        ).encode()
        stations, issues = parse_stations(data)
        assert len(stations) == 1
        assert stations[0].lat == pytest.approx(42.0)
        assert len(issues) == 1


    @pytest.mark.parametrize(
        "lat, lon, elev",
        [
            ("42.36", "-71.06", "nan"),
            ("42.36", "-71.06", "-inf"),
            ("inf", "-71.06", "12.0"),
            ("42.36", "-71.06", "1_00.5"),
            ("42.36", "-7.1e1", "12.0"),
        ],
    )
    def test_only_plain_decimal_text_is_a_number(self, lat, lon, elev):
        line = f"USW00000001 {lat:>8s} {lon:>9s} {elev:>6s}"
        stations, issues = parse_stations(line.encode())
        assert stations == []
        assert issues == [ParseIssue(1, "non-numeric inventory field", "USW00000001")]

    def test_plain_decimal_forms(self):
        line = f"USW00000001 {'+42.':<8s} {'-71.06':<9s} {'.5':^6s}"
        stations, issues = parse_stations(line.encode())
        assert issues == []
        assert (stations[0].lat, stations[0].lon, stations[0].elev) == (42.0, -71.06, 0.5)


class TestRoundTrip:
    def test_daily_series_round_trip(self):
        rng = np.random.default_rng(42)
        series_in = []
        for i in range(20):
            n = int(rng.integers(40, 400))
            start = dt.date(1956, 1, 1) + dt.timedelta(days=int(rng.integers(0, 2000)))
            tenths = rng.integers(-800, 4500, size=n).astype(float)
            tenths[rng.random(n) < 0.15] = np.nan
            series_in.append(
                DailySeries(
                    station_id=f"USW{i:08d}",
                    element="TMAX" if i % 2 else "TMIN",
                    start=start,
                    values=tenths / 10.0,
                )
            )
        blob = serialize_ghcnd(series_in)
        parsed, issues = parse_ghcnd(blob)
        assert issues == []
        assert len(parsed) == len(series_in)
        by_key = {(s.station_id, s.element): s for s in parsed}
        for s in series_in:
            p = by_key[(s.station_id, s.element)]
            # serialization pads to whole months; trim to the original span
            lo = p.index_of(s.start)
            assert np.all(np.isnan(p.values[:lo]))
            got = p.values[lo : lo + len(s.values)]
            assert_array_equal(np.isnan(got), np.isnan(s.values))
            assert_allclose(got[~np.isnan(got)], s.values[~np.isnan(s.values)], rtol=0, atol=0)
        # a second serialize emits byte-identical output
        assert serialize_ghcnd(parsed) == serialize_ghcnd(parsed)

    def test_daily_line_level_round_trip(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(-800, 4500, size=31)
        vals[rng.random(31) < 0.2] = MISSING
        line = dly_line("USC00123456", 1999, 3, "TMIN", list(vals))
        series, _ = parse_ghcnd(line.encode())
        out = serialize_ghcnd(series).decode()
        assert out.splitlines()[0] == line

    def test_monthly_round_trip(self):
        rng = np.random.default_rng(3)
        series_in = []
        for i in range(10):
            n = int(rng.integers(12, 120))
            hundredths = rng.integers(-3000, 4000, size=n).astype(float)
            hundredths[rng.random(n) < 0.1] = np.nan
            series_in.append(
                MonthlySeries(
                    station_id=f"USW{i:08d}",
                    element=["TMIN", "TAVG", "TMAX"][i % 3],
                    first_year=1956 + i,
                    first_month=int(rng.integers(1, 13)),
                    values=hundredths / 100.0,
                )
            )
        blob = serialize_ghcnm(series_in)
        parsed, issues = parse_ghcnm(blob)
        assert issues == []
        by_key = {(s.station_id, s.element): s for s in parsed}
        for s in series_in:
            p = by_key[(s.station_id, s.element)]
            lo = p.index_of(s.first_year, s.first_month)
            got = p.values[lo : lo + len(s.values)]
            assert_array_equal(np.isnan(got), np.isnan(s.values))
            assert_allclose(got[~np.isnan(got)], s.values[~np.isnan(s.values)], rtol=0, atol=0)

    def test_station_round_trip(self):
        stations = [
            StationMeta("USW00000001", 42.36, -71.06, 12.0),
            StationMeta("USW00000002", -33.5, 151.2, None),
        ]
        blob = serialize_stations(stations)
        parsed, issues = parse_stations(blob)
        assert issues == []
        assert parsed == stations


# Property tests: any valid series survives its serializer and parser, and
# no damage to a line makes a parser raise.

# ids without spaces (the parsers strip the field's padding); 1-11 chars
_IDS = st.text("ABCXYZ0189-_", min_size=1, max_size=11)
# integer record units: tenths (daily) or hundredths (monthly); -9999 is
# the missing sentinel, so valid values stop one short of it
_UNITS = st.lists(st.one_of(st.integers(-9998, 99999), st.none()), min_size=1, max_size=100)


def _scaled(units, scale):
    return np.array([np.nan if u is None else u / scale for u in units])


def _unique_keys(items):
    return len({(s.station_id, s.element) for s in items}) == len(items)


_DAILY_SERIES = st.lists(
    st.builds(
        lambda sid, element, start, units: DailySeries(sid, element, start, _scaled(units, 10.0)),
        _IDS,
        st.sampled_from(["TMAX", "TMIN"]),
        st.dates(min_value=dt.date(1800, 1, 1), max_value=dt.date(2100, 12, 31)),
        _UNITS,
    ),
    min_size=1,
    max_size=5,
).filter(_unique_keys)

_MONTHLY_SERIES = st.lists(
    st.builds(
        lambda sid, element, year, month, units: MonthlySeries(
            sid, element, year, month, _scaled(units, 100.0)
        ),
        _IDS,
        st.sampled_from(["TMIN", "TAVG", "TMAX"]),
        st.integers(1800, 2100),
        st.integers(1, 12),
        _UNITS,
    ),
    min_size=1,
    max_size=5,
).filter(_unique_keys)

_STATIONS = st.lists(
    st.builds(
        lambda sid, lat, lon, elev: StationMeta(
            sid, lat / 1e4, lon / 1e4, None if elev is None else elev / 10.0
        ),
        _IDS,
        st.integers(-900_000, 900_000),
        st.integers(-1_800_000, 1_800_000),
        st.one_of(st.none(), st.integers(-9998, 99999)),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda s: s.station_id,
)


def _assert_covers(parsed, original, offset):
    """parsed holds original's values from offset on, bit for bit, and NaN
    in the padding around them."""
    n = original.values.size
    assert np.array_equal(parsed.values[offset : offset + n], original.values, equal_nan=True)
    assert np.isnan(parsed.values[:offset]).all()
    assert np.isnan(parsed.values[offset + n :]).all()


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(series=_DAILY_SERIES)
    def test_daily(self, series):
        parsed, issues = parse_ghcnd(serialize_ghcnd(series))
        assert issues == []
        by_key = {(s.station_id, s.element): s for s in parsed}
        assert len(by_key) == len(parsed) == len(series)
        for s in series:
            p = by_key[(s.station_id, s.element)]
            assert p.start == s.start.replace(day=1)
            _assert_covers(p, s, (s.start - p.start).days)

    @settings(max_examples=60, deadline=None)
    @given(series=_MONTHLY_SERIES)
    def test_monthly(self, series):
        parsed, issues = parse_ghcnm(serialize_ghcnm(series))
        assert issues == []
        by_key = {(s.station_id, s.element): s for s in parsed}
        assert len(by_key) == len(parsed) == len(series)
        for s in series:
            p = by_key[(s.station_id, s.element)]
            assert (p.first_year, p.first_month) == (s.first_year, 1)
            _assert_covers(p, s, s.first_month - 1)

    @settings(max_examples=60, deadline=None)
    @given(stations=_STATIONS)
    def test_stations(self, stations):
        parsed, issues = parse_stations(serialize_stations(stations))
        assert issues == []
        assert parsed == stations


def _reference_records(series):
    """The record lines of daily or monthly series, built one line at a time
    with %-formatting: an independent writer for serialize_ghcnd and
    serialize_ghcnm to match byte for byte."""
    out = []
    for s in sorted(series, key=lambda s: (s.station_id, s.element)):
        if isinstance(s, DailySeries):
            units = {s.start + dt.timedelta(days=i): round(float(v) * 10) for i, v in enumerate(s.values) if v == v}
            y, m = s.start.year, s.start.month
            while (y, m) <= (s.end.year, s.end.month):
                days = [dt.date(y, m, d) if d <= calendar.monthrange(y, m)[1] else None for d in range(1, 32)]
                out.append("%-11s%04d%02d%-4s" % (s.station_id, y, m, s.element))
                out.append("".join("%5d   " % units.get(day, MISSING) for day in days) + "\n")
                y, m = (y + 1, 1) if m == 12 else (y, m + 1)
        else:
            units = {s.month_of(i): round(float(v) * 100) for i, v in enumerate(s.values) if v == v}
            for y in range(s.first_year, s.month_of(len(s.values) - 1)[0] + 1):
                out.append("%-11s%04d%-4s" % (s.station_id, y, s.element))
                out.append("".join("%5d   " % units.get((y, m), MISSING) for m in range(1, 13)) + "\n")
    return "".join(out).encode("ascii")


# the widest values of a 5-char field, zero, negatives, -9999 (read back as
# missing) and gaps, in series that start and end mid-month and mid-year,
# under padded short ids; 2000 is a leap year and 1900 is not
_EDGE_UNITS = [-9999, -9998, -1234, -1, 0, 1, 9999, 10000, 99999, None]
_REFERENCE_CASES = {
    "daily": (
        serialize_ghcnd,
        [
            DailySeries("PAD1", "TMIN", dt.date(1999, 12, 17), _scaled(_EDGE_UNITS * 9, 10.0)),
            DailySeries("PAD1", "TMAX", dt.date(2000, 2, 3), _scaled(_EDGE_UNITS[::-1] * 40, 10.0)),
            DailySeries("X", "TMAX", dt.date(1900, 2, 1), _scaled(list(range(-40, 19)), 10.0)),
            DailySeries("USW00000001", "TMIN", dt.date(1961, 1, 31), np.array([-0.04, 0.04, -0.05, 0.05, 0.15])),
        ],
    ),
    "monthly": (
        serialize_ghcnm,
        [
            MonthlySeries("PAD1", "TMIN", 1999, 7, _scaled(_EDGE_UNITS * 2, 100.0)),
            MonthlySeries("PAD1", "TAVG", 2000, 12, _scaled(_EDGE_UNITS[::-1] * 3, 100.0)),
            MonthlySeries("X", "TMAX", 1956, 1, _scaled(list(range(-12, 12)), 100.0)),
            MonthlySeries("USW00000001", "TMAX", 1961, 5, np.array([-0.004, 0.004, -0.005, 0.005, 0.015])),
        ],
    ),
}


class TestReferenceWriter:
    @pytest.mark.parametrize("layout", sorted(_REFERENCE_CASES))
    def test_edge_cases(self, layout):
        serialize, series = _REFERENCE_CASES[layout]
        assert serialize(series) == _reference_records(series)

    @settings(max_examples=60, deadline=None)
    @given(series=_DAILY_SERIES)
    def test_daily(self, series):
        assert serialize_ghcnd(series) == _reference_records(series)

    @settings(max_examples=60, deadline=None)
    @given(series=_MONTHLY_SERIES)
    def test_monthly(self, series):
        assert serialize_ghcnm(series) == _reference_records(series)

    def test_every_field_value_renders_as_percent_d_and_parses_back(self):
        units = np.arange(-9999, 100000)
        blob = serialize_ghcnm([MonthlySeries("X", "TAVG", 1, 1, units / 100.0)])
        groups = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 116)[:, 19:115].reshape(-1, 8)[: units.size]
        assert groups.tobytes() == b"".join(b"%5d   " % v for v in units.tolist())
        values, ok = ghcn._parse_int_fields(groups[:, :5])
        assert ok.all()
        assert_array_equal(values, units)

    @pytest.mark.parametrize("unit", [-10000, 100000, 1e300, np.inf, -np.inf])
    def test_value_past_a_field_raises(self, unit):
        with pytest.raises(ValueError, match="value out of range for 5-char field"):
            serialize_ghcnd([DailySeries("X", "TMAX", dt.date(2000, 1, 1), np.array([1.0, unit / 10.0]))])
        with pytest.raises(ValueError, match="value out of range for 5-char field"):
            serialize_ghcnm([MonthlySeries("X", "TMAX", 2000, 1, np.array([1.0, unit / 100.0]))])


_SAMPLES = {
    "daily": (
        parse_ghcnd,
        serialize_ghcnd(
            [DailySeries("USW00000001", "TMAX", dt.date(1999, 12, 30), np.arange(40) / 10.0)]
        ),
    ),
    "monthly": (
        parse_ghcnm,
        serialize_ghcnm([MonthlySeries("USW00000001", "TAVG", 1999, 6, np.arange(20) / 100.0)]),
    ),
    "stations": (
        parse_stations,
        serialize_stations([StationMeta(f"USW0000000{i}", 40.0 + i, -90.0, 100.0) for i in range(3)]),
    ),
}

# three stations with two or three elements each, so that batches of whole
# series can split the file in several ways
_MANY_SERIES = {
    "daily": (
        parse_ghcnd,
        serialize_ghcnd(
            [
                DailySeries(f"USW0000000{k}", element, dt.date(1999, 11, 20 + k), np.arange(70.0 + 9 * k) / 10.0)
                for k in range(3)
                for element in ("TMAX", "TMIN")
            ]
        ),
    ),
    "monthly": (
        parse_ghcnm,
        serialize_ghcnm(
            [
                MonthlySeries(f"USW0000000{k}", element, 1999, 3 + k, np.arange(30.0 + k) / 100.0)
                for k in range(3)
                for element in ("TMIN", "TAVG", "TMAX")
            ]
        ),
    ),
}

# one damage to one line: overwrite, insert or delete a byte, or cut the
# line; any byte but the line breaks, so line numbers stay put
_EDITS = st.tuples(
    st.sampled_from(["overwrite", "insert", "delete", "truncate"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 255).filter(lambda b: b not in b"\r\n").map(lambda b: bytes([b])),
)


def _damage(blob, edits):
    lines = blob.split(b"\n")[:-1]
    for kind, line_pick, pos_pick, byte in edits:
        k = line_pick % len(lines)
        line = lines[k]
        pos = pos_pick % (len(line) + 1)
        if kind == "overwrite" and pos < len(line):
            line = line[:pos] + byte + line[pos + 1 :]
        elif kind == "insert":
            line = line[:pos] + byte + line[pos:]
        elif kind == "delete" and pos < len(line):
            line = line[:pos] + line[pos + 1 :]
        elif kind == "truncate":
            line = line[:pos]
        lines[k] = line
    return lines


# a year and a month field overwritten with digits and spaces; the byte
# edits above almost never spell year 0000
_DIGITS = " 0123456789"
_HEADER_EDITS = st.tuples(
    st.integers(0, 10**6),
    st.one_of(st.sampled_from([b"0000", b"9999"]), st.text(_DIGITS, min_size=4, max_size=4).map(str.encode)),
    st.one_of(st.sampled_from([b"00", b"13"]), st.text(_DIGITS, min_size=2, max_size=2).map(str.encode)),
)


def _field_in(field, lo, hi):
    return re.fullmatch(rb" *[0-9]+", field) is not None and lo <= int(field) <= hi


class TestDamagedLines:
    @pytest.mark.parametrize("layout", sorted(_SAMPLES))
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(_EDITS, min_size=1, max_size=4))
    def test_damage_becomes_issues_never_exceptions(self, layout, edits):
        parse, good = _SAMPLES[layout]
        width = len(good.split(b"\n")[0])
        lines = _damage(good, edits)
        records, issues = parse(b"\n".join(lines) + b"\n")
        assert all(isinstance(i, ParseIssue) for i in issues)
        flagged = {i.line for i in issues}
        assert flagged <= set(range(1, len(lines) + 1))
        for number, line in enumerate(lines, 1):
            # a record line of the wrong width is always reported; an empty
            # line (a blank one, for the inventory) carries no record, and
            # inventory lines may run long
            if layout == "stations":
                wrong = line.strip() and len(line) < width
            else:
                wrong = line and len(line) != width
            if wrong:
                assert number in flagged, (number, line)
        assert isinstance(records, list)

    @pytest.mark.parametrize("layout", ["daily", "monthly"])
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(_HEADER_EDITS, min_size=1, max_size=4))
    def test_header_damage_becomes_issues_never_exceptions(self, layout, edits):
        parse, good = _SAMPLES[layout]
        lines = good.split(b"\n")[:-1]
        for line_pick, year, month in edits:
            k = line_pick % len(lines)
            head = year + month if layout == "daily" else year
            lines[k] = lines[k][:11] + head + lines[k][11 + len(head) :]
        _, issues = parse(b"\n".join(lines) + b"\n")
        message = "bad year/month field" if layout == "daily" else "bad year field"
        bad = [
            n
            for n, line in enumerate(lines, 1)
            if not (_field_in(line[11:15], 1, 9999) and (layout == "monthly" or _field_in(line[15:17], 1, 12)))
        ]
        assert [(i.line, i.message) for i in issues] == [(n, message) for n in bad]

    @pytest.mark.parametrize("layout", ["daily", "monthly"])
    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(_EDITS, max_size=4), repeats=st.lists(st.integers(0, 10**6), max_size=3))
    def test_batch_size_changes_nothing(self, layout, edits, repeats):
        # one line per _parse_int_fields block, the default, and one block for the file
        parse, good = _MANY_SERIES[layout]
        lines = _damage(good, edits)
        lines += [lines[k % len(lines)] for k in repeats]
        blob = b"\n".join(lines) + b"\n"
        results = []
        for fields in (1, ghcn._BLOCK_FIELDS, 10**9):
            with mock.patch.object(ghcn, "_BLOCK_FIELDS", fields):
                records, issues = parse(blob)
            results.append(([(s.station_id, s.element, first_slot(s), s.values.tobytes()) for s in records], issues))
        assert results[0] == results[1] == results[2]
