"""The binary series files: save_series / load_series and save_annual /
load_annual round trips, and rejection of files that are not series files."""

import dataclasses
import datetime as dt
import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megaheat import series as series_module
from megaheat.series import (
    AnnualSeries,
    DailySeries,
    MonthlySeries,
    first_slot,
    load_annual,
    load_fills,
    load_series,
    read_series,
    save_annual,
    save_fills,
    save_series,
    series_at,
)

# short, padded-looking and full-width ids; the fixed-width field holds 11
_IDS = st.sampled_from(["A", "PAD1", "USC00012345", "X-1 Y", "UC,00"])
_VALUES = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        st.just(float("nan")),
        st.just(-0.0),
    ),
    min_size=0,
    max_size=40,
).map(lambda v: np.array(v, dtype=np.float64))
_ALL_NAN = st.integers(1, 40).map(lambda n: np.full(n, np.nan))
_ONE_SLOT = st.floats(allow_nan=True, width=64).map(lambda v: np.array([v]))
_ARRAYS = st.one_of(_VALUES, _ALL_NAN, _ONE_SLOT)
# numpy string arrays drop trailing NULs, so keys never end in one
_KEY = st.text(max_size=8).filter(lambda t: not t.endswith("\x00"))

_DAILY = st.builds(
    DailySeries,
    station_id=_IDS,
    element=st.sampled_from(["TMAX", "TMIN"]),
    start=st.dates(min_value=dt.date(1800, 1, 1), max_value=dt.date(2100, 12, 31)),
    values=_ARRAYS,
)
_MONTHLY = st.builds(
    MonthlySeries,
    station_id=_IDS,
    element=st.sampled_from(["TMIN", "TAVG", "TMAX"]),
    first_year=st.integers(1800, 2100),
    first_month=st.one_of(st.just(12), st.integers(1, 12)),
    values=_ARRAYS,
)


def _key_of(s):
    """A series' key: a series file holds one series per (station, element)."""
    return s.station_id, s.element


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _round_trip(tmp_path, series):
    path = tmp_path / "series.npz"
    save_series(path, series, [s.values for s in series])
    return load_series(path)


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert (g.station_id, g.element) == (w.station_id, w.element)
        if isinstance(w, DailySeries):
            assert g.start == w.start
        else:
            assert (g.first_year, g.first_month) == (w.first_year, w.first_month)
        assert g.values.dtype == np.float64
        assert np.array_equal(_bits(g.values), _bits(w.values))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(series=st.lists(_DAILY, max_size=6, unique_by=_key_of))
    def test_daily(self, tmp_path_factory, series):
        _assert_same(_round_trip(tmp_path_factory.mktemp("d"), series), series)

    @settings(max_examples=80, deadline=None)
    @given(series=st.lists(_MONTHLY, max_size=6, unique_by=_key_of))
    def test_monthly(self, tmp_path_factory, series):
        _assert_same(_round_trip(tmp_path_factory.mktemp("m"), series), series)

    def test_empty_list(self, tmp_path):
        assert _round_trip(tmp_path, []) == []

    def test_nan_payloads_and_signed_zero_survive(self, tmp_path):
        odd = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x8000000000000000], dtype=np.uint64)
        series = [MonthlySeries("PAD1", "TAVG", 1955, 12, odd.view(np.float64))]
        _assert_same(_round_trip(tmp_path, series), series)

    def test_same_series_give_same_bytes(self, tmp_path):
        series = [DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.arange(70.0) / 10.0)]
        save_series(tmp_path / "a.npz", series, [s.values for s in series])
        save_series(tmp_path / "b.npz", series, [s.values for s in series])
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_mixed_kinds_rejected(self, tmp_path):
        series = [
            DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.zeros(3)),
            MonthlySeries("A", "TAVG", 1956, 1, np.zeros(3)),
        ]
        with pytest.raises(TypeError):
            save_series(tmp_path / "x.npz", series, [s.values for s in series])


class TestSeriesAt:
    """series_at is the inverse of first_slot, for either kind."""

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.one_of(
            st.builds(DailySeries, station_id=_IDS, element=st.just("TMAX"), start=st.dates(), values=_ARRAYS),
            st.builds(
                MonthlySeries,
                station_id=_IDS,
                element=st.just("TAVG"),
                first_year=st.integers(-5000, 5000),
                first_month=st.integers(1, 12),
                values=_ARRAYS,
            ),
        )
    )
    def test_inverse_of_first_slot(self, s):
        got = series_at(type(s), s.station_id, s.element, first_slot(s), s.values)
        assert type(got) is type(s)
        assert got.values is s.values
        assert dataclasses.replace(got, values=None) == dataclasses.replace(s, values=None)


# _save_npz entries: whole string, int64 and float64 arrays, and (dtype,
# pieces, size) triples whose pieces may be empty
_FLOAT_ARRAYS = st.lists(st.one_of(st.floats(width=64), st.just(float("nan")), st.just(-0.0)), max_size=6).map(
    lambda v: np.array(v, dtype=np.float64)
)
_INT_ARRAYS = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(lambda v: np.array(v, dtype=np.int64))
_STR_ARRAYS = st.lists(_KEY, max_size=6).map(lambda v: np.array(v, dtype=str))
_ENTRIES = st.one_of(
    _FLOAT_ARRAYS,
    _INT_ARRAYS,
    _STR_ARRAYS,
    st.lists(_FLOAT_ARRAYS, max_size=4).map(lambda pieces: (np.float64, pieces, sum(p.size for p in pieces))),
    st.lists(_INT_ARRAYS, max_size=4).map(lambda pieces: (np.int64, pieces, sum(p.size for p in pieces))),
)
_NPZ_TABLES = st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), _ENTRIES, max_size=5)


def _savez_bytes(path, arrays):
    """What np.savez writes for the arrays, pieces joined first."""
    joined = {
        name: np.concatenate(entry[1] + [np.empty(0, entry[0])]) if isinstance(entry, tuple) else entry
        for name, entry in arrays.items()
    }
    with open(path, "wb") as fh:
        np.savez(fh, **joined)
    return path.read_bytes()


class TestNpzWriter:
    """_save_npz writes byte for byte what np.savez writes, without joining pieces."""

    @settings(max_examples=150, deadline=None)
    @given(arrays=_NPZ_TABLES)
    def test_same_bytes_as_savez(self, tmp_path_factory, arrays):
        tmp = tmp_path_factory.mktemp("npz")
        # pieces handed over as iterators, made only as they are written
        streamed = {name: (e[0], iter(e[1]), e[2]) if isinstance(e, tuple) else e for name, e in arrays.items()}
        series_module._save_npz(tmp / "ours.npz", streamed)
        assert (tmp / "ours.npz").read_bytes() == _savez_bytes(tmp / "savez.npz", arrays)

    @pytest.mark.parametrize("size", [2, 4])
    def test_pieces_that_miss_their_size_raise(self, tmp_path, size):
        with pytest.raises(ValueError, match="do not add up"):
            series_module._save_npz(tmp_path / "ours.npz", {"v": (np.float64, [np.zeros(1), np.zeros(2)], size)})
        assert not (tmp_path / "ours.npz").exists()

    def test_pieces_that_fail_to_be_made_leave_no_file(self, tmp_path):
        def pieces():
            yield np.zeros(1)
            raise RuntimeError("no second piece")

        with pytest.raises(RuntimeError, match="no second piece"):
            series_module._save_npz(tmp_path / "ours.npz", {"v": (np.float64, pieces(), 2)})
        assert not (tmp_path / "ours.npz").exists()

    @settings(max_examples=40, deadline=None)
    @given(series=st.lists(_DAILY, max_size=6))
    def test_save_series_writes_what_savez_wrote(self, tmp_path_factory, series):
        tmp = tmp_path_factory.mktemp("series")
        save_series(tmp / "ours.npz", series, [s.values for s in series])
        ids, starts = series_module._frame_arrays(series)
        arrays = {**ids, "values": (np.float64, [s.values for s in series]), **starts}
        assert (tmp / "ours.npz").read_bytes() == _savez_bytes(tmp / "savez.npz", arrays)


def _rewrite_values(src, dst, count, values):
    """A copy of the series file src whose values.npy entry declares count
    float64 values in its header and holds ``values``."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "<f8", "fortran_order": False, "shape": (count,)})
    with zipfile.ZipFile(src) as old, zipfile.ZipFile(dst, "w") as new:
        for name in old.namelist():
            if name != "values.npy":
                new.writestr(name, old.read(name))
        new.writestr("values.npy", header.getvalue() + np.asarray(values, dtype="<f8").tobytes())


class TestReadSeries:
    SERIES = [
        DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.arange(5.0)),
        DailySeries("A", "TMIN", dt.date(1956, 1, 3), np.arange(3.0) + 0.5),
        DailySeries("B", "TMAX", dt.date(1957, 2, 1), -np.arange(4.0)),
    ]

    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.npz"
        save_series(path, self.SERIES, [s.values for s in self.SERIES])
        return path

    def test_frames_then_fresh_values_in_turn(self, good):
        frames, values = read_series(good)
        for frame, want in zip(frames, self.SERIES, strict=True):
            assert (frame.station_id, frame.element, frame.start) == (want.station_id, want.element, want.start)
            assert frame.values.size == want.values.size and np.isnan(frame.values).all()
            assert not frame.values.flags.writeable
        got = list(values)
        for v, want in zip(got, self.SERIES, strict=True):
            assert v.dtype == np.float64 and v.flags.writeable and v.base is None
            assert np.array_equal(_bits(v), _bits(want.values))

    def test_a_flipped_value_byte_fails_its_crc_before_the_last_series(self, good, tmp_path):
        blob = good.read_bytes()
        at = blob.index(self.SERIES[1].values.tobytes())
        bad = tmp_path / "bad.npz"
        bad.write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :])
        frames, values = read_series(bad)
        assert len(frames) == 3
        # a consumer that stops at the last frame still gets the check
        with pytest.raises(ValueError, match="CRC-32"):
            list(zip(frames, values))

    @pytest.mark.parametrize(
        "count, stored, match",
        [(12, 13, "run past their lengths"), (12, 11, "end before their lengths"), (13, 13, "fit together")],
    )
    def test_values_entry_that_misses_the_lengths(self, good, tmp_path, count, stored, match):
        bad = tmp_path / "bad.npz"
        _rewrite_values(good, bad, count, np.arange(float(stored)))
        frames, values = read_series(bad)
        with pytest.raises(ValueError, match=match):
            list(zip(frames, values))
        with pytest.raises(ValueError, match=match):
            load_series(bad)

    def test_file_without_values(self, good, tmp_path):
        with np.load(good) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "values"}
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        frames, values = read_series(bad)
        with pytest.raises(ValueError, match="lacks values"):
            next(values)

    def test_file_without_series_checks_its_values_at_once(self, tmp_path):
        empty = tmp_path / "empty.npz"
        save_series(empty, [], [])
        assert read_series(empty)[0] == [] and load_series(empty) == []
        bad = tmp_path / "bad.npz"
        _rewrite_values(empty, bad, 1, [1.0])
        with pytest.raises(ValueError, match="fit together"):
            read_series(bad)


class TestBadFiles:
    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.npz"
        series = DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.arange(400.0))
        save_series(path, [series], [series.values])
        return path

    def test_every_truncation_is_a_value_error(self, good, tmp_path):
        blob = good.read_bytes()
        cut = tmp_path / "cut.npz"
        for size in range(0, len(blob), 97):
            cut.write_bytes(blob[:size])
            with pytest.raises(ValueError):
                load_series(cut)

    def test_text_is_a_value_error(self, tmp_path):
        path = tmp_path / "parsed_daily.npz"
        path.write_text("USC00012345195601TMAX   12\n")
        with pytest.raises(ValueError):
            load_series(path)

    def test_plain_npy_is_a_value_error(self, tmp_path):
        path = tmp_path / "a.npy"
        np.save(path, np.arange(3.0))
        with pytest.raises(ValueError, match="npz"):
            load_series(path)

    def test_lengths_must_cover_the_values(self, good, tmp_path):
        with np.load(good) as npz:
            arrays = dict(npz)
        arrays["length"] = arrays["length"] + 1
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="fit together"):
            load_series(bad)

    def test_missing_array(self, good, tmp_path):
        with np.load(good) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "start_day"}
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="start_day"):
            load_series(bad)

    @pytest.mark.parametrize(
        "series, key, shift, match",
        [
            (MonthlySeries("A", "TAVG", 1956, 12, np.zeros(3)), "first_month", 1, "1-12"),
            (DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.zeros(3)), "start_day", 10**7, "calendar"),
        ],
    )
    def test_start_outside_the_calendar(self, tmp_path, series, key, shift, match):
        save_series(tmp_path / "good.npz", [series], [series.values])
        with np.load(tmp_path / "good.npz") as npz:
            arrays = dict(npz)
        arrays[key] = arrays[key] + shift
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=match):
            load_series(bad)

    def test_repeated_station_and_element(self, tmp_path):
        s = DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.arange(3.0))
        save_series(tmp_path / "twice.npz", [s, s], [s.values, s.values])
        with pytest.raises(ValueError, match=r"repeats a \(station, element\)"):
            read_series(tmp_path / "twice.npz")
        save_fills(tmp_path / "fills.npz", [s, s], [(np.array([0]), np.array([1.0]))] * 2, [])
        with pytest.raises(ValueError, match=r"repeats a \(station, element\)"):
            load_fills(tmp_path / "fills.npz")

    def test_pickled_arrays_are_refused(self, tmp_path):
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, station_id=np.array([object()], dtype=object))
        with pytest.raises(ValueError):
            load_series(bad)

    def test_zip_without_arrays(self, tmp_path):
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(bad, "w") as zf:
            zf.writestr("station_id.npy", b"not an array")
        with pytest.raises(ValueError):
            load_series(bad)


_KEY_COLUMNS = ("station", "metric", "season")
_ANNUAL = st.lists(st.integers(1, 9999), unique=True, max_size=12).flatmap(
    lambda years: st.lists(
        st.one_of(st.floats(width=64), st.just(-0.0)), min_size=len(years), max_size=len(years)
    ).map(lambda values: AnnualSeries("", "", sorted(years), values))
)
_TABLE = st.dictionaries(st.tuples(_KEY, _KEY, _KEY), _ANNUAL, max_size=5)


def _annual_round_trip(tmp_path, table):
    path = tmp_path / "annual.npz"
    save_annual(path, _KEY_COLUMNS, table)
    return load_annual(path, _KEY_COLUMNS)


def _assert_same_table(got, want):
    assert list(got) == sorted(want)
    for key, series in got.items():
        assert (series.key, series.metric) == (key[0], ":".join(key[1:]))
        assert series.years.dtype == np.int64 and series.values.dtype == np.float64
        assert np.array_equal(series.years, want[key].years)
        assert np.array_equal(_bits(series.values), _bits(want[key].values))


class TestAnnualRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(table=_TABLE)
    def test_tables(self, tmp_path_factory, table):
        _assert_same_table(_annual_round_trip(tmp_path_factory.mktemp("a"), table), table)

    def test_nan_payloads_signed_zero_one_year_and_empty_series(self, tmp_path):
        odd = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x8000000000000000], dtype=np.uint64)
        table = {
            ("A", "TMAX", "JJA"): AnnualSeries("", "", [1956, 1957, 1990], odd.view(np.float64)),
            ("A", "TMAX", "DJF"): AnnualSeries("", "", [2015], [-0.0]),
            ("UC,00", "CDD", "annual"): AnnualSeries("", "", [], []),
        }
        _assert_same_table(_annual_round_trip(tmp_path, table), table)

    def test_empty_table(self, tmp_path):
        assert _annual_round_trip(tmp_path, {}) == {}

    def test_same_series_give_same_bytes(self, tmp_path):
        table = {("A", "TAVG", "JJA"): AnnualSeries("", "", np.arange(1956, 2016), np.arange(60.0) / 7)}
        save_annual(tmp_path / "a.npz", _KEY_COLUMNS, table)
        save_annual(tmp_path / "b.npz", _KEY_COLUMNS, dict(table))
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


class TestBadAnnualFiles:
    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.npz"
        table = {
            ("A", "TAVG", "JJA"): AnnualSeries("", "", np.arange(1956, 2016), np.arange(60.0)),
            ("B", "TAVG", "JJA"): AnnualSeries("", "", [1960], [1.5]),
        }
        save_annual(path, _KEY_COLUMNS, table)
        return path

    def _rewrite(self, good, tmp_path, **changes):
        with np.load(good) as npz:
            arrays = dict(npz)
        arrays.update(changes)
        arrays = {k: v for k, v in arrays.items() if v is not None}
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **arrays)
        return bad

    def test_every_truncation_is_a_value_error(self, good, tmp_path):
        blob = good.read_bytes()
        cut = tmp_path / "cut.npz"
        for size in range(0, len(blob), 61):
            cut.write_bytes(blob[:size])
            with pytest.raises(ValueError):
                load_annual(cut, _KEY_COLUMNS)

    def test_text_is_a_value_error(self, tmp_path):
        path = tmp_path / "annual_station.npz"
        path.write_text("station,metric,season,year,value\nA,TAVG,JJA,1956,1.5\n")
        with pytest.raises(ValueError):
            load_annual(path, _KEY_COLUMNS)

    def test_other_key_columns_are_missing_arrays(self, good):
        with pytest.raises(ValueError, match="group, pair"):
            load_annual(good, ("pair", "group", "metric", "season"))

    @pytest.mark.parametrize(
        "changes",
        [
            {"length": np.array([60, 2])},
            {"length": np.array([61, 0])},
            {"length": np.array([62, -1])},
            {"year": np.arange(62)},
            {"value": np.arange(60.0)},
            {"value": np.arange(61, dtype=np.float32)},
            {"year": np.arange(61.0)},
            {"station": np.array(["A"])},
            {"station": np.array([1, 2])},
            {"length": np.array([[60, 1]])},
            {"year": None},
        ],
    )
    def test_inconsistent_arrays(self, good, tmp_path, changes):
        with pytest.raises(ValueError):
            load_annual(self._rewrite(good, tmp_path, **changes), _KEY_COLUMNS)

    def test_years_must_increase(self, good, tmp_path):
        years = np.concatenate([np.arange(1956, 2016)[::-1], [1960]])
        with pytest.raises(ValueError, match="increasing"):
            load_annual(self._rewrite(good, tmp_path, year=years), _KEY_COLUMNS)

    def test_repeated_key(self, good, tmp_path):
        with pytest.raises(ValueError, match="repeats"):
            load_annual(self._rewrite(good, tmp_path, station=np.array(["A", "A"])), _KEY_COLUMNS)
