"""The binary series file: save_series / load_series round trips and
rejection of files that are not series files."""

import datetime as dt
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megaheat.series import DailySeries, MonthlySeries, load_series, save_series

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


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _round_trip(tmp_path, series):
    path = tmp_path / "series.npz"
    save_series(path, series)
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
    @given(series=st.lists(_DAILY, max_size=6))
    def test_daily(self, tmp_path_factory, series):
        _assert_same(_round_trip(tmp_path_factory.mktemp("d"), series), series)

    @settings(max_examples=80, deadline=None)
    @given(series=st.lists(_MONTHLY, max_size=6))
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
        save_series(tmp_path / "a.npz", series)
        save_series(tmp_path / "b.npz", series)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_mixed_kinds_rejected(self, tmp_path):
        series = [
            DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.zeros(3)),
            MonthlySeries("A", "TAVG", 1956, 1, np.zeros(3)),
        ]
        with pytest.raises(TypeError):
            save_series(tmp_path / "x.npz", series)


class TestBadFiles:
    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.npz"
        save_series(path, [DailySeries("A", "TMAX", dt.date(1956, 1, 1), np.arange(400.0))])
        return path

    def test_every_truncation_is_a_value_error(self, good, tmp_path):
        blob = good.read_bytes()
        cut = tmp_path / "cut.npz"
        for size in range(0, len(blob), 97):
            cut.write_bytes(blob[:size])
            with pytest.raises(ValueError):
                load_series(cut)

    def test_text_is_a_value_error(self, tmp_path):
        path = tmp_path / "kept_daily.npz"
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
