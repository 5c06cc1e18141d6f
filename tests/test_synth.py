"""Tests for the synthetic-world generator."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from megaheat import ghcn, indices, regions, stats
from megaheat.regions import COVARIATE_COLUMNS
from megaheat.series import write_csv
from megaheat.synth import SynthParams, synth_generate, validate_world, write_world

SMALL_MONTHLY = SynthParams(
    n_pairs=2,
    uc_stations=3,
    nonuc_stations=4,
    start_year=1956,
    end_year=1975,
    daily=False,
    noise_sd_c=0.4,
)


def _world_files(tmp_path, name, seed, params):
    out = tmp_path / name
    out.mkdir()
    world = synth_generate(seed, params)
    paths = write_world(world, out)
    return {key: path.read_bytes() for key, path in paths.items()}


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        params = dataclasses.replace(SMALL_MONTHLY, daily=True, end_year=1960, gap_rate=0.01)
        a = _world_files(tmp_path, "a", 77, params)
        b = _world_files(tmp_path, "b", 77, params)
        assert set(a) == set(b)
        for key in a:
            assert a[key] == b[key], f"{key} differs between identical-seed runs"

    def test_different_seed_differs(self):
        w1 = synth_generate(1, SMALL_MONTHLY)
        w2 = synth_generate(2, SMALL_MONTHLY)
        lats1 = [s.lat for s in w1.stations]
        lats2 = [s.lat for s in w2.stations]
        assert lats1 != lats2


class TestWorldShape:
    def test_membership_matches_layout(self):
        params = SMALL_MONTHLY
        world = synth_generate(5, params)
        assert len(world.stations) == params.n_pairs * (params.uc_stations + params.nonuc_stations)

        rs = regions.load_regions(world.regions_doc)
        assert len(rs.ucs) == params.n_pairs
        assert len(rs.climate_regions) == params.n_pairs
        pairs = regions.pair_uc_nonuc(rs, world.stations)
        assert len(pairs) == params.n_pairs
        for pair in pairs:
            assert len(pair.uc_stations) == params.uc_stations
            assert len(pair.nonuc_stations) == params.nonuc_stations
            assert pair.warning is None

    def test_covariates_load_and_track_elevation(self, tmp_path):
        world = synth_generate(11, SMALL_MONTHLY)
        rs = regions.load_regions(world.regions_doc)
        uc_ids = [r.name for r in rs.ucs]
        path = tmp_path / "covariates.csv"
        write_csv(path, COVARIATE_COLUMNS, world.covariates)
        cov = regions.load_explanatory_vars(path, uc_ids)
        assert set(cov) == set(uc_ids)

        pairs = regions.pair_uc_nonuc(rs, world.stations)
        elev = {s.station_id: s.elev for s in world.stations}
        for pair in pairs:
            expected = np.mean([elev[sid] for sid in pair.uc_stations])
            assert cov[pair.uc_id].mean_elev == pytest.approx(expected)

    def test_elevation_bounds(self):
        params = dataclasses.replace(SMALL_MONTHLY, elev_min_m=120.0, elev_max_m=130.0)
        world = synth_generate(3, params)
        for s in world.stations:
            assert 120.0 <= s.elev <= 130.0

    def test_element_toggles(self):
        both = synth_generate(1, dataclasses.replace(SMALL_MONTHLY, daily=True, end_year=1958))
        assert both.daily and both.monthly
        assert {s.element for s in both.daily} == {"TMAX", "TMIN"}
        assert {s.element for s in both.monthly} == {"TMIN", "TAVG", "TMAX"}

        monthly_only = synth_generate(1, SMALL_MONTHLY)
        assert monthly_only.daily == []

    def test_round_trip_through_serializers(self, tmp_path):
        params = dataclasses.replace(SMALL_MONTHLY, daily=True, end_year=1957, gap_rate=0.02)
        world = synth_generate(21, params)
        paths = write_world(world, tmp_path)

        parsed_m, issues = ghcn.parse_ghcnm(paths["monthly"].read_bytes())
        assert issues == []
        assert len(parsed_m) == len(world.monthly)
        by_key = {(s.station_id, s.element): s for s in parsed_m}
        for orig in world.monthly:
            got = by_key[(orig.station_id, orig.element)]
            np.testing.assert_array_equal(got.values, orig.values)

        parsed_d, issues = ghcn.parse_ghcnd(paths["daily"].read_bytes())
        assert issues == []
        by_key = {(s.station_id, s.element): s for s in parsed_d}
        for orig in world.daily:
            got = by_key[(orig.station_id, orig.element)]
            assert got.start == orig.start
            np.testing.assert_array_equal(got.values, orig.values)

        parsed_s, issues = ghcn.parse_stations(paths["stations"].read_bytes())
        assert issues == []
        assert [s.station_id for s in parsed_s] == [s.station_id for s in world.stations]


class TestValidation:
    def test_station_moved_outside_cr_raises(self):
        world = synth_generate(9, SMALL_MONTHLY)
        validate_world(world)
        bad = world.stations[0]
        assert "U" in bad.station_id[4:]
        world.stations[0] = dataclasses.replace(bad, lat=-60.0)
        with pytest.raises(ValueError, match="outside"):
            validate_world(world)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            synth_generate(1, dataclasses.replace(SMALL_MONTHLY, n_pairs=0))
        with pytest.raises(ValueError):
            synth_generate(1, dataclasses.replace(SMALL_MONTHLY, uc_stations=-1))
        with pytest.raises(ValueError):
            synth_generate(1, dataclasses.replace(SMALL_MONTHLY, start_year=1990, end_year=1980))
        with pytest.raises(ValueError):
            synth_generate(1, dataclasses.replace(SMALL_MONTHLY, noise_sd_c=-0.1))
        with pytest.raises(ValueError):
            synth_generate(1, dataclasses.replace(SMALL_MONTHLY, elev_min_m=500.0, elev_max_m=100.0))
        with pytest.raises(ValueError):
            synth_generate(1, dataclasses.replace(SMALL_MONTHLY, daily=False, monthly=False))


class TestZeroNoiseZeroTrend:
    def test_every_seasonal_trend_untestable(self):
        params = dataclasses.replace(SMALL_MONTHLY, noise_sd_c=0.0)
        world = synth_generate(4, params)
        annual = indices.seasonal_annual_series(world.monthly).values()
        assert len(annual) == len(world.stations) * 6
        for series in annual:
            res = stats.mann_kendall(series)
            assert res.untestable
            assert res.s == 0

    def test_daily_heat_indices_untestable(self):
        params = dataclasses.replace(
            SMALL_MONTHLY,
            n_pairs=1,
            uc_stations=1,
            nonuc_stations=1,
            end_year=1967,
            daily=True,
            monthly=False,
            noise_sd_c=0.0,
        )
        world = synth_generate(6, params)
        by_station = {}
        for s in world.daily:
            by_station.setdefault(s.station_id, {})[s.element] = s
        for pair in by_station.values():
            cdd = indices.annual_cdd(pair["TMAX"], pair["TMIN"])
            cnm = indices.annual_cnm(pair["TMIN"])
            assert cdd.values.size >= 10
            for series in (cdd, cnm):
                res = stats.mann_kendall(series)
                assert res.untestable
                assert res.s == 0


class TestPlantedSignals:
    def test_uc_offset_recovered_as_uc_higher(self):
        params = dataclasses.replace(SMALL_MONTHLY, end_year=2015, uc_offset_c=1.0)
        world = synth_generate(13, params)
        annual = indices.seasonal_annual_series(world.monthly).values()
        rs = regions.load_regions(world.regions_doc)
        pairs = regions.pair_uc_nonuc(rs, world.stations)

        by_metric_station = {}
        for s in annual:
            by_metric_station.setdefault(s.metric, {})[s.key] = s
        for pair in pairs:
            for metric, by_station in by_metric_station.items():
                uc = indices.regional_annual_series([by_station[i] for i in pair.uc_stations], "uc")
                non = indices.regional_annual_series(
                    [by_station[i] for i in pair.nonuc_stations], "nonuc"
                )
                assert np.array_equal(uc.years, non.years)
                diff = float(np.median(uc.values) - np.median(non.values))
                _, p = stats.wilcoxon_ranksum(uc.values, non.values)
                direction = stats.comparison_direction(diff, p)
                assert direction == "UC-higher", f"{pair.uc_id} {metric}"

    def test_planted_trend_slope(self):
        params = dataclasses.replace(
            SMALL_MONTHLY, end_year=2015, uc_trend_c_per_yr=0.05, noise_sd_c=0.0
        )
        world = synth_generate(8, params)
        uc_ids = {
            sid
            for pair in regions.pair_uc_nonuc(
                regions.load_regions(world.regions_doc), world.stations
            )
            for sid in pair.uc_stations
        }
        for series in indices.seasonal_annual_series(world.monthly).values():
            res = stats.mann_kendall(series)
            if series.key in uc_ids:
                assert res.p < 0.01
                assert res.slope == pytest.approx(0.05, abs=1e-3)
            else:
                assert res.untestable
                assert res.slope == 0.0

    def test_gap_process_injects_missing_runs(self):
        params = dataclasses.replace(
            SMALL_MONTHLY, end_year=2015, gap_rate=0.02, gap_mean_len_steps=4.0
        )
        world = synth_generate(17, params)
        fracs = [float(np.isnan(s.values).mean()) for s in world.monthly]
        assert 0.0 < np.mean(fracs) < 0.35
        lengths = []
        for s in world.monthly:
            miss = np.isnan(s.values)
            edges = np.flatnonzero(np.diff(np.concatenate(([False], miss, [False]))))
            lengths.extend(edges[1::2] - edges[::2])
        assert lengths and max(lengths) >= 3

    def test_zero_gap_rate_means_complete(self):
        world = synth_generate(17, SMALL_MONTHLY)
        assert not any(np.isnan(s.values).any() for s in world.monthly)


class TestWriteWorld:
    @pytest.mark.parametrize("kind", ["daily", "monthly"])
    def test_a_series_past_its_fields_leaves_no_partial_record_file(self, tmp_path, kind):
        world = synth_generate(3, dataclasses.replace(SMALL_MONTHLY, daily=True, end_year=1958))
        # the third series written, after two that fit
        third = sorted(getattr(world, kind), key=lambda s: (s.station_id, s.element))[2]
        third.values[5] = 1e5
        with pytest.raises(ValueError, match="value out of range for 5-char field"):
            write_world(world, tmp_path)
        # the daily file is written first, whole
        if kind == "daily":
            assert sorted(p.name for p in tmp_path.iterdir()) == []
        else:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ghcnd.dly"]
            assert (tmp_path / "ghcnd.dly").read_bytes() == ghcn.serialize_ghcnd(world.daily)

    def test_peak_memory_holds_one_series_not_the_file(self, tmp_path):
        """Above the world it is given, write_world holds the value-group table
        and one series in flight, never a record file's bytes.

        Per series: its scaled values, a temporary and the NaN mask, under 32
        bytes per slot; per field of its lines (31 per daily line), the index
        grid, its mask, the flat positions and the gathered groups, under 32
        bytes; its lines, 270 bytes each.  1 MiB covers Python objects and
        the three small files.  The table is built on first use, once per process, from
        110,000 Python bytes objects (about 6 MiB for a moment), so it is
        built before tracing and counted at its size.  A writer that joins a
        file's lines holds its bytes at least once, and one that also keeps
        every series' lines holds them twice.
        """
        world = synth_generate(5, dataclasses.replace(SMALL_MONTHLY, n_pairs=3, daily=True, end_year=2005))
        table = ghcn._group_table().nbytes
        slots = max(s.values.size for s in world.daily)
        lines = slots // 28 + 2
        budget = table + 32 * slots + (32 * 31 + 270) * lines + 2**20
        tracemalloc.start()
        try:
            paths = write_world(world, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        daily_bytes = paths["daily"].stat().st_size
        assert daily_bytes > 2 * budget
        assert peak < budget, (peak, budget)
