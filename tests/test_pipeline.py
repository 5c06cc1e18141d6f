"""Tests for orchestration: config parsing, comparison cells, correlation
matrices, and the file-to-file stages."""

import collections
import csv
import dataclasses
import datetime as dt
import errno
import hashlib
import io
import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from megaheat import cli, ghcn, pipeline, stats
from megaheat.pipeline import (
    ConfigError,
    DataError,
    config_hash,
    load_config,
    median_comparison_cell,
    rank_correlation_matrices,
    trend_comparison_cell,
)
from megaheat.regions import ExplanatoryVars
from megaheat.series import (
    AnnualSeries,
    DailySeries,
    MonthlySeries,
    first_slot,
    load_annual,
    load_fills,
    load_series,
    read_csv,
    save_series,
)
from megaheat.synth import SynthParams, synth_generate, write_world

YEARS = np.arange(1956, 2016)


def _annual(key, metric, years, values):
    return AnnualSeries(
        key=key, metric=metric, years=np.asarray(years, int), values=np.asarray(values, float)
    )


class TestConfig:
    def test_defaults(self):
        cfg = load_config({})
        assert cfg.window == (1956, 2015)
        assert cfg.seasons == ("DJF", "JJA")
        assert cfg.metrics == ("TMIN", "TAVG", "TMAX", "CDD", "CNM", "P95")
        assert cfg.alpha == 0.05
        assert cfg.qc.monthly_max_missing_frac == 0.10
        assert cfg.qc.daily_max_gap_days == 30
        assert cfg.gwr.neighbors == 20
        assert cfg.gwr.min_train == 3
        assert cfg.paths["daily"] == "ghcnd.dly"
        assert cfg.seed == 0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="wat"):
            load_config({"wat": 1})
        with pytest.raises(ConfigError, match="qc"):
            load_config({"qc": {"max_badness": 2}})
        with pytest.raises(ConfigError, match="gwr"):
            load_config({"gwr": {"bandwidth": 5}})
        with pytest.raises(ConfigError, match="paths"):
            load_config({"paths": {"shapefile": "x"}})
        with pytest.raises(ConfigError, match="synth"):
            load_config({"synth": {"n_worlds": 3}})

    def test_value_validation(self):
        with pytest.raises(ConfigError, match="window"):
            load_config({"window": [2000, 1990]})
        with pytest.raises(ConfigError, match="window"):
            load_config({"window": [2000]})
        with pytest.raises(ConfigError, match="alpha"):
            load_config({"alpha": 1.5})
        with pytest.raises(ConfigError, match="season"):
            load_config({"seasons": ["MAM"]})
        with pytest.raises(ConfigError, match="metric"):
            load_config({"metrics": ["HDD"]})
        with pytest.raises(ConfigError, match="metric"):
            load_config({"metrics": []})
        with pytest.raises(ConfigError, match="neighbors"):
            load_config({"gwr": {"neighbors": 1}})
        with pytest.raises(ConfigError, match="seed"):
            load_config({"seed": -1})

    def test_qc_cutoff_parsing(self):
        cfg = load_config({"qc": {"daily_end_cutoff": "1999-06-01"}})
        assert cfg.qc.daily_end_cutoff.isoformat() == "1999-06-01"
        with pytest.raises(ConfigError, match="cutoff"):
            load_config({"qc": {"daily_end_cutoff": "not-a-date"}})

    def test_synth_block(self):
        cfg = load_config({"synth": {"n_pairs": 3, "uc_offset_c": 1.0}})
        assert cfg.synth.n_pairs == 3
        assert cfg.synth.uc_offset_c == 1.0
        with pytest.raises(ConfigError, match="n_pairs"):
            load_config({"synth": {"n_pairs": 0}})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.01, "window": [1960, 2000]}))
        cfg = load_config(path)
        assert cfg.alpha == 0.01
        assert cfg.window == (1960, 2000)

    def test_file_name_starting_with_a_brace_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "{x}.json").write_text(json.dumps({"alpha": 0.01}))
        assert load_config("{x}.json").alpha == 0.01

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_reflects_values_not_key_order(self):
        a = load_config({"alpha": 0.05, "seed": 3})
        b = load_config({"seed": 3, "alpha": 0.05})
        assert config_hash(a) == config_hash(b)
        c = load_config({"seed": 4, "alpha": 0.05})
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 64


class TestMedianCell:
    def test_planted_offset_is_uc_higher(self):
        rng = np.random.default_rng(3)
        base = 10.0 + rng.normal(0.0, 0.2, YEARS.size)
        non = _annual("non", "m", YEARS, base)
        uc = _annual("uc", "m", YEARS, base + 2.0)
        cell = median_comparison_cell("P0", "TAVG", "JJA", uc, non)
        assert cell.direction == "UC-higher"
        assert cell.wilcoxon_p < 0.05
        assert cell.median_uc - cell.median_nonuc == pytest.approx(2.0)
        assert cell.note == ""

    def test_identical_series_not_significant(self):
        vals = np.linspace(5.0, 6.0, 20)
        cell = median_comparison_cell(
            "P0", "TAVG", "DJF", _annual("a", "m", YEARS[:20], vals), _annual("b", "m", YEARS[:20], vals)
        )
        assert cell.direction == "not-significant"
        assert cell.wilcoxon_p == 1.0

    def test_missing_group_insufficient(self):
        cell = median_comparison_cell(
            "P0", "CDD", "annual", None, _annual("b", "m", YEARS, np.ones(60))
        )
        assert cell.direction == "insufficient-data"
        assert np.isnan(cell.median_uc)

    def test_short_series_insufficient(self):
        short = _annual("a", "m", YEARS[:4], np.arange(4.0))
        ok = _annual("b", "m", YEARS, np.ones(60))
        cell = median_comparison_cell("P0", "TMin", "DJF", short, ok)
        assert cell.direction == "insufficient-data"
        assert cell.note == "insufficient-data"


def _noise_group(rng, prefix, n, trend=0.0, sd=0.3):
    out = []
    for i in range(n):
        vals = trend * (YEARS - YEARS[0]) + rng.normal(0.0, sd, YEARS.size)
        out.append(_annual(f"{prefix}{i:02d}", "m", YEARS, vals))
    return out


class TestTrendCell:
    def test_planted_uc_trend_detected(self):
        rng = np.random.default_rng(2026)
        uc = _noise_group(rng, "U", 30, trend=0.05, sd=0.3)
        non = _noise_group(rng, "N", 30, trend=0.0, sd=0.3)
        cell = trend_comparison_cell("P0", "TAVG", "JJA", uc, non)
        assert cell.uc.proportion > cell.nonuc.proportion
        assert cell.prop.p < 0.05
        assert cell.direction == "UC-higher"
        assert cell.uc.field_significant

    def test_null_world_false_positive_rate(self):
        both_quiet = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            cell = trend_comparison_cell(
                "P0", "TAVG", "JJA", _noise_group(rng, "U", 8), _noise_group(rng, "N", 8)
            )
            if not cell.uc.field_significant and not cell.nonuc.field_significant:
                both_quiet += 1
        assert both_quiet >= 90

    def test_single_station_groups_equal(self):
        up = np.arange(60.0)
        cell = trend_comparison_cell(
            "P0", "TAVG", "JJA", [_annual("u", "m", YEARS, up)], [_annual("n", "m", YEARS, up * 2)]
        )
        assert cell.uc.proportion == 1.0
        assert cell.nonuc.proportion == 1.0
        assert cell.prop.p == 1.0
        assert cell.direction == "not-significant"

    def test_by_adjustment_within_group(self):
        rng = np.random.default_rng(99)
        uc = _noise_group(rng, "U", 5) + [_annual("U99", "m", YEARS, 0.2 * np.arange(60.0))]
        non = _noise_group(rng, "N", 6)
        cell = trend_comparison_cell("P0", "TAVG", "JJA", uc, non)
        for group in ("uc", "nonuc"):
            rows = [r for g, _, r in cell.station_rows if g == group]
            adjusted = stats.by_fdr_adjust([r.p for r in rows])
            np.testing.assert_allclose([r.p_adj for r in rows], adjusted)
            summary = getattr(cell, group)
            assert summary.n_sig == int(np.sum(adjusted < 0.05))

    def test_untestable_stations_yield_insufficient(self):
        flat = [_annual("u0", "m", YEARS, np.ones(60)), _annual("u1", "m", YEARS, np.ones(60))]
        non = _noise_group(np.random.default_rng(1), "N", 3)
        cell = trend_comparison_cell("P0", "TAVG", "JJA", flat, non)
        assert cell.note == "insufficient-data"
        assert cell.direction == "insufficient-data"
        assert cell.uc is None


def _covariate_row(rng, k, mean_elev=None):
    return ExplanatoryVars(
        uc_id=f"UC{k:02d}",
        cr_id=f"CR{k:02d}",
        pop_uc=float(rng.uniform(1e5, 1e6)),
        pop_diff=float(rng.uniform(-1e5, 1e5)),
        pop_pct_change_uc=float(rng.uniform(0, 50)),
        pop_diff_pct_change=float(rng.uniform(-10, 10)),
        pct_urban=float(rng.uniform(10, 90)),
        pct_cropland=float(rng.uniform(0, 50)),
        mean_elev=float(rng.uniform(10, 800)) if mean_elev is None else mean_elev,
        elev_range=float(rng.uniform(0, 300)),
    )


def _uniform_summaries(pair_ids, rng, metrics=("TAVG",), seasons=("JJA",)):
    rows = {}
    for pid in pair_ids:
        for m in metrics:
            for s in seasons if m in ("TMIN", "TAVG", "TMAX") else ("annual",):
                rows[(pid, m, s)] = {
                    "uc_median": float(rng.uniform(0, 10)),
                    "uc_slope": float(rng.uniform(-0.1, 0.1)),
                    "diff_median": float(rng.uniform(-1, 1)),
                    "diff_slope": float(rng.uniform(-0.05, 0.05)),
                }
    return rows


class TestRankCorrelation:
    def test_self_covariate_gives_rho_one(self):
        rng = np.random.default_rng(5)
        pair_ids = tuple(f"UC{k:02d}" for k in range(11))
        summaries = _uniform_summaries(pair_ids, rng)
        covs = {}
        for k, pid in enumerate(pair_ids):
            row = _covariate_row(rng, k)
            covs[pid] = ExplanatoryVars(
                **{**row.__dict__, "pop_uc": summaries[(pid, "TAVG", "JJA")]["uc_median"]}
            )
        m_uc, _ = rank_correlation_matrices(pair_ids, summaries, covs, ("TAVG",), ("JJA",))
        i = m_uc.rows.index(("TAVG", "JJA", "median"))
        j = m_uc.columns.index("pop_uc")
        assert m_uc.rho[i, j] == pytest.approx(1.0)
        assert m_uc.p[i, j] == 0.0

    def test_null_covariate_mean_abs_rho(self):
        pair_ids = tuple(f"UC{k:02d}" for k in range(11))
        rhos = []
        for seed in range(1000):
            rng = np.random.default_rng(20_000 + seed)
            summaries = _uniform_summaries(pair_ids, rng)
            covs = {pid: _covariate_row(rng, k) for k, pid in enumerate(pair_ids)}
            m_uc, _ = rank_correlation_matrices(pair_ids, summaries, covs, ("TAVG",), ("JJA",))
            i = m_uc.rows.index(("TAVG", "JJA", "median"))
            rhos.append(m_uc.rho[i, m_uc.columns.index("pop_uc")])
        assert np.mean(np.abs(rhos)) < 0.35

    def test_lapse_rate_rho_minus_one(self):
        rng = np.random.default_rng(8)
        pair_ids = tuple(f"UC{k:02d}" for k in range(11))
        covs = {pid: _covariate_row(rng, k) for k, pid in enumerate(pair_ids)}
        summaries = {
            (pid, "TAVG", "JJA"): {
                "uc_median": -0.0065 * covs[pid].mean_elev,
                "uc_slope": np.nan,
                "diff_median": np.nan,
                "diff_slope": np.nan,
            }
            for pid in pair_ids
        }
        m_uc, _ = rank_correlation_matrices(pair_ids, summaries, covs, ("TAVG",), ("JJA",))
        i = m_uc.rows.index(("TAVG", "JJA", "median"))
        j = m_uc.columns.index("mean_elev")
        assert m_uc.rho[i, j] == pytest.approx(-1.0)
        assert m_uc.p[i, j] == 0.0

    def test_pairwise_exclusion_and_small_n_flag(self):
        rng = np.random.default_rng(9)
        pair_ids = tuple(f"UC{k:02d}" for k in range(11))
        summaries = _uniform_summaries(pair_ids, rng)
        for pid in pair_ids[:5]:
            summaries[(pid, "TAVG", "JJA")]["uc_median"] = np.nan
        covs = {pid: _covariate_row(rng, k) for k, pid in enumerate(pair_ids)}
        m_uc, m_diff = rank_correlation_matrices(pair_ids, summaries, covs, ("TAVG",), ("JJA",))
        i = m_uc.rows.index(("TAVG", "JJA", "median"))
        j = m_uc.columns.index("pop_uc")
        assert m_uc.n[i, j] == 6
        assert m_uc.flags[i][j] == "n<8"
        assert np.isfinite(m_uc.rho[i, j])
        k = m_uc.rows.index(("TAVG", "JJA", "slope"))
        assert m_uc.flags[k][j] == ""
        assert m_diff.flags[i][j] == ""

    def test_too_few_pairs_is_insufficient(self):
        rng = np.random.default_rng(10)
        pair_ids = ("UC00", "UC01")
        summaries = _uniform_summaries(pair_ids, rng)
        covs = {pid: _covariate_row(rng, k) for k, pid in enumerate(pair_ids)}
        m_uc, _ = rank_correlation_matrices(pair_ids, summaries, covs, ("TAVG",), ("JJA",))
        assert np.isnan(m_uc.rho).all()
        assert all(flag == "insufficient" for row in m_uc.flags for flag in row)

    def test_rho_stays_in_bounds(self):
        rng = np.random.default_rng(11)
        pair_ids = tuple(f"UC{k:02d}" for k in range(9))
        summaries = _uniform_summaries(pair_ids, rng, metrics=("TAVG", "CDD"))
        covs = {pid: _covariate_row(rng, k) for k, pid in enumerate(pair_ids)}
        m_uc, m_diff = rank_correlation_matrices(
            pair_ids, summaries, covs, ("TAVG", "CDD"), ("JJA",)
        )
        for m in (m_uc, m_diff):
            finite = m.rho[np.isfinite(m.rho)]
            assert np.all(finite >= -1.0) and np.all(finite <= 1.0)


FULL_CFG = {
    "window": [1956, 1975],
    "qc": {"daily_min_span_months": 120, "daily_end_cutoff": "1970-01-01"},
    "seed": 424242,
    "synth": {
        "n_pairs": 2,
        "uc_stations": 3,
        "nonuc_stations": 4,
        "end_year": 1975,
        "uc_offset_c": 1.5,
        "noise_sd_c": 0.3,
        "gap_rate": 0.015,
        "gap_mean_len_steps": 2.0,
    },
}

LIGHT_CFG = {
    "window": [1956, 1966],
    "seed": 7,
    "metrics": ["TAVG", "TMIN"],
    "seasons": ["JJA"],
    "synth": {
        "n_pairs": 2,
        "uc_stations": 3,
        "nonuc_stations": 3,
        "end_year": 1966,
        "daily": False,
        "noise_sd_c": 0.4,
    },
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = load_config(FULL_CFG)
    pipeline.stage_synth(out, cfg)
    timings = pipeline.run_all(out, cfg, threads=2)
    return out, cfg, timings


def _read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


_FILLS_OF = {MonthlySeries: pipeline.F_FILLS_MONTHLY, DailySeries: pipeline.F_FILLS_DAILY}


def _rebuilt(out, kind):
    """The completed series indices rebuilds from parsed_*, qc_* and fills_*, in file order."""
    return list(pipeline._kept_series(out, kind, _FILLS_OF[kind]))


def _derived_codes(parsed, frame, offsets):
    """Provenance codes per frame slot: 'o' where the parsed series holds a
    finite value, 'i' at a stored fill, 'u' elsewhere."""
    slots = first_slot(frame) + np.arange(frame.values.size) - first_slot(parsed)
    inside = (slots >= 0) & (slots < parsed.values.size)
    observed = np.zeros(frame.values.size, dtype=bool)
    observed[inside] = np.isfinite(parsed.values[slots[inside]])
    codes = np.where(observed, "o", "u")
    codes[offsets] = "i"
    return codes


class TestStages:
    def test_ingest_outputs(self, full_run):
        out, cfg, _ = full_run
        summary = json.loads((out / pipeline.F_INGEST_SUMMARY).read_text())
        assert summary["n_stations"] == 14
        assert summary["n_monthly_series"] == 42
        assert summary["n_daily_series"] == 28
        assert summary["n_parse_issues"] == 0
        doc = json.loads((out / pipeline.F_PAIRS).read_text())
        assert [p["uc_id"] for p in doc["pairs"]] == ["UC00", "UC01"]
        for p in doc["pairs"]:
            assert len(p["uc_stations"]) == 3
            assert len(p["nonuc_stations"]) == 4

    def test_qc_outputs(self, full_run):
        out, _, _ = full_run
        monthly = _read_csv_rows(out / pipeline.F_QC_MONTHLY)
        daily = _read_csv_rows(out / pipeline.F_QC_DAILY)
        assert len(monthly) == 42 and len(daily) == 28
        assert {r["verdict"] for r in monthly + daily} <= {"kept", "dropped"}
        assert sum(r["verdict"] == "kept" for r in monthly) > 0

    def test_qc_tables_name_the_element(self, full_run):
        out, _, _ = full_run
        for name, elements in (
            (pipeline.F_QC_MONTHLY, {"TMIN", "TAVG", "TMAX"}),
            (pipeline.F_QC_DAILY, {"TMIN", "TMAX"}),
        ):
            header = (out / name).read_text().splitlines()[0]
            assert header == "station,element,verdict,reason,missing_frac,longest_gap"
            rows = _read_csv_rows(out / name)
            keys = [(r["station"], r["element"]) for r in rows]
            assert len(set(keys)) == len(keys)
            assert {r["element"] for r in rows} == elements
            for r in rows:
                assert (r["verdict"] == "kept") == (r["reason"] == "")

    def test_impute_fills_every_window_slot(self, full_run):
        out, cfg, _ = full_run
        from megaheat.series import month_index

        completed = _rebuilt(out, MonthlySeries)
        assert completed
        w0 = month_index(cfg.window[0], 1)
        w1 = month_index(cfg.window[1], 12)
        for s in completed:
            s0 = month_index(s.first_year, s.first_month)
            window_vals = s.values[w0 - s0 : w1 - s0 + 1]
            assert np.isfinite(window_vals).all(), s.station_id

    def test_impute_mask_marks_previous_gaps(self, full_run):
        out, cfg, _ = full_run
        from megaheat.series import month_index

        verdicts = _read_csv_rows(out / pipeline.F_QC_MONTHLY)
        kept = {
            (s.station_id, s.element): s
            for s, row in zip(load_series(out / pipeline.F_PARSED_MONTHLY), verdicts)
            if row["verdict"] == "kept"
        }
        w0 = month_index(cfg.window[0], 1)
        n_imputed_marked = 0
        fills = load_fills(out / pipeline.F_FILLS_MONTHLY)
        for frame, offsets in zip(fills.frames, fills.offsets):
            src = kept[(frame.station_id, frame.element)]
            codes = _derived_codes(src, frame, offsets)
            t0 = month_index(frame.first_year, frame.first_month)
            n_imputed_marked += int((codes == "i").sum())
            s0 = month_index(src.first_year, src.first_month)
            for t, code in enumerate(codes):
                abs_t = t0 + t
                if abs_t < w0:
                    continue
                idx = abs_t - s0
                was_missing = not (0 <= idx < src.values.size) or np.isnan(src.values[idx])
                assert (code == "i") == was_missing
        assert n_imputed_marked > 0

    def test_indices_files(self, full_run):
        out, cfg, _ = full_run
        station = load_annual(out / pipeline.F_ANNUAL_STATION, pipeline.ANNUAL_STATION_KEYS)
        metrics = {metric for _, metric, _ in station}
        assert metrics == set(cfg.metrics)
        assert {season for _, _, season in station} == {"DJF", "JJA", "annual"}
        years = np.concatenate([s.years for s in station.values()])
        assert min(years) >= cfg.window[0] and max(years) <= cfg.window[1]

        regional = load_annual(out / pipeline.F_ANNUAL_REGIONAL, pipeline.ANNUAL_REGIONAL_KEYS)
        groups = {(pair, group) for pair, group, _, _ in regional}
        assert groups == {(p, g) for p in ("UC00", "UC01") for g in ("uc", "nonuc")}

    def test_trend_files(self, full_run):
        out, cfg, _ = full_run
        cells = _read_csv_rows(out / pipeline.F_TREND_CELLS)
        assert len(cells) == 2 * 9
        assert {r["direction"] for r in cells} <= {
            "UC-higher",
            "nonUC-higher",
            "not-significant",
            "insufficient-data",
        }
        stations = _read_csv_rows(out / pipeline.F_TREND_STATIONS)
        by_group = {}
        for r in stations:
            if r["untestable"] == "yes":
                assert r["p_adj"] == ""
                continue
            key = (r["pair"], r["metric"], r["season"], r["group"])
            by_group.setdefault(key, []).append(r)
        for rows in by_group.values():
            adjusted = stats.by_fdr_adjust([float(r["p"]) for r in rows])
            np.testing.assert_allclose([float(r["p_adj"]) for r in rows], adjusted)

        regional = _read_csv_rows(out / pipeline.F_TRENDS)
        assert {r["group"] for r in regional} <= {"uc", "nonuc"}

    def test_comparison_recovers_planted_offset(self, full_run):
        out, _, _ = full_run
        rows = _read_csv_rows(out / pipeline.F_COMPARISON)
        assert len(rows) == 2 * 9
        for r in rows:
            assert r["direction"] == "UC-higher", r
            assert float(r["median_diff"]) > 0.0
            assert float(r["wilcoxon_p"]) < 0.05

    def test_correlation_files_flag_small_n(self, full_run):
        out, _, _ = full_run
        for name in (pipeline.F_CORR_UC, pipeline.F_CORR_DIFF):
            rows = _read_csv_rows(out / name)
            assert len(rows) == 9 * 2 * 8
            assert all(r["flag"] == "insufficient" for r in rows)
            assert all(r["rho"] == "nan" for r in rows)

    def test_report_bundle(self, full_run):
        out, cfg, _ = full_run
        report = out / pipeline.REPORT_DIR
        names = sorted(p.name for p in report.iterdir())
        assert names == [
            "fig2a.csv",
            "fig2c.csv",
            "fig3a.csv",
            "fig3b.csv",
            "fig4a.csv",
            "fig4b.csv",
            "manifest.json",
        ]
        manifest = json.loads((report / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert set(manifest["inputs"]) == {"daily", "monthly", "stations", "regions", "covariates"}
        for name, digest in manifest["inputs"].items():
            assert digest == hashlib.sha256(pipeline._input_path(out, cfg, name).read_bytes()).hexdigest()
        assert "numpy" in manifest["versions"]
        fig2a = _read_csv_rows(report / "fig2a.csv")
        assert len(fig2a) == 2 * 6
        assert {r["season"] for r in fig2a} == {"DJF", "JJA"}

    def test_run_all_returns_timings(self, full_run):
        _, _, timings = full_run
        assert list(timings) == list(pipeline.STAGE_ORDER)
        assert all(t >= 0.0 for t in timings.values())


def test_input_checksum_reads_files_in_chunks(tmp_path):
    # empty, whole buffers, whole buffers and one byte, and an uneven size
    data = np.random.default_rng(3).bytes(5 * 2**19 + 7)
    whole = 3 * pipeline._HASH_BYTES
    for size in (0, whole, whole + 1, len(data)):
        (tmp_path / "blob").write_bytes(data[:size])
        assert pipeline._file_sha256(tmp_path / "blob") == hashlib.sha256(data[:size]).hexdigest(), size


# LIGHT_CFG with daily records that qc keeps, and gaps, so that both fills
# files hold fills
FILLS_CFG = dict(
    LIGHT_CFG,
    qc={"daily_min_span_months": 120},
    synth=dict(LIGHT_CFG["synth"], daily=True, gap_rate=0.01, gap_mean_len_steps=1.0),
)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRebuiltSeries:
    """indices rebuilds, from parsed_*.npz, the kept rows of qc_*.csv and
    the fills, bit for bit what impute computed."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        import datetime as dt

        from megaheat.synth import SynthParams, synth_generate, write_world

        out = tmp_path_factory.mktemp("rebuilt")
        cfg = load_config(
            {
                "window": [1956, 1966],
                "qc": {
                    "monthly_max_missing_frac": 1.0,
                    "monthly_max_gap_months": 1000,
                    "daily_min_span_months": 0,
                    "daily_jja_max_missing_frac": 1.0,
                    "daily_max_gap_days": 10000,
                },
            }
        )
        params = SynthParams(
            n_pairs=2,
            uc_stations=3,
            nonuc_stations=3,
            end_year=1966,
            noise_sd_c=2.0,
            gap_rate=0.02,
            gap_mean_len_steps=2.0,
        )
        world = synth_generate(911, params)
        # series that start or end inside the window, and a station without
        # elevation, whose missing monthly slots stay unimputable
        monthly, daily = list(world.monthly), list(world.daily)
        monthly[0] = dataclasses.replace(monthly[0], first_year=1958, first_month=3, values=monthly[0].values[26:])
        monthly[4] = dataclasses.replace(monthly[4], values=monthly[4].values[:-30])
        late = daily[0].start + dt.timedelta(days=400)
        daily[0] = dataclasses.replace(daily[0], start=late, values=daily[0].values[400:])
        daily[3] = dataclasses.replace(daily[3], values=daily[3].values[:-500])
        no_elev = world.stations[1].station_id
        stations = [dataclasses.replace(st, elev=None) if st.station_id == no_elev else st for st in world.stations]
        write_world(dataclasses.replace(world, monthly=monthly, daily=daily, stations=stations), out)
        pipeline.run_stages(out, cfg, ["ingest", "qc", "impute"])
        return out, cfg, no_elev

    def test_monthly_equals_impute_monthly(self, world):
        from megaheat.ghcn import parse_stations
        from megaheat.interpolate import impute_monthly

        out, cfg, no_elev = world
        kept = list(pipeline._kept_series(out, MonthlySeries))
        stations, _ = parse_stations((out / "stations.txt").read_bytes())
        expected, masks, _ = impute_monthly(kept, stations, cfg.gwr, window=cfg.window)
        # rebuilt in file order; impute_monthly and the fills go by element
        rebuilt = {(s.station_id, s.element): s for s in _rebuilt(out, MonthlySeries)}
        parsed = {(s.station_id, s.element): s for s in kept}
        fills = load_fills(out / pipeline.F_FILLS_MONTHLY)
        assert len(rebuilt) == len(expected) == len(fills.frames) == len(kept)
        for want, mask, frame, offsets in zip(expected, masks, fills.frames, fills.offsets):
            got = rebuilt[(frame.station_id, frame.element)]
            assert (got.station_id, got.element, got.first_year, got.first_month) == (
                want.station_id,
                want.element,
                want.first_year,
                want.first_month,
            )
            assert np.array_equal(_bits(got.values), _bits(want.values)), got.station_id
            codes = _derived_codes(parsed[(frame.station_id, frame.element)], frame, offsets)
            assert np.array_equal(codes, mask.codes), got.station_id
        # the world holds what the oracle is about
        all_codes = np.concatenate([m.codes for m in masks])
        assert {"o", "i", "u"} <= set(all_codes.tolist())
        assert any(m.codes[1:].tolist().count("u") for s, m in zip(expected, masks) if s.station_id == no_elev)
        assert any(first_slot(s) > first_slot(c) for s, c in zip(kept, expected))
        assert any(first_slot(s) + s.values.size < first_slot(c) + c.values.size for s, c in zip(kept, expected))

    def test_daily_equals_lwma_fill(self, world):
        from megaheat.interpolate import lwma_fill

        out, _, _ = world
        kept = list(pipeline._kept_series(out, DailySeries))
        rebuilt = _rebuilt(out, DailySeries)
        fills = load_fills(out / pipeline.F_FILLS_DAILY)
        assert len(rebuilt) == len(kept) == len(fills.frames)
        seen = set()
        for s, got, frame, offsets in zip(kept, rebuilt, fills.frames, fills.offsets):
            want, mask = lwma_fill(s)
            assert (got.station_id, got.element, got.start) == (want.station_id, want.element, want.start)
            assert np.array_equal(_bits(got.values), _bits(want.values)), got.station_id
            codes = _derived_codes(s, frame, offsets)
            assert np.array_equal(codes, mask.codes), got.station_id
            seen |= set(codes.tolist())
        assert seen == {"o", "i", "u"}
        # daily frames are the parsed series' own: filled in place, not copied
        assert all(np.shares_memory(fills.complete(i, s).values, s.values) for i, s in enumerate(kept))

    def test_fills_leave_impute_unrounded(self, world):
        # fills on the 0.01 C (monthly) or 0.1 C (daily) grid of the
        # fixed-width records would mean impute rounded what it computed
        out, _, _ = world
        for name, scale in ((pipeline.F_FILLS_MONTHLY, 100.0), (pipeline.F_FILLS_DAILY, 10.0)):
            v = np.concatenate(load_fills(out / name).values)
            assert v.size > 0, name
            assert np.any(v != np.rint(v * scale) / scale), name

    def test_impute_files_grow_with_the_fills_not_the_network(self, tmp_path):
        cfg = load_config(FILLS_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc", "impute"])
        for name in (pipeline.F_FILLS_MONTHLY, pipeline.F_FILLS_DAILY):
            assert sum(v.size for v in load_fills(tmp_path / name).values) > 0, name
        impute_bytes = sum(
            (tmp_path / name).stat().st_size
            for name in (pipeline.F_FILLS_MONTHLY, pipeline.F_FILLS_DAILY, pipeline.F_IMPUTE_NOTES)
        )
        assert impute_bytes < 0.1 * (tmp_path / pipeline.F_PARSED_DAILY).stat().st_size


def _tree_bytes(root, skip=()):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


class TestDeterminismAndRestart:
    def test_thread_count_does_not_change_outputs(self, tmp_path):
        cfg = load_config(LIGHT_CFG)
        runs = {}
        for name, threads in (("a", 1), ("b", 3)):
            out = tmp_path / name
            pipeline.stage_synth(out, cfg)
            pipeline.run_all(out, cfg, threads=threads)
            runs[name] = _tree_bytes(out)
        assert runs["a"].keys() == runs["b"].keys()
        for rel in runs["a"]:
            assert runs["a"][rel] == runs["b"][rel], rel

    def test_later_stages_restart_from_intermediates(self, tmp_path):
        cfg = load_config(LIGHT_CFG)
        out = tmp_path / "full"
        pipeline.stage_synth(out, cfg)
        pipeline.run_all(out, cfg, threads=2)
        reference = _tree_bytes(out)

        rerun_files = [
            pipeline.F_TREND_STATIONS,
            pipeline.F_TRENDS,
            pipeline.F_TREND_CELLS,
            pipeline.F_COMPARISON,
            pipeline.F_CORR_UC,
            pipeline.F_CORR_DIFF,
        ]
        for name in rerun_files:
            (out / name).unlink()
        shutil.rmtree(out / pipeline.REPORT_DIR)
        pipeline.run_stages(out, cfg, ["trends", "compare", "correlate", "report"], threads=1)
        assert _tree_bytes(out) == reference


class TestStageErrors:
    def test_ingest_missing_input(self, tmp_path):
        cfg = load_config({})
        with pytest.raises(DataError, match="ghcnd.dly"):
            pipeline.stage_ingest(tmp_path, cfg)

    def test_qc_requires_ingest_outputs(self, tmp_path):
        cfg = load_config({})
        with pytest.raises(DataError, match="run the ingest stage first"):
            pipeline.stage_qc(tmp_path, cfg)

    def test_impute_requires_qc_outputs(self, tmp_path):
        cfg = load_config({})
        with pytest.raises(DataError, match="qc"):
            pipeline.stage_impute(tmp_path, cfg)

    def test_indices_requires_impute_outputs(self, tmp_path):
        cfg = load_config({})
        with pytest.raises(DataError, match="run the impute stage first"):
            pipeline.stage_indices(tmp_path, cfg)

    @pytest.mark.parametrize(
        "name, stage",
        [
            (pipeline.F_PARSED_MONTHLY, pipeline.stage_qc),
            (pipeline.F_PARSED_DAILY, pipeline.stage_impute),
            (pipeline.F_FILLS_MONTHLY, pipeline.stage_indices),
            (pipeline.F_FILLS_DAILY, pipeline.stage_indices),
            (pipeline.F_ANNUAL_STATION, pipeline.stage_trends),
            (pipeline.F_ANNUAL_REGIONAL, pipeline.stage_compare),
            (pipeline.F_ANNUAL_REGIONAL, pipeline.stage_correlate),
            (pipeline.F_PAIRS, pipeline.stage_trends),
        ],
    )
    def test_unreadable_intermediate_names_the_file(self, tmp_path, name, stage):
        cfg = load_config(dict(LIGHT_CFG, synth=dict(LIGHT_CFG["synth"], daily=True)))
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc", "impute", "indices", "trends"])
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DataError, match=name):
            stage(tmp_path, cfg)
        path.write_text("not a series file\n")
        with pytest.raises(DataError, match=name):
            stage(tmp_path, cfg)

    @pytest.mark.parametrize("name", [pipeline.F_FILLS_MONTHLY, pipeline.F_FILLS_DAILY])
    @pytest.mark.parametrize("case", ["before-frame", "past-frame", "repeated", "observed-slot"])
    def test_fill_that_does_not_fit_its_frame(self, tmp_path, name, case):
        cfg = load_config(FILLS_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc", "impute"])
        path = tmp_path / name
        arrays = dict(np.load(path))
        # the first series with two fills whose first fill is not on its
        # first slot: the slot before a gap's first fill is observed
        ends = np.cumsum(arrays["n_fills"])
        row = next(i for i, n in enumerate(arrays["n_fills"]) if n > 1 and arrays["offset"][ends[i] - n] > 0)
        lo, hi = ends[row] - arrays["n_fills"][row], ends[row]
        if case == "before-frame":
            arrays["offset"][lo] = -1
        elif case == "past-frame":
            arrays["offset"][hi - 1] = arrays["length"][row]
        elif case == "repeated":
            arrays["offset"][lo + 1] = arrays["offset"][lo]
        else:
            arrays["offset"][lo] -= 1
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        message = {"repeated": "do not increase", "observed-slot": "lands on an observed slot"}.get(
            case, "outside its frame"
        )
        with pytest.raises(DataError, match=f"{name}: .*{message}.*; rerun the impute stage"):
            pipeline.stage_indices(tmp_path, cfg)

    def test_fills_from_other_qc_verdicts(self, tmp_path):
        cfg = load_config(FILLS_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc", "impute"])
        strict = dataclasses.replace(cfg, qc=dataclasses.replace(cfg.qc, monthly_max_missing_frac=0.0))
        pipeline.stage_qc(tmp_path, strict)
        with pytest.raises(DataError, match=f"{pipeline.F_FILLS_MONTHLY} was saved from .*; rerun the impute stage"):
            pipeline.stage_indices(tmp_path, strict)

    def test_station_series_apart_in_the_daily_file(self, tmp_path):
        # ingest writes a station's series one after another, and indices
        # holds one station at a time; a file that splits a station is refused
        cfg = load_config(FILLS_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.stage_ingest(tmp_path, cfg)
        path = tmp_path / pipeline.F_PARSED_DAILY
        daily = load_series(path)
        assert [s.station_id for s in daily[:2]] == [daily[0].station_id] * 2
        daily = daily[1:] + daily[:1]
        save_series(path, daily, [s.values for s in daily])
        pipeline.run_stages(tmp_path, cfg, ["qc", "impute"])
        with pytest.raises(DataError, match=f"{pipeline.F_PARSED_DAILY} holds the series of .* apart"):
            pipeline.stage_indices(tmp_path, cfg)

    def test_missing_annual_file_names_the_stage(self, tmp_path):
        cfg = load_config(LIGHT_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc", "impute", "indices", "trends"])
        for name, stage in (
            (pipeline.F_ANNUAL_STATION, pipeline.stage_trends),
            (pipeline.F_ANNUAL_REGIONAL, pipeline.stage_trends),
            (pipeline.F_ANNUAL_REGIONAL, pipeline.stage_compare),
            (pipeline.F_ANNUAL_REGIONAL, pipeline.stage_correlate),
        ):
            path = tmp_path / name
            path.rename(tmp_path / "aside")
            with pytest.raises(DataError, match=f"missing {name}; run the indices stage first"):
                stage(tmp_path, cfg)
            (tmp_path / "aside").rename(path)

    def test_annual_files_are_not_interchangeable(self, tmp_path):
        cfg = load_config(LIGHT_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc", "impute", "indices"])
        shutil.copy(tmp_path / pipeline.F_ANNUAL_REGIONAL, tmp_path / pipeline.F_ANNUAL_STATION)
        with pytest.raises(DataError, match=f"cannot read {pipeline.F_ANNUAL_STATION}: .*station"):
            pipeline.stage_trends(tmp_path, cfg)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[:-1],
            lambda rows: rows + [rows[-1]],
            lambda rows: rows[:1] + rows[2:] + rows[1:2],
            lambda rows: rows[:1] + [["ZZZ00000001"] + rows[1][1:]] + rows[2:],
            lambda rows: rows[:1] + [rows[1][:2] + ["kept?"] + rows[1][3:]] + rows[2:],
            lambda rows: rows[:1] + [rows[1][:3]] + rows[2:],
            lambda rows: [["station", "element", "verdict"]] + rows[1:],
        ],
        ids=["row-lost", "row-added", "rows-reordered", "station-renamed", "bad-verdict", "short-row", "header"],
    )
    def test_qc_verdicts_out_of_step_with_parsed_series(self, tmp_path, edit):
        cfg = load_config(dict(LIGHT_CFG, synth=dict(LIGHT_CFG["synth"], daily=True)))
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.run_stages(tmp_path, cfg, ["ingest", "qc"])
        path = tmp_path / pipeline.F_QC_DAILY
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(edit(rows))
        with pytest.raises(DataError) as err:
            pipeline.stage_impute(tmp_path, cfg)
        assert str(err.value) == (
            f"{pipeline.F_QC_DAILY} does not match {pipeline.F_PARSED_DAILY}; rerun the qc stage"
        )

    def test_impute_requires_qc_verdicts(self, tmp_path):
        cfg = load_config(LIGHT_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.stage_ingest(tmp_path, cfg)
        with pytest.raises(DataError, match=f"missing {pipeline.F_QC_MONTHLY}; run the qc stage first"):
            pipeline.stage_impute(tmp_path, cfg)

    def test_intermediate_of_the_wrong_kind(self, tmp_path):
        cfg = load_config(dict(LIGHT_CFG, synth=dict(LIGHT_CFG["synth"], daily=True)))
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.stage_ingest(tmp_path, cfg)
        shutil.copy(tmp_path / pipeline.F_PARSED_DAILY, tmp_path / pipeline.F_PARSED_MONTHLY)
        with pytest.raises(DataError, match=pipeline.F_PARSED_MONTHLY):
            pipeline.stage_qc(tmp_path, cfg)

    @pytest.mark.parametrize("change", ["non-numeric field", "truncated"])
    def test_daily_file_rewritten_after_framing(self, tmp_path, monkeypatch, change):
        # the values come from the spill framing wrote, not from a second read of the file
        cfg = load_config(dict(LIGHT_CFG, synth=dict(LIGHT_CFG["synth"], daily=True)))
        pipeline.stage_synth(tmp_path, cfg)
        undisturbed = tmp_path / "undisturbed"
        shutil.copytree(tmp_path, undisturbed)
        pipeline.stage_ingest(undisturbed, cfg)
        read = pipeline.read_ghcnd

        def read_then_rewrite(path):
            framed = read(path)
            blob = path.read_bytes()
            if change == "truncated":
                blob = blob[: len(blob) // 2]
            else:
                at = blob.index(b"\n", len(blob) // 2) + 1 + ghcn._DAILY.values_at
                blob = blob[:at] + b" 1x3 " + blob[at + 5 :]
            path.write_bytes(blob)
            return framed

        monkeypatch.setattr(pipeline, "read_ghcnd", read_then_rewrite)
        pipeline.stage_ingest(tmp_path, cfg)
        for name in (pipeline.F_PARSED_DAILY, pipeline.F_PARSE_ISSUES):
            assert (tmp_path / name).read_bytes() == (undisturbed / name).read_bytes(), name

    def test_spill_that_cannot_be_written_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = load_config(dict(LIGHT_CFG, synth=dict(LIGHT_CFG["synth"], daily=True)))
        pipeline.stage_synth(tmp_path, cfg)

        class FullDisk(io.BytesIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(ghcn.tempfile, "TemporaryFile", FullDisk)
        assert cli.main(["ingest", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("megaheat: error: ") and err.count("\n") == 1
        assert "ghcnd.dly" in err and os.strerror(errno.ENOSPC) in err and "Traceback" not in err
        assert not list(tmp_path.glob("parsed_*.npz"))

    def test_ids_outside_ascii_are_reported_and_dropped(self, tmp_path):
        # two ids that differ only in a byte outside ASCII are two stations
        # to no parser: each line under them is reported and dropped
        cfg = load_config(dict(LIGHT_CFG, synth=dict(LIGHT_CFG["synth"], daily=True)))
        pipeline.stage_synth(tmp_path, cfg)
        for name in ("ghcnd.dly", "ghcnm.dat", "stations.txt"):
            raw = (tmp_path / name).read_bytes()
            raw = raw.replace(b"SYN00N00000", b"SYN00N0000\xe9").replace(b"SYN00N00001", b"SYN00N0000\xe8")
            (tmp_path / name).write_bytes(raw)
        summary = pipeline.stage_ingest(tmp_path, cfg)
        assert (summary["n_stations"], summary["n_daily_series"], summary["n_monthly_series"]) == (10, 20, 30)
        expected = [
            [kind, str(k), "non-ASCII station id"]
            for kind, name in (("daily", "ghcnd.dly"), ("monthly", "ghcnm.dat"), ("stations", "stations.txt"))
            for k, line in enumerate((tmp_path / name).read_bytes().split(b"\n"), 1)
            if not line[:11].isascii()
        ]
        # each station has 264 daily lines, 36 monthly lines and one inventory line
        assert len(expected) == 2 * (264 + 36 + 1)
        assert list(read_csv(tmp_path / pipeline.F_PARSE_ISSUES))[1:] == expected
        pairs = json.loads((tmp_path / pipeline.F_PAIRS).read_text())["pairs"]
        held = {sid for p in pairs for sid in p["uc_stations"] + p["nonuc_stations"]}
        assert len(held) == 10 and all(sid.isascii() for sid in held)

    def test_trends_requires_indices(self, tmp_path):
        cfg = load_config({})
        with pytest.raises(DataError, match="indices"):
            pipeline.stage_trends(tmp_path, cfg)

    def test_bad_regions_file(self, tmp_path):
        cfg = load_config(LIGHT_CFG)
        pipeline.stage_synth(tmp_path, cfg)
        (tmp_path / "regions.json").write_text('{"features": [{"properties": {}}]}')
        with pytest.raises(DataError):
            pipeline.stage_ingest(tmp_path, cfg)


class TestQcStage:
    """stage_qc runs each parsed file through its filter in one pass per
    series and takes the window test from the filters' reports."""

    def _parsed(self, out, monthly, daily):
        save_series(out / pipeline.F_PARSED_MONTHLY, monthly, [s.values for s in monthly])
        save_series(out / pipeline.F_PARSED_DAILY, daily, [s.values for s in daily])

    def test_one_daily_series_in_the_window_is_enough(self, tmp_path):
        cfg = load_config({"window": [1990, 1991]})
        before = MonthlySeries("M1", "TAVG", 1980, 1, np.full(120, 10.0))
        inside = DailySeries("D1", "TMAX", dt.date(1989, 12, 1), np.full(60, 20.0))
        empty = DailySeries("D2", "TMAX", dt.date(1990, 1, 1), np.full(10, np.nan))
        self._parsed(tmp_path, [before], [empty, inside])
        pipeline.stage_qc(tmp_path, cfg)
        assert [r["station"] for r in _read_csv_rows(tmp_path / pipeline.F_QC_MONTHLY)] == ["M1"]
        assert [r["station"] for r in _read_csv_rows(tmp_path / pipeline.F_QC_DAILY)] == ["D2", "D1"]

    def test_nothing_in_the_window_writes_neither_table(self, tmp_path):
        cfg = load_config({"window": [1990, 1991]})
        before = MonthlySeries("M1", "TAVG", 1980, 1, np.full(120, 10.0))
        after = DailySeries("D1", "TMAX", dt.date(1992, 1, 1), np.full(60, 20.0))
        self._parsed(tmp_path, [before], [after])
        with pytest.raises(DataError, match="window 1990-1991 holds no observed value in any series"):
            pipeline.stage_qc(tmp_path, cfg)
        assert not (tmp_path / pipeline.F_QC_MONTHLY).exists()
        assert not (tmp_path / pipeline.F_QC_DAILY).exists()

    def test_filters_called_as_the_tracer_reads_them(self, tmp_path, monkeypatch):
        # benchmarks/tracing.py wraps pipeline.filter_*_stations and counts
        # len(args[0]) series in and len(result[0]) kept
        synth = dict(LIGHT_CFG["synth"], daily=True)
        cfg = load_config(dict(LIGHT_CFG, synth=synth, qc={"daily_min_span_months": 120}))
        pipeline.stage_synth(tmp_path, cfg)
        pipeline.stage_ingest(tmp_path, cfg)
        calls = {}

        def recording(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                calls.setdefault(name, []).append((args, result))
                return result

            return wrapper

        for name in ("filter_monthly_stations", "filter_daily_stations"):
            monkeypatch.setattr(pipeline, name, recording(name))
        pipeline.stage_qc(tmp_path, cfg)
        assert sorted(calls) == ["filter_daily_stations", "filter_monthly_stations"]
        for kind, name in ((MonthlySeries, "filter_monthly_stations"), (DailySeries, "filter_daily_stations")):
            [(args, result)] = calls[name]
            assert isinstance(args[0], list) and args[0] and all(isinstance(s, kind) for s in args[0])
            assert isinstance(result, tuple) and len(result) == 2
            assert 0 < len(result[0]) <= len(args[0]) == len(result[1])


class TestReportOnEmptyDir:
    def test_manifest_only(self, tmp_path):
        cfg = load_config({})
        pipeline.stage_report(tmp_path, cfg)
        report = tmp_path / pipeline.REPORT_DIR
        assert [p.name for p in report.iterdir()] == ["manifest.json"]
        manifest = json.loads((report / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["bundle"] == []

    def test_rerun_identical(self, tmp_path):
        cfg = load_config({})
        pipeline.stage_report(tmp_path, cfg)
        first = (tmp_path / pipeline.REPORT_DIR / "manifest.json").read_bytes()
        pipeline.stage_report(tmp_path, cfg)
        assert (tmp_path / pipeline.REPORT_DIR / "manifest.json").read_bytes() == first


class TestIngestMemory:
    """stage_ingest holds a small per-line index and one block's work, never
    a record file's bytes, its value fields or every series' values at once,
    in whatever order the file lists its lines.  The value fields go to the
    spill, a temporary file in TMPDIR, which tracemalloc does not see.

    The budget follows the design, whatever the world's size:
    - per record line, 32 bytes: the 10-byte index row (a 4-byte station
      code, a 1-byte element code, a 4-byte first slot and a 1-byte slot
      count) twice, in its chunks and joined into one array per column
      when framing ends, and the 4-byte station codes renumbered in sort
      order;
    - per record line, under 48 bytes of index arrays: the sort keys and
      kept rows of the series grouping;
    - one block's work (the read buffer, newline mask, gathered lines and
      parsed fields) in the framing pass, and the check of the lines
      framed since the last one, at most _BLOCK_BYTES // 64 and a block's
      (27 bytes a line of framing columns: the 11-byte raw id, a 1-byte
      element code, the 6 header bytes, the first value group that does
      not parse and an 8-byte line number; and about 50 a line of work),
      or one batch's (a block's worth of rows read back from the spill and
      one series more, their values, slot index and masks) in the values
      pass, under 8 blocks of _BLOCK_BYTES and 48 bytes per slot of the
      longest series; a line too long for the buffer is read through in
      it, not held;
    - 1 MiB for Python objects: the frames, issues, pairs and lists.
    A reader that keeps each line's int32 value fields (124 bytes per daily
    line) in memory until the series are saved needs more than that, and
    so does one that holds a line longer than the buffer: the budget does
    not grow with such a line.
    """

    def test_peak(self, tmp_path, monkeypatch):
        self._check_peak(tmp_path, monkeypatch, month_by_month=False)

    def test_peak_month_by_month(self, tmp_path, monkeypatch):
        # the GHCN-Daily order: a station's lines month by month, its elements interleaved
        self._check_peak(tmp_path, monkeypatch, month_by_month=True)

    @pytest.mark.parametrize("damage", ["CR line breaks", "one 3 MiB line"])
    def test_overlong_line_is_read_through(self, tmp_path, monkeypatch, damage):
        # a daily file whose lines all end in CR alone is one line as long
        # as the file; either way ingest writes what a buffer holding the
        # whole line gives: the same issues and parsed files.  Blocks of
        # 256 KiB, as in _check_peak, whatever the default
        monkeypatch.setattr(ghcn, "_BLOCK_BYTES", 1 << 18)
        world = synth_generate(3, SynthParams(n_pairs=1, uc_stations=5, nonuc_stations=5))
        longest = max(s.values.size for s in world.daily + world.monthly)
        write_world(world, tmp_path)
        del world
        daily = tmp_path / "ghcnd.dly"
        blob = daily.read_bytes()
        if damage == "CR line breaks":
            blob, line, length = blob.replace(b"\n", b"\r"), 1, len(blob) - 1
        else:
            at = blob.index(b"\n", len(blob) // 2) + 1
            line, length = blob.count(b"\n", 0, at) + 1, 3 << 20
            blob = blob[:at] + b"x" * length + b"\r\n" + blob[at:]
        daily.write_bytes(blob)
        del blob
        assert daily.stat().st_size > 12 * ghcn._BLOCK_BYTES
        whole = tmp_path / "whole"
        whole.mkdir()
        for path in tmp_path.iterdir():
            if path.is_file():
                shutil.copy(path, whole)
        with monkeypatch.context() as patch:
            patch.setattr(ghcn, "_BLOCK_BYTES", 16 << 20)
            pipeline.stage_ingest(whole, load_config({}))
        peak, budget = self._peak(tmp_path, longest)
        assert peak < budget, (peak, budget)
        for name in (pipeline.F_PARSE_ISSUES, pipeline.F_PARSED_DAILY, pipeline.F_PARSED_MONTHLY):
            assert (tmp_path / name).read_bytes() == (whole / name).read_bytes(), name
        issues = list(read_csv(tmp_path / pipeline.F_PARSE_ISSUES))
        assert issues[1] == ["daily", str(line), f"expected 269-char line, got {length}"]

    @classmethod
    def _check_peak(cls, tmp_path, monkeypatch, month_by_month):
        # 57,600 daily lines; blocks of 256 KiB, about 60 of them, so the
        # per-line terms outweigh the block term
        monkeypatch.setattr(ghcn, "_BLOCK_BYTES", 1 << 18)
        world = synth_generate(3, SynthParams(n_pairs=1, uc_stations=20, nonuc_stations=20))
        longest = max(s.values.size for s in world.daily + world.monthly)
        write_world(world, tmp_path)
        del world
        if month_by_month:
            daily = tmp_path / "ghcnd.dly"
            lines = daily.read_bytes().splitlines(keepends=True)
            lines.sort(key=lambda line: (line[:11], line[11:17], line[17:21]))
            daily.write_bytes(b"".join(lines))
            del lines
        assert (tmp_path / "ghcnd.dly").stat().st_size > 10 * ghcn._BLOCK_BYTES
        peak, budget = cls._peak(tmp_path, longest)
        assert json.loads((tmp_path / pipeline.F_INGEST_SUMMARY).read_text())["n_daily_series"] == 80
        assert peak < budget, (peak, budget)

    @staticmethod
    def _peak(out, longest):
        """The tracemalloc peak of stage_ingest over out, and its budget."""
        budget = 8 * ghcn._BLOCK_BYTES + 48 * longest + 2**20
        for name in ("ghcnd.dly", "ghcnm.dat"):
            lines = (out / name).read_bytes().count(b"\n")
            budget += lines * (11 + 4 + 8 + 1 + 8 + 48)
        tracemalloc.start()
        try:
            pipeline.stage_ingest(out, load_config({}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, budget


class TestDailyStageMemory:
    """qc, impute and indices read parsed_daily.npz one series at a time and
    never hold every daily value at once.

    The budget follows the design, whatever the world's size:
    - 8 copies of the longest daily series: the read buffer and its array,
      the masks and work of one filter, fill or index pass, and a station's
      two elements in indices;
    - the monthly values, which every stage holds whole, and two grids more
      of them in impute and indices (the completed series and imputation's
      work);
    - 4 KiB per series for Python objects: frames, qc rows and fills;
    - 512 KiB for the rest.
    A stage that holds the daily file's values (8 bytes per daily slot, 14
    MB here) needs more than that.
    """

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("daily_memory")
        world = synth_generate(3, SynthParams(n_pairs=1, uc_stations=20, nonuc_stations=20))
        sizes = {
            "longest_daily": max(s.values.size for s in world.daily),
            "monthly": sum(s.values.size for s in world.monthly),
            "daily": sum(s.values.size for s in world.daily),
            "series": len(world.daily) + len(world.monthly),
        }
        write_world(world, out)
        del world
        cfg = load_config({})
        pipeline.run_stages(out, cfg, ["ingest", "qc", "impute", "indices"])
        # the world holds what the budget is about: every daily series kept
        rows = _read_csv_rows(out / pipeline.F_QC_DAILY)
        assert len(rows) == 80 and all(r["verdict"] == "kept" for r in rows)
        return out, cfg, sizes

    @pytest.mark.parametrize("stage, monthly_grids", [("qc", 1), ("impute", 3), ("indices", 3)])
    def test_peak(self, world, stage, monthly_grids):
        out, cfg, sizes = world
        budget = 8 * 8 * sizes["longest_daily"] + monthly_grids * 8 * sizes["monthly"] + 4096 * sizes["series"] + 2**19
        assert budget < 8 * sizes["daily"] / 2
        before = _tree_bytes(out)
        tracemalloc.start()
        try:
            getattr(pipeline, f"stage_{stage}")(out, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _tree_bytes(out) == before
        assert peak < budget, (peak, budget)


class TestAnalysisStageMemory:
    """trends and correlate take the Sen slopes of equal-year series in
    pieces of at most _SEN_ENTRIES pairwise slopes, and report hashes each
    input through one buffer of _HASH_BYTES: no stage holds an array that
    grows with the count of series or a chunk that grows with a file.

    The budget follows the design, whatever the world's size:
    - trends and correlate: one Sen piece, under 4 arrays of _SEN_ENTRIES
      float64 (two column gathers and their differences, or the
      differences, the slopes and their sort), and 4 KiB per annual series
      they read for Python objects: the series, their results, summaries
      and rows;
    - report: the hash buffer, and 32 bytes per byte of the largest table
      it reads (its rows as lists of str, and the text written back);
    - 512 KiB for the rest.
    A stage that takes the median of this world's 96 regional series over
    equal years in one stack (1.4 MB per array), or that hashes in 1 MiB
    chunks, needs more than that.
    """

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("analysis_memory")
        params = SynthParams(n_pairs=6, uc_stations=2, nonuc_stations=2, gap_rate=0.012, gap_mean_len_steps=1.0)
        write_world(synth_generate(3, params), out)
        cfg = load_config({})
        pipeline.run_stages(out, cfg, pipeline.STAGE_ORDER)
        station = load_annual(out / pipeline.F_ANNUAL_STATION, pipeline.ANNUAL_STATION_KEYS)
        regional = load_annual(out / pipeline.F_ANNUAL_REGIONAL, pipeline.ANNUAL_REGIONAL_KEYS)
        # the world holds what the budget is about: more equal-year regional
        # series than one Sen piece holds
        stacks = collections.Counter(s.years.tobytes() for s in regional.values())
        years, rows = stacks.most_common(1)[0]
        n = len(years) // 8
        assert len(regional) == 108 and rows > 4 * stats._SEN_ENTRIES // (n * (n - 1) // 2)
        tables = max((out / name).stat().st_size for _, name, *_ in pipeline._FIGURES)
        sizes = {"trends": len(station) + len(regional), "correlate": len(regional), "largest_table": tables}
        return out, cfg, sizes

    @pytest.mark.parametrize("stage", ["trends", "correlate", "report"])
    def test_peak(self, world, stage):
        out, cfg, sizes = world
        if stage == "report":
            budget = pipeline._HASH_BYTES + 32 * sizes["largest_table"] + 2**19
        else:
            budget = 4 * 8 * stats._SEN_ENTRIES + 4096 * sizes[stage] + 2**19
        before = _tree_bytes(out)
        tracemalloc.start()
        try:
            getattr(pipeline, f"stage_{stage}")(out, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _tree_bytes(out) == before
        assert peak < budget, (peak, budget)


class TestMonthlyQcMemory:
    """stage_qc reads parsed_monthly.npz one series at a time as well.

    The budget follows the design, whatever the world's size: 8 copies of
    the longest series (its read buffer, array and one filter pass's
    masks), 4 KiB per series for Python objects (frames and qc rows), and
    512 KiB for the rest.  A stage that holds every monthly value (8 bytes
    per monthly slot, 3.5 MB here) needs more than that.
    """

    def test_peak(self, tmp_path):
        world = synth_generate(3, SynthParams(n_pairs=1, uc_stations=100, nonuc_stations=100, daily=False))
        longest = max(s.values.size for s in world.monthly)
        budget = 8 * 8 * longest + 4096 * len(world.monthly) + 2**19
        assert budget < 8 * sum(s.values.size for s in world.monthly)
        write_world(world, tmp_path)
        del world
        cfg = load_config({})
        pipeline.stage_ingest(tmp_path, cfg)
        tracemalloc.start()
        try:
            pipeline.stage_qc(tmp_path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(_read_csv_rows(tmp_path / pipeline.F_QC_MONTHLY)) == 600
        assert peak < budget, (peak, budget)
