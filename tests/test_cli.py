"""Exit codes, flag handling, and an end-to-end run through the console entry."""

import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import megaheat
from megaheat import cli, pipeline
from megaheat.series import load_annual

CFG = {
    "window": [1956, 1966],
    "seed": 11,
    "metrics": ["TAVG", "TMAX"],
    "seasons": ["JJA"],
    "synth": {
        "n_pairs": 1,
        "uc_stations": 3,
        "nonuc_stations": 3,
        "end_year": 1966,
        "daily": False,
        "noise_sd_c": 0.4,
    },
}


RUN_FILES = {
    # inputs
    "ghcnd.dly", "ghcnm.dat", "stations.txt", "regions.json", "covariates.csv",
    # ingest
    "parse_issues.csv", "ingest_summary.json", "pairs.json", "parsed_monthly.npz", "parsed_daily.npz",
    # qc
    "qc_monthly.csv", "qc_daily.csv",
    # impute
    "fills_monthly.npz", "fills_daily.npz", "impute_notes.txt",
    # indices
    "annual_station.npz", "annual_regional.npz",
    # trends, compare, correlate
    "trend_stations.csv", "trends.csv", "trend_notes.txt", "trend_cells.csv", "comparison.csv",
    "correlation_uc.csv", "correlation_diff.csv",
    # report, and the timings beside it
    "report/fig2a.csv", "report/fig2c.csv", "report/fig3a.csv", "report/fig3b.csv",
    "report/fig4a.csv", "report/fig4b.csv", "report/manifest.json", "timings.json",
}


def _cfg_file(tmp_path, extra=None):
    doc = dict(CFG)
    if extra:
        doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestUsageErrors:
    def test_no_stage_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_stage(self, capsys):
        assert cli.main(["frobnicate", "--out", "x"]) == 1

    def test_missing_out_flag(self):
        assert cli.main(["ingest"]) == 1

    def test_threads_must_be_positive(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path), "--threads", "0"]) == 1

    def test_seed_range(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path), "--seed", "-3"]) == 1
        assert cli.main(["synth", "--out", str(tmp_path), "--seed", str(2**64)]) == 1

    def test_config_file_missing(self, tmp_path, capsys):
        rc = cli.main(["synth", "--out", str(tmp_path), "--config", str(tmp_path / "no.json")])
        assert rc == 1
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b'{"seed": 1, "x": "\xff"}', '{"seed": 1}'.encode("utf-16")])
    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert cli.main(["qc", "--out", str(tmp_path), "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("megaheat: error: config is not valid JSON: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_config_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"wndow": [1956, 2015]}')
        assert cli.main(["synth", "--out", str(tmp_path), "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "qc",
        [
            {"monthly_max_missing_frac": -1},
            {"daily_jja_max_missing_frac": 2.5},
            {"daily_max_gap_days": -5},
            {"monthly_max_gap_months": -3},
            {"monthly_max_missing_frac": "abc"},
            {"monthly_max_missing_frac": None},
            {"daily_jja_max_missing_frac": True},
            {"daily_min_span_months": 1.5},
        ],
    )
    def test_bad_qc_value_exits_1(self, tmp_path, capsys, qc):
        out = tmp_path / "run"
        assert cli.main(["synth", "--out", str(out), "--config", _cfg_file(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["all", "--out", str(out), "--config", _cfg_file(tmp_path, {"qc": qc})]) == 1
        err = capsys.readouterr().err
        assert f"qc: {next(iter(qc))}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"gwr": {"neighbors": "abc"}}, "gwr: neighbors"),
            ({"gwr": {"min_train": None}}, "gwr: min_train"),
            ({"gwr": {"neighbors": 3.5}}, "gwr: neighbors"),
            ({"synth": {"n_pairs": "x"}}, "synth: n_pairs"),
            ({"synth": {"noise_sd_c": None}}, "synth: noise_sd_c"),
            ({"synth": {"daily": 1}}, "synth: daily"),
            ({"seed": True}, "seed"),
            ({"gwr": 5}, "gwr must be a JSON object"),
            ({"qc": "x"}, "qc must be a JSON object"),
            ({"synth": []}, "synth must be a JSON object"),
            ({"seed": 2**64}, "seed"),
            ({"window": [True, 1970]}, "window"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_1(self, tmp_path, capsys, doc, where):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["synth", "--out", str(tmp_path / "run"), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"megaheat: error: {where}" in err and "Traceback" not in err

    @pytest.mark.parametrize("window", [[0, 5], [9998, 10001]])
    def test_window_outside_the_calendar_exits_1(self, tmp_path, capsys, window):
        cfg = _cfg_file(tmp_path, {"window": window})
        assert cli.main(["synth", "--out", str(tmp_path / "run"), "--config", cfg]) == 1
        assert "window must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "synth, unit",
        [({"noise_sd_c": 5000.0}, 100), ({"uc_offset_c": 1e9}, 100), ({"daily": True, "uc_offset_c": -2000.0}, 10)],
    )
    def test_world_past_the_record_fields_exits_1(self, tmp_path, capsys, synth, unit):
        # no ghcnm.dat: it failed to render and was removed, or was never reached
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], **synth)})
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"megaheat: error: synth: value out of range for 5-char field: -9999..99999 in 1/{unit} degree C; "
            "lower noise_sd_c, uc_offset_c or the trends\n"
        )
        assert not (out / "ghcnm.dat").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert "megaheat" in capsys.readouterr().out


class TestDataErrors:
    def test_ingest_without_inputs(self, tmp_path, capsys):
        assert cli.main(["ingest", "--out", str(tmp_path)]) == 2
        assert "megaheat: error" in capsys.readouterr().err

    def test_trends_before_indices(self, tmp_path):
        assert cli.main(["trends", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("records", ["ghcnd.dly", "ghcnm.dat"])
    def test_records_for_station_missing_from_inventory(self, tmp_path, capsys, records):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], daily=True)})
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        path = out / records
        text = path.read_text()
        # one more copy of the first record, under an 11-character id that
        # stations.txt does not list
        path.write_text(text + "ZZZ00000001" + text.splitlines(keepends=True)[0][11:])
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "megaheat: error" in err and "ZZZ00000001" in err


    def test_truncated_intermediate_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], daily=True)})
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        for stage in ("ingest", "qc", "impute", "indices"):
            assert cli.main([stage, "--out", str(out), "--config", cfg]) == 0
        for name, stage, producer in (
            (pipeline.F_ANNUAL_STATION, "trends", "indices"),
            (pipeline.F_PARSED_DAILY, "impute", "ingest"),
        ):
            path = out / name
            path.write_bytes(path.read_bytes()[:-100])
            capsys.readouterr()
            assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "megaheat: error" in err and name in err
            assert f"rerun the {producer} stage" in err and "Traceback" not in err

    def test_qc_verdicts_from_an_earlier_ingest_exit_2(self, tmp_path, capsys):
        # ingest rerun on records that lost a station: the verdicts qc wrote
        # before no longer line up with parsed_daily.npz
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], daily=True)})
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["ingest", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["qc", "--out", str(out), "--config", cfg]) == 0
        daily = out / "ghcnd.dly"
        first = daily.read_text()[:11]
        daily.write_text("".join(ln for ln in daily.read_text().splitlines(True) if not ln.startswith(first)))
        assert cli.main(["ingest", "--out", str(out), "--config", cfg]) == 0
        capsys.readouterr()
        assert cli.main(["impute", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.F_QC_DAILY} does not match {pipeline.F_PARSED_DAILY}; rerun the qc stage" in err
        assert "Traceback" not in err

    def test_inventory_that_lost_a_kept_station_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        for stage in ("ingest", "qc"):
            assert cli.main([stage, "--out", str(out), "--config", cfg]) == 0
        inventory = out / "stations.txt"
        first, *rest = inventory.read_text().splitlines(keepends=True)
        inventory.write_text("".join(rest))
        capsys.readouterr()
        assert cli.main(["impute", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: stations.txt no longer lists kept stations {first[:11].strip()!r}")
        assert err.endswith("; rerun the ingest stage\n") and "Traceback" not in err

    @pytest.mark.parametrize("rerun", ["ingest-on-edited-records", "qc-with-other-thresholds"])
    def test_fills_left_stale_by_an_upstream_rerun_exit_2(self, tmp_path, capsys, rerun):
        out = tmp_path / "run"
        daily = {"synth": dict(CFG["synth"], daily=True, gap_rate=0.01), "qc": {"daily_min_span_months": 120}}
        cfg = _cfg_file(tmp_path, daily)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        for stage in ("ingest", "qc", "impute"):
            assert cli.main([stage, "--out", str(out), "--config", cfg]) == 0
        if rerun == "ingest-on-edited-records":
            # the first value of the first monthly record now reads 12.34 C
            path = out / "ghcnm.dat"
            text = path.read_text()
            path.write_text(text[:19] + " 1234" + text[24:])
            assert cli.main(["ingest", "--out", str(out), "--config", cfg]) == 0
            name = pipeline.F_FILLS_MONTHLY
        else:
            # the config file now drops every series with a missing summer day
            cfg = _cfg_file(tmp_path, dict(daily, qc=dict(daily["qc"], daily_jja_max_missing_frac=0.0)))
            assert cli.main(["qc", "--out", str(out), "--config", cfg]) == 0
            name = pipeline.F_FILLS_DAILY
        capsys.readouterr()
        assert cli.main(["indices", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: {name} was saved from another") and err.count("\n") == 1
        assert err.endswith("; rerun the impute stage\n") and "Traceback" not in err

    def test_station_id_ending_in_nul_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        long_id = (out / "stations.txt").read_bytes()[:11]
        for name in ("stations.txt", "ghcnm.dat"):
            path = out / name
            path.write_bytes(path.read_bytes().replace(long_id, b"NUL\x00       "))
        capsys.readouterr()
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "megaheat: error: ids ending in a NUL character are not supported: 'NUL\\x00'" in err
        assert not (out / pipeline.F_PARSED_MONTHLY).exists()

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '{"features": "x"}',
            '{"features": [1]}',
            '{"features": [{"properties": null, "geometry": null}]}',
            '{"features": [{"properties": {"name": "A", "kind": "uc"}, "geometry": []}]}',
            '{"features": [{"properties": {"name": "A", "kind": "uc"},'
            ' "geometry": {"type": "MultiPolygon", "coordinates": [7]}}]}',
            '{"features": [{"properties": {"name": "A", "kind": "uc"},'
            ' "geometry": {"type": "Polygon", "coordinates": [[{}]]}}]}',
        ],
    )
    def test_malformed_regions_exit_2(self, tmp_path, capsys, doc):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        (out / "regions.json").write_text(doc)
        capsys.readouterr()
        assert cli.main(["ingest", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "megaheat: error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, stage, code, named",
        [
            ("run.json", "ingest", 1, "config is not valid JSON: "),
            ("regions.json", "ingest", 2, "cannot read input file "),
            (pipeline.F_PAIRS, "trends", 2, f"cannot read {pipeline.F_PAIRS}: "),
        ],
        ids=["config", "regions", "pairs"],
    )
    def test_deeply_nested_json_exits_with_one_error_line(self, tmp_path, capsys, name, stage, code, named):
        # json raises RecursionError, not ValueError, on nesting this deep
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        if name == pipeline.F_PAIRS:
            assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
        (tmp_path / name if name == "run.json" else out / name).write_text("[" * 100_000 + "]" * 100_000)
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: {named}") and err.count("\n") == 1
        assert "recursion" in err and "Traceback" not in err
        if name == pipeline.F_PAIRS:
            assert err.endswith("; rerun the ingest stage\n")

    @pytest.mark.parametrize("name", [["UC00"], 7])
    def test_region_name_that_is_not_a_string_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        path = out / "regions.json"
        doc = json.loads(path.read_text())
        doc["features"][-1]["properties"]["name"] = name
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["ingest", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        feature = len(doc["features"]) - 1
        assert err == (
            f"megaheat: error: cannot read input file {path}: "
            f"regions document: feature {feature}: name must be a non-empty string, not {name!r}\n"
        )

    def test_window_without_observations_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path, {"window": [1000, 1001], "synth": dict(CFG["synth"], daily=True)})
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        capsys.readouterr()
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "megaheat: error: window 1000-1001 holds no observed value" in err
        assert not (out / pipeline.F_QC_MONTHLY).exists()

    @pytest.mark.parametrize(
        "name, stage, text",
        [
            (pipeline.F_TREND_CELLS, "compare", ""),
            (pipeline.F_TREND_CELLS, "compare", "pair,metric,season\n"),
            (pipeline.F_COMPARISON, "report", ""),
            (pipeline.F_COMPARISON, "report", "pair,metric\nNYC,TAVG\n"),
            (pipeline.F_CORR_UC, "report", ",".join(pipeline.CORRELATION_HEADER) + "\nTAVG,JJA\n"),
        ],
        ids=["trend-cells-empty", "trend-cells-header", "comparison-empty", "comparison-no-season", "short-row"],
    )
    def test_malformed_table_exits_2(self, tmp_path, capsys, name, stage, text):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
        (out / name).write_text(text)
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: {name} is not a ") and err.count("\n") == 1

    def test_non_numeric_proportion_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
        path = out / pipeline.F_TREND_CELLS
        header, *rows = list(csv.reader(io.StringIO(path.read_text())))
        rows[0][header.index("uc_prop")] = "many"
        path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        capsys.readouterr()
        assert cli.main(["compare", "--out", str(out), "--config", cfg]) == 2
        assert "is not a number; rerun the trends stage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("uc_stations", 5), ("nonuc_stations", "SYN"), ("uc_stations", [7]), ("uc_id", 3), ("cr_id", None)],
    )
    def test_pairs_field_of_the_wrong_type_exits_2(self, tmp_path, capsys, field, value):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
        path = out / pipeline.F_PAIRS
        doc = json.loads(path.read_text())
        doc["pairs"][0][field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["trends", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: cannot read {pipeline.F_PAIRS}: not a pairs file")
        assert "Traceback" not in err

    def test_non_finite_annual_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        for stage in ("ingest", "qc", "impute", "indices"):
            assert cli.main([stage, "--out", str(out), "--config", cfg]) == 0
        path = out / pipeline.F_ANNUAL_STATION
        arrays = dict(np.load(path))
        arrays["value"][3] = np.nan
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        assert cli.main(["trends", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {pipeline.F_ANNUAL_STATION}: annual file holds a non-finite value" in err
        assert not (out / pipeline.F_TRENDS).exists()

    def test_qc_before_ingest(self, tmp_path, capsys):
        assert cli.main(["qc", "--out", str(tmp_path)]) == 2
        assert "run the ingest stage first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, stage",
        [
            *((name, "ingest") for name in ("ghcnd.dly", "ghcnm.dat", "stations.txt", "regions.json", "covariates.csv")),
            ("stations.txt", "impute"),
            ("covariates.csv", "correlate"),
            ("regions.json", "report"),
        ],
    )
    def test_unreadable_input_exits_2(self, finished_run, tmp_path, capsys, name, stage):
        # a directory where the stage reads an input file
        done, cfg = finished_run
        out = tmp_path / "run"
        shutil.copytree(done, out)
        (out / name).unlink()
        (out / name).mkdir()
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: cannot read input file {out / name}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["ingest", "correlate"])
    def test_covariates_the_csv_module_refuses(self, finished_run, tmp_path, capsys, stage):
        done, cfg = finished_run
        out = tmp_path / "run"
        shutil.copytree(done, out)
        table = out / "covariates.csv"
        text = table.read_bytes()
        # CR-only line ends are rows like any others
        table.write_bytes(text.replace(b"\n", b"\r"))
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 0
        # a field longer than the csv module's limit
        table.write_bytes(text + b'"' + b"x" * 200_000 + b'"\n')
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"megaheat: error: cannot read input file {table}: field larger than field limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stage", ["ingest", "correlate"])
    def test_bad_covariates_name_the_file(self, finished_run, tmp_path, capsys, stage):
        done, cfg = finished_run
        out = tmp_path / "run"
        shutil.copytree(done, out)
        table = out / "covariates.csv"
        header, first, *rest = table.read_text().split("\n")
        at, fields = header.split(",").index("pct_urban"), first.split(",")
        fields[at] = "150"
        table.write_text("\n".join([header, ",".join(fields), *rest]))
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"megaheat: error: cannot read input file {table}: pct_urban 150.0 out of [0, 100] for {fields[0]!r}\n"

    @pytest.mark.parametrize("name", ["ghcnd.dly", "ghcnm.dat", "stations.txt", "regions.json", "covariates.csv"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, name):
        # a directory where synth writes a file
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        assert cli.main(["synth", "--out", str(out), "--config", _cfg_file(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("megaheat: error: cannot write output file: ") and err.count("\n") == 1
        assert str(out / name) in err and "Traceback" not in err

    @pytest.mark.parametrize("stage", ["ingest", "all"])
    def test_out_is_a_file_exits_2(self, tmp_path, capsys, stage):
        out = tmp_path / "run"
        out.write_text("")
        assert cli.main([stage, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("megaheat: error: cannot write output file: ") and err.count("\n") == 1
        assert str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("stage, name", [("report", "report"), ("ingest", "pairs.json")])
    def test_unwritable_stage_output_exits_2(self, finished_run, tmp_path, capsys, stage, name):
        # a file where report makes its directory, a directory where ingest writes a file
        done, cfg = finished_run
        out = tmp_path / "run"
        shutil.copytree(done, out)
        target = out / name
        if name == "report":
            shutil.rmtree(target)
            target.write_text("")
        else:
            target.unlink()
            target.mkdir()
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("megaheat: error: cannot write output file: ") and err.count("\n") == 1
        assert str(target) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A run directory after `megaheat all`, and its config file."""
    root = tmp_path_factory.mktemp("finished")
    cfg = _cfg_file(root)
    assert cli.main(["synth", "--out", str(root / "run"), "--config", cfg]) == 0
    assert cli.main(["all", "--out", str(root / "run"), "--config", cfg]) == 0
    return root / "run", cfg


@pytest.fixture(scope="module")
def daily_run(tmp_path_factory):
    """A run directory through indices whose daily series qc keeps, and its config file."""
    root = tmp_path_factory.mktemp("daily")
    cfg = _cfg_file(root, {"synth": dict(CFG["synth"], daily=True, gap_rate=0.01), "qc": {"daily_min_span_months": 120}})
    assert cli.main(["synth", "--out", str(root / "run"), "--config", cfg]) == 0
    for stage in ("ingest", "qc", "impute", "indices"):
        assert cli.main([stage, "--out", str(root / "run"), "--config", cfg]) == 0
    assert ",kept," in (root / "run" / pipeline.F_QC_DAILY).read_text()
    return root / "run", cfg


def _flip_a_value_byte(path):
    """Flip the lowest byte of the middle value stored in values.npy, so only
    the entry's CRC-32 tells."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("values.npy")
    blob = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack("<HH", blob[info.header_offset + 26 : info.header_offset + 30])
    npy = info.header_offset + 30 + name_len + extra_len
    # npy 1.0: magic, version, a 2-byte header length, the header, the values
    first_value = npy + 10 + struct.unpack("<H", blob[npy + 8 : npy + 10])[0]
    blob[first_value + 8 * ((info.file_size - (first_value - npy)) // 16)] ^= 1
    path.write_bytes(bytes(blob))


def _cut_to_two_thirds(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size * 2 // 3])


def _one_value_short(path):
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays["values"] = arrays["values"][:-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestBrokenDailyFile:
    """qc, impute and indices read parsed_daily.npz one series at a time; a
    file that turns out broken partway through still exits 2 before the
    stage writes anything."""

    OUTPUTS = {
        "qc": (pipeline.F_QC_MONTHLY, pipeline.F_QC_DAILY),
        "impute": (pipeline.F_FILLS_MONTHLY, pipeline.F_FILLS_DAILY, pipeline.F_IMPUTE_NOTES),
        "indices": (pipeline.F_ANNUAL_STATION, pipeline.F_ANNUAL_REGIONAL),
    }

    @pytest.mark.parametrize("damage", [_flip_a_value_byte, _cut_to_two_thirds, _one_value_short])
    @pytest.mark.parametrize("stage", ["qc", "impute", "indices"])
    def test_exits_2_and_writes_nothing(self, daily_run, tmp_path, capsys, stage, damage):
        run, cfg = daily_run
        out = tmp_path / "run"
        shutil.copytree(run, out)
        damage(out / pipeline.F_PARSED_DAILY)
        for name in self.OUTPUTS[stage]:
            (out / name).unlink()
        capsys.readouterr()
        assert cli.main([stage, "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("megaheat: error: ") and pipeline.F_PARSED_DAILY in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert damage is not _flip_a_value_byte or "Bad CRC-32" in err
        assert not [name for name in self.OUTPUTS[stage] if (out / name).exists()]


# a world with gaps, whose every station passes QC_BASE
QC_WORLD = {"synth": dict(CFG["synth"], daily=True, gap_rate=0.01)}
QC_BASE = {"daily_min_span_months": 120}


@pytest.fixture(scope="module")
def qc_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("qc_world")
    out = root / "run"
    cfg = _cfg_file(root, dict(QC_WORLD, qc=QC_BASE))
    assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
    assert cli.main(["ingest", "--out", str(out), "--config", cfg]) == 0
    return out


def _qc_verdicts(out, qc, tmp_path):
    cfg = _cfg_file(tmp_path, dict(QC_WORLD, qc=qc))
    assert cli.main(["qc", "--out", str(out), "--config", cfg]) == 0
    # (verdict, reason) of each series, per file
    files = (pipeline.F_QC_MONTHLY, pipeline.F_QC_DAILY)
    return {name: [tuple(row[2:4]) for row in _rows(out / name)[1:]] for name in files}


# per config field: the base settings it is read against, a value past the
# world's, and the file and rule whose verdicts that value flips; the length
# rule is a conjunction, so its cutoff moves only under a long minimum span
QC_CASES = {
    "monthly_max_missing_frac": ({}, 0.0, pipeline.F_QC_MONTHLY, "missing_frac"),
    "monthly_max_gap_months": ({}, 0, pipeline.F_QC_MONTHLY, "gap_months"),
    "daily_min_span_months": ({}, 10_000, pipeline.F_QC_DAILY, "short_record"),
    "daily_end_cutoff": (
        {"daily_min_span_months": 10_000, "daily_end_cutoff": "1900-01-01"},
        "2014-01-01",
        pipeline.F_QC_DAILY,
        "short_record",
    ),
    "daily_jja_max_missing_frac": ({}, 0.0, pipeline.F_QC_DAILY, "jja_missing"),
    "daily_max_gap_days": ({}, 0, pipeline.F_QC_DAILY, "gap_days"),
}


class TestQcThresholds:
    @pytest.mark.parametrize("field", QC_CASES)
    def test_config_field_flips_its_rule(self, qc_world, tmp_path, field):
        base, value, name, reason = QC_CASES[field]
        before = _qc_verdicts(qc_world, {**QC_BASE, **base}, tmp_path)
        after = _qc_verdicts(qc_world, {**QC_BASE, **base, field: value}, tmp_path)
        assert set(before[name]) == {("kept", "")}
        assert ("dropped", reason) in after[name]
        assert set(after[name]) <= {("kept", ""), ("dropped", reason)}
        other = next(n for n in before if n != name)
        assert after[other] == before[other]


class TestRuns:
    def test_synth_then_all(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["all", "--out", str(out), "--config", cfg, "--threads", "2"]) == 0

        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(":")[0] for ln in lines[-8:]] == list(pipeline.STAGE_ORDER)

        timings = json.loads((out / cli.F_TIMINGS).read_text())
        assert list(timings) == list(pipeline.STAGE_ORDER)
        assert all(t >= 0 for t in timings.values())

        manifest = json.loads((out / "report" / "manifest.json").read_text())
        assert "timings.json" not in manifest["bundle"]
        assert not (out / "report" / "timings.json").exists()

    def test_single_stage_rerun(self, tmp_path):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
        before = (out / pipeline.F_COMPARISON).read_bytes()
        assert cli.main(["compare", "--out", str(out), "--config", cfg]) == 0
        assert (out / pipeline.F_COMPARISON).read_bytes() == before
        timings = json.loads((out / cli.F_TIMINGS).read_text())
        assert list(timings) == ["compare"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _cfg_file(tmp_path)
        worlds = {}
        for name, seed in (("a", "500"), ("b", "500"), ("c", "501")):
            out = tmp_path / name
            assert cli.main(["synth", "--out", str(out), "--config", cfg, "--seed", seed]) == 0
            worlds[name] = (out / "ghcnm.dat").read_bytes()
        assert worlds["a"] == worlds["b"]
        assert worlds["a"] != worlds["c"]

    def test_short_station_id_matches_inventory(self, tmp_path):
        # ids shorter than the 11-char field arrive space-padded in all three
        # record files; every parser must report them the same way
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], daily=True)})
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        long_id = (out / "stations.txt").read_text()[:11]
        for name in ("stations.txt", "ghcnm.dat", "ghcnd.dly"):
            path = out / name
            path.write_text(path.read_text().replace(long_id, "PAD1       "))
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
        pair = json.loads((out / pipeline.F_PAIRS).read_text())["pairs"][0]
        assert "PAD1" in pair["uc_stations"] + pair["nonuc_stations"]
        station = load_annual(out / pipeline.F_ANNUAL_STATION, pipeline.ANNUAL_STATION_KEYS)
        assert "PAD1" in {sid for sid, _, _ in station}

    def test_run_directory_holds_the_documented_files(self, tmp_path):
        # the Outputs section of the README lists these; no stage leaves a copy
        cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], daily=True)})
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
            assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0
            trees.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert set(trees[0]) == RUN_FILES
        for rel in sorted(RUN_FILES - {cli.F_TIMINGS}):
            assert trees[0][rel] == trees[1][rel], rel

    def test_region_name_with_comma_yields_valid_csv(self, tmp_path):
        out = tmp_path / "run"
        cfg = _cfg_file(tmp_path)
        assert cli.main(["synth", "--out", str(out), "--config", cfg]) == 0
        regions = out / "regions.json"
        regions.write_text(regions.read_text().replace('"UC00"', '"UC,00"'))
        covariates = out / "covariates.csv"
        rows = list(csv.reader(io.StringIO(covariates.read_text())))
        rows[1][0] = "UC,00"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        covariates.write_text(buf.getvalue())
        assert cli.main(["all", "--out", str(out), "--config", cfg]) == 0

        tables = sorted(out.glob("*.csv")) + sorted((out / pipeline.REPORT_DIR).glob("*.csv"))
        assert len(tables) > 10
        for path in tables:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len({len(row) for row in rows}) == 1, path.name

        with open(out / pipeline.F_TRENDS, newline="") as fh:
            trends = list(csv.reader(fh))
        assert trends[0] == ["pair", "metric", "season", "group", "S", "var", "z", "p", "p_adj", "slope"]
        assert {row[0] for row in trends[1:]} == {"UC,00"}
        with open(out / pipeline.REPORT_DIR / "fig2a.csv", newline="") as fh:
            fig2a = list(csv.reader(fh))
        assert fig2a[0] == [
            "pair", "metric", "season", "median_diff", "wilcoxon_p",
            "prop_uc", "prop_nonuc", "prop_p", "direction",
        ]
        assert len(fig2a) == 1 + 2 and all(row[0] == "UC,00" for row in fig2a[1:])


def test_no_scipy_or_numpy_ma_module_is_loaded_by_import_or_a_full_run(tmp_path):
    """The stage processes run on numpy alone: importing the CLI loads no
    scipy module, and neither does a whole run, lazy imports included.
    Nor does either load numpy.ma, which np.median and a plain np.unique
    import on their first call."""
    src = str(Path(megaheat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])"
    code = f"import sys, megaheat.cli; print({loaded})"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"

    # three pairs give defined correlation cells; gaps reach the kriging
    cfg = _cfg_file(tmp_path, {"synth": dict(CFG["synth"], n_pairs=3, gap_rate=0.02, gap_mean_len_steps=1.0)})
    out = str(tmp_path / "run")
    code = (
        "import sys; from megaheat import cli\n"
        f"assert cli.main(['synth', '--out', {out!r}, '--config', {cfg!r}]) == 0\n"
        f"assert cli.main(['all', '--out', {out!r}, '--config', {cfg!r}]) == 0\n"
        f"print({loaded})"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    with open(Path(out) / "correlation_uc.csv", newline="") as fh:
        assert any(row[5] not in ("", "nan") for row in list(csv.reader(fh))[1:])
    with np.load(Path(out) / "fills_monthly.npz") as fills:
        assert fills["value"].size


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A synthetic world and its run under the corridor id UC00."""
    out = tmp_path_factory.mktemp("world")
    cfg = _cfg_file(out)
    assert cli.main(["synth", "--out", str(out / "run"), "--config", cfg]) == 0
    assert cli.main(["all", "--out", str(out / "run"), "--config", cfg]) == 0
    return out / "run", cfg


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(uc_id=st.text(max_size=6))
@example(uc_id="UC\x00")
@example(uc_id="U\x00C")
@example(uc_id='U"C,\n')
@example(uc_id="UC\r")
@example(uc_id="U\rC")
@example(uc_id=" UC")
def test_any_corridor_id_survives_or_exits_2(world, tmp_path_factory, capsys, uc_id):
    src, cfg = world
    out = tmp_path_factory.mktemp("id")
    for name in ("ghcnd.dly", "ghcnm.dat", "stations.txt", "covariates.csv"):
        shutil.copy(src / name, out / name)
    doc = json.loads((src / "regions.json").read_text())
    for feature in doc["features"]:
        if feature["properties"]["kind"] == "uc":
            feature["properties"]["name"] = uc_id
    (out / "regions.json").write_text(json.dumps(doc))
    with open(out / "covariates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][0] = uc_id
    with open(out / "covariates.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    capsys.readouterr()
    rc = cli.main(["all", "--out", str(out), "--config", cfg])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # a feature needs a name, and numpy string arrays drop trailing NULs;
    # every other id, whitespace and line breaks included, matches its
    # covariate row and comes through
    if not uc_id or uc_id.endswith("\x00"):
        assert rc == 2 and "megaheat: error" in err and not (out / pipeline.F_PAIRS).exists()
        return
    assert rc == 0, err
    for path in sorted(out.glob("*.csv")) + sorted((out / pipeline.REPORT_DIR).glob("*.csv")):
        assert len({len(row) for row in _rows(path)}) == 1, path.name
    # the id comes back unchanged, and so does every number beside it
    for name in (pipeline.F_TRENDS, pipeline.F_COMPARISON, pipeline.F_TREND_CELLS):
        header, *reference = _rows(src / name)
        assert header[0] == "pair" and {row[0] for row in reference} == {"UC00"}, name
        assert _rows(out / name) == [header] + [[uc_id] + row[1:] for row in reference], name


RENAMED_STATION = b"SYN00U00000"


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# the fixed-width id field holds 11 ASCII characters, none of them a line break
@given(station_id=st.text(st.characters(max_codepoint=127, exclude_characters="\n\r"), max_size=11))
@example(station_id="ZZZ")
@example(station_id=" A\tB ")
@example(station_id='S"1,2')
@example(station_id="A\x00B")
@example(station_id="A\x00")
@example(station_id="   ")
def test_any_station_id_survives_or_exits_2(world, tmp_path_factory, capsys, station_id):
    src, cfg = world
    out = tmp_path_factory.mktemp("station")
    for name in ("regions.json", "covariates.csv"):
        shutil.copy(src / name, out / name)
    field = station_id.encode("ascii").ljust(11)
    for name in ("ghcnd.dly", "ghcnm.dat", "stations.txt"):
        lines = (src / name).read_bytes().split(b"\n")
        renamed = (field + line[11:] if line.startswith(RENAMED_STATION) else line for line in lines)
        (out / name).write_bytes(b"\n".join(renamed))

    capsys.readouterr()
    rc = cli.main(["all", "--out", str(out), "--config", cfg])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc == 2:
        assert "megaheat: error" in err and not (out / pipeline.F_PAIRS).exists()
        return
    assert rc == 0
    # the parsers strip the field's padding; rows move to the new id's
    # place in sort order, and no number beside the id changes
    reported = station_id.strip()
    for name in [pipeline.F_TRENDS] + sorted(
        p.name for p in (src / pipeline.REPORT_DIR).glob("*.csv")
    ):
        path = name if name == pipeline.F_TRENDS else f"{pipeline.REPORT_DIR}/{name}"
        assert _rows(out / path) == _rows(src / path), name
    header, *reference = _rows(src / pipeline.F_TREND_STATIONS)
    got_header, *got = _rows(out / pipeline.F_TREND_STATIONS)
    col = header.index("station")
    assert got_header == header
    assert reported in {row[col] for row in got}
    restored = [row[:col] + [RENAMED_STATION.decode()] + row[col + 1 :] if row[col] == reported else row for row in got]
    assert sorted(restored) == sorted(reference)


# the exit-code contract under damage: a small gappy world, each input and
# each file a later stage reads damaged in turn, and every stage from the
# file's first reader on run through the CLI
MUTATION_CFG = {
    "window": [1956, 1975],
    "seed": 5,
    "qc": {"daily_min_span_months": 120},
    "synth": {"n_pairs": 2, "uc_stations": 3, "nonuc_stations": 3, "end_year": 1975, "daily": True, "gap_rate": 0.01},
}

# each damaged file and the first stage that reads it
FIRST_READER = {
    "ghcnd.dly": "ingest",
    "ghcnm.dat": "ingest",
    "stations.txt": "ingest",
    "regions.json": "ingest",
    "covariates.csv": "ingest",
    pipeline.F_PAIRS: "indices",
    pipeline.F_PARSED_MONTHLY: "qc",
    pipeline.F_PARSED_DAILY: "qc",
    pipeline.F_QC_MONTHLY: "impute",
    pipeline.F_QC_DAILY: "impute",
    pipeline.F_FILLS_MONTHLY: "indices",
    pipeline.F_FILLS_DAILY: "indices",
    pipeline.F_ANNUAL_STATION: "trends",
    pipeline.F_ANNUAL_REGIONAL: "trends",
    pipeline.F_TREND_CELLS: "compare",
    pipeline.F_COMPARISON: "report",
    pipeline.F_CORR_UC: "report",
    pipeline.F_CORR_DIFF: "report",
}

_EDIT_BYTES = b"0 9-.,\"\n\r\x00\xff"


def _edit_bytes(path, rng, n):
    data = bytearray(path.read_bytes())
    for at in rng.integers(0, len(data), size=n):
        data[at] = _EDIT_BYTES[rng.integers(len(_EDIT_BYTES))]
    path.write_bytes(bytes(data))


def _truncate(path, rng):
    data = path.read_bytes()
    path.write_bytes(data[: rng.integers(0, len(data))])


def _duplicate_a_line(path, rng):
    lines = path.read_bytes().splitlines(keepends=True)
    at = rng.integers(len(lines))
    path.write_bytes(b"".join(lines[: at + 1] + lines[at:]))


def _empty(path, rng):
    path.write_bytes(b"")


def _directory(path, rng):
    path.unlink()
    path.mkdir()


MUTATIONS = {
    "one-byte": lambda path, rng: _edit_bytes(path, rng, 1),
    "three-bytes": lambda path, rng: _edit_bytes(path, rng, 3),
    "truncated": _truncate,
    "duplicated-line": _duplicate_a_line,
    "empty": _empty,
    "directory": _directory,
}


def _csv_files(out):
    return {path: path.read_bytes() for path in out.rglob("*.csv") if path.is_file()}


@pytest.fixture(scope="module")
def mutation_run(tmp_path_factory):
    """A finished run directory of the MUTATION_CFG world, and its config file."""
    root = tmp_path_factory.mktemp("mutation")
    cfg = _cfg_file(root, MUTATION_CFG)
    assert cli.main(["synth", "--out", str(root / "run"), "--config", cfg]) == 0
    assert cli.main(["all", "--out", str(root / "run"), "--config", cfg]) == 0
    assert ",kept," in (root / "run" / pipeline.F_QC_DAILY).read_text()
    return root / "run", cfg


@pytest.mark.parametrize("name", FIRST_READER)
def test_damaged_file_exits_0_1_or_2_and_writes_valid_csv(mutation_run, tmp_path, capsys, name):
    run, cfg = mutation_run
    stages = pipeline.STAGE_ORDER[pipeline.STAGE_ORDER.index(FIRST_READER[name]) :]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for mutation, damage in MUTATIONS.items():
        out = tmp_path / mutation
        shutil.copytree(run, out)
        damage(out / name, rng)
        for stage in stages:
            before = _csv_files(out)
            capsys.readouterr()
            code = cli.main([stage, "--out", str(out), "--config", cfg])
            err = capsys.readouterr().err
            case = f"{name} {mutation}, {stage}"
            assert code in (0, 1, 2), case
            assert "Traceback" not in err, case
            for path, text in _csv_files(out).items():
                if before.get(path) != text:
                    rows = _rows(path)
                    assert len({len(row) for row in rows}) == 1, (case, path.name)
            if code:
                break
