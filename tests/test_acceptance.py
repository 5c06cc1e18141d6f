"""Release gate: eight numbered checks covering constants, oracles,
statistical power, determinism, parser fidelity, and throughput.

Each check emits a single PASS/FAIL line and then asserts.  The lines are
collected as the tests run and flushed past pytest's capture once the
session ends, so they show up in plain ``pytest -v`` output.  Tolerances
are pinned in place; expected values were computed by hand or by an
independent brute-force route before the implementations existed.
"""

import calendar
import contextlib
import datetime as dt
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from megaheat import cli, indices, pipeline, qc, stats
from megaheat.ghcn import (
    parse_ghcnd,
    parse_ghcnm,
    parse_stations,
    serialize_ghcnd,
    serialize_ghcnm,
    serialize_stations,
)
from megaheat.interpolate import (
    GwrConfig,
    Variogram,
    gwr_fit_predict,
    impute_monthly,
    lwma_fill,
    ordinary_krige,
)
from megaheat.series import AnnualSeries, DailySeries, MonthlySeries, StationMeta


VERDICTS: list[str] = []


def _line(num, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    VERDICTS.append(f"[acceptance {num}] {state} {label}{extra}")


@pytest.fixture(scope="session", autouse=True)
def _flush_verdicts(request):
    yield
    capman = request.config.pluginmanager.getplugin("capturemanager")
    ctx = capman.global_and_fixture_disabled() if capman else contextlib.nullcontext()
    with ctx:
        print()
        for line in VERDICTS:
            print(line)


def criterion(num, label):
    """Always emit the verdict line, even when the body raises."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                _line(num, label, False, "raised")
                raise
            _line(num, label, True, detail or "")

        return run

    return wrap


# -- 1 ----------------------------------------------------------------------


def _monthly_with_gap(gap_months):
    vals = np.full(720, 20.0)
    vals[300 : 300 + gap_months] = np.nan
    return MonthlySeries("GAPPY000001", "TAVG", 1956, 1, vals)


def _daily_with_gap(gap_days):
    start = dt.date(1956, 1, 1)
    n = (dt.date(2015, 12, 31) - start).days + 1
    vals = np.full(n, 15.0)
    lo = (dt.date(1980, 1, 5) - start).days
    vals[lo : lo + gap_days] = np.nan
    return DailySeries("GAPPY000001", "TMIN", start, vals)


@criterion(1, "fixed thresholds in defaults, boundary gaps kept")
def test_1_constants_and_qc_boundaries():
    cfg = pipeline.load_config({})
    assert indices.CDD_BASE_C == 23.89
    assert stats.ALPHA == 0.05 and cfg.alpha == 0.05
    assert qc.STUDY_WINDOW == (1956, 2015) and cfg.window == (1956, 2015)
    assert cfg.qc.monthly_max_missing_frac == 0.10
    assert cfg.qc.monthly_max_gap_months == 12
    assert cfg.qc.daily_jja_max_missing_frac == 0.20
    assert cfg.qc.daily_max_gap_days == 30
    assert cfg.qc.daily_min_span_months == 719

    gap_12, gap_13 = _monthly_with_gap(12), _monthly_with_gap(13)
    kept, _ = qc.filter_monthly_stations([gap_12], [gap_12.values])
    assert len(kept) == 1, "12-month gap must survive the monthly gap rule"
    _, reports = qc.filter_monthly_stations([gap_13], [gap_13.values])
    assert reports[0].verdict == "dropped" and reports[0].reason == "gap_months"

    # missing fraction sitting exactly on the 10% threshold stays in
    frac_vals = np.full(720, 20.0)
    frac_vals[np.arange(72) * 10] = np.nan
    kept, _ = qc.filter_monthly_stations([MonthlySeries("FRAC0000001", "TAVG", 1956, 1, frac_vals)], [frac_vals])
    assert len(kept) == 1

    gap_30, gap_31 = _daily_with_gap(30), _daily_with_gap(31)
    kept, _ = qc.filter_daily_stations([gap_30], [gap_30.values])
    assert len(kept) == 1, "30-day gap must survive the daily gap rule"
    _, reports = qc.filter_daily_stations([gap_31], [gap_31.values])
    assert reports[0].verdict == "dropped" and reports[0].reason == "gap_days"


# -- 2 ----------------------------------------------------------------------


@criterion(2, "statistical hand oracles")
def test_2_stat_oracles():
    t0 = time.perf_counter()
    mk = stats.mann_kendall(
        AnnualSeries("S1", "x", np.arange(1990, 1994), np.array([1.0, 2.0, 2.0, 3.0]))
    )
    assert abs(mk.s - 5.0) <= 1e-12
    assert abs(mk.var_s - 138.0 / 18.0) <= 1e-12  # tie-corrected 7.666...

    adj = stats.by_fdr_adjust([0.01, 0.02, 0.04, 0.2])
    np.testing.assert_allclose(adj, [0.0833, 0.0833, 0.1111, 0.4167], atol=1e-4)

    _, p = stats.wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
    assert abs(p - 0.1) <= 1e-12  # exact: 2 of 20 arrangements

    r = stats.spearman([1, 2, 3, 4], [2, 1, 4, 3])
    assert abs(r.rho - 0.6) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"{elapsed * 1000:.0f}ms"


# -- 3 ----------------------------------------------------------------------


def _stations(n, rng):
    return [
        StationMeta(
            station_id=f"ST{i:09d}",
            lat=float(rng.uniform(35, 40)),
            lon=float(rng.uniform(-100, -95)),
            elev=float(rng.uniform(0, 2000)),
        )
        for i in range(n)
    ]


@criterion(3, "interpolation oracles: kriging, GWR vs OLS, moving average, affine field")
def test_3_interpolation_oracles():
    rng = np.random.default_rng(6)
    lat, lon = rng.uniform(30, 40, 9), rng.uniform(-105, -95, 9)
    resid = rng.normal(0, 1, 9)
    est, fallback = ordinary_krige(lat, lon, resid, Variogram(0.0, 2.0, 200.0), lat, lon)
    assert not fallback
    assert np.max(np.abs(est - resid)) <= 1e-9

    rng = np.random.default_rng(3)
    n = 40
    lat, lon = rng.uniform(30, 45, n), rng.uniform(-110, -80, n)
    elev = rng.uniform(0, 3000, n)
    vals = 25.0 - 0.0065 * elev + rng.normal(0, 0.5, n)
    train = np.column_stack([lat, lon, elev, vals])
    tgt_elev = rng.uniform(0, 3000, 7)
    targets = np.column_stack([rng.uniform(30, 45, 7), rng.uniform(-110, -80, 7), tgt_elev])
    pred, _ = gwr_fit_predict(train, targets, GwrConfig(neighbors=n))
    b1, b0 = np.polyfit(elev, vals, 1)
    ols = b0 + b1 * tgt_elev
    assert np.max(np.abs(pred - ols) / np.abs(ols)) <= 1e-6

    filled, mask = lwma_fill(
        DailySeries("AVG00000001", "TMIN", dt.date(2000, 1, 1), np.array([10.0, 20.0, np.nan, 30.0, 40.0]))
    )
    assert filled.values[2] == 25.0 and mask.codes[2] == "i"

    rng = np.random.default_rng(10)
    stations = _stations(9, rng)
    truth = {st.station_id: 30.0 - 0.0065 * st.elev for st in stations}
    series = [
        MonthlySeries(st.station_id, "TAVG", 1956, 1, np.full(60, truth[st.station_id]))
        for st in stations
    ]
    for k, s in enumerate(series):
        s.values[(k * 11) % 60] = np.nan
    completed, _, _ = impute_monthly(series, stations, window=(1956, 1960))
    worst = max(np.max(np.abs(c.values[1:] - truth[c.station_id])) for c in completed)
    assert worst <= 1e-9
    return f"affine field max err {worst:.1e}"


# -- 4 ----------------------------------------------------------------------


def _brute_cnm_year(vals):
    best = -np.inf
    for i in range(len(vals) - 2):
        m = ((vals[i] + vals[i + 1]) + vals[i + 2]) / 3.0
        if m > best:
            best = m
    return best


def _brute_p95_year(vals):
    s = np.sort(np.asarray(vals, dtype=float))
    n = s.size
    rank = 0.95 * (n - 1) + 1.0
    whole = int(rank)
    frac = rank - whole
    if whole >= n:
        return float(s[-1])
    if frac == 0.0:
        return float(s[whole - 1])
    return float(s[whole - 1] + frac * (s[whole] - s[whole - 1]))


def _year_slices(series):
    out = {}
    for year in range(series.start.year, series.end.year + 1):
        lo = (dt.date(year, 1, 1) - series.start).days
        hi = (dt.date(year, 12, 31) - series.start).days + 1
        out[year] = series.values[lo:hi]
    return out


@criterion(4, "heat indices vs brute force on 1000 station-years; CDD monotone on 1000 pairs")
def test_4_index_oracles():
    rng = np.random.default_rng(44)
    n_years_checked = 0
    for element, annual_fn, brute in (
        ("TMIN", indices.annual_cnm, _brute_cnm_year),
        ("TMAX", indices.annual_p95, _brute_p95_year),
    ):
        for i in range(50):
            y0 = int(rng.integers(1950, 1990))
            start = dt.date(y0, 1, 1)
            n_days = (dt.date(y0 + 19, 12, 31) - start).days + 1
            vals = np.round(rng.uniform(-10.0, 45.0, n_days), 1)
            series = DailySeries(f"IX{i:09d}", element, start, vals)
            got = annual_fn(series)
            slices = _year_slices(series)
            assert list(got.years) == sorted(slices)
            for year, value in zip(got.years, got.values):
                assert value == brute(slices[year]), (element, i, year)
                n_years_checked += 1
    assert n_years_checked == 2000

    n_monotone = 0
    for i in range(1000):
        n_days = 365
        tmin = np.round(rng.uniform(5.0, 25.0, n_days), 1)
        tmax = tmin + np.round(rng.uniform(1.0, 15.0, n_days), 1)
        bump_n = np.round(rng.uniform(0.0, 3.0, n_days), 1)
        bump_x = np.round(rng.uniform(0.0, 3.0, n_days), 1)
        start = dt.date(1973, 1, 1)
        base = indices.annual_cdd(
            DailySeries("CD000000001", "TMAX", start, tmax),
            DailySeries("CD000000001", "TMIN", start, tmin),
        ).values[0]
        warmer = indices.annual_cdd(
            DailySeries("CD000000001", "TMAX", start, tmax + bump_x),
            DailySeries("CD000000001", "TMIN", start, tmin + bump_n),
        ).values[0]
        assert warmer >= base >= 0.0
        n_monotone += 1
    assert n_monotone == 1000
    return "2000 station-years exact, 1000 pairs monotone"


# -- 5 ----------------------------------------------------------------------


def _station_group(rng, n_stations, n_years, trend_per_yr, sigma, prefix):
    years = np.arange(1956, 1956 + n_years)
    t = years - years[0]
    return [
        AnnualSeries(f"{prefix}{i:02d}", "tavg_jja", years, trend_per_yr * t + rng.normal(0.0, sigma, n_years))
        for i in range(n_stations)
    ]


@criterion(5, "planted-trend power >= 95/100 seeds, null direction rate <= 10%")
def test_5_trend_power_and_null():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        uc = _station_group(rng, 30, 60, 0.05, 0.3, "U")
        nonuc = _station_group(rng, 30, 60, 0.0, 0.3, "N")
        cell = pipeline.trend_comparison_cell("P0", "TAVG", "JJA", uc, nonuc)
        if cell.prop.p < 0.05 and cell.uc.proportion > cell.nonuc.proportion:
            hits += 1

    directional = 0
    for seed in range(100):
        rng = np.random.default_rng(90_000 + seed)
        uc = _station_group(rng, 30, 60, 0.0, 0.3, "U")
        nonuc = _station_group(rng, 30, 60, 0.0, 0.3, "N")
        cell = pipeline.trend_comparison_cell("P0", "TAVG", "JJA", uc, nonuc)
        if cell.direction in ("UC-higher", "nonUC-higher"):
            directional += 1
    elapsed = time.perf_counter() - t0

    assert hits >= 95, f"power {hits}/100"
    assert directional <= 10, f"null directional {directional}/100"
    assert elapsed < 600.0
    return f"power {hits}/100, null {directional}/100, {elapsed:.0f}s"


# -- 6 ----------------------------------------------------------------------


DET_CFG = {
    "window": [1956, 1970],
    "seed": 90125,
    "qc": {"daily_min_span_months": 120, "daily_end_cutoff": "1960-01-01"},
    "synth": {
        "n_pairs": 1,
        "uc_stations": 3,
        "nonuc_stations": 4,
        "end_year": 1970,
        "uc_offset_c": 1.0,
        "noise_sd_c": 0.4,
        "gap_rate": 0.01,
        "gap_mean_len_steps": 2.0,
    },
}


@criterion(6, "report bundle bit-identical across --threads 1 and 4")
def test_6_cli_determinism(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(DET_CFG))
    bundles = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        assert cli.main(["synth", "--out", str(out), "--config", str(cfg_file)]) == 0
        assert cli.main(["all", "--out", str(out), "--config", str(cfg_file), "--threads", str(threads)]) == 0
        report = out / "report"
        bundles[threads] = {p.name: p.read_bytes() for p in sorted(report.iterdir())}
    assert sorted(bundles[1]) == sorted(bundles[4])
    for name in bundles[1]:
        assert bundles[1][name] == bundles[4][name], f"{name} differs between thread counts"
    return f"{len(bundles[1])} bundle files compared"


# -- 7 ----------------------------------------------------------------------


@criterion(7, "fixed-width round trip over 10k+ lines per format, sentinels map to missing")
def test_7_parser_fidelity():
    rng = np.random.default_rng(77)

    monthly = []
    n_nan_monthly = 0
    for i in range(100):
        vals = np.round(rng.uniform(-60.0, 60.0, 1200), 2)
        gaps = rng.random(1200) < 0.1
        vals[gaps] = np.nan
        n_nan_monthly += int(gaps.sum())
        monthly.append(MonthlySeries(f"RT{i:09d}", ["TMIN", "TAVG", "TMAX"][i % 3], 1900 + (i % 40), 1, vals))
    blob = serialize_ghcnm(monthly)
    assert blob.count(b"\n") == 100 * 100
    assert blob.count(b"-9999") == n_nan_monthly
    back, issues = parse_ghcnm(blob)
    assert not issues and len(back) == 100
    for a, b in zip(sorted(monthly, key=lambda s: (s.station_id, s.element)), back):
        assert (a.station_id, a.element, a.first_year, a.first_month) == (
            b.station_id,
            b.element,
            b.first_year,
            b.first_month,
        )
        np.testing.assert_array_equal(a.values, b.values)

    daily = []
    n_lines = n_nan_daily = n_pad = 0
    for i in range(300):
        y0 = int(rng.integers(1940, 2000))
        m0 = int(rng.integers(1, 13))
        n_months = int(rng.integers(34, 38))
        months = [(y0 + (m0 - 1 + k) // 12, (m0 - 1 + k) % 12 + 1) for k in range(n_months)]
        n_days = sum(calendar.monthrange(y, m)[1] for y, m in months)
        vals = np.round(rng.uniform(-60.0, 60.0, n_days), 1)
        gaps = rng.random(n_days) < 0.1
        vals[gaps] = np.nan
        n_nan_daily += int(gaps.sum())
        n_lines += n_months
        n_pad += sum(31 - calendar.monthrange(y, m)[1] for y, m in months)
        daily.append(DailySeries(f"RT{i:09d}", ("TMAX", "TMIN")[i % 2], dt.date(y0, m0, 1), vals))
    assert n_lines >= 10_000
    blob = serialize_ghcnd(daily)
    assert blob.count(b"\n") == n_lines
    assert blob.count(b"-9999") == n_nan_daily + n_pad
    back, issues = parse_ghcnd(blob)
    assert not issues and len(back) == 300
    for a, b in zip(sorted(daily, key=lambda s: (s.station_id, s.element)), back):
        assert (a.station_id, a.element, a.start) == (b.station_id, b.element, b.start)
        np.testing.assert_array_equal(a.values, b.values)

    stations = [
        StationMeta(f"IN{i:09d}", float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)),
                    None if i % 5 == 0 else float(np.round(rng.uniform(-100, 4000), 1)))
        for i in range(200)
    ]
    blob = serialize_stations(stations)
    assert blob.count(b"-999.9") == 40
    back, issues = parse_stations(blob)
    assert not issues and len(back) == 200
    for a, b in zip(stations, back):
        assert a.station_id == b.station_id and a.elev == b.elev
    return f"{100 * 100} monthly + {n_lines} daily lines"


# -- 8 ----------------------------------------------------------------------


PERF_CFG = {
    "synth": {
        "n_pairs": 10,
        "uc_stations": 50,
        "nonuc_stations": 50,
        "end_year": 2015,
        "noise_sd_c": 2.0,
    }
}


# at most this VmHWM for ingest, which reads ghcnd.dly (390 MB) once in
# blocks, spills its value fields to a temporary file in TMPDIR (124 bytes
# per line, 179 MB; not counted in VmHWM) and keeps a 10-byte index row
# of integer codes per line in memory, and for each stage after it on
# the PERF_CFG world, which reads
# parsed_daily.npz (350 MB of values) one series at a time
STAGE_PEAK_MIB = 150

# one stage in a fresh process, which prints its own VmHWM in kB
_STAGE_PEAK = """
import json, sys
from megaheat import pipeline
pipeline.run_stages(sys.argv[1], pipeline.load_config(json.loads(sys.argv[2])), [sys.argv[3]])
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def _stage_peaks_mib(out, stages) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    peaks = {}
    for stage in stages:
        done = subprocess.run(
            [sys.executable, "-c", _STAGE_PEAK, str(out), json.dumps(PERF_CFG), stage],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        peaks[stage] = int(done.stdout.split()[-1]) / 1024
    return peaks


@criterion(8, "ingest+qc+indices over 1000 stations x 60 daily years < 60s")
def test_8_throughput(tmp_path):
    cfg = pipeline.load_config(PERF_CFG)
    out = tmp_path / "big"
    pipeline.stage_synth(out, cfg)
    n_values = sum(s.values.size for s in parse_ghcnd(out / "ghcnd.dly")[0])
    assert n_values > 40_000_000

    t0 = time.perf_counter()
    pipeline.stage_ingest(out, cfg)
    pipeline.stage_qc(out, cfg)
    t_first = time.perf_counter()
    pipeline.stage_impute(out, cfg)  # plumbing between timed stages
    t_impute = time.perf_counter()
    pipeline.stage_indices(out, cfg)
    timed = t_first - t0 + (time.perf_counter() - t_impute)

    daily_rows = (out / pipeline.F_QC_DAILY).read_text().splitlines()[1:]
    assert len(daily_rows) == 2000 and all(",kept," in r for r in daily_rows)
    assert timed < 60.0, f"{timed:.1f}s"
    summary = f"{timed:.1f}s for {n_values / 1e6:.0f}M day-values"
    if not Path("/proc/self/status").exists():
        return summary + "; no /proc, stage peaks not measured"
    peaks = _stage_peaks_mib(out, ("ingest", "qc", "impute", "indices"))
    assert all(peak <= STAGE_PEAK_MIB for peak in peaks.values()), peaks
    return summary + "; VmHWM " + ", ".join(f"{stage} {peak:.0f} MiB" for stage, peak in peaks.items())


if __name__ == "__main__":
    sys.exit("run through pytest")
