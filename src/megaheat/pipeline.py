"""End-to-end orchestration.

Stages communicate only through files inside one output directory, so
any stage can be re-run from persisted intermediates.  Relative input
paths in the config resolve against that directory, which lets a
generated world feed the analysis stages without extra wiring.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import hashlib
import itertools
import json
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__, indices, stats
from .ghcn import parse_stations, read_ghcnd, read_ghcnm
from .interpolate import GwrConfig, impute_monthly, lwma_fill
from .qc import STUDY_WINDOW, QcParams, filter_daily_stations, filter_monthly_stations
from .regions import (
    COVARIATE_COLUMNS,
    RegionPair,
    load_explanatory_vars,
    load_regions,
    pair_uc_nonuc,
)
from .series import (
    IMPUTED,
    AnnualSeries,
    DailySeries,
    MonthlySeries,
    json_text,
    load_annual,
    load_fills,
    npz_stamp,
    read_csv,
    read_series,
    read_text,
    save_annual,
    save_fills,
    save_series,
    write_csv,
    write_text,
)
from .synth import INPUT_FILES, SynthParams, synth_generate, write_world


class ConfigError(Exception):
    """The configuration is malformed; a usage problem, not a data one."""


class DataError(Exception):
    """Inputs or intermediates are missing or unusable."""


SEASONAL_METRICS = ("TMIN", "TAVG", "TMAX")
ALL_METRICS = ("TMIN", "TAVG", "TMAX", "CDD", "CNM", "P95")
ALL_SEASONS = ("DJF", "JJA")

# stage outputs, all relative to the run directory
F_PARSE_ISSUES = "parse_issues.csv"
F_INGEST_SUMMARY = "ingest_summary.json"
F_PAIRS = "pairs.json"
F_PARSED_MONTHLY = "parsed_monthly.npz"
F_PARSED_DAILY = "parsed_daily.npz"
F_QC_MONTHLY = "qc_monthly.csv"
F_QC_DAILY = "qc_daily.csv"
F_FILLS_MONTHLY = "fills_monthly.npz"
F_FILLS_DAILY = "fills_daily.npz"
F_IMPUTE_NOTES = "impute_notes.txt"
F_ANNUAL_STATION = "annual_station.npz"
F_ANNUAL_REGIONAL = "annual_regional.npz"
F_TREND_STATIONS = "trend_stations.csv"
F_TRENDS = "trends.csv"
F_TREND_NOTES = "trend_notes.txt"
F_TREND_CELLS = "trend_cells.csv"
F_COMPARISON = "comparison.csv"
F_CORR_UC = "correlation_uc.csv"
F_CORR_DIFF = "correlation_diff.csv"
REPORT_DIR = "report"
F_MANIFEST = "manifest.json"

QC_HEADER = ("station", "element", "verdict", "reason", "missing_frac", "longest_gap")
ANNUAL_STATION_KEYS = ("station", "metric", "season")
ANNUAL_REGIONAL_KEYS = ("pair", "group", "metric", "season")

MIN_ANNUAL_VALUES = 5


@dataclasses.dataclass(frozen=True)
class RunConfig:
    paths: dict
    window: tuple
    seasons: tuple
    metrics: tuple
    alpha: float
    qc: QcParams
    gwr: GwrConfig
    seed: int
    synth: SynthParams

    def __post_init__(self):
        # checked here so that a seed from the config and one that replaces
        # it (the CLI's --seed) meet the same rule
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a non-negative integer below 2**64, got {self.seed!r}")


def _check_keys(block: dict, allowed, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _string_choices(raw, allowed, what: str) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{what}s must be a non-empty list")
    out = []
    for item in raw:
        if item not in allowed:
            raise ConfigError(f"unknown {what} {item!r}; choose from {list(allowed)}")
        if item in out:
            raise ConfigError(f"duplicate {what} {item!r}")
        out.append(item)
    return tuple(out)


def load_config(source) -> RunConfig:
    """Build a RunConfig from a dict, or a path to a JSON file holding one.

    Every field has a default; unknown keys anywhere are rejected.
    """
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(read_text(source))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # JSON text is UTF-8, so an undecodable file is no JSON either;
            # json raises RecursionError on nesting deeper than the stack
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise ConfigError("config must be a JSON object")

    _check_keys(
        source,
        ("paths", "window", "seasons", "metrics", "alpha", "qc", "gwr", "seed", "synth"),
        "config",
    )

    paths = dict(INPUT_FILES)
    raw_paths = source.get("paths", {})
    _check_keys(raw_paths, INPUT_FILES, "paths")
    for key, value in raw_paths.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"paths.{key} must be a non-empty string")
        paths[key] = value

    window = source.get("window", list(STUDY_WINDOW))
    if (
        not isinstance(window, (list, tuple))
        or len(window) != 2
        or not all(isinstance(y, int) and not isinstance(y, bool) for y in window)
        or not dt.MINYEAR <= window[0] < window[1] <= dt.MAXYEAR
    ):
        raise ConfigError(
            f"window must be [start_year, end_year] with {dt.MINYEAR} <= start < end <= {dt.MAXYEAR}, got {window!r}"
        )

    seasons = _string_choices(source.get("seasons", list(ALL_SEASONS)), ALL_SEASONS, "season")
    metrics = _string_choices(source.get("metrics", list(ALL_METRICS)), ALL_METRICS, "metric")

    alpha = source.get("alpha", stats.ALPHA)
    if not isinstance(alpha, (int, float)) or not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")

    blocks = {}
    for name, kind in (("qc", QcParams), ("gwr", GwrConfig), ("synth", SynthParams)):
        block = source.get(name, {})
        _check_keys(block, [f.name for f in dataclasses.fields(kind)], name)
        if name == "qc" and "daily_end_cutoff" in block:
            try:
                block = {**block, "daily_end_cutoff": dt.date.fromisoformat(block["daily_end_cutoff"])}
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"qc.daily_end_cutoff: {exc}") from exc
        try:
            blocks[name] = kind(**block)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    return RunConfig(
        paths=paths,
        window=(window[0], window[1]),
        seasons=seasons,
        metrics=metrics,
        alpha=float(alpha),
        seed=source.get("seed", 0),
        **blocks,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """cfg as the JSON object load_config reads back, tuples standing for arrays."""
    doc = dataclasses.asdict(cfg)
    doc["qc"]["daily_end_cutoff"] = cfg.qc.daily_end_cutoff.isoformat()
    return doc


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# comparison cells


@dataclasses.dataclass(frozen=True)
class MedianCell:
    pair: str
    metric: str
    season: str
    median_uc: float
    median_nonuc: float
    wilcoxon_p: float
    direction: str
    note: str


def median_comparison_cell(pair, metric, season, uc, nonuc, alpha=stats.ALPHA) -> MedianCell:
    """Compare 60-year medians of the two regional series for one cell."""

    def finite(series):
        if series is None:
            return np.empty(0)
        v = np.asarray(series.values, dtype=float)
        return v[np.isfinite(v)]

    u, n = finite(uc), finite(nonuc)
    if u.size < MIN_ANNUAL_VALUES or n.size < MIN_ANNUAL_VALUES:
        return MedianCell(
            pair, metric, season, np.nan, np.nan, np.nan, "insufficient-data", "insufficient-data"
        )
    med_u, med_n = float(stats.median(u)), float(stats.median(n))
    _, p = stats.wilcoxon_ranksum(u, n)
    direction = stats.comparison_direction(med_u - med_n, p, alpha)
    return MedianCell(pair, metric, season, med_u, med_n, p, direction, "")


@dataclasses.dataclass(frozen=True)
class TrendCell:
    pair: str
    metric: str
    season: str
    uc: stats.GroupTrendSummary | None
    nonuc: stats.GroupTrendSummary | None
    prop: stats.PropTestResult | None
    direction: str
    note: str
    station_rows: tuple  # (group, station_id, TrendResult)
    regional: tuple  # (group, RegionalTrendResult) for each group with stations


def _group_trend(group_id, series_list, alpha):
    """(field-significance summary or None, (station id, TrendResult) rows
    in station-id order, regional result or None) for one station group."""
    if not series_list:
        return None, [], None
    regional = stats.regional_mann_kendall(series_list)
    rows = sorted(zip([s.key for s in series_list], regional.stations), key=lambda row: row[0])
    testable = [r for _, r in rows if not r.untestable]
    if not testable:
        return None, rows, regional
    adjusted = stats.by_fdr_adjust([r.p for r in testable])
    for r, p_adj in zip(testable, adjusted):
        r.p_adj = float(p_adj)
    return stats.field_significance(group_id, adjusted, alpha), rows, regional


def trend_comparison_cell(pair, metric, season, uc_list, nonuc_list, alpha=stats.ALPHA) -> TrendCell:
    """Station trends per group, FDR-adjusted, then a proportion test;
    the regional test of each group comes from the same station scores."""
    uc_summary, uc_rows, uc_regional = _group_trend("uc", uc_list, alpha)
    nonuc_summary, nonuc_rows, nonuc_regional = _group_trend("nonuc", nonuc_list, alpha)
    station_rows = tuple(("uc", sid, r) for sid, r in uc_rows) + tuple(
        ("nonuc", sid, r) for sid, r in nonuc_rows
    )
    regional = tuple(
        (group, result) for group, result in (("uc", uc_regional), ("nonuc", nonuc_regional)) if result is not None
    )
    if uc_summary is None or nonuc_summary is None:
        return TrendCell(
            pair,
            metric,
            season,
            uc_summary,
            nonuc_summary,
            None,
            "insufficient-data",
            "insufficient-data",
            station_rows,
            regional,
        )
    prop = stats.equal_proportions_test(
        uc_summary.n_sig, uc_summary.n, nonuc_summary.n_sig, nonuc_summary.n, alpha
    )
    direction = stats.comparison_direction(prop.diff, prop.p, alpha)
    return TrendCell(pair, metric, season, uc_summary, nonuc_summary, prop, direction, "", station_rows, regional)


# ---------------------------------------------------------------------------
# rank correlations

COVARIATE_NAMES = COVARIATE_COLUMNS[2:]
SUMMARY_STATS = ("median", "slope")


@dataclasses.dataclass(frozen=True)
class CorrelationMatrix:
    flavor: str  # "uc" or "diff"
    rows: tuple  # (metric, season, stat)
    columns: tuple
    rho: np.ndarray
    p: np.ndarray
    n: np.ndarray
    flags: tuple  # row-major tuple of tuples of str


def _cell_rows(metrics, seasons):
    rows = []
    for metric in metrics:
        for season in seasons if metric in SEASONAL_METRICS else ("annual",):
            rows.append((metric, season))
    return rows


def _matrix_rows(metrics, seasons):
    return tuple(
        (metric, season, stat)
        for metric, season in _cell_rows(metrics, seasons)
        for stat in SUMMARY_STATS
    )


def rank_correlation_matrices(pair_ids, summaries, covariates, metrics, seasons):
    """Spearman matrices of per-pair metric summaries against covariates.

    Returns (uc-absolute matrix, uc-minus-nonuc matrix).  Cells use the
    pairs where both sides are finite; under 8 pairs the cell is flagged
    and under 3 it is left empty.  The covariates of a row that share one
    finite mask with it are ranked against it in one block, and the t tail
    runs once over every defined cell of both matrices.
    """
    rows = _matrix_rows(metrics, seasons)
    y = np.array(
        [
            [getattr(covariates[pid], name) if pid in covariates else np.nan for name in COVARIATE_NAMES]
            for pid in pair_ids
        ],
        dtype=float,
    ).reshape(len(pair_ids), len(COVARIATE_NAMES))
    y_finite = np.isfinite(y)
    tables = []
    # every defined cell of both flavours: where its p goes, its degrees of
    # freedom and t, so that the t tail runs once over all of them
    cells, dfs, ts = [], [], []
    for flavor in ("uc", "diff"):
        rho = np.full((len(rows), len(COVARIATE_NAMES)), np.nan)
        pval = np.full_like(rho, np.nan)
        n_used = np.zeros(rho.shape, dtype=int)
        flags = []
        for i, (metric, season, stat) in enumerate(rows):
            x = np.array(
                [
                    summaries.get((pid, metric, season), {}).get(f"{flavor}_{stat}", np.nan)
                    for pid in pair_ids
                ],
                dtype=float,
            )
            ok = np.isfinite(x)[:, None] & y_finite
            n_used[i] = ok.sum(axis=0)
            row_flags = ["insufficient"] * len(COVARIATE_NAMES)
            by_mask: dict = {}
            for col, mask in enumerate(ok.T):
                by_mask.setdefault(mask.tobytes(), []).append(col)
            for cols in by_mask.values():
                mask = ok[:, cols[0]]
                n = int(mask.sum())
                if n < 3:
                    continue
                r, t, undefined = stats.spearman_t(x[mask], y[np.ix_(mask, cols)])
                for col, r_, t_, undef in zip(cols, r.tolist(), t.tolist(), undefined.tolist()):
                    if undef:
                        row_flags[col] = "undefined"
                        continue
                    rho[i, col] = r_
                    cells.append((pval, i, col))
                    dfs.append(n - 2)
                    ts.append(t_)
                    row_flags[col] = "n<8" if n < 8 else ""
            flags.append(tuple(row_flags))
        tables.append((flavor, rho, pval, n_used, tuple(flags)))
    for (pval, i, col), p in zip(cells, stats.spearman_p(np.array(dfs, dtype=float), np.array(ts)).tolist()):
        pval[i, col] = p
    uc, diff = (
        CorrelationMatrix(flavor=flavor, rows=rows, columns=tuple(COVARIATE_NAMES), rho=rho, p=pval, n=n, flags=flags)
        for flavor, rho, pval, n, flags in tables
    )
    return uc, diff


CORRELATION_HEADER = ("metric", "season", "stat", "covariate", "rho", "p", "n", "flag")


def correlation_rows(matrix: CorrelationMatrix) -> list[tuple]:
    """One table row per (matrix row, covariate) cell, under CORRELATION_HEADER."""
    return [
        (
            metric,
            season,
            stat,
            name,
            _g(matrix.rho[i, j]),
            _g(matrix.p[i, j]),
            int(matrix.n[i, j]),
            matrix.flags[i][j],
        )
        for i, (metric, season, stat) in enumerate(matrix.rows)
        for j, name in enumerate(matrix.columns)
    ]


TRENDS_HEADER = ("pair", "metric", "season", "group", "S", "var", "z", "p", "p_adj", "slope")


def trends_row(pair, metric, season, group, regional: stats.RegionalTrendResult, slope) -> tuple:
    """One trends.csv row, under TRENDS_HEADER; p_adj is left empty."""
    return (
        pair,
        metric,
        season,
        group,
        regional.s,
        _g(regional.var_s),
        _g(regional.z),
        _g(regional.p),
        "",
        _g(slope),
    )


TREND_CELLS_HEADER = (
    "pair",
    "metric",
    "season",
    "uc_n",
    "uc_sig",
    "uc_prop",
    "uc_field_sig",
    "nonuc_n",
    "nonuc_sig",
    "nonuc_prop",
    "nonuc_field_sig",
    "prop_diff",
    "prop_p",
    "ci_low",
    "ci_high",
    "direction",
    "note",
)

COMPARISON_HEADER = (
    "pair",
    "metric",
    "season",
    "median_diff",
    "wilcoxon_p",
    "prop_uc",
    "prop_nonuc",
    "prop_p",
    "direction",
)


def comparison_row(cell: MedianCell, trend_row: dict) -> tuple:
    """One comparison.csv row, under COMPARISON_HEADER; proportions come from trend_cells.csv."""
    return (
        cell.pair,
        cell.metric,
        cell.season,
        _g(cell.median_uc - cell.median_nonuc),
        _g(cell.wilcoxon_p),
        _g(trend_row.get("uc_prop", "nan")),
        _g(trend_row.get("nonuc_prop", "nan")),
        _g(trend_row.get("prop_p", "nan")),
        cell.direction,
    )


# ---------------------------------------------------------------------------
# file helpers


def _input_path(out_dir, cfg, name) -> Path:
    p = Path(cfg.paths[name])
    return p if p.is_absolute() else Path(out_dir) / p


def _unreadable(path: Path, producer: str | None, exc: Exception) -> DataError:
    if producer is None:
        return DataError(f"cannot read input file {path}: {exc}")
    return DataError(f"cannot read {path.name}: {exc}; rerun the {producer} stage")


def _load(path: Path, producer: str | None, load, *args):
    """load(path, *args), for a file the producer stage saved or, with no
    producer, a raw input; DataError naming the file when it is missing or
    load raises OSError, ValueError, csv.Error or RecursionError (json's,
    on nesting deeper than the stack)."""
    if not path.exists():
        raise DataError(f"missing {path.name}; run the {producer} stage first" if producer else f"missing input file {path}")
    try:
        return load(path, *args)
    except (OSError, ValueError, csv.Error, RecursionError) as exc:
        raise _unreadable(path, producer, exc) from exc


def _checked(values, path: Path, producer: str | None):
    """values, yielded in turn, for a stream read from path as _load reads
    it; DataError as _load raises it when reading one fails."""
    try:
        yield from values
    except (OSError, ValueError, csv.Error) as exc:
        raise _unreadable(path, producer, exc) from exc


def _read_parsed(path: Path, kind) -> tuple:
    """(frames, values) of a series file ingest saved, values read one
    series at a time; DataError also when it holds series of another kind."""
    frames, values = _load(path, "ingest", read_series)
    if not all(isinstance(s, kind) for s in frames):
        raise DataError(f"{path.name} does not hold {kind.__name__} records; rerun the ingest stage")
    return frames, _checked(values, path, "ingest")


def _record_fills(series, codes) -> tuple:
    """(offsets, values) of the slots the provenance codes mark as imputed."""
    offsets = np.flatnonzero(codes == IMPUTED)
    return offsets, series.values[offsets]


# bytes per read of a file being hashed
_HASH_BYTES = 1 << 16


def _file_sha256(path: Path) -> str:
    """SHA-256 of a file, read through one reused buffer of _HASH_BYTES
    rather than whole or in fresh chunks."""
    digest = hashlib.sha256()
    buf = bytearray(_HASH_BYTES)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while got := fh.readinto(buf):
            digest.update(view[:got])
    return digest.hexdigest()


def _g(value) -> str:
    return f"{float(value):.17g}"


def _read_table(path: Path, producer: str, header, mismatch: str | None = None) -> list[list[str]]:
    """The rows of a table the producer stage wrote under header; DataError
    when it is missing or unreadable, and DataError(mismatch) when it is
    under another header or holds a row of another width."""
    found, *rows = list(_checked(_load(path, producer, read_csv), path, producer)) or [[]]
    if tuple(found) != header or any(len(row) != len(header) for row in rows):
        raise DataError(mismatch or f"{path.name} is not a {producer} table; rerun the {producer} stage")
    return rows


def _clip_years(series: AnnualSeries, window) -> AnnualSeries | None:
    keep = (series.years >= window[0]) & (series.years <= window[1])
    if not keep.any():
        return None
    return AnnualSeries(
        key=series.key, metric=series.metric, years=series.years[keep], values=series.values[keep]
    )


def _read_pairs(path: Path) -> list[RegionPair]:
    """The pairs ingest wrote to pairs.json; ValueError when it is not such a file."""
    try:
        pairs = [RegionPair(**p) for p in json.loads(read_text(path))["pairs"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a pairs file ({exc!r})") from exc
    for p in pairs:
        if not all(isinstance(v, str) for v in (p.uc_id, p.cr_id)) or not all(
            isinstance(v, list) and all(isinstance(s, str) for s in v) for v in (p.uc_stations, p.nonuc_stations)
        ):
            raise ValueError("not a pairs file (ids must be strings and station lists lists of strings)")
    return pairs


def _read_annual(path: Path, key_columns) -> dict:
    """load_annual; ValueError when a value is not finite, as no stage writes one."""
    series = load_annual(path, key_columns)
    if not np.all(np.isfinite(np.concatenate([s.values for s in series.values()] + [np.empty(0)]))):
        raise ValueError("annual file holds a non-finite value")
    return series


def _present(station_series: dict, stations, metric: str, season: str) -> list:
    """The annual series of those stations that have one for (metric, season), in station order."""
    return [station_series[key] for key in ((sid, metric, season) for sid in stations) if key in station_series]


def _kept_series(out: Path, kind, fills_name: str | None = None):
    """The series of the parsed file of ``kind`` whose qc row reads kept,
    read one at a time in file order; with fills_name, each completed with
    the fills impute saved there.

    qc writes one verdict per parsed series, in order.  DataError when the
    two files no longer match (as after rerunning ingest alone), when the
    fills were saved from another parsed file or other kept series, and as
    the series are read, when one cannot be or a fill lands on an observed
    slot.
    """
    parsed_name, qc_name = (F_PARSED_MONTHLY, F_QC_MONTHLY) if kind is MonthlySeries else (F_PARSED_DAILY, F_QC_DAILY)
    fills = None if fills_name is None else _load(out / fills_name, "impute", load_fills)
    mismatch = f"{qc_name} does not match {parsed_name}; rerun the qc stage"
    rows = _read_table(out / qc_name, "qc", QC_HEADER, mismatch)
    frames, values = _read_parsed(out / parsed_name, kind)
    verdicts = [row[2] for row in rows]
    same_series = [tuple(row[:2]) for row in rows] == [(s.station_id, s.element) for s in frames]
    if not same_series or not set(verdicts) <= {"kept", "dropped"}:
        raise DataError(mismatch)
    keep = [verdict == "kept" for verdict in verdicts]
    if fills is not None:
        kept_keys = sorted((s.station_id, s.element) for s, k in zip(frames, keep) if k)
        if sorted((s.station_id, s.element) for s in fills.frames) != kept_keys or fills.stamp != _load(
            out / parsed_name, "ingest", npz_stamp
        ):
            raise DataError(
                f"{fills_name} was saved from another {parsed_name} or other {qc_name} verdicts; rerun the impute stage"
            )
        fill_of = {(s.station_id, s.element): i for i, s in enumerate(fills.frames)}

    def kept():
        for frame, v, k in zip(frames, values, keep):
            if not k:
                continue
            series = dataclasses.replace(frame, values=v)
            if fills is not None:
                try:
                    series = fills.complete(fill_of[(frame.station_id, frame.element)], series)
                except ValueError as exc:
                    raise DataError(f"cannot use {fills_name}: {exc}; rerun the impute stage") from exc
            yield series

    return kept()


# ---------------------------------------------------------------------------
# stages


def stage_synth(out_dir, cfg: RunConfig):
    world = synth_generate(cfg.seed, cfg.synth)
    try:
        return write_world(world, out_dir)
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}; lower noise_sd_c, uc_offset_c or the trends") from exc


def stage_ingest(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: _input_path(out, cfg, name) for name in INPUT_FILES}
    # the record files are read once here; their values wait in temporary spill files until they are saved
    daily, daily_values, daily_issues = _load(paths["daily"], None, read_ghcnd)
    monthly, monthly_values, monthly_issues = _load(paths["monthly"], None, read_ghcnm)
    stations, station_issues = parse_stations(_load(paths["stations"], None, Path.read_bytes))
    if not stations:
        raise DataError("no stations parsed from the inventory")
    if not daily and not monthly:
        raise DataError("no temperature series parsed")
    unknown = sorted({s.station_id for s in daily + monthly} - {st.station_id for st in stations})
    if unknown:
        listed = ", ".join(repr(sid) for sid in unknown)
        raise DataError(f"records for stations missing from the inventory: {listed}")

    pairs = pair_uc_nonuc(_load(paths["regions"], None, load_regions), stations)
    _load(paths["covariates"], None, load_explanatory_vars, [p.uc_id for p in pairs])
    # the .npz files key series by station and corridor id in numpy string
    # arrays, which drop trailing NULs; such an id would not come back
    cut = sorted(i for i in {s.station_id for s in daily + monthly} | {p.uc_id for p in pairs} if i.endswith("\x00"))
    if cut:
        raise DataError(f"ids ending in a NUL character are not supported: {', '.join(map(repr, cut))}")

    issues = (
        [("daily", i) for i in daily_issues]
        + [("monthly", i) for i in monthly_issues]
        + [("stations", i) for i in station_issues]
    )
    write_csv(
        out / F_PARSE_ISSUES,
        ("file", "line", "message"),
        [(fname, issue.line, issue.message) for fname, issue in issues],
    )
    pairs_doc = {"pairs": [dataclasses.asdict(p) for p in sorted(pairs, key=lambda p: p.uc_id)]}
    write_text(out / F_PAIRS, json_text(pairs_doc))
    save_series(out / F_PARSED_MONTHLY, monthly, _checked(monthly_values, paths["monthly"], None))
    save_series(out / F_PARSED_DAILY, daily, _checked(daily_values, paths["daily"], None))
    summary = {
        "n_daily_series": len(daily),
        "n_monthly_series": len(monthly),
        "n_stations": len(stations),
        "n_pairs": len(pairs),
        "n_parse_issues": len(issues),
    }
    write_text(out / F_INGEST_SUMMARY, json_text(summary))
    return summary


def stage_qc(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    reports_of = {}
    # the filters are looked up at each call, so a tracer that wraps them sees the calls
    for name, parsed, kind, qc_filter in (
        (F_QC_MONTHLY, F_PARSED_MONTHLY, MonthlySeries, filter_monthly_stations),
        (F_QC_DAILY, F_PARSED_DAILY, DailySeries, filter_daily_stations),
    ):
        frames, values = _read_parsed(out / parsed, kind)
        _, reports_of[name] = qc_filter(frames, values, cfg.window, cfg.qc)
    if not any(r.observed_in_window for reports in reports_of.values() for r in reports):
        raise DataError(f"window {cfg.window[0]}-{cfg.window[1]} holds no observed value in any series")
    for name, reports in reports_of.items():
        write_csv(
            out / name,
            QC_HEADER,
            [
                (r.station_id, r.element, r.verdict, r.reason, _g(r.missing_frac), r.longest_gap)
                for r in reports
            ],
        )


def stage_impute(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    kept_monthly = list(_kept_series(out, MonthlySeries))
    kept_daily = _kept_series(out, DailySeries)
    stations_path = _input_path(out, cfg, "stations")
    stations, _ = parse_stations(_load(stations_path, None, Path.read_bytes))
    unlisted = sorted({s.station_id for s in kept_monthly} - {st.station_id for st in stations})
    if unlisted:
        listed = ", ".join(repr(sid) for sid in unlisted)
        raise DataError(f"{stations_path.name} no longer lists kept stations {listed}; rerun the ingest stage")

    completed, codes, notes = impute_monthly(kept_monthly, stations, cfg.gwr, window=cfg.window)
    monthly_fills = [_record_fills(s, c) for s, c in zip(completed, codes)]
    # one daily series at a time: only its frame and fills are kept, and
    # every series is read (its file checked to the end) before any output
    # is written
    daily_frames, daily_fills = [], []
    for s in kept_daily:
        daily_fills.append(_record_fills(*lwma_fill(s)))
        daily_frames.append(dataclasses.replace(s, values=np.broadcast_to(np.nan, s.values.size)))
    save_fills(out / F_FILLS_MONTHLY, completed, monthly_fills, npz_stamp(out / F_PARSED_MONTHLY))
    write_text(out / F_IMPUTE_NOTES, "".join(line + "\n" for line in notes))
    save_fills(out / F_FILLS_DAILY, daily_frames, daily_fills, npz_stamp(out / F_PARSED_DAILY))


def stage_indices(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    completed = _kept_series(out, MonthlySeries, F_FILLS_MONTHLY)
    filled = _kept_series(out, DailySeries, F_FILLS_DAILY)
    pairs = _load(out / F_PAIRS, "ingest", _read_pairs)

    station_series: dict = {}
    for (station, season, metric), series in indices.seasonal_annual_series(completed).items():
        if metric in cfg.metrics and season in cfg.seasons:
            clipped = _clip_years(series, cfg.window)
            if clipped is not None:
                station_series[(station, metric, season)] = clipped

    # ingest writes a station's series one after another, so one station's
    # daily series are held at a time
    done = set()
    for station, run in itertools.groupby(filled, key=lambda s: s.station_id):
        if station in done:
            raise DataError(f"{F_PARSED_DAILY} holds the series of {station!r} apart; rerun the ingest stage")
        done.add(station)
        elements = {s.element: s for s in run}
        tmax, tmin = elements.get("TMAX"), elements.get("TMIN")
        got = []
        if "CDD" in cfg.metrics and tmax is not None and tmin is not None:
            got.append(("CDD", indices.annual_cdd(tmax, tmin)))
        if "CNM" in cfg.metrics and tmin is not None:
            got.append(("CNM", indices.annual_cnm(tmin)))
        if "P95" in cfg.metrics and tmax is not None:
            got.append(("P95", indices.annual_p95(tmax)))
        for metric, series in got:
            clipped = _clip_years(series, cfg.window)
            if clipped is not None:
                station_series[(station, metric, "annual")] = clipped

    save_annual(out / F_ANNUAL_STATION, ANNUAL_STATION_KEYS, station_series)

    regional = {}
    for pair in pairs:
        for group, members in (("uc", pair.uc_stations), ("nonuc", pair.nonuc_stations)):
            for metric, season in _cell_rows(cfg.metrics, cfg.seasons):
                present = _present(station_series, members, metric, season)
                if present:
                    regional[(pair.uc_id, group, metric, season)] = indices.regional_annual_series(
                        present, key=f"{pair.uc_id}:{group}"
                    )
    save_annual(out / F_ANNUAL_REGIONAL, ANNUAL_REGIONAL_KEYS, regional)


def stage_trends(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    station_series = _load(out / F_ANNUAL_STATION, "indices", _read_annual, ANNUAL_STATION_KEYS)
    regional_series = _load(out / F_ANNUAL_REGIONAL, "indices", _read_annual, ANNUAL_REGIONAL_KEYS)
    pairs = _load(out / F_PAIRS, "ingest", _read_pairs)

    cells = [
        trend_comparison_cell(
            pair.uc_id,
            metric,
            season,
            _present(station_series, pair.uc_stations, metric, season),
            _present(station_series, pair.nonuc_stations, metric, season),
            cfg.alpha,
        )
        for pair in pairs
        for metric, season in _cell_rows(cfg.metrics, cfg.seasons)
    ]

    station_rows = []
    for cell in cells:
        for group, sid, r in cell.station_rows:
            station_rows.append(
                (
                    cell.pair,
                    cell.metric,
                    cell.season,
                    group,
                    sid,
                    r.s,
                    _g(r.var_s),
                    _g(r.z),
                    _g(r.p),
                    "" if r.p_adj is None else _g(r.p_adj),
                    _g(r.slope),
                    "yes" if r.untestable else "no",
                )
            )
    write_csv(
        out / F_TREND_STATIONS,
        ("pair", "metric", "season", "group", "station", "S", "var", "z", "p", "p_adj", "slope", "untestable"),
        station_rows,
    )

    cell_rows = []
    for cell in cells:
        empty = stats.GroupTrendSummary(group_id="", n=0, n_sig=0, proportion=float("nan"), field_significant=False)
        uc = cell.uc or empty
        nonuc = cell.nonuc or empty
        prop = cell.prop
        cell_rows.append(
            (
                cell.pair,
                cell.metric,
                cell.season,
                uc.n,
                uc.n_sig,
                _g(uc.proportion),
                "true" if uc.field_significant else "false",
                nonuc.n,
                nonuc.n_sig,
                _g(nonuc.proportion),
                "true" if nonuc.field_significant else "false",
                _g(prop.diff) if prop else "nan",
                _g(prop.p) if prop else "nan",
                _g(prop.ci_low) if prop else "nan",
                _g(prop.ci_high) if prop else "nan",
                cell.direction,
                cell.note,
            )
        )
    write_csv(out / F_TREND_CELLS, TREND_CELLS_HEADER, cell_rows)

    keyed = [(cell, group, regional) for cell in cells for group, regional in cell.regional]
    reg_series = [regional_series.get((cell.pair, group, cell.metric, cell.season)) for cell, group, _ in keyed]
    regional_rows = []
    notes = []
    for (cell, group, regional), slope in zip(keyed, stats.sen_slopes(reg_series)):
        regional_rows.append(trends_row(cell.pair, cell.metric, cell.season, group, regional, slope))
        for flag in regional.flags:
            notes.append(f"{cell.pair} {cell.metric} {cell.season} {group}: {flag}")
    write_csv(out / F_TRENDS, TRENDS_HEADER, regional_rows)
    write_text(out / F_TREND_NOTES, "".join(line + "\n" for line in notes))


def stage_compare(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    regional = _load(out / F_ANNUAL_REGIONAL, "indices", _read_annual, ANNUAL_REGIONAL_KEYS)
    cells = _read_table(out / F_TREND_CELLS, "trends", TREND_CELLS_HEADER)
    pairs = _load(out / F_PAIRS, "ingest", _read_pairs)
    props = ("uc_prop", "nonuc_prop", "prop_p")
    try:
        prop_by_cell = {
            tuple(row[:3]): {name: float(row[TREND_CELLS_HEADER.index(name)]) for name in props} for row in cells
        }
    except ValueError as exc:
        raise DataError(f"{F_TREND_CELLS} holds a proportion that is not a number; rerun the trends stage") from exc
    rows = []
    for pair in pairs:
        for metric, season in _cell_rows(cfg.metrics, cfg.seasons):
            cell = median_comparison_cell(
                pair.uc_id,
                metric,
                season,
                regional.get((pair.uc_id, "uc", metric, season)),
                regional.get((pair.uc_id, "nonuc", metric, season)),
                cfg.alpha,
            )
            rows.append(comparison_row(cell, prop_by_cell.get((pair.uc_id, metric, season), {})))
    write_csv(out / F_COMPARISON, COMPARISON_HEADER, rows)


def stage_correlate(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    regional = _load(out / F_ANNUAL_REGIONAL, "indices", _read_annual, ANNUAL_REGIONAL_KEYS)
    pairs = _load(out / F_PAIRS, "ingest", _read_pairs)
    pair_ids = tuple(p.uc_id for p in pairs)
    covariates = _load(_input_path(out, cfg, "covariates"), None, load_explanatory_vars, pair_ids)

    cells = _cell_rows(cfg.metrics, cfg.seasons)
    keys = [(pid, group, metric, season) for pid in pair_ids for metric, season in cells for group in ("uc", "nonuc")]
    found = [s if s is not None and s.values.size else None for s in map(regional.get, keys)]
    # (median, Sen slope) per regional series, NaN for a missing one
    summary = {
        key: (np.nan if series is None else float(stats.median(series.values)), slope)
        for key, series, slope in zip(keys, found, stats.sen_slopes(found))
    }

    summaries = {}
    for pid in pair_ids:
        for metric, season in cells:
            (uc_median, uc_slope), (non_median, non_slope) = (
                summary[(pid, group, metric, season)] for group in ("uc", "nonuc")
            )
            summaries[(pid, metric, season)] = {
                "uc_median": uc_median,
                "uc_slope": uc_slope,
                "diff_median": uc_median - non_median,
                "diff_slope": uc_slope - non_slope,
            }
    m_uc, m_diff = rank_correlation_matrices(
        pair_ids, summaries, covariates, cfg.metrics, cfg.seasons
    )
    write_csv(out / F_CORR_UC, CORRELATION_HEADER, correlation_rows(m_uc))
    write_csv(out / F_CORR_DIFF, CORRELATION_HEADER, correlation_rows(m_diff))


# figure, source table, the stage that writes it and its header, season filter
_FIGURES = (
    ("fig2a.csv", F_COMPARISON, "compare", COMPARISON_HEADER, "seasonal"),
    ("fig2c.csv", F_TREND_CELLS, "trends", TREND_CELLS_HEADER, "seasonal"),
    ("fig3a.csv", F_COMPARISON, "compare", COMPARISON_HEADER, "annual"),
    ("fig3b.csv", F_TREND_CELLS, "trends", TREND_CELLS_HEADER, "annual"),
    ("fig4a.csv", F_CORR_UC, "correlate", CORRELATION_HEADER, None),
    ("fig4b.csv", F_CORR_DIFF, "correlate", CORRELATION_HEADER, None),
)


def stage_report(out_dir, cfg: RunConfig):
    out = Path(out_dir)
    report = out / REPORT_DIR
    report.mkdir(parents=True, exist_ok=True)

    bundle = []
    for fig_name, source_name, producer, header, season_filter in _FIGURES:
        source = out / source_name
        if not source.exists():
            continue
        rows = _read_table(source, producer, header)
        if season_filter is not None:
            season_idx = header.index("season")
            annual = season_filter == "annual"
            rows = [row for row in rows if (row[season_idx] == "annual") == annual]
        write_csv(report / fig_name, header, rows)
        bundle.append(fig_name)

    inputs = {}
    for name in sorted(INPUT_FILES):
        path = _input_path(out, cfg, name)
        inputs[name] = _load(path, None, _file_sha256) if path.exists() else None

    manifest = {
        "bundle": bundle,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "inputs": inputs,
        "versions": {
            "megaheat": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    write_text(report / F_MANIFEST, json_text(manifest))


STAGE_ORDER = ("ingest", "qc", "impute", "indices", "trends", "compare", "correlate", "report")

_STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "qc": stage_qc,
    "impute": stage_impute,
    "indices": stage_indices,
    "trends": stage_trends,
    "compare": stage_compare,
    "correlate": stage_correlate,
    "report": stage_report,
}


def run_stages(out_dir, cfg: RunConfig, names, threads: int = 1) -> dict:
    """Run the named stages in canonical order; returns wall seconds each.

    ``threads`` is accepted and unused: every stage runs serially, so
    results never depend on it.
    """
    unknown = sorted(set(names) - set(_STAGES))
    if unknown:
        raise ConfigError(f"unknown stages: {', '.join(unknown)}")
    ordered = [s for s in ("synth",) + STAGE_ORDER if s in set(names)]
    timings = {}
    for name in ordered:
        started = time.perf_counter()
        _STAGES[name](out_dir, cfg)
        timings[name] = time.perf_counter() - started
    return timings


def run_all(out_dir, cfg: RunConfig, threads: int = 1) -> dict:
    """Run every analysis stage; ``threads`` is accepted and unused, as in run_stages."""
    return run_stages(out_dir, cfg, STAGE_ORDER)
