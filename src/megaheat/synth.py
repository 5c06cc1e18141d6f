"""Synthetic station worlds for tests and benchmarks.

A world is a set of rectangular climate regions laid out along the
longitude axis, each holding one urban corridor, plus stations, daily
and monthly temperature records with a plantable level offset and
linear trend, and a covariate table.  Everything derives from a single
seed so repeated runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
from pathlib import Path

import numpy as np

from .ghcn import serialize_stations, write_records
from .regions import COVARIATE_COLUMNS, _first_holding, load_regions
from .series import (
    DailySeries,
    MonthlySeries,
    StationMeta,
    date_to_serial,
    day_months,
    json_text,
    month_first_days,
    write_csv,
    write_text,
)

# annual cycles: value = base + amp * cos(2*pi*(t - peak)/period)
# the five input files of a run, by name; ingest reads what write_world writes
INPUT_FILES = {
    "daily": "ghcnd.dly",
    "monthly": "ghcnm.dat",
    "stations": "stations.txt",
    "regions": "regions.json",
    "covariates": "covariates.csv",
}

_MONTHLY_BASE = {"TMIN": 10.0, "TAVG": 15.0, "TMAX": 20.0}
_MONTHLY_AMP = 10.0
_MONTHLY_PEAK = 7  # July
_DAILY_BASE = {"TMAX": 20.0, "TMIN": 10.0}
_DAILY_AMP = 15.0
_DAILY_PEAK_DOY = 197  # mid July

# region layout along the longitude axis, degrees
_PAIR_SPACING = 10.0
_CR_WIDTH = 8.0
_CR_LAT = (30.0, 38.0)
_UC_LON_OFF = (3.0, 5.0)
_UC_LAT = (33.0, 35.0)
_MARGIN = 0.2

_MAX_PAIRS = 17  # keeps every longitude under 180 deg

# day-of-year of each (month, day) in a common year; Feb 29 borrows Feb 28
_CUM_DAYS = np.array([0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334])


@dataclasses.dataclass(frozen=True)
class SynthParams:
    """Knobs for one synthetic world.

    Offsets and trends apply to corridor stations only, except
    base_trend_c_per_yr which shifts everything.  The gap process starts
    a missing run at each timestep with probability gap_rate; run
    lengths are geometric with the given mean.
    """

    n_pairs: int = 2
    uc_stations: int = 3
    nonuc_stations: int = 4
    start_year: int = 1956
    end_year: int = 2015
    daily: bool = True
    monthly: bool = True
    uc_offset_c: float = 0.0
    uc_trend_c_per_yr: float = 0.0
    base_trend_c_per_yr: float = 0.0
    noise_sd_c: float = 0.5
    gap_rate: float = 0.0
    gap_mean_len_steps: float = 3.0
    elev_min_m: float = 50.0
    elev_max_m: float = 600.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                ok = isinstance(value, bool)
            elif f.type == "int":
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = not isinstance(value, bool) and (isinstance(value, int) or isinstance(value, float) and math.isfinite(value))
            if not ok:
                wanted = {"bool": "true or false", "int": "an integer"}.get(f.type, "a finite number")
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
        if not 1 <= self.n_pairs <= _MAX_PAIRS:
            raise ValueError(f"n_pairs must be in 1..{_MAX_PAIRS}, got {self.n_pairs}")
        if self.uc_stations < 0 or self.nonuc_stations < 0:
            raise ValueError("station counts must be non-negative")
        if self.start_year >= self.end_year:
            raise ValueError(f"start_year {self.start_year} must precede end_year {self.end_year}")
        if not (self.daily or self.monthly):
            raise ValueError("at least one of daily/monthly must be enabled")
        if self.noise_sd_c < 0:
            raise ValueError("noise_sd_c must be non-negative")
        if not 0.0 <= self.gap_rate < 1.0:
            raise ValueError("gap_rate must be in [0, 1)")
        if self.gap_mean_len_steps < 1.0:
            raise ValueError("gap_mean_len_steps must be at least 1")
        if self.elev_min_m > self.elev_max_m:
            raise ValueError("elev_min_m exceeds elev_max_m")


@dataclasses.dataclass
class SynthWorld:
    seed: int
    params: SynthParams
    stations: list[StationMeta]
    daily: list[DailySeries]
    monthly: list[MonthlySeries]
    regions_doc: dict
    covariates: list  # rows under regions.COVARIATE_COLUMNS


def _station_id(pair: int, group: str, i: int) -> str:
    # GHCN ids are exactly 11 characters; shorter ids would pick up
    # padding spaces on a serialize/parse round trip
    return f"SYN{pair:02d}{group}{i:05d}"


def _rect(lon0, lon1, lat0, lat1) -> list[list[float]]:
    return [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]


def _feature(name: str, kind: str, ring) -> dict:
    return {
        "type": "Feature",
        "properties": {"name": name, "kind": kind},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def _regions_doc(n_pairs: int) -> dict:
    features = []
    for k in range(n_pairs):
        lon = k * _PAIR_SPACING
        features.append(
            _feature(f"CR{k:02d}", "climate_region", _rect(lon, lon + _CR_WIDTH, *_CR_LAT))
        )
        features.append(
            _feature(f"UC{k:02d}", "uc", _rect(lon + _UC_LON_OFF[0], lon + _UC_LON_OFF[1], *_UC_LAT))
        )
    return {"type": "FeatureCollection", "features": features}


def _scatter(rng, n, lon_lo, lon_hi, lat_lo, lat_hi):
    lons = rng.uniform(lon_lo + _MARGIN, lon_hi - _MARGIN, size=n)
    lats = rng.uniform(lat_lo + _MARGIN, lat_hi - _MARGIN, size=n)
    return np.round(lons, 4), np.round(lats, 4)


def _missing_mask(rng, n: int, rate: float, mean_len: float) -> np.ndarray:
    if rate <= 0.0:
        return np.zeros(n, dtype=bool)
    starts = np.flatnonzero(rng.random(n) < rate)
    if starts.size == 0:
        return np.zeros(n, dtype=bool)
    lengths = rng.geometric(1.0 / mean_len, size=starts.size)
    delta = np.zeros(n + 1, dtype=np.int64)
    np.add.at(delta, starts, 1)
    np.add.at(delta, np.minimum(starts + lengths, n), -1)
    return np.cumsum(delta[:-1]) > 0


def _quantized(values: np.ndarray, decimals: int, missing: np.ndarray) -> np.ndarray:
    out = np.round(values, decimals)
    out[missing] = np.nan
    return out


def synth_generate(seed: int, params: SynthParams) -> SynthWorld:
    """Build a reproducible world; same (seed, params) gives identical output."""
    rng = np.random.default_rng(seed)
    p = params

    stations: list[StationMeta] = []
    uc_flags: list[bool] = []
    uc_elev_means: list[float] = []
    elev_ranges: list[float] = []
    for k in range(p.n_pairs):
        lon0 = k * _PAIR_SPACING
        u_lon, u_lat = _scatter(rng, p.uc_stations, lon0 + _UC_LON_OFF[0], lon0 + _UC_LON_OFF[1], *_UC_LAT)
        n_lon, n_lat = _scatter(rng, p.nonuc_stations, lon0, lon0 + _UC_LON_OFF[0] - _MARGIN, *_CR_LAT)
        elev = np.round(rng.uniform(p.elev_min_m, p.elev_max_m, size=u_lon.size + n_lon.size), 1)
        for i in range(p.uc_stations):
            stations.append(
                StationMeta(_station_id(k, "U", i), float(u_lat[i]), float(u_lon[i]), float(elev[i]))
            )
            uc_flags.append(True)
        for i in range(p.nonuc_stations):
            stations.append(
                StationMeta(
                    _station_id(k, "N", i),
                    float(n_lat[i]),
                    float(n_lon[i]),
                    float(elev[p.uc_stations + i]),
                )
            )
            uc_flags.append(False)
        uc_elev_means.append(float(elev[: p.uc_stations].mean()) if p.uc_stations else 0.0)
        elev_ranges.append(float(elev.max() - elev.min()) if elev.size else 0.0)

    cov_rows = []
    for k in range(p.n_pairs):
        pop_uc = rng.uniform(2e5, 3e6)
        pop_nonuc = rng.uniform(5e4, 5e5)
        cov_rows.append(
            [
                f"UC{k:02d}",
                f"CR{k:02d}",
                round(pop_uc, 1),
                round(pop_uc - pop_nonuc, 1),
                round(rng.uniform(5.0, 80.0), 3),
                round(rng.uniform(-20.0, 40.0), 3),
                round(rng.uniform(40.0, 95.0), 3),
                round(rng.uniform(0.0, 40.0), 3),
                uc_elev_means[k],
                elev_ranges[k],
            ]
        )

    monthly: list[MonthlySeries] = []
    daily: list[DailySeries] = []

    # month axis covers one lead year so first-winter seasons have a December
    m_year0 = p.start_year - 1
    n_months = (p.end_year - m_year0 + 1) * 12
    month_of = np.tile(np.arange(1, 13), p.end_year - m_year0 + 1)
    year_of = np.repeat(np.arange(m_year0, p.end_year + 1), 12)
    m_cycle = np.cos(2.0 * np.pi * (month_of - _MONTHLY_PEAK) / 12.0) * _MONTHLY_AMP
    m_years_out = (year_of - p.start_year).astype(float)

    if p.daily:
        d_start = dt.date(p.start_year, 1, 1)
        n_days = (dt.date(p.end_year, 12, 31) - d_start).days + 1
        days = date_to_serial(d_start) + np.arange(n_days)
        d_months = day_months(days)
        d_year, d_month = d_months // 12, d_months % 12 + 1
        d_day = days - month_first_days(d_months) + 1
        # leap days reuse the Feb 28 phase so each calendar year repeats the
        # same cycle values
        doy = _CUM_DAYS[d_month - 1] + np.where((d_month == 2) & (d_day == 29), 28, d_day)
        d_cycle = np.cos(2.0 * np.pi * (doy - _DAILY_PEAK_DOY) / 365.0) * _DAILY_AMP
        d_years_out = (d_year - p.start_year).astype(float)

    for st, is_uc in zip(stations, uc_flags):
        offset = p.uc_offset_c if is_uc else 0.0
        trend = p.base_trend_c_per_yr + (p.uc_trend_c_per_yr if is_uc else 0.0)
        if p.monthly:
            signal = offset + trend * m_years_out
            for element in ("TMIN", "TAVG", "TMAX"):
                vals = _MONTHLY_BASE[element] + m_cycle + signal
                if p.noise_sd_c > 0:
                    vals = vals + rng.normal(0.0, p.noise_sd_c, size=n_months)
                miss = _missing_mask(rng, n_months, p.gap_rate, p.gap_mean_len_steps)
                monthly.append(
                    MonthlySeries(st.station_id, element, m_year0, 1, _quantized(vals, 2, miss))
                )
        if p.daily:
            signal = offset + trend * d_years_out
            for element in ("TMAX", "TMIN"):
                vals = _DAILY_BASE[element] + d_cycle + signal
                if p.noise_sd_c > 0:
                    vals = vals + rng.normal(0.0, p.noise_sd_c, size=n_days)
                miss = _missing_mask(rng, n_days, p.gap_rate, p.gap_mean_len_steps)
                daily.append(
                    DailySeries(st.station_id, element, d_start, _quantized(vals, 1, miss))
                )

    world = SynthWorld(
        seed=seed,
        params=p,
        stations=stations,
        daily=daily,
        monthly=monthly,
        regions_doc=_regions_doc(p.n_pairs),
        covariates=cov_rows,
    )
    validate_world(world)
    return world


def validate_world(world: SynthWorld) -> None:
    """Check that every station sits in the region its id claims.

    Station ids encode pair index and group ("SYN03U00001" is corridor
    station 1 of pair 3); a mismatch against the polygon assignment
    means the world is inconsistent.
    """
    rs = load_regions(world.regions_doc)
    lons, lats = [st.lon for st in world.stations], [st.lat for st in world.stations]
    held = zip(_first_holding(rs.climate_regions, lons, lats), _first_holding(rs.ucs, lons, lats))
    for st, (cr_id, uc_id) in zip(world.stations, held):
        pair, group = st.station_id[3:5], st.station_id[5]
        if cr_id != f"CR{pair}":
            raise ValueError(f"station {st.station_id} outside its climate region (in {cr_id!r})")
        want_uc = f"UC{pair}" if group == "U" else None
        if uc_id != want_uc:
            where = uc_id if uc_id else "outside every corridor"
            raise ValueError(f"station {st.station_id} misplaced: {where!r}")


def write_world(world: SynthWorld, out_dir) -> dict[str, Path]:
    """Serialize a world into its five input files; returns name -> path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / file for name, file in INPUT_FILES.items()}
    write_records(paths["daily"], world.daily)
    write_records(paths["monthly"], world.monthly)
    paths["stations"].write_bytes(serialize_stations(world.stations))
    write_text(paths["regions"], json_text(world.regions_doc))
    write_csv(paths["covariates"], COVARIATE_COLUMNS, world.covariates)
    return paths
