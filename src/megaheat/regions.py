"""Region geometry, station-to-region assignment, and corridor pairing.

Regions arrive as a GeoJSON-style feature collection whose features carry
``name`` and ``kind`` (climate_region | uc) properties.  Membership tests
use even-odd ray casting over all rings of a region, so holes and
multi-part geometries need no special casing; points exactly on a boundary
count as inside, which keeps station assignment deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .series import StationMeta, read_csv, read_text

KIND_CLIMATE_REGION = "climate_region"
KIND_UC = "uc"


@dataclass
class Region:
    name: str
    kind: str
    # parts -> rings -> closed (n, 2) lon/lat arrays; ring 0 of a part is
    # its exterior, later rings are holes
    parts: list[list[np.ndarray]]

    def rings(self) -> list[np.ndarray]:
        return [ring for part in self.parts for ring in part]

    def representative_point(self) -> tuple[float, float]:
        ring = self.parts[0][0]
        lon, lat = ring[:-1, 0].mean(), ring[:-1, 1].mean()
        if point_in_rings(lon, lat, self.rings()):
            return float(lon), float(lat)
        return float(ring[0, 0]), float(ring[0, 1])


@dataclass
class RegionSet:
    climate_regions: list[Region] = field(default_factory=list)
    ucs: list[Region] = field(default_factory=list)


@dataclass
class RegionPair:
    """One corridor with its host climate region and member stations."""

    uc_id: str
    cr_id: str
    uc_stations: list[str]
    nonuc_stations: list[str]
    warning: str | None = None


@dataclass
class ExplanatoryVars:
    uc_id: str
    cr_id: str
    pop_uc: float
    pop_diff: float
    pop_pct_change_uc: float
    pop_diff_pct_change: float
    pct_urban: float
    pct_cropland: float
    mean_elev: float
    elev_range: float


COVARIATE_COLUMNS = tuple(f.name for f in fields(ExplanatoryVars))


def _json_type(value) -> str:
    names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}
    if value is None:
        return "null"
    return names.get(type(value), "a number")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {_json_type(value)}")
    return value


def _json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {_json_type(value)}")
    return value


def _coerce_rings(name: str, rings) -> list[np.ndarray]:
    out = []
    for ring in _json_array(rings, f"region {name!r}: rings"):
        try:
            a = np.asarray(ring, dtype=float)
        except (TypeError, ValueError):
            a = None
        if a is None or a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 4:
            raise ValueError(f"region {name!r}: ring must be >=4 lon/lat vertices")
        if not np.array_equal(a[0], a[-1]):
            raise ValueError(f"region {name!r}: ring is not closed")
        out.append(a)
    return out


def load_regions(doc) -> RegionSet:
    """Build a RegionSet from a feature collection: a dict, or a path to a
    JSON file holding one."""
    if not isinstance(doc, dict):
        doc = json.loads(read_text(doc))
    features = _json_object(doc, "regions document").get("features", [])
    rs = RegionSet()
    for k, feat in enumerate(_json_array(features, "regions document: features")):
        where = f"regions document: feature {k}"
        props = _json_object(_json_object(feat, where).get("properties", {}), f"{where} properties")
        name = props.get("name")
        kind = props.get("kind")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: name must be a non-empty string, not {name!r}")
        geom = _json_object(feat.get("geometry", {}), f"{where} geometry")
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        if gtype == "Polygon":
            parts = [_coerce_rings(name, coords)]
        elif gtype == "MultiPolygon":
            parts = [
                _coerce_rings(name, rings)
                for rings in _json_array(coords, f"region {name!r}: coordinates")
            ]
        else:
            raise ValueError(f"region {name!r}: unsupported geometry {gtype!r}")
        region = Region(name=name, kind=kind, parts=parts)
        if kind == KIND_CLIMATE_REGION:
            bucket = rs.climate_regions
        elif kind == KIND_UC:
            bucket = rs.ucs
        else:
            raise ValueError(f"region {name!r}: unknown kind {kind!r}")
        if any(r.name == name for r in bucket):
            raise ValueError(f"duplicate {kind} name {name!r}")
        bucket.append(region)
    return rs


def point_in_rings(lon, lat, rings):
    """Even-odd ray-casting membership of a point, or of each point of two
    arrays of one shape; boundary points count as inside.  Points go
    through in chunks of about 32,768 point-edge pairs, each point with
    the same arithmetic whatever the chunk."""
    lon, lat = np.asarray(lon, dtype=float), np.asarray(lat, dtype=float)
    inside = np.empty(lon.shape, dtype=bool)
    rings = [np.asarray(ring, dtype=float) for ring in rings]
    step = max(1, 32768 // max(1, sum(len(ring) for ring in rings)))
    for lo in range(0, lon.size, step):
        px, py = lon.reshape(-1, 1)[lo : lo + step], lat.reshape(-1, 1)[lo : lo + step]
        on_edge = np.zeros(px.shape[0], dtype=bool)
        crossings = np.zeros(px.shape[0], dtype=np.int64)
        for ring in rings:
            x0, y0 = ring[:-1, 0], ring[:-1, 1]
            x1, y1 = ring[1:, 0], ring[1:, 1]
            cross = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
            on_edge |= (
                (cross == 0.0)
                & (np.minimum(x0, x1) <= px)
                & (px <= np.maximum(x0, x1))
                & (np.minimum(y0, y1) <= py)
                & (py <= np.maximum(y0, y1))
            ).any(axis=1)
            straddles = (y0 > py) != (y1 > py)
            # an edge that does not straddle the ray may be level: its quotient is not used
            with np.errstate(divide="ignore", invalid="ignore"):
                xs = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            crossings += (straddles & (px < xs)).sum(axis=1)
        inside.reshape(-1)[lo : lo + step] = on_edge | (crossings % 2 == 1)
    return inside if inside.ndim else bool(inside)


def _first_holding(regions: list[Region], lon, lat) -> list:
    """Per point, the name of the first region in declaration order that
    holds it, or None."""
    names = np.full(len(lon), None, dtype=object)
    for r in reversed(regions):
        names[point_in_rings(lon, lat, r.rings())] = r.name
    return names.tolist()


def pair_uc_nonuc(regions: RegionSet, stations: list[StationMeta]) -> list[RegionPair]:
    """Pair every corridor with its host climate region.

    The host is the climate region holding the majority of the corridor's
    stations (ties and empty corridors fall back to the region containing a
    representative point of the corridor polygon).  Corridor membership of a
    pair is limited to stations inside the host; non-corridor stations are
    the host's stations that sit in no corridor at all.
    """
    lons, lats = [s.lon for s in stations], [s.lat for s in stations]
    held = zip(_first_holding(regions.climate_regions, lons, lats), _first_holding(regions.ucs, lons, lats))
    assigned = {s.station_id: pair for s, pair in zip(stations, held)}
    cr_order = [r.name for r in regions.climate_regions]
    pairs: list[RegionPair] = []
    for uc in regions.ucs:
        members = [s for s in stations if assigned[s.station_id][1] == uc.name]
        counts = {}
        for s in members:
            cr = assigned[s.station_id][0]
            if cr is not None:
                counts[cr] = counts.get(cr, 0) + 1
        warning = None
        if counts:
            host = max(cr_order, key=lambda name: (counts.get(name, 0), -cr_order.index(name)))
        else:
            lon, lat = uc.representative_point()
            (host,) = _first_holding(regions.climate_regions, [lon], [lat])
            if host is None:
                host = cr_order[0] if cr_order else ""
            warning = f"corridor {uc.name!r} contains no stations"
        uc_ids = [s.station_id for s in members if assigned[s.station_id][0] == host]
        non_ids = [
            s.station_id
            for s in stations
            if assigned[s.station_id][0] == host and assigned[s.station_id][1] is None
        ]
        pairs.append(
            RegionPair(
                uc_id=uc.name,
                cr_id=host,
                uc_stations=uc_ids,
                nonuc_stations=non_ids,
                warning=warning,
            )
        )
    return pairs


def load_explanatory_vars(path, uc_ids) -> dict[str, ExplanatoryVars]:
    """Read the covariate table from the CSV file at `path` and return one
    ExplanatoryVars per corridor.

    A row belongs to the corridor whose name equals its uc_id field
    exactly, whitespace included.  Raises on a missing corridor row or a
    land-share percentage outside [0, 100].
    """
    reader = read_csv(path)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty covariate table") from None
    if tuple(h.strip() for h in header) != COVARIATE_COLUMNS:
        raise ValueError(f"unexpected covariate header {header!r}")
    out: dict[str, ExplanatoryVars] = {}
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != len(COVARIATE_COLUMNS):
            raise ValueError(f"covariate line {reader.line_num} has {len(row)} fields, expected {len(COVARIATE_COLUMNS)}")
        # the columns are ExplanatoryVars' fields, in order
        ev = ExplanatoryVars(row[0], row[1].strip(), *map(float, row[2:]))
        for pct_field in ("pct_urban", "pct_cropland"):
            v = getattr(ev, pct_field)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{pct_field} {v} out of [0, 100] for {ev.uc_id!r}")
        if ev.elev_range < 0:
            raise ValueError(f"negative elev_range for {ev.uc_id!r}")
        out[ev.uc_id] = ev
    missing = [u for u in uc_ids if u not in out]
    if missing:
        raise ValueError(f"covariate rows missing for corridors: {missing}")
    return out
