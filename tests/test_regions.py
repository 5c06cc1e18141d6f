import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from megaheat.regions import (
    _first_holding,
    load_explanatory_vars,
    load_regions,
    pair_uc_nonuc,
    point_in_rings,
)
from megaheat.series import StationMeta


def feature(name, kind, rings, multi=False):
    geom = {"type": "Polygon", "coordinates": rings}
    if multi:
        geom = {"type": "MultiPolygon", "coordinates": rings}
    return {"type": "Feature", "properties": {"name": name, "kind": kind}, "geometry": geom}


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}


def square(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


BASIC = collection(
    feature("East", "climate_region", [square(0, 0, 10, 10)]),
    feature("Metro", "uc", [square(4, 4, 6, 6)]),
)


class TestLoadRegions:
    def test_nested_squares(self, tmp_path):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(BASIC))
        rs = load_regions(path)
        assert len(rs.climate_regions) == 1
        assert len(rs.ucs) == 1
        assert rs.ucs[0].name == "Metro"

    def test_duplicate_name_rejected(self):
        doc = collection(
            feature("Metro", "uc", [square(0, 0, 1, 1)]),
            feature("Metro", "uc", [square(2, 2, 3, 3)]),
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_regions(doc)

    def test_unclosed_ring_rejected(self):
        ring = square(0, 0, 1, 1)[:-1]
        with pytest.raises(ValueError, match="closed"):
            load_regions(collection(feature("East", "climate_region", [ring])))

    @pytest.mark.parametrize("name", [["Metro"], 7, "", None])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(ValueError, match="name must be a non-empty string"):
            load_regions(collection(feature(name, "uc", [square(0, 0, 1, 1)])))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            load_regions(collection(feature("East", "sea_region", [square(0, 0, 1, 1)])))

    def test_missing_file_named_by_a_string(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_regions(str(tmp_path / "regions.json"))


class TestPointInRings:
    def test_boundary_counts_as_inside(self):
        rings = [np.asarray(square(0, 0, 10, 10), dtype=float)]
        assert point_in_rings(0.0, 5.0, rings)
        assert point_in_rings(0.0, 0.0, rings)  # vertex
        assert point_in_rings(5.0, 10.0, rings)

    def test_hole_excludes_point(self):
        outer = np.asarray(square(0, 0, 10, 10), dtype=float)
        hole = np.asarray(square(4, 4, 6, 6), dtype=float)
        assert point_in_rings(2.0, 2.0, [outer, hole])
        assert not point_in_rings(5.0, 5.0, [outer, hole])

    def test_agrees_with_winding_number_oracle(self):
        rng = np.random.default_rng(20260815)
        checked = 0
        while checked < 1000:
            pts = rng.uniform(-5, 5, size=(12, 2))
            hull = ConvexHull(pts)
            ring = pts[hull.vertices]
            ring = np.vstack([ring, ring[:1]])
            p = rng.uniform(-6, 6, size=2)
            expected = _winding_inside(p[0], p[1], ring)
            if expected is None:
                continue  # too close to the boundary to trust the oracle
            assert point_in_rings(p[0], p[1], [ring]) == expected
            checked += 1


def _winding_inside(px, py, ring):
    """Winding-number membership; None when the call is numerically unsafe."""
    v = ring[:-1] - (px, py)
    dist = np.hypot(v[:, 0], v[:, 1])
    if dist.min() < 1e-9:
        return None
    ang = np.arctan2(v[:, 1], v[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(np.abs(d) - np.pi) < 1e-12):
        return None
    total = d.sum()
    return abs(round(total / (2 * np.pi))) >= 1


def st(sid, lon, lat):
    return StationMeta(station_id=sid, lat=lat, lon=lon, elev=100.0)


class TestAssign:
    def setup_method(self):
        self.rs = load_regions(BASIC)

    def held(self, lon, lat):
        """(climate region, corridor) holding the point, one lookup per kind."""
        return _first_holding(self.rs.climate_regions, [lon], [lat]) + _first_holding(self.rs.ucs, [lon], [lat])

    def test_uc_centroid(self):
        assert self.held(5, 5) == ["East", "Metro"]

    def test_inside_cr_only(self):
        assert self.held(1, 1) == ["East", None]

    def test_ocean(self):
        assert self.held(-40, -40) == [None, None]


class TestPairing:
    def test_two_two_split(self):
        rs = load_regions(BASIC)
        stations = [st("A", 5, 5), st("B", 4.5, 5.5), st("C", 1, 1), st("D", 9, 9)]
        pairs = pair_uc_nonuc(rs, stations)
        assert len(pairs) == 1
        p = pairs[0]
        assert p.uc_id == "Metro" and p.cr_id == "East"
        assert sorted(p.uc_stations) == ["A", "B"]
        assert sorted(p.nonuc_stations) == ["C", "D"]
        assert p.warning is None

    def test_straddling_uc_majority_host(self):
        doc = collection(
            feature("West", "climate_region", [square(0, 0, 10, 10)]),
            feature("East", "climate_region", [square(10, 0, 20, 10)]),
            feature("Border", "uc", [square(8, 4, 12, 6)]),
        )
        rs = load_regions(doc)
        stations = [
            st("A", 8.5, 5),
            st("B", 9.0, 5),
            st("C", 9.5, 4.5),
            st("D", 11.0, 5),
            st("E", 1.0, 1.0),
        ]
        pairs = pair_uc_nonuc(rs, stations)
        p = pairs[0]
        assert p.cr_id == "West"
        assert sorted(p.uc_stations) == ["A", "B", "C"]
        # D sits in the UC but outside the host CR: it is not a member of
        # the pair, and it is not eligible as a non-UC station anywhere
        assert "D" not in p.uc_stations and "D" not in p.nonuc_stations
        assert p.nonuc_stations == ["E"]

    def test_station_in_other_uc_excluded_from_nonuc(self):
        doc = collection(
            feature("East", "climate_region", [square(0, 0, 10, 10)]),
            feature("Metro", "uc", [square(1, 1, 3, 3)]),
            feature("Port", "uc", [square(6, 6, 8, 8)]),
        )
        rs = load_regions(doc)
        stations = [st("A", 2, 2), st("B", 7, 7), st("C", 5, 0.5)]
        pairs = pair_uc_nonuc(rs, stations)
        by_uc = {p.uc_id: p for p in pairs}
        assert by_uc["Metro"].uc_stations == ["A"]
        assert by_uc["Metro"].nonuc_stations == ["C"]
        assert by_uc["Port"].nonuc_stations == ["C"]
        ids = by_uc["Metro"].uc_stations + by_uc["Port"].uc_stations
        assert len(ids) == len(set(ids))

    def test_empty_uc_warns(self):
        rs = load_regions(BASIC)
        stations = [st("C", 1, 1)]
        pairs = pair_uc_nonuc(rs, stations)
        assert pairs[0].uc_stations == []
        assert pairs[0].warning is not None

    def test_membership_invariants(self):
        rng = np.random.default_rng(5)
        doc = collection(
            feature("East", "climate_region", [square(0, 0, 10, 10)]),
            feature("West", "climate_region", [square(-10, 0, 0, 10)]),
            feature("Metro", "uc", [square(4, 4, 6, 6)]),
            feature("Port", "uc", [square(-3, 2, -1, 4)]),
        )
        rs = load_regions(doc)
        stations = [
            st(f"S{i:02d}", float(lon), float(lat))
            for i, (lon, lat) in enumerate(rng.uniform(-12, 12, size=(60, 2)))
        ]
        pairs = pair_uc_nonuc(rs, stations)
        by_id = {s.station_id: s for s in stations}
        for p in pairs:
            cr = next(r for r in rs.climate_regions if r.name == p.cr_id)
            members = set(p.uc_stations) | set(p.nonuc_stations)
            assert set(p.uc_stations).isdisjoint(p.nonuc_stations)
            for sid in members:
                s = by_id[sid]
                assert point_in_rings(s.lon, s.lat, [r for part in cr.parts for r in part])
        # no station appears in two UC lists
        all_uc = [sid for p in pairs for sid in p.uc_stations]
        assert len(all_uc) == len(set(all_uc))


COV_HEADER = (
    "uc_id,cr_id,pop_uc,pop_diff,pop_pct_change_uc,pop_diff_pct_change,"
    "pct_urban,pct_cropland,mean_elev,elev_range"
)


def cov_csv(tmp_path, rows, header=COV_HEADER):
    path = tmp_path / "covariates.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestExplanatoryVars:
    def test_reference_rows(self, tmp_path):
        path = cov_csv(
            tmp_path,
            [
                "AR,South,5889740,501093,2.85,1.38,5.30,19.10,150.0,420.0",
                "NYC,Northeast,19000000,12000000,0.40,0.20,12.00,11.00,80.0,300.0",
            ]
        )
        vars_by_uc = load_explanatory_vars(path, ["AR", "NYC"])
        ar = vars_by_uc["AR"]
        assert ar.pop_uc == pytest.approx(5_889_740)
        assert ar.pop_diff == pytest.approx(501_093)
        assert ar.pop_pct_change_uc == pytest.approx(2.85)
        assert ar.pop_diff_pct_change == pytest.approx(1.38)
        ne = vars_by_uc["NYC"]
        assert ne.pct_urban == pytest.approx(12.00)
        assert ne.pct_cropland == pytest.approx(11.00)

    def test_percentage_bounds(self, tmp_path):
        path = cov_csv(tmp_path, ["AR,South,1,1,0.1,0.1,105,5,10,10"])
        with pytest.raises(ValueError, match="pct_urban"):
            load_explanatory_vars(path, ["AR"])

    def test_missing_uc_row(self, tmp_path):
        path = cov_csv(tmp_path, ["AR,South,1,1,0.1,0.1,5,5,10,10"])
        with pytest.raises(ValueError, match="NYC"):
            load_explanatory_vars(path, ["AR", "NYC"])

    def test_bad_header(self, tmp_path):
        path = cov_csv(tmp_path, ["AR,South"], header="uc,cr")
        with pytest.raises(ValueError, match="header"):
            load_explanatory_vars(path, ["AR"])

    def test_missing_file_named_by_a_string(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_explanatory_vars(str(tmp_path / "covariates.csv"), ["AR"])
