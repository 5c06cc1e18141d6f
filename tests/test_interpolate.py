import datetime as dt

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from megaheat import interpolate
from megaheat.interpolate import (
    GwrConfig,
    Variogram,
    fit_variogram,
    great_circle_km,
    gwr_fit_predict,
    impute_monthly,
    lwma_fill,
    ordinary_krige,
)
from megaheat.series import DailySeries, MonthlySeries, StationMeta
from megaheat.synth import SynthParams, synth_generate


def _oracle_haversine(lat1, lon1, lat2, lon2, r=6371.0):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * r * np.arcsin(np.sqrt(a))


class TestGwr:
    def test_two_station_elevation_line(self):
        # target equidistant from the two informative stations; the two
        # remote stations sit at or beyond bandwidth distance h, so their
        # bisquare weights are zero and the fit is an equal-weight OLS
        # through two points: the line from (0, 20) to (1000, 10) gives
        # 15.0 at elevation 500
        train = np.array(
            [
                [0.0, -1.0, 0.0, 20.0],
                [0.0, 1.0, 1000.0, 10.0],
                [50.0, 100.0, 500.0, 999.0],
                [-55.0, -120.0, 500.0, -999.0],
            ]
        )
        targets = np.array([[0.0, 0.0, 500.0]])
        pred, resid = gwr_fit_predict(train, targets, GwrConfig(neighbors=3))
        assert pred[0] == pytest.approx(15.0, abs=1e-9)
        assert_allclose(resid[:2], [0.0, 0.0], atol=1e-9)

    def test_constant_values(self):
        rng = np.random.default_rng(1)
        train = np.column_stack(
            [
                rng.uniform(30, 40, 10),
                rng.uniform(-100, -90, 10),
                rng.uniform(0, 2000, 10),
                np.full(10, 7.25),
            ]
        )
        targets = np.column_stack(
            [rng.uniform(30, 40, 5), rng.uniform(-100, -90, 5), rng.uniform(0, 2000, 5)]
        )
        pred, resid = gwr_fit_predict(train, targets, GwrConfig(neighbors=5))
        assert_allclose(pred, 7.25, atol=1e-9)
        assert_allclose(resid, 0.0, atol=1e-9)

    def test_equal_elevations_fall_back_to_weighted_mean(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(10, 2, 8)
        train = np.column_stack(
            [rng.uniform(30, 31, 8), rng.uniform(-100, -99, 8), np.full(8, 250.0), vals]
        )
        targets = np.array([[30.5, -99.5, 250.0]])
        pred, _ = gwr_fit_predict(train, targets, GwrConfig(neighbors=8))
        # uniform weights at k = |train|, so the weighted mean is the plain mean
        assert pred[0] == pytest.approx(vals.mean(), rel=1e-12)

    def test_full_bandwidth_matches_global_ols(self):
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
        assert_allclose(pred, b0 + b1 * tgt_elev, rtol=1e-6)

    def test_local_weighting_differs_from_global(self):
        # two distant clusters with different elevation laws: a local fit
        # near cluster A must ignore cluster B
        rng = np.random.default_rng(4)
        elev_a, elev_b = rng.uniform(0, 1000, 10), rng.uniform(0, 1000, 10)
        a = np.column_stack([rng.uniform(30, 31, 10), rng.uniform(-100, -99, 10), elev_a, 30 - 0.01 * elev_a])
        b = np.column_stack([rng.uniform(45, 46, 10), rng.uniform(-70, -69, 10), elev_b, 5 + 0.002 * elev_b])
        train = np.vstack([a, b])
        targets = np.array([[30.5, -99.5, 500.0]])
        pred, _ = gwr_fit_predict(train, targets, GwrConfig(neighbors=5))
        assert pred[0] == pytest.approx(30 - 0.01 * 500, abs=0.2)

    def test_min_train_enforced(self):
        train = np.array([[0.0, 0.0, 10.0, 1.0], [1.0, 1.0, 20.0, 2.0]])
        with pytest.raises(ValueError, match="min_train"):
            gwr_fit_predict(train, np.array([[0.5, 0.5, 15.0]]), GwrConfig())

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            GwrConfig(neighbors=2)
        with pytest.raises(ValueError):
            GwrConfig(min_train=2)


class TestVariogram:
    def test_model_shape(self):
        vg = Variogram(nugget=0.2, sill=1.0, range_km=100.0)
        d = np.array([0.0, 1e-9, 100.0, 1e6])
        g = vg.gamma(d)
        assert g[0] == 0.0
        assert g[1] == pytest.approx(0.2, rel=1e-6)  # right limit is the nugget
        assert g[2] == pytest.approx(0.2 + 0.8 * (1 - np.exp(-3)))
        assert g[3] == pytest.approx(1.0)
        assert np.all(np.diff(g) >= 0)

    def test_zero_residuals_degenerate(self):
        rng = np.random.default_rng(5)
        lat, lon = rng.uniform(30, 40, 12), rng.uniform(-100, -90, 12)
        vg = fit_variogram(lat, lon, np.zeros(12))
        assert vg.degenerate
        assert vg.nugget == 0.0 and vg.sill == 0.0

    def test_insufficient_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            fit_variogram(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="pairs"):
            fit_variogram(np.zeros(3), np.arange(3.0), np.array([1.0, 2.0, 0.5]))

    def test_recovers_sill_of_simulated_field(self):
        # simulate a Gaussian field with exponential covariance
        # C(d) = sill*exp(-3d/range): the matching semivariogram is
        # sill*(1-exp(-3d/range))
        rng = np.random.default_rng(9)
        sill_true, range_true = 1.0, 100.0
        lat = rng.uniform(35.0, 40.0, 200)
        lon = rng.uniform(-100.0, -95.0, 200)
        d = _oracle_haversine(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        cov = sill_true * np.exp(-3.0 * d / range_true)
        field = np.linalg.cholesky(cov + 1e-10 * np.eye(200)) @ rng.standard_normal(200)
        vg = fit_variogram(lat, lon, field)
        assert not vg.degenerate
        assert vg.sill == pytest.approx(sill_true, rel=0.2)
        assert vg.nugget >= 0.0
        assert vg.sill >= vg.nugget
        assert vg.range_km > 0.0


def _trf_reference(gam, dmean, cnt):
    """Bounded trust-region fit of the exponential model from a moment-based
    start: a local search, kept as the reference the global fit must match
    or beat.  Returns (nugget, delta, range_km)."""
    g_bar = float(np.average(gam, weights=cnt))
    nugget0 = max(float(gam[0]) * 0.5, 1e-12)
    x0 = np.array([nugget0, max(g_bar - nugget0, 1e-12), max(float(dmean[-1]) / 2.0, 1e-6)])
    root_w = np.sqrt(cnt)

    def model_residuals(theta):
        nugget, delta, rng = theta
        return root_w * (nugget + delta * -np.expm1(-3.0 * dmean / rng) - gam)

    fit = scipy.optimize.least_squares(
        model_residuals, x0, bounds=([0.0, 0.0, 1e-9], [np.inf, np.inf, np.inf])
    )
    return max(float(fit.x[0]), 0.0), max(float(fit.x[1]), 0.0), max(float(fit.x[2]), 1e-9)


def _weighted_cost(gam, dmean, cnt, nugget, delta, range_km):
    model = nugget + delta * -np.expm1(-3.0 * dmean / range_km)
    return float(cnt @ (model - gam) ** 2)


def _fit_one(gam, dmean, cnt, half_max):
    """The stacked range search on a stack of one problem."""
    stacks = (np.asarray(x, dtype=float)[None] for x in (gam, dmean, cnt, half_max))
    return tuple(float(x[0]) for x in interpolate._fit_exponential(*stacks))


def _check_against_reference(gam, dmean, cnt, half_max, fitted):
    nugget, delta, range_km = fitted
    assert nugget >= 0.0 and delta >= 0.0
    assert 1e-6 * (1 - 1e-12) <= range_km <= 1e9 * half_max * (1 + 1e-12)
    reference = _weighted_cost(gam, dmean, cnt, *_trf_reference(gam, dmean, cnt))
    # an exact fit (three bins on one exponential curve) leaves a cost at
    # the rounding floor, where a relative margin means nothing: residuals
    # within 1e-9 of the semivariances count as exact
    exact = 1e-18 * float(cnt @ gam**2)
    assert _weighted_cost(gam, dmean, cnt, *fitted) <= reference * (1 + 1e-9) + exact


class TestVariogramFitOracle:
    """The variable-projection fit reaches the weighted least-squares
    minimum: never above the trust-region reference, often below it."""

    @pytest.mark.parametrize("shape, seed", [("exponential", 21), ("nugget", 22), ("linear", 23)])
    def test_random_bins_no_worse_than_reference(self, shape, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            k = int(rng.integers(3, 11))
            half_max = float(rng.uniform(50.0, 3000.0))
            dmean = np.sort(rng.uniform(0.02, 1.0, k)) * half_max
            cnt = rng.integers(1, 60, k).astype(float)
            if shape == "exponential":
                nugget, sill = rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)
                scale = rng.uniform(0.05, 2.0) * half_max
                gam = nugget + (sill - nugget) * -np.expm1(-3.0 * dmean / scale)
            elif shape == "nugget":
                gam = np.full(k, rng.uniform(0.5, 3.0))
            else:
                # semivariance still rising linearly at the last bin: the
                # best range runs off to the upper bound
                gam = rng.uniform(0.0, 1.0) + rng.uniform(1e-4, 1e-2) * dmean
            gam = gam * (1.0 + rng.normal(0.0, 0.05, k))
            fitted = _fit_one(gam, dmean, cnt, half_max)
            _check_against_reference(gam, dmean, cnt, half_max, fitted)

    def test_every_fit_on_gappy_world_no_worse_than_reference(self, monkeypatch):
        params = SynthParams(
            n_pairs=6,
            uc_stations=2,
            nonuc_stations=2,
            gap_rate=0.012,
            gap_mean_len_steps=1.0,
            noise_sd_c=2.0,
            uc_offset_c=1.0,
            uc_trend_c_per_yr=0.02,
        )
        world = synth_generate(11, params)
        fits = []
        solve = interpolate._fit_exponential

        def recording(*stacks):
            fitted = solve(*stacks)
            # one (problem inputs, fitted parameters) pair per stacked row
            fits.extend(zip(zip(*stacks), zip(*fitted)))
            return fitted

        monkeypatch.setattr(interpolate, "_fit_exponential", recording)
        impute_monthly(world.monthly, world.stations)
        assert len(fits) == 552
        for args, fitted in fits:
            _check_against_reference(*args, fitted)
            assert fitted == _fit_exponential_reference(*args)

    # binned residual semivariances of two gappy-world timesteps, each with
    # the global minimum at a pure-structure fit (nugget 0) of finite range
    LOCAL_MINIMA = {
        # the trust-region fit stops in a 36 km basin, 3% above
        "short_basin": (
            [2.3972805706416347, 3.7543058755928036, 4.897342993397323,
             3.221490736845397, 2.696337279687743, 2.2520376263390864,
             2.569403397981142, 4.2749040328893155, 1.5375168451674934,
             1.3070696556681756],
            [163.59272847349013, 363.6195836642082, 624.6428310905414,
             883.0055190815691, 1112.6129239019992, 1295.1308238131937,
             1577.7877141939373, 1833.0632845564996, 2072.8059511322035,
             2376.1388906273796],
            [13.0, 20.0, 13.0, 35.0, 21.0, 7.0, 17.0, 27.0, 14.0, 8.0],
            2454.0783412530523,
            266.37,
            0.03,
        ),
        # the trust-region fit and the best point of the first range grid
        # both sit on the long-range plateau, 0.5% above; only zooming the
        # second-lowest grid basin finds the minimum
        "second_basin": (
            [3.297642800471491, 4.5092786529898365, 2.520914311763058,
             3.5653216625794713, 3.4655277307583447, 5.860612543607562,
             3.846491670125749, 3.1147908105237905, 4.892467198423293,
             3.4281190779780557],
            [163.18531386556566, 364.08602419957947, 658.0612758313475,
             902.2144295885777, 1132.0556826415607, 1364.6166259009321,
             1632.9903569523149, 1863.6570499478992, 2123.9588553752324,
             2444.0230802936353],
            [13.0, 20.0, 14.0, 32.0, 19.0, 10.0, 16.0, 22.0, 15.0, 10.0],
            2519.1925373086383,
            209.41,
            0.005,
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("case", sorted(LOCAL_MINIMA))
    def test_escapes_local_minimum_of_reference(self, case):
        gam, dmean, cnt, half_max, range_km, excess = (
            np.asarray(x, dtype=float) for x in self.LOCAL_MINIMA[case]
        )
        fitted = _fit_one(gam, dmean, cnt, half_max)
        cost = _weighted_cost(gam, dmean, cnt, *fitted)
        reference = _weighted_cost(gam, dmean, cnt, *_trf_reference(gam, dmean, cnt))
        assert reference >= (1.0 + excess) * cost
        assert fitted[0] == 0.0
        assert fitted[2] == pytest.approx(range_km, rel=1e-4)

    def test_falling_semivariance_fits_pure_nugget(self):
        # no fitted structure can rise where the bins fall: the best fit is
        # the constant model, delta = 0 with the weighted mean as nugget
        gam = np.array([3.0, 2.5, 2.0, 1.8, 1.0])
        dmean = np.array([50.0, 150.0, 250.0, 350.0, 450.0])
        cnt = np.array([4.0, 9.0, 12.0, 7.0, 3.0])
        nugget, delta, _ = _fit_one(gam, dmean, cnt, 500.0)
        assert delta == 0.0
        assert nugget == pytest.approx(np.average(gam, weights=cnt), rel=1e-15)


def _fit_exponential_reference(gam, dmean, cnt, half_max, seen=None):
    """The single-problem range search, kept as the reference the stacked
    search must equal bit for bit.  seen, when given, collects the paths
    the problem takes: its number of zoomed basins, a flat run of equal
    costs on the first grid, a singular 2x2 system, and zoom grids clipped
    at the lower or upper range bound."""
    gam, dmean, cnt = (np.asarray(x, dtype=float) for x in (gam, dmean, cnt))
    sw = cnt.sum()
    sy = cnt @ gam
    cg = cnt * gam
    mean = sy / sw
    cost_mean = cnt @ (mean - gam) ** 2
    d3 = -3.0 * dmean

    def fits(log_r):
        f = -np.expm1(d3 / np.exp(log_r)[..., None])
        sf = f @ cnt
        sff = (f * f) @ cnt
        sfy = f @ cg
        delta_zero = np.maximum(sfy / sff, 0.0)
        cost_zero = (delta_zero[..., None] * f - gam) ** 2 @ cnt
        det = sw * sff - sf * sf
        if seen is not None and np.any(det == 0.0):
            seen.add("singular")
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_free = (sw * sfy - sf * sy) / det
            nugget_free = (sy - delta_free * sf) / sw
            cost_free = (nugget_free[..., None] + delta_free[..., None] * f - gam) ** 2 @ cnt
            free_ok = np.minimum(nugget_free, delta_free) >= 0.0
        use_zero = cost_zero < cost_mean
        nugget = np.where(free_ok, nugget_free, np.where(use_zero, 0.0, mean))
        delta = np.where(free_ok, delta_free, np.where(use_zero, delta_zero, 0.0))
        cost = np.where(free_ok, cost_free, np.minimum(cost_zero, cost_mean))
        return nugget, delta, cost

    grid, zooms, basins = interpolate._RANGE_GRID, interpolate._RANGE_ZOOMS, interpolate._RANGE_BASINS
    lo = np.log(interpolate._RANGE_MIN_KM)
    hi = np.log(interpolate._RANGE_MAX_SCALE * half_max)
    log_r = np.linspace(lo, hi, grid)
    nugget, delta, cost = fits(log_r)
    k = int(np.argmin(cost))
    best = (cost[k], nugget[k], delta[k], log_r[k])

    padded = np.concatenate(([np.inf], cost, [np.inf]))
    minima = np.flatnonzero((cost < padded[:-2]) & (cost <= padded[2:]))
    minima = minima[np.argsort(cost[minima], kind="stable")[:basins]]
    centers = log_r[minima]
    rows = np.arange(centers.size)
    step = log_r[1] - log_r[0]
    offsets = np.linspace(-1.0, 1.0, grid)
    if seen is not None:
        seen.add(f"{centers.size} basins")
        if np.any(cost[1:] == cost[:-1]):
            seen.add("flat run")
    for _ in range(zooms):
        raw = centers[:, None] + step * offsets
        if seen is not None:
            seen.update(name for name, hit in (("clip lo", raw < lo), ("clip hi", raw > hi)) if hit.any())
        log_r = np.clip(raw, lo, hi)
        nugget, delta, cost = fits(log_r)
        k = np.argmin(cost, axis=1)
        centers = log_r[rows, k]
        b = int(np.argmin(cost[rows, k]))
        if cost[b, k[b]] < best[0]:
            best = (cost[b, k[b]], nugget[b, k[b]], delta[b, k[b]], centers[b])
        step *= 2.0 / (grid - 1)
    return float(best[1]), float(best[2]), float(np.exp(best[3]))


def _range_problems(rng, count, bins=None):
    """Seeded binned-semivariance problems of every shape the fit meets:
    exponential structure, pure nugget, still rising at the last bin, and
    falling (a flat cost at the mean)."""
    problems = []
    for p in range(count):
        k = bins or int(rng.integers(3, 11))
        half_max = float(rng.uniform(50.0, 3000.0))
        dmean = np.sort(rng.uniform(0.02, 1.0, k)) * half_max
        cnt = rng.integers(1, 60, k).astype(float)
        shape = p % 4
        if shape == 0:
            nugget, sill = rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)
            gam = nugget + (sill - nugget) * -np.expm1(-3.0 * dmean / (rng.uniform(0.05, 2.0) * half_max))
        elif shape == 1:
            gam = np.full(k, rng.uniform(0.5, 3.0))
        elif shape == 2:
            gam = rng.uniform(0.0, 1.0) + rng.uniform(1e-4, 1e-2) * dmean
        else:
            gam = np.sort(rng.uniform(0.5, 3.0, k))[::-1].copy()
        gam = gam * (1.0 + rng.normal(0.0, 0.05 * (p % 3), k))
        problems.append((gam, dmean, cnt, half_max))
    return problems


class TestStackedRangeSearchMatchesSingleProblem:
    """The stacked range search gives every problem exactly the fit the
    single-problem search gives it, whatever else shares its stack."""

    @pytest.mark.parametrize("chunk", [interpolate._FIT_CHUNK, 5])
    def test_mixed_stacks_equal_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(interpolate, "_FIT_CHUNK", chunk)
        rng = np.random.default_rng(41)
        # mixed bin counts, and more ten-bin problems than one chunk holds
        problems = _range_problems(rng, 120) + _range_problems(rng, 80, bins=10)
        seen = set()
        expected = [_fit_exponential_reference(*p, seen=seen) for p in problems]
        fitted = interpolate._fit_stacked(problems)
        for vg, (nugget, delta, range_km) in zip(fitted, expected):
            assert (vg.nugget, vg.sill, vg.range_km) == (nugget, nugget + delta, range_km)
        assert {p[0].size for p in problems} == set(range(3, 11))
        assert seen >= {"1 basins", "2 basins", "3 basins", "flat run", "singular", "clip lo", "clip hi"}
        # fits at both ends of the range search
        assert min(vg.range_km for vg in fitted) < 1e-5
        assert any(vg.range_km > 1e8 * p[3] for vg, p in zip(fitted, problems))

    def test_raw_parameters_equal_reference(self):
        rng = np.random.default_rng(42)
        problems = _range_problems(rng, 70, bins=7)
        stacks = (np.array(column) for column in zip(*problems))
        got = zip(*(x.tolist() for x in interpolate._fit_exponential(*stacks)))
        assert list(got) == [_fit_exponential_reference(*p) for p in problems]


def _krige_reference(d_ss, d_ts, residuals, vg):
    """One kriging system, built and solved on its own."""

    def gamma(d):
        g = vg.nugget + (vg.sill - vg.nugget) * -np.expm1(-3.0 * d / vg.range_km)
        return np.where(d > 0, g, 0.0)

    n = residuals.size
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = gamma(d_ss)
    a[n, n] = 0.0
    b = np.ones((n + 1, d_ts.shape[0]))
    b[:n, :] = gamma(d_ts).T
    return residuals @ np.linalg.solve(a, b)[:n, :]


class TestStackedKrigingSolve:
    def test_singular_system_falls_back_alone(self, monkeypatch):
        rng = np.random.default_rng(43)
        lat, lon = rng.uniform(30, 40, 7), rng.uniform(-105, -95, 7)
        tlat, tlon = rng.uniform(30, 40, 3), rng.uniform(-105, -95, 3)
        residuals = rng.normal(0.0, 1.0, (10, 7))
        variograms = [Variogram(rng.uniform(0.0, 0.3), rng.uniform(1.0, 2.0), rng.uniform(50.0, 900.0)) for _ in range(10)]
        # an all-zero model gives the bordered system [[0, 1], [1, 0]]: singular
        variograms[6] = Variogram(0.0, 0.0, 1.0)
        d_ss = great_circle_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        d_ts = great_circle_km(tlat[:, None], tlon[:, None], lat[None, :], lon[None, :])

        calls = []
        solve = interpolate.np.linalg.solve

        def recording(a, b):
            try:
                x = solve(a, b)
            except np.linalg.LinAlgError:
                calls.append((a.shape, "singular"))
                raise
            calls.append((a.shape, "solved"))
            return x

        # chunks of 4, 4 and 2 systems
        monkeypatch.setattr(interpolate, "_SOLVE_ENTRIES", 4 * 8 * 8)
        monkeypatch.setattr(interpolate.np.linalg, "solve", recording)
        estimates, fallback = interpolate._krige(d_ss, d_ts, residuals, variograms)
        monkeypatch.undo()
        # the failed chunk is solved again one system at a time
        assert calls == [
            ((4, 8, 8), "solved"),
            ((4, 8, 8), "singular"),
            ((8, 8), "solved"),
            ((8, 8), "solved"),
            ((8, 8), "singular"),
            ((8, 8), "solved"),
            ((2, 8, 8), "solved"),
        ]

        assert fallback.tolist() == [s == 6 for s in range(10)]
        for s in range(10):
            alone, used_idw = ordinary_krige(lat, lon, residuals[s], variograms[s], tlat, tlon)
            assert used_idw == (s == 6)
            assert np.array_equal(estimates[s], alone)
            if s != 6:
                assert np.array_equal(estimates[s], _krige_reference(d_ss, d_ts, residuals[s], variograms[s]))
        assert np.array_equal(estimates[6], interpolate._idw_squared(d_ts, residuals[6]))


class TestOrdinaryKrige:
    def test_single_site(self):
        vg = Variogram(nugget=0.0, sill=1.0, range_km=50.0)
        est, fallback = ordinary_krige(
            np.array([40.0]), np.array([-100.0]), np.array([2.5]), vg, np.array([41.0]), np.array([-99.0])
        )
        assert est[0] == pytest.approx(2.5, abs=1e-12)
        assert not fallback

    def test_exact_at_sites_nugget_zero(self):
        rng = np.random.default_rng(6)
        lat, lon = rng.uniform(30, 40, 9), rng.uniform(-105, -95, 9)
        resid = rng.normal(0, 1, 9)
        vg = Variogram(nugget=0.0, sill=2.0, range_km=200.0)
        est, fallback = ordinary_krige(lat, lon, resid, vg, lat, lon)
        assert not fallback
        assert_allclose(est, resid, atol=1e-9)

    def test_three_collinear_sites_hand_system(self):
        lat = np.array([0.0, 0.0, 0.0])
        lon = np.array([0.0, 1.0, 2.0])
        resid = np.array([1.0, 3.0, 2.0])
        vg = Variogram(nugget=0.0, sill=1.0, range_km=300.0)
        tlat, tlon = np.array([0.0]), np.array([1.3])

        def gamma(d):
            return np.where(d > 0, vg.sill * (1 - np.exp(-3 * d / vg.range_km)), 0.0)

        d_ss = _oracle_haversine(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        a = np.ones((4, 4))
        a[:3, :3] = gamma(d_ss)
        a[3, 3] = 0.0
        b = np.ones(4)
        b[:3] = gamma(_oracle_haversine(lat, lon, tlat[0], tlon[0]))
        w = np.linalg.solve(a, b)
        expected = float(w[:3] @ resid)

        est, fallback = ordinary_krige(lat, lon, resid, vg, tlat, tlon)
        assert not fallback
        assert est[0] == pytest.approx(expected, abs=1e-9)
        assert resid.min() <= est[0] <= resid.max()

    def test_duplicate_sites_fall_back_to_idw(self):
        lat = np.array([40.0, 40.0, 41.0])
        lon = np.array([-100.0, -100.0, -99.0])
        resid = np.array([1.0, 1.0, 3.0])
        vg = Variogram(nugget=0.0, sill=1.0, range_km=100.0)
        tlat, tlon = np.array([40.5]), np.array([-99.5])
        est, fallback = ordinary_krige(lat, lon, resid, vg, tlat, tlon)
        assert fallback
        d = _oracle_haversine(lat, lon, tlat[0], tlon[0])
        w = 1.0 / d**2
        assert est[0] == pytest.approx(float(w @ resid / w.sum()), rel=1e-12)

    def test_idw_exact_at_coincident_target(self):
        lat = np.array([40.0, 40.0, 41.0])
        lon = np.array([-100.0, -100.0, -99.0])
        resid = np.array([1.0, 1.0, 3.0])
        vg = Variogram(nugget=0.0, sill=1.0, range_km=100.0)
        est, fallback = ordinary_krige(lat, lon, resid, vg, np.array([41.0]), np.array([-99.0]))
        assert fallback
        assert est[0] == pytest.approx(3.0, abs=1e-12)


def _station_grid(n, rng, with_elev=True):
    out = []
    for i in range(n):
        out.append(
            StationMeta(
                station_id=f"ST{i:05d}",
                lat=float(rng.uniform(35, 40)),
                lon=float(rng.uniform(-100, -95)),
                elev=float(rng.uniform(0, 2000)) if with_elev else None,
            )
        )
    return out


def _monthly_for(st, values, first_year=1956, element="TAVG"):
    return MonthlySeries(
        station_id=st.station_id,
        element=element,
        first_year=first_year,
        first_month=1,
        values=np.asarray(values, dtype=float),
    )


WINDOW = (1956, 1960)  # 60 timesteps keeps the tests quick
N_MONTHS = 60


class TestImputeMonthly:
    def test_no_missing_is_identity(self):
        rng = np.random.default_rng(7)
        stations = _station_grid(6, rng)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        completed, codes, notes = impute_monthly(series, stations, window=WINDOW)
        for inp in series:
            out = next(c for c in completed if c.station_id == inp.station_id)
            got = out.values[out.index_of(1956, 1) : out.index_of(1956, 1) + N_MONTHS]
            assert_allclose(got, inp.values, rtol=0, atol=0)
        for c in codes:
            assert np.all(c[1:] == "o")

    def test_single_missing_slot_filled(self):
        rng = np.random.default_rng(8)
        stations = _station_grid(6, rng)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        series[2].values[10] = np.nan
        completed, codes, _ = impute_monthly(series, stations, window=WINDOW)
        i = [c.station_id for c in completed].index(series[2].station_id)
        out = completed[i]
        slot = out.index_of(*series[2].month_of(10))
        assert np.isfinite(out.values[slot])
        assert codes[i][slot] == "i"
        # everyone else untouched
        other = [c for c in completed if c.station_id != series[2].station_id]
        for inp in series[:2] + series[3:]:
            out2 = next(c for c in other if c.station_id == inp.station_id)
            lo = out2.index_of(1956, 1)
            assert_allclose(out2.values[lo : lo + N_MONTHS], inp.values, rtol=0, atol=0)

    def test_constant_field(self):
        rng = np.random.default_rng(9)
        stations = _station_grid(7, rng)
        series = [_monthly_for(st, np.full(N_MONTHS, 11.75)) for st in stations]
        for k, s in enumerate(series):
            s.values[(7 * k) % N_MONTHS] = np.nan
        completed, _, _ = impute_monthly(series, stations, window=WINDOW)
        for c in completed:
            assert_allclose(c.values[1:], 11.75, atol=1e-9)

    def test_affine_in_elevation_is_exact_and_skips_kriging(self):
        rng = np.random.default_rng(10)
        stations = _station_grid(9, rng)
        truth = {st.station_id: 30.0 - 0.0065 * st.elev for st in stations}
        series = [_monthly_for(st, np.full(N_MONTHS, truth[st.station_id])) for st in stations]
        for k, s in enumerate(series):
            s.values[(k * 11) % N_MONTHS] = np.nan
        completed, codes, notes = impute_monthly(series, stations, window=WINDOW)
        for c in completed:
            assert_allclose(c.values[1:], truth[c.station_id], atol=1e-9)
        assert not any("fallback" in n for n in notes)

    def test_sparse_timestep_unimputable(self):
        rng = np.random.default_rng(11)
        stations = _station_grid(5, rng)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        for s in series[:3]:
            s.values[20] = np.nan  # only 2 observed at t=20
        completed, codes, notes = impute_monthly(series, stations, window=WINDOW)
        for inp in series[:3]:
            i = [c.station_id for c in completed].index(inp.station_id)
            slot = completed[i].index_of(*inp.month_of(20))
            assert np.isnan(completed[i].values[slot])
            assert codes[i][slot] == "u"
        assert any("unimputable" in n for n in notes)

    def test_station_without_elevation_not_trained_not_predicted(self):
        rng = np.random.default_rng(12)
        stations = _station_grid(6, rng)
        stations[0] = StationMeta(stations[0].station_id, stations[0].lat, stations[0].lon, None)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        series[0].values[5] = np.nan
        completed, codes, _ = impute_monthly(series, stations, window=WINDOW)
        i = [c.station_id for c in completed].index(stations[0].station_id)
        slot = completed[i].index_of(*series[0].month_of(5))
        assert np.isnan(completed[i].values[slot])
        assert codes[i][slot] == "u"

    def test_observed_values_bit_identical(self):
        rng = np.random.default_rng(13)
        stations = _station_grid(8, rng)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        for s in series:
            s.values[rng.random(N_MONTHS) < 0.1] = np.nan
        originals = [s.values.copy() for s in series]
        completed, codes, _ = impute_monthly(series, stations, window=WINDOW)
        for inp, orig in zip(series, originals):
            out = next(c for c in completed if c.station_id == inp.station_id)
            lo = out.index_of(1956, 1)
            obs = ~np.isnan(orig)
            assert np.array_equal(out.values[lo : lo + N_MONTHS][obs], orig[obs])

    def test_invariant_to_station_order(self):
        rng = np.random.default_rng(14)
        stations = _station_grid(8, rng)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        for s in series:
            s.values[rng.random(N_MONTHS) < 0.15] = np.nan
        completed_a, _, _ = impute_monthly(series, stations, window=WINDOW)
        perm = rng.permutation(len(series))
        completed_b, _, _ = impute_monthly(
            [series[i] for i in perm], [stations[i] for i in perm], window=WINDOW
        )
        assert [c.station_id for c in completed_a] == [c.station_id for c in completed_b]
        for a, b in zip(completed_a, completed_b):
            assert np.array_equal(a.values, b.values, equal_nan=True)


def _daily(values, start=dt.date(2000, 1, 1)):
    return DailySeries(
        station_id="S1", element="TMAX", start=start, values=np.asarray(values, dtype=float)
    )


class TestLwmaFill:
    def test_constant_series(self):
        v = np.full(30, 4.5)
        v[10:13] = np.nan
        filled, codes = lwma_fill(_daily(v))
        assert_allclose(filled.values, 4.5, rtol=0, atol=0)
        assert np.all(codes[10:13] == "i")

    def test_worked_example_exact(self):
        v = np.array([10.0, 20.0, np.nan, 30.0, 40.0])
        filled, codes = lwma_fill(_daily(v))
        assert filled.values[2] == 25.0  # bit-exact by construction
        assert codes[2] == "i"
        assert list(codes[[0, 1, 3, 4]]) == ["o"] * 4

    def test_flank_means_match_hand_values(self):
        v = np.array([10.0, 20.0, np.nan, 30.0, 40.0])
        filled, _ = lwma_fill(_daily(v))
        before = (1 * 10 + 2 * 20) / 3
        after = (2 * 30 + 1 * 40) / 3
        assert before == pytest.approx(16.667, abs=5e-4)
        assert after == pytest.approx(33.333, abs=5e-4)
        assert filled.values[2] == pytest.approx((before + after) / 2, abs=1e-12)

    def test_insufficient_clean_flank_unfilled(self):
        # n=2 gap needs 4 clean days each side; only 3 exist before
        v = np.array([np.nan, 1.0, 2.0, 3.0, np.nan, np.nan, 7.0, 8.0, 9.0, 10.0, 11.0])
        filled, codes = lwma_fill(_daily(v))
        assert np.isnan(filled.values[4]) and np.isnan(filled.values[5])
        assert codes[4] == "u" and codes[5] == "u"

    def test_nested_missing_in_flank_blocks_fill(self):
        # two single-day gaps two days apart: each one's flank contains the
        # other, and flanks may not be widened past nested missing days, so
        # neither fills
        v = np.arange(20.0)
        v[8] = np.nan
        v[10] = np.nan
        filled, codes = lwma_fill(_daily(v))
        assert np.isnan(filled.values[8]) and np.isnan(filled.values[10])
        assert codes[8] == "u" and codes[10] == "u"
        # far enough apart the same two gaps both fill
        v = np.arange(20.0)
        v[5] = np.nan
        v[10] = np.nan
        filled, codes = lwma_fill(_daily(v))
        assert np.isfinite(filled.values[5]) and np.isfinite(filled.values[10])

    def test_edge_gap_one_sided(self):
        v = np.array([np.nan, 10.0, 20.0, 30.0])
        filled, codes = lwma_fill(_daily(v))
        # after-window [10, 20] with weights (2, 1)
        assert filled.values[0] == pytest.approx(40 / 3)
        assert codes[0] == "i"

        v = np.array([10.0, 20.0, np.nan])
        filled, codes = lwma_fill(_daily(v))
        assert filled.values[2] == pytest.approx(50 / 3)

    def test_fill_within_flank_bounds(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            left = rng.normal(10, 5, 2 * n)
            right = rng.normal(10, 5, 2 * n)
            v = np.concatenate([left, np.full(n, np.nan), right])
            filled, codes = lwma_fill(_daily(v))
            lo = min(left.min(), right.min())
            hi = max(left.max(), right.max())
            got = filled.values[2 * n : 3 * n]
            assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)
            assert np.all(codes[2 * n : 3 * n] == "i")

    def test_observed_untouched(self):
        rng = np.random.default_rng(16)
        v = rng.normal(20, 3, 50)
        v[17:19] = np.nan
        s = _daily(v)
        filled, codes = lwma_fill(s)
        obs = ~np.isnan(v)
        assert np.array_equal(filled.values[obs], v[obs])
        assert filled is not s


# Reference implementations: impute_monthly and lwma_fill as one loop per
# timestep and per gap, through the public gwr_fit_predict -> fit_variogram
# -> ordinary_krige chain.  The module computes the same arithmetic once per
# training-station mask and once per gap length; these must match it bit
# for bit.
def _impute_monthly_reference(series, stations, cfg=None, window=interpolate.STUDY_WINDOW):
    cfg = cfg or GwrConfig()
    meta = {st.station_id: st for st in stations}
    year0, year1 = window
    t0 = interpolate.month_index(year0, 1)
    n_steps = (year1 - year0 + 1) * 12
    notes, out_series, out_codes = [], [], []
    by_element = {}
    for s in series:
        by_element.setdefault(s.element, []).append(s)
    for element in sorted(by_element):
        group = sorted(by_element[element], key=lambda s: s.station_id)
        ids = [s.station_id for s in group]
        lat = np.array([meta[i].lat for i in ids])
        lon = np.array([meta[i].lon for i in ids])
        elev = np.array([meta[i].elev if meta[i].elev is not None else np.nan for i in ids])
        for sid in ids:
            if meta[sid].elev is None:
                notes.append(f"{element} {sid}: no elevation; missing slots unimputable")
        grid = np.full((len(group), n_steps + 1), np.nan)
        for row, s in enumerate(group):
            s_t0 = interpolate.month_index(s.first_year, s.first_month)
            lo = max(s_t0, t0 - 1)
            hi = min(s_t0 + s.values.size, t0 + n_steps)
            if hi > lo:
                grid[row, lo - (t0 - 1) : hi - (t0 - 1)] = s.values[lo - s_t0 : hi - s_t0]
        codes = np.where(np.isfinite(grid), "o", "u")
        has_elev = np.isfinite(elev)
        for t in range(1, n_steps + 1):
            col = grid[:, t]
            obs = np.isfinite(col)
            if obs.all():
                continue
            year, month = divmod(t0 + t - 1, 12)
            stamp = f"{year}-{month + 1:02d}"
            train_rows = obs & has_elev
            n_train = int(train_rows.sum())
            if n_train < cfg.min_train:
                notes.append(f"{element} {stamp}: {n_train} usable stations < min_train; unimputable")
                continue
            target_rows = np.where(~obs & has_elev)[0]
            if target_rows.size == 0:
                continue
            train = np.column_stack(
                [lat[train_rows], lon[train_rows], elev[train_rows], col[train_rows]]
            )
            targets = np.column_stack([lat[target_rows], lon[target_rows], elev[target_rows]])
            pred, resid = gwr_fit_predict(train, targets, cfg)
            if n_train * (n_train - 1) // 2 >= 5:
                vg = fit_variogram(lat[train_rows], lon[train_rows], resid)
                if not vg.degenerate:
                    correction, used_idw = ordinary_krige(
                        lat[train_rows], lon[train_rows], resid, vg,
                        lat[target_rows], lon[target_rows],
                    )
                    pred = pred + correction
                    if used_idw:
                        notes.append(
                            f"{element} {stamp}: singular kriging system; inverse-distance fallback"
                        )
            else:
                notes.append(f"{element} {stamp}: too few site pairs; regression only")
            grid[target_rows, t] = pred
            codes[target_rows, t] = "i"
        out_series.extend(grid)
        out_codes.extend(codes)
    return out_series, out_codes, notes


def _lwma_reference(values):
    values = values.copy()
    observed = np.isfinite(values)
    codes = np.where(observed, "o", "u")
    size = values.size
    edges = np.flatnonzero(np.diff(np.concatenate(([False], ~observed, [False]))))
    for g0, g_end in zip(edges[::2], edges[1::2]):
        g1 = g_end - 1
        n = g1 - g0 + 1
        span = 2 * n
        denom = float(n * (2 * n + 1))
        before_ok = g0 - span >= 0 and observed[g0 - span : g0].all()
        after_ok = g1 + 1 + span <= size and observed[g1 + 1 : g1 + 1 + span].all()
        at_left_edge, at_right_edge = g0 == 0, g1 == size - 1
        w_up = np.arange(1, span + 1, dtype=float)
        fill = None
        if at_left_edge and at_right_edge:
            fill = None
        elif at_left_edge:
            if after_ok:
                fill = float(w_up[::-1] @ values[g1 + 1 : g1 + 1 + span]) / denom
        elif at_right_edge:
            if before_ok:
                fill = float(w_up @ values[g0 - span : g0]) / denom
        elif before_ok and after_ok:
            num_before = float(w_up @ values[g0 - span : g0])
            num_after = float(w_up[::-1] @ values[g1 + 1 : g1 + 1 + span])
            fill = (num_before + num_after) / (2.0 * denom)
        if fill is not None:
            values[g0 : g1 + 1] = fill
            codes[g0 : g1 + 1] = "i"
    return values, codes


def _assert_impute_matches_reference(series, stations, cfg=None, window=WINDOW):
    got_series, got_codes, got_notes = impute_monthly(series, stations, cfg, window=window)
    ref_series, ref_codes, ref_notes = _impute_monthly_reference(series, stations, cfg, window)
    assert got_notes == ref_notes
    assert len(got_series) == len(ref_series)
    for got, codes, ref, want_codes in zip(got_series, got_codes, ref_series, ref_codes):
        assert np.array_equal(got.values, ref, equal_nan=True)
        assert np.array_equal(codes, want_codes)
    return got_notes


class TestGeometryOnceMatchesPerTimestepLoop:
    def test_gappy_world_with_multi_step_gaps(self):
        params = SynthParams(
            n_pairs=2,
            uc_stations=3,
            nonuc_stations=3,
            gap_rate=0.03,
            gap_mean_len_steps=3.0,
            noise_sd_c=2.0,
        )
        world = synth_generate(23, params)
        # one station loses its elevation: never trained, never predicted
        stations = list(world.stations)
        stations[1] = StationMeta(stations[1].station_id, stations[1].lat, stations[1].lon, None)
        notes = _assert_impute_matches_reference(world.monthly, stations, window=(1956, 1970))
        assert any("no elevation" in n for n in notes)

    def test_every_fallback_path(self):
        rng = np.random.default_rng(31)
        stations = _station_grid(8, rng)
        # station 1 sits on station 0: kriging systems holding both are singular
        stations[1] = StationMeta("ST00001", stations[0].lat, stations[0].lon, stations[1].elev)
        stations[7] = StationMeta("ST00007", stations[7].lat, stations[7].lon, None)
        series = [
            _monthly_for(st, np.round(rng.normal(15, 5, N_MONTHS), 2), element=element)
            for st in stations
            for element in ("TMAX", "TMIN")
        ]
        for s in series:
            s.values[rng.random(N_MONTHS) < 0.12] = np.nan
        # series come in station order, TMAX and TMIN per station
        for s in series[:12]:
            s.values[40] = np.nan  # one station with elevation left: below min_train
        for s in series[:8]:
            s.values[41:44] = np.nan  # three left: regression only, over a 3-step gap
        for s in series[8:12]:
            s.values[[50, 52]] = np.nan  # one mask twice, training stations 0 and 1
        notes = _assert_impute_matches_reference(series, stations)
        for text in ("< min_train", "too few site pairs", "singular kriging", "no elevation"):
            assert any(text in n for n in notes), text

    def test_window_with_nothing_missing_and_wide_bandwidth(self):
        rng = np.random.default_rng(32)
        stations = _station_grid(6, rng)
        series = [_monthly_for(st, rng.normal(15, 5, N_MONTHS)) for st in stations]
        _assert_impute_matches_reference(series, stations)
        for s in series:
            s.values[rng.random(N_MONTHS) < 0.2] = np.nan
        _assert_impute_matches_reference(series, stations, GwrConfig(neighbors=3))
        _assert_impute_matches_reference(series, stations, GwrConfig(neighbors=30))

    def test_lwma_matches_per_gap_loop(self):
        rng = np.random.default_rng(33)
        for case in range(300):
            size = int(rng.integers(1, 120))
            # values on the 0.1 C grid of the records, where fills often
            # land on rounding ties
            v = np.round(rng.normal(20.0, 8.0, size), 1)
            for _ in range(int(rng.integers(0, 6))):
                start = int(rng.integers(0, size))
                v[start : start + int(rng.integers(1, 7))] = np.nan
            if case % 10 == 0:
                v[:] = np.nan
            filled, codes = lwma_fill(_daily(v))
            ref_values, ref_codes = _lwma_reference(v)
            assert np.array_equal(filled.values, ref_values, equal_nan=True), case
            assert np.array_equal(codes, ref_codes), case

    def test_lwma_matches_per_gap_loop_on_gappy_world(self):
        params = SynthParams(n_pairs=2, uc_stations=2, nonuc_stations=2, gap_rate=0.01)
        world = synth_generate(34, params)
        lengths = set()
        for s in world.daily:
            filled, codes = lwma_fill(s)
            ref_values, ref_codes = _lwma_reference(s.values)
            assert np.array_equal(filled.values, ref_values, equal_nan=True)
            assert np.array_equal(codes, ref_codes)
            edges = np.flatnonzero(np.diff(np.concatenate(([0], np.isnan(s.values), [0]))))
            lengths.update((edges[1::2] - edges[::2]).tolist())
        assert {1, 2, 3} <= lengths
