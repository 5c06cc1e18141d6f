import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from megaheat import pipeline, stats
from megaheat.regions import ExplanatoryVars
from megaheat.series import AnnualSeries, write_csv
from megaheat.stats import (
    RegionalTrendResult,
    SpearmanResult,
    TrendResult,
    _midranks,
    _two_sided_p,
    _z_with_continuity,
    by_fdr_adjust,
    comparison_direction,
    equal_proportions_test,
    field_significance,
    mann_kendall,
    rank_covariance,
    regional_mann_kendall,
    sen_slopes,
    spearman,
    spearman_p,
    spearman_t,
    wilcoxon_ranksum,
)


def _annual(values, first_year=1990, key="S1", metric="cdd"):
    values = np.asarray(values, dtype=float)
    years = np.arange(first_year, first_year + values.size)
    return AnnualSeries(key=key, metric=metric, years=years, values=values)


class TestMannKendall:
    def test_strictly_increasing(self):
        r = mann_kendall(_annual([1, 2, 3, 4, 5]))
        assert r.s == 10
        assert r.slope == pytest.approx(1.0)
        assert r.var_s == pytest.approx(5 * 4 * 15 / 18, rel=1e-12)
        assert r.z > 0 and 0 < r.p < 0.05
        assert not r.untestable

    def test_strictly_decreasing(self):
        r = mann_kendall(_annual([5, 4, 3, 2, 1]))
        assert r.s == -10
        assert r.slope == pytest.approx(-1.0)

    def test_tie_corrected_variance(self):
        r = mann_kendall(_annual([1, 2, 2, 3]))
        assert r.s == 5
        assert r.var_s == pytest.approx((4 * 3 * 13 - 2 * 1 * 9) / 18, rel=1e-12)

    def test_continuity_correction(self):
        r = mann_kendall(_annual([1, 2, 3, 4, 5]))
        assert r.z == pytest.approx((10 - 1) / np.sqrt(50 / 3), rel=1e-12)
        rneg = mann_kendall(_annual([5, 4, 3, 2, 1]))
        assert rneg.z == pytest.approx((-10 + 1) / np.sqrt(50 / 3), rel=1e-12)
        assert rneg.z == -r.z
        flat = mann_kendall(_annual([2, 1, 2, 1, 2, 1]))
        if flat.s == 0:
            assert flat.z == 0.0

    def test_p_from_standard_normal(self):
        r = mann_kendall(_annual([1, 2, 3, 4, 5]))
        assert r.p == pytest.approx(2 * scipy.stats.norm.sf(abs(r.z)), rel=1e-12)

    def test_short_series_untestable(self):
        r = mann_kendall(_annual([1, 2, 3]))
        assert r.untestable and r.p == 1.0 and r.s == 0 and r.z == 0.0

    def test_constant_series_untestable(self):
        r = mann_kendall(_annual([3, 3, 3, 3, 3]))
        assert r.untestable and r.p == 1.0 and r.s == 0
        assert r.slope == 0.0

    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            v = rng.normal(0, 1, int(rng.integers(4, 30)))
            a = mann_kendall(_annual(v))
            b = mann_kendall(_annual(v[::-1]))
            assert a.s == -b.s

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            v = rng.normal(0, 1, 20)
            assert mann_kendall(_annual(v)).s == mann_kendall(_annual(np.exp(v))).s

    def test_sen_slope_equivariance(self):
        rng = np.random.default_rng(24)
        v = rng.normal(10, 3, 25)
        base = sen_slopes([_annual(v)])[0]
        for a in (2.5, -1.25):
            assert sen_slopes([_annual(a * v + 7.0)])[0] == pytest.approx(a * base, rel=1e-12)

    def test_slope_uses_year_gaps(self):
        # missing years must widen the denominator
        s = AnnualSeries(
            "S1", "cdd", np.array([2000, 2001, 2004, 2007]), np.array([0.0, 2.0, 8.0, 14.0])
        )
        r = mann_kendall(s)
        assert r.slope == pytest.approx(2.0, rel=1e-12)

    def test_sign_consistency(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            v = rng.normal(0, 1, 15)
            r = mann_kendall(_annual(v))
            if r.s != 0 and r.slope != 0:
                assert np.sign(r.slope) == np.sign(r.s)


class TestRegionalMannKendall:
    def test_single_station_matches_plain(self):
        s = _annual([3, 1, 4, 1, 5, 9, 2, 6])
        lone = mann_kendall(s)
        reg = regional_mann_kendall([s])
        assert reg.s == lone.s
        assert reg.var_s == pytest.approx(lone.var_s, rel=1e-12)
        assert reg.z == pytest.approx(lone.z, abs=1e-12)
        assert reg.p == pytest.approx(lone.p, abs=1e-12)

    def test_identical_series_covariance_equals_variance(self):
        v = np.array([2.0, 7.0, 1.0, 8.0, 3.0, 6.0, 4.0, 5.0])
        a = _annual(v, key="A")
        b = _annual(v, key="B")
        lone = mann_kendall(a)
        reg = regional_mann_kendall([a, b])
        assert reg.s == 2 * lone.s
        assert reg.var_s == pytest.approx(4 * lone.var_s, rel=1e-12)
        expected_z = (reg.s - 1) / np.sqrt(reg.var_s) if reg.s > 0 else 0.0
        assert reg.z == pytest.approx(expected_z, rel=1e-12)

    def test_rank_covariance_against_direct_formula(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            x = rng.normal(0, 1, 12)
            y = rng.normal(0, 1, 12)
            n = 12
            i, j = np.triu_indices(n, k=1)
            k = float(np.sum(np.sign(x[j] - x[i]) * np.sign(y[j] - y[i])))
            rx = scipy.stats.rankdata(x)
            ry = scipy.stats.rankdata(y)
            want = (k + 4 * float(rx @ ry) - n * (n + 1) ** 2) / 3.0
            assert rank_covariance(x, y) == pytest.approx(want, rel=1e-12)

    def test_independent_series_covariance_centers_on_zero(self):
        rng = np.random.default_rng(27)
        reps = 10_000
        n = 10
        cov = np.empty(reps)
        for r in range(reps):
            cov[r] = rank_covariance(rng.permutation(n).astype(float),
                                     rng.permutation(n).astype(float))
        se = cov.std(ddof=1) / np.sqrt(reps)
        assert abs(cov.mean()) <= 2 * se

    def test_disjoint_years_skip_covariance(self):
        a = _annual([1, 3, 2, 5, 4, 6], first_year=1960, key="A")
        b = _annual([6, 4, 5, 2, 3, 1], first_year=1980, key="B")
        ra = mann_kendall(a)
        rb = mann_kendall(b)
        reg = regional_mann_kendall([a, b])
        assert any("skip" in f or "overlap" in f for f in reg.flags)
        assert reg.var_s == pytest.approx(ra.var_s + rb.var_s, rel=1e-12)

    def test_variance_floor_on_anticorrelated_pair(self):
        v = np.arange(1.0, 11.0)
        a = _annual(v, key="A")
        b = _annual(v[::-1], key="B")
        reg = regional_mann_kendall([a, b])
        # raw variance collapses to zero; the floor is 1% of summed variances
        assert reg.var_s == pytest.approx(0.01 * 2 * 125.0, rel=1e-12)
        assert any("floor" in f for f in reg.flags)
        assert reg.s == 0 and reg.p == 1.0


def _per_pair_oracle(series_list):
    """The regional test with every covariance taken from rank_covariance
    on the pair's common years, one pair at a time."""
    members, flags = [], []
    for s in series_list:
        r = _mann_kendall_per_series(s.years, s.values)
        if r.untestable:
            flags.append(f"{s.key}: untestable station excluded")
        else:
            members.append((s, r))
    if not members:
        return RegionalTrendResult(0, 0.0, 0.0, 1.0, tuple(flags + ["no testable stations"]))
    s_r = sum(r.s for _, r in members)
    var_sum = sum(r.var_s for _, r in members)
    cov_sum = 0.0
    for a, (sa, _) in enumerate(members):
        for sb, _ in members[a + 1 :]:
            common = np.intersect1d(sa.years, sb.years)
            if common.size == 0:
                flags.append(f"{sa.key}/{sb.key}: no overlapping years; covariance skipped")
                continue
            xa = sa.values[np.isin(sa.years, common)]
            xb = sb.values[np.isin(sb.years, common)]
            cov_sum += rank_covariance(xa, xb)
    var_r = var_sum + 2.0 * cov_sum
    if var_r < 0.01 * var_sum:
        var_r = 0.01 * var_sum
        flags.append("variance floored at 1% of summed station variances")
    z = _z_with_continuity(s_r, var_r)
    return RegionalTrendResult(s_r, var_r, z, _two_sided_p(z), tuple(flags))


def _group(values, first_year=1960):
    return [_annual(v, first_year=first_year, key=f"S{m:02d}") for m, v in enumerate(values)]


def _half_degree_group(rng, k, n):
    """k stations over n shared years, rounded to 0.5 so ties occur."""
    trend = rng.normal(0.0, 0.05) * np.arange(n)
    return np.round((trend + rng.normal(0.0, 1.0, (k, n))) * 2.0) / 2.0


class TestCommonYearsCovariance:
    """The masked year-block covariances against rank_covariance per pair."""

    def test_random_groups(self):
        rng = np.random.default_rng(41)
        for k, n in [(2, 4), (3, 60), (25, 4), (25, 60), (7, 17), (12, 33), (20, 60)]:
            group = _group(_half_degree_group(rng, k, n))
            assert regional_mann_kendall(group) == _per_pair_oracle(group)

    def test_numerators_match_rank_covariance(self):
        rng = np.random.default_rng(42)
        x = _half_degree_group(rng, 9, 23)
        lone = [mann_kendall(s) for s in _group(x)]
        for a in range(9):
            for b in range(9):
                pair = [_annual(x[a], key="A"), _annual(x[b], key="B")]
                want = lone[a].var_s + lone[b].var_s + 2.0 * rank_covariance(x[a], x[b])
                assert regional_mann_kendall(pair).var_s == want

    def test_constant_member_excluded(self):
        rng = np.random.default_rng(43)
        x = _half_degree_group(rng, 6, 30)
        x[2] = 1.5
        group = _group(x)
        reg = regional_mann_kendall(group)
        assert reg == _per_pair_oracle(group)
        assert reg.flags == ("S02: untestable station excluded",)

    def test_single_member(self):
        rng = np.random.default_rng(44)
        group = _group(_half_degree_group(rng, 1, 40))
        assert regional_mann_kendall(group) == _per_pair_oracle(group)
        lone = mann_kendall(group[0])
        assert regional_mann_kendall(group).var_s == lone.var_s

    def test_anticorrelated_pair_hits_floor(self):
        rng = np.random.default_rng(45)
        v = _half_degree_group(rng, 1, 25)[0]
        group = _group([v, -v])
        assert regional_mann_kendall(group) == _per_pair_oracle(group)
        assert any("floor" in f for f in regional_mann_kendall(group).flags)

    def test_station_results_come_with_the_group_result(self):
        rng = np.random.default_rng(46)
        group = _group(_half_degree_group(rng, 5, 20))
        assert regional_mann_kendall(group).stations == tuple(mann_kendall(s) for s in group)

    def test_ragged_and_disjoint_groups(self):
        rng = np.random.default_rng(47)
        x = _half_degree_group(rng, 4, 40)
        ragged = [
            _annual(x[0], 1960, key="A"),
            _annual(x[1][:30], 1970, key="B"),
            _annual(x[2][5:], 1965, key="C"),
        ]
        disjoint = ragged + [_annual(x[3][:8], 2010, key="D")]
        for group in (ragged, disjoint):
            assert regional_mann_kendall(group) == _per_pair_oracle(group)
        assert "A/D: no overlapping years; covariance skipped" in regional_mann_kendall(disjoint).flags

    def test_non_finite_values_count_as_absent_years(self):
        rng = np.random.default_rng(48)
        x = _half_degree_group(rng, 3, 12)
        x[1, 4], x[2, 0], x[2, 7] = np.nan, np.inf, -np.inf
        group = _group(x)
        keep = np.isfinite(x)
        cut = [AnnualSeries(s.key, s.metric, s.years[m], s.values[m]) for s, m in zip(group, keep)]
        got = regional_mann_kendall(group)
        assert got == regional_mann_kendall(cut) == _per_pair_oracle(cut)
        assert got.stations == tuple(mann_kendall(s) for s in group) == tuple(mann_kendall(s) for s in cut)
        assert [repr(r.slope) for r in got.stations] == [repr(slope) for slope in sen_slopes(cut)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda k: st.integers(1, 30).flatmap(
                lambda n: st.tuples(
                    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=k, max_size=k),
                    st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=k, max_size=k),
                )
            )
        )
    )
    def test_property_equals_per_pair_oracle(self, drawn):
        """Ragged, tied and disjoint groups: each station keeps the years its
        mask draws out of a shared span, ties come from half-degree values."""
        halves, masks = drawn
        years = np.arange(1960, 1960 + len(masks[0]))
        group = [
            AnnualSeries(f"S{m}", "cdd", years[np.array(mask)], np.array(v, dtype=float)[np.array(mask)] / 2.0)
            for m, (v, mask) in enumerate(zip(halves, masks))
        ]
        result = regional_mann_kendall(group)
        assert result == _per_pair_oracle(group)
        assert all(_same(got, mann_kendall(s)) for got, s in zip(result.stations, group))


class TestRanksAndTailsMatchScipy:
    def test_midranks_equal_rankdata_on_tied_inputs(self):
        rng = np.random.default_rng(2024)
        for i in range(2000):
            n = int(rng.integers(0, 70))
            x = rng.integers(0, n // 3 + 1, n) * 0.5 - 3.0
            if i % 40 == 0 and n:
                x[rng.integers(0, n)] = np.nan
            got, ref = _midranks(x), scipy.stats.rankdata(x)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref, equal_nan=True)

    def test_midranks_along_rows_equal_rankdata_axis_1(self):
        rng = np.random.default_rng(7)
        x = np.round(rng.normal(0.0, 2.0, (25, 60)) * 2) / 2
        x[3, 17] = np.nan
        assert np.array_equal(_midranks(x), scipy.stats.rankdata(x, axis=1), equal_nan=True)
        assert _midranks(np.empty((0, 4))).shape == (0, 4)

    def test_midranks_of_tied_blocks_with_nan_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            k, n = int(rng.integers(1, 12)), int(rng.integers(1, 50))
            x = rng.integers(0, n // 4 + 1, (k, n)) * 0.5 - 2.0
            nan_rows = rng.random(k) < 0.3
            x[nan_rows, rng.integers(0, n)] = np.nan
            got = _midranks(x)
            assert np.array_equal(got, scipy.stats.rankdata(x, axis=1), equal_nan=True)
            assert np.isnan(got[nan_rows]).all() and not np.isnan(got[~nan_rows]).any()
            assert np.array_equal(got[~nan_rows] * 2.0, np.round(got[~nan_rows] * 2.0))

    def test_midranks_of_a_3d_block(self):
        x = np.round(np.random.default_rng(9).normal(0.0, 1.0, (3, 4, 25)) * 2) / 2
        x[1, 2, 0] = np.nan
        assert np.array_equal(_midranks(x), scipy.stats.rankdata(x, axis=-1), equal_nan=True)


class TestStudentTTail:
    """stats._t_tail, the two-sided Student-t tail I_x(df/2, 1/2)."""

    T = np.concatenate([-np.logspace(-8, 3, 45), np.logspace(-8, 3, 45)])

    def test_one_degree_of_freedom_is_the_cauchy_tail(self):
        got = stats._t_tail(np.ones(self.T.size), self.T)
        assert_allclose(got, 2.0 / np.pi * np.arctan(1.0 / np.abs(self.T)), rtol=1e-12, atol=0.0)

    def test_two_degrees_of_freedom_closed_form(self):
        # 1 - |t| / sqrt(2 + t^2) = 2 / (s (s + |t|)) with s = sqrt(2 + t^2)
        s = np.sqrt(2.0 + self.T**2)
        got = stats._t_tail(np.full(self.T.size, 2.0), self.T)
        assert_allclose(got, 2.0 / (s * (s + np.abs(self.T))), rtol=1e-12, atol=0.0)

    def test_matches_scipy_stdtr(self):
        df, t = np.meshgrid(np.arange(1.0, 80.0), np.logspace(-3, 2, 60))
        want = 2.0 * scipy.special.stdtr(df, -t)
        assert_allclose(stats._t_tail(df.ravel(), t.ravel()), want.ravel(), rtol=1e-8, atol=0.0)
        assert_allclose(stats._t_tail(df.ravel(), -t.ravel()), want.ravel(), rtol=1e-8, atol=0.0)

    def test_matches_arbitrary_precision_incomplete_beta(self):
        mpmath = pytest.importorskip("mpmath")
        df = np.array([1, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 50, 64, 79], dtype=float)
        t = np.concatenate([[1e-8, 1e-5, 1e-3], np.logspace(-2, np.log10(300.0), 30)])
        got = stats._t_tail(*np.meshgrid(df, t))
        with mpmath.workdps(50):
            for (k, v), value in np.ndenumerate(got):
                nu, t2 = mpmath.mpf(df[v]), mpmath.mpf(t[k]) ** 2
                want = mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t2), regularized=True)
                assert abs(value - want) <= 1e-12 * want, (df[v], t[k])

    def test_an_entry_is_the_same_in_any_batch(self):
        rng = np.random.default_rng(65)
        df = rng.integers(1, 80, 400).astype(float)
        t = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-8, 2.5, 400)
        whole = stats._t_tail(df, t)
        lone = [float(stats._t_tail(df[k], t[k])) for k in range(df.size)]
        assert whole.tolist() == lone
        order = rng.permutation(df.size)
        assert stats._t_tail(df[order], t[order]).tolist() == whole[order].tolist()
        assert stats._t_tail(df[::7], t[::7]).tolist() == whole[::7].tolist()
        # and through the Spearman p, whose undefined and |rho| = 1 entries
        # sit in the same batch
        both = np.concatenate([t, [np.nan, np.inf, -np.inf]])
        p = stats.spearman_p(np.concatenate([df, [1.0, 1.0, 1.0]]), both)
        assert p[:-3].tolist() == lone and np.isnan(p[-3]) and p[-2:].tolist() == [0.0, 0.0]

    def test_zero_t_has_p_one(self):
        assert stats._t_tail(np.array([1.0, 5.0, 60.0]), np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


class TestByFdr:
    def test_worked_example(self):
        got = by_fdr_adjust([0.01, 0.02, 0.04, 0.2])
        assert_allclose(got, [0.0833, 0.0833, 0.1111, 0.4167], atol=1e-4)

    def test_single_value(self):
        assert_allclose(by_fdr_adjust([0.03]), [0.03])

    def test_all_ones(self):
        assert_allclose(by_fdr_adjust([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])

    def test_pointwise_increase_and_order(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            p = rng.random(int(rng.integers(1, 40)))
            adj = by_fdr_adjust(p)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= 1.0)
            order = np.argsort(p, kind="stable")
            assert np.all(np.diff(adj[order]) >= -1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        p = rng.random(15)
        perm = rng.permutation(15)
        assert_allclose(by_fdr_adjust(p[perm]), by_fdr_adjust(p)[perm], rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            by_fdr_adjust([0.5, 1.5])


class TestFieldSignificance:
    def test_one_significant(self):
        s = field_significance("g", [0.04, 0.2, 0.9])
        assert s.n == 3 and s.n_sig == 1
        assert s.proportion == pytest.approx(1 / 3)
        assert s.field_significant

    def test_none_significant(self):
        s = field_significance("g", [0.05, 0.8])
        assert s.n_sig == 0 and not s.field_significant

    def test_all_significant(self):
        s = field_significance("g", [0.01, 0.002])
        assert s.proportion == 1.0 and s.field_significant

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            field_significance("g", [])


class TestEqualProportions:
    def test_identical_proportions(self):
        r = equal_proportions_test(10, 20, 10, 20)
        assert r.diff == 0.0 and r.p == 1.0
        assert r.ci_low < 0 < r.ci_high

    def test_maximal_separation(self):
        r = equal_proportions_test(20, 20, 0, 20)
        assert r.diff == 1.0 and r.p < 0.001

    def test_newcombe_interval_against_root_finder(self):
        zq = scipy.stats.norm.ppf(0.975)

        def wilson_by_roots(k, n):
            ph = k / n

            def score(q):
                return (ph - q) ** 2 - zq**2 * q * (1 - q) / n

            lo = scipy.optimize.brentq(score, 0.0, ph) if k > 0 else 0.0
            hi = scipy.optimize.brentq(score, ph, 1.0) if k < n else 1.0
            return lo, hi

        k1, n1, k2, n2 = 56, 70, 48, 80
        l1, u1 = wilson_by_roots(k1, n1)
        l2, u2 = wilson_by_roots(k2, n2)
        p1, p2 = k1 / n1, k2 / n2
        want_lo = (p1 - p2) - np.sqrt((p1 - l1) ** 2 + (u2 - p2) ** 2)
        want_hi = (p1 - p2) + np.sqrt((u1 - p1) ** 2 + (p2 - l2) ** 2)

        r = equal_proportions_test(k1, n1, k2, n2)
        assert r.diff == pytest.approx(0.2, rel=1e-12)
        assert r.ci_low == pytest.approx(want_lo, abs=1e-10)
        assert r.ci_high == pytest.approx(want_hi, abs=1e-10)

    def test_interval_covers_diff(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            n1, n2 = int(rng.integers(5, 60)), int(rng.integers(5, 60))
            k1, k2 = int(rng.integers(0, n1 + 1)), int(rng.integers(0, n2 + 1))
            r = equal_proportions_test(k1, n1, k2, n2)
            assert r.ci_low <= r.diff <= r.ci_high
            assert 0.0 <= r.p <= 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            equal_proportions_test(5, 4, 1, 10)
        with pytest.raises(ValueError):
            equal_proportions_test(0, 0, 1, 10)


class TestWilcoxon:
    def test_exact_separated_triples(self):
        w, p = wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
        assert w == 6.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_exact_singletons(self):
        _, p = wilcoxon_ranksum([1], [2])
        assert p == pytest.approx(1.0)

    def test_equal_multisets(self):
        # tie-free, so the exact regime; W equals its mean 18
        _, p = wilcoxon_ranksum([1, 4, 5, 8], [2, 3, 6, 7])
        assert p == pytest.approx(1.0)
        _, p = wilcoxon_ranksum([1, 2, 3], [3, 1, 2])
        assert p == pytest.approx(1.0)

    def test_constant_equal_groups(self):
        _, p = wilcoxon_ranksum([5, 5, 5], [5, 5, 5, 5])
        assert p == 1.0

    def test_normal_mode_matches_scipy_with_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = rng.integers(0, 6, 14).astype(float)
            b = rng.integers(0, 6, 17).astype(float)
            if np.unique(np.concatenate([a, b])).size < 2:
                continue
            _, p = wilcoxon_ranksum(a, b)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_normal_close_to_exact_at_eight(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 25:
            pooled = rng.normal(0, 1, 16)
            if np.unique(pooled).size < 16:
                continue
            a, b = pooled[:8], pooled[8:]
            p_exact = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
            _, p_norm = wilcoxon_ranksum(a, b)
            assert abs(p_exact - p_norm) <= 0.02
            checked += 1

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_ranksum([], [1.0])


class TestSpearman:
    def test_hand_example(self):
        r = spearman([1, 2, 3, 4], [2, 1, 4, 3])
        assert not r.undefined
        assert r.rho == pytest.approx(0.6, rel=1e-12)
        t = 0.6 * np.sqrt(2 / (1 - 0.36))
        assert r.p == pytest.approx(2 * scipy.stats.t.sf(t, 2), rel=1e-12)

    def test_monotone_transform(self):
        x = np.array([0.5, 1.0, 2.0, 3.5, 7.0])
        r = spearman(x, x**2)
        assert r.rho == 1.0 and r.p == 0.0

    def test_reversal(self):
        x = np.arange(6.0)
        r = spearman(x, -x)
        assert r.rho == -1.0 and r.p == 0.0

    def test_constant_flagged(self):
        r = spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert r.undefined
        assert np.isnan(r.rho)

    def test_rank_idempotence(self):
        rng = np.random.default_rng(33)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0, 1, 30)
        a = spearman(x, y)
        b = spearman(scipy.stats.rankdata(x), scipy.stats.rankdata(y))
        assert a.rho == b.rho and a.p == b.p

    def test_matches_scipy(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            x = rng.normal(0, 1, 25)
            y = 0.4 * x + rng.normal(0, 1, 25)
            mine = spearman(x, y)
            ref = scipy.stats.spearmanr(x, y)
            assert mine.rho == pytest.approx(ref.statistic, rel=1e-12)
            assert mine.p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2])


class TestDirectionAndCsv:
    def test_direction_rules(self):
        assert comparison_direction(1.5, 0.01) == "UC-higher"
        assert comparison_direction(-0.5, 0.04) == "nonUC-higher"
        assert comparison_direction(2.0, 0.05) == "not-significant"
        assert comparison_direction(0.0, 0.001) == "not-significant"

    def test_trends_csv_shape(self, tmp_path):
        series = _annual([1, 2, 3, 4, 5])
        regional = regional_mann_kendall([series])
        slope = sen_slopes([series])[0]
        row = pipeline.trends_row("NYC", "cdd", "annual", "uc", regional, slope)
        path = tmp_path / "trends.csv"
        write_csv(path, pipeline.TRENDS_HEADER, [row])
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert tuple(lines[0]) == pipeline.TRENDS_HEADER
        fields = lines[1]
        assert fields[:4] == ["NYC", "cdd", "annual", "uc"]
        assert int(fields[4]) == 10
        assert fields[8] == ""
        assert float(fields[9]) == pytest.approx(1.0)

    def test_comparison_csv_shape(self, tmp_path):
        cell = pipeline.MedianCell(
            pair="NYC",
            metric="cdd",
            season="annual",
            median_uc=12.0,
            median_nonuc=10.5,
            wilcoxon_p=0.01,
            direction="UC-higher",
            note="",
        )
        trend_row = {"uc_prop": "0.5", "nonuc_prop": "0.25", "prop_p": "0.2"}
        path = tmp_path / "comparison.csv"
        write_csv(path, pipeline.COMPARISON_HEADER, [pipeline.comparison_row(cell, trend_row)])
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert tuple(lines[0]) == pipeline.COMPARISON_HEADER
        fields = lines[1]
        assert fields[0] == "NYC"
        assert float(fields[3]) == pytest.approx(1.5)
        assert [float(f) for f in fields[5:8]] == [0.5, 0.25, 0.2]
        assert fields[-1] == "UC-higher"


# Per-series and per-cell references: the code the row blocks replaced,
# which they must match bit for bit.
def _mann_kendall_per_series(years, values):
    years = np.asarray(years, dtype=float)
    n = values.size
    i, j = np.triu_indices(n, k=1)
    slope = float(np.median((values[j] - values[i]) / (years[j] - years[i]))) if n >= 2 else float("nan")
    if n < 4 or np.unique(values).size < 2:
        return TrendResult(s=0, var_s=0.0, z=0.0, p=1.0, slope=slope, untestable=True)
    s = int(np.sign(values[j] - values[i]).sum())
    _, counts = np.unique(values, return_counts=True)
    ties = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    var_s = (n * (n - 1) * (2 * n + 5) - ties) / 18.0
    z = _z_with_continuity(s, var_s)
    return TrendResult(s=s, var_s=var_s, z=z, p=_two_sided_p(z), slope=slope)


def _spearman_per_cell(x, y):
    n = x.size
    if np.unique(x).size < 2 or np.unique(y).size < 2:
        return SpearmanResult(rho=float("nan"), p=float("nan"), undefined=True)
    rx, ry = scipy.stats.rankdata(x), scipy.stats.rankdata(y)
    cx, cy = rx - rx.mean(), ry - ry.mean()
    rho = max(-1.0, min(1.0, float(cx @ cy / math.sqrt((cx @ cx) * (cy @ cy)))))
    if abs(rho) == 1.0:
        return SpearmanResult(rho=rho, p=0.0, undefined=False)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return SpearmanResult(rho=rho, p=float(stats._t_tail(n - 2, t)), undefined=False)


def _same(a, b):
    """Equal field by field, types included, NaN equal to NaN, -0.0 apart from 0.0."""
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


def _tied_block(rng, k, n):
    """k rows over n values: ties, constant rows and magnitudes 1e-3 to 1e3."""
    scale = 10.0 ** rng.uniform(-3, 3, (k, 1))
    x = rng.integers(-4, 5, (k, n)) * scale if rng.random() < 0.5 else rng.normal(0.0, 1.0, (k, n)) * scale
    x[rng.random(k) < 0.15] = 2.5
    return x


class TestBlocksMatchPerSeriesCode:
    def test_station_trends_in_shared_year_blocks(self):
        rng = np.random.default_rng(60)
        for _ in range(150):
            k, n = int(rng.integers(1, 26)), int(rng.integers(0, 40))
            years = np.sort(rng.choice(np.arange(1900, 2020), n, replace=False))
            x = _tied_block(rng, k, n)
            group = [AnnualSeries(f"S{m:02d}", "cdd", years, x[m]) for m in range(k)]
            ref = [_mann_kendall_per_series(years, x[m]) for m in range(k)]
            stations = regional_mann_kendall(group).stations
            assert len(stations) == k
            assert all(_same(got, want) for got, want in zip(stations, ref))
            assert all(_same(mann_kendall(s), want) for s, want in zip(group, ref))

    def test_lone_series_with_non_finite_values(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(0, 30))
            v = _tied_block(rng, 1, n)[0]
            v[rng.random(n) < 0.2] = np.nan
            years = np.arange(1950, 1950 + n)
            keep = np.isfinite(v)
            assert _same(mann_kendall(AnnualSeries("A", "cdd", years, v)), _mann_kendall_per_series(years[keep], v[keep]))

    def test_sen_slopes_stack_equal_years(self):
        rng = np.random.default_rng(62)
        spans = [np.arange(1956, 2016), np.arange(1956, 2015), np.array([2000, 2003, 2004, 2010]), np.array([1990]), np.array([], dtype=int)]
        series = []
        for m in range(40):
            years = spans[int(rng.integers(0, len(spans)))]
            series.append(AnnualSeries(f"S{m}", "cdd", years, _tied_block(rng, 1, years.size)[0]))
        got = sen_slopes(series)
        for s, slope in zip(series, got):
            ref = _mann_kendall_per_series(s.years, s.values).slope
            assert repr(slope) == repr(ref) == repr(sen_slopes([s])[0])
        # a None entry gives NaN and leaves its neighbours' slopes unchanged
        gapped = sen_slopes([None] + series[:20] + [None, None] + series[20:] + [None])
        want = [math.nan, *got[:20], math.nan, math.nan, *got[20:], math.nan]
        assert [repr(slope) for slope in gapped] == [repr(slope) for slope in want]
        assert repr(sen_slopes([None])) == "[nan]" and sen_slopes([]) == []

    def test_sen_slopes_of_more_equal_year_series_than_a_piece_holds(self):
        # 300 series over 62 years: 1,891 pairwise slopes each, 17 series
        # to a piece of _SEN_ENTRIES slopes
        rng = np.random.default_rng(64)
        years = np.arange(1956, 2018)
        pairs = years.size * (years.size - 1) // 2
        series = [AnnualSeries(f"S{m}", "cdd", years, _tied_block(rng, 1, years.size)[0]) for m in range(300)]
        assert len(series) > 4 * (stats._SEN_ENTRIES // pairs)
        tracemalloc.start()
        try:
            got = sen_slopes(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [repr(slope) for slope in got] == [repr(sen_slopes([s])[0]) for s in series]
        # one piece's work (two column gathers and their differences, or the
        # differences, the slopes and their sort), the pair indices and time
        # gaps, 128 bytes per series of output and keys, and 64 KiB for the
        # rest: the peak does not grow with the series' pairwise slopes
        budget = 4 * 8 * stats._SEN_ENTRIES + 3 * 8 * pairs + 128 * len(series) + 2**16
        assert peak < budget, (peak, budget)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.sampled_from([-0.0, 0.0, -5e-324, 5e-324, -1.5, 3.0, math.nan, math.inf, -math.inf]),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_sen_rows_equal_np_median_signed_zeros_included(self, rows):
        """Signed zeros and subnormals straddling the middle: the sorted-block
        median equals np.median bit for bit, the sign of a zero included."""
        diffs = np.array(rows)
        n = int(round((1 + math.sqrt(1 + 8 * diffs.shape[1])) / 2))
        times = np.arange(n, dtype=float)
        i, j = np.triu_indices(n, k=1)
        with np.errstate(invalid="ignore"):
            ratios = diffs / (times[j] - times[i])
            got = stats._sen_rows(times, diffs.copy())
            want = np.median(ratios, axis=1)
            lone = np.array([np.median(row) for row in ratios])
        for ref in (want, lone):
            assert np.array_equal(got, ref, equal_nan=True)
            finite = ~np.isnan(ref)
            assert np.array_equal(np.signbit(got[finite]), np.signbit(ref[finite]))

    @pytest.mark.parametrize(
        "diffs, want",
        [
            # a middle -0.0 alone, or a pair of them, gives +0.0
            ([-0.0, 0.0, -0.0], "0.0"),
            ([-0.0, 4.0, 6.0, -0.0, -0.0, -5.0], "0.0"),
            # the smallest negative subnormal and a zero halve to -0.0
            ([-5e-324, 4.0, 6.0, -5e-324, 0.0, -5e-324], "-0.0"),
        ],
    )
    def test_sen_rows_sign_of_a_zero_median(self, diffs, want):
        n = 3 if len(diffs) == 3 else 4
        times = np.arange(float(n))
        i, j = np.triu_indices(n, k=1)
        assert repr(float(stats._sen_rows(times, np.array([diffs]))[0])) == want
        assert repr(float(np.median(np.array(diffs) / (times[j] - times[i])))) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-0.0, 0.0, -5e-324, 5e-324, -1.5, 3.0, math.nan, math.inf, -math.inf]), min_size=1, max_size=9
        )
    )
    def test_median_equals_np_median_signed_zeros_included(self, values):
        # the one-dimensional form the compare and correlate stages take
        x = np.array(values)
        with np.errstate(invalid="ignore"):
            got, want = float(stats.median(x)), float(np.median(x))
        assert repr(got) == repr(want)

    def test_spearman_columns(self):
        rng = np.random.default_rng(63)
        for _ in range(300):
            n, m = int(rng.integers(3, 30)), int(rng.integers(1, 9))
            x = _tied_block(rng, 1, n)[0]
            ys = _tied_block(rng, m, n).T
            # exactly monotone columns give rho of +1 and -1
            ys[:, 0] = np.argsort(np.argsort(x)) * (1.0 if rng.random() < 0.5 else -1.0)
            rho, t, undefined = spearman_t(x, ys)
            p = spearman_p(n - 2, t)
            for col in range(m):
                ref = _spearman_per_cell(x, ys[:, col])
                got = SpearmanResult(rho=float(rho[col]), p=float(p[col]), undefined=bool(undefined[col]))
                assert _same(got, ref)
                assert _same(spearman(x, ys[:, col]), ref)


def _rank_correlations_per_cell(pair_ids, summaries, covariates, metrics, seasons):
    """rank_correlation_matrices one cell at a time, the reference."""
    rows = pipeline._matrix_rows(metrics, seasons)
    out = []
    for flavor in ("uc", "diff"):
        rho = np.full((len(rows), len(pipeline.COVARIATE_NAMES)), np.nan)
        pval = np.full_like(rho, np.nan)
        n_used = np.zeros(rho.shape, dtype=int)
        flags = []
        for i, (metric, season, stat) in enumerate(rows):
            x = np.array([summaries.get((pid, metric, season), {}).get(f"{flavor}_{stat}", np.nan) for pid in pair_ids])
            row_flags = []
            for j, name in enumerate(pipeline.COVARIATE_NAMES):
                y = np.array([getattr(covariates[pid], name) if pid in covariates else np.nan for pid in pair_ids])
                ok = np.isfinite(x) & np.isfinite(y)
                n = int(ok.sum())
                n_used[i, j] = n
                if n < 3:
                    row_flags.append("insufficient")
                    continue
                result = _spearman_per_cell(x[ok], y[ok])
                if result.undefined:
                    row_flags.append("undefined")
                    continue
                rho[i, j], pval[i, j] = result.rho, result.p
                row_flags.append("n<8" if n < 8 else "")
            flags.append(tuple(row_flags))
        out.append((rho, pval, n_used, tuple(flags)))
    return out


class TestRankCorrelationMatricesMatchPerCellLoop:
    def test_nan_covariates_ties_and_small_n(self):
        rng = np.random.default_rng(64)
        metrics, seasons = ("TAVG", "CDD"), ("JJA",)
        cells = pipeline._cell_rows(metrics, seasons)
        for _ in range(40):
            n_pairs = int(rng.integers(0, 14))
            pair_ids = tuple(f"UC{k:02d}" for k in range(n_pairs))
            covariates = {}
            for pid in pair_ids:
                if rng.random() < 0.1:
                    continue
                values = np.round(rng.normal(0.0, 2.0, len(pipeline.COVARIATE_NAMES)) * 2) / 2
                values[rng.random(values.size) < 0.15] = np.nan
                covariates[pid] = ExplanatoryVars(pid, "CR" + pid, *values.tolist())
            summaries = {}
            for pid in pair_ids:
                for metric, season in cells:
                    if rng.random() < 0.1:
                        continue
                    v = np.round(rng.normal(0.0, 1.0, 4) * 2) / 2
                    v[rng.random(4) < 0.15] = np.nan
                    summaries[(pid, metric, season)] = dict(zip(("uc_median", "uc_slope", "diff_median", "diff_slope"), v.tolist()))
            got = pipeline.rank_correlation_matrices(pair_ids, summaries, covariates, metrics, seasons)
            ref = _rank_correlations_per_cell(pair_ids, summaries, covariates, metrics, seasons)
            for matrix, (rho, pval, n_used, flags) in zip(got, ref):
                assert repr(matrix.rho.tolist()) == repr(rho.tolist())
                assert repr(matrix.p.tolist()) == repr(pval.tolist())
                assert np.array_equal(matrix.n, n_used)
                assert matrix.flags == flags
