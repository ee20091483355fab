"""Normalization, histograms, KS and chi-square machinery."""

import math

import numpy as np
import pytest
from scipy.special import kolmogorov as scipy_kolmogorov

from spacinglab import curves, ensembles, stats
from spacinglab.stats import (
    chi_square,
    ecdf,
    histogram,
    kolmogorov_sf,
    ks_test,
    normalize,
)


def goe_quantile(q):
    """Closed-form inverse of the linear-repulsion curve's CDF."""
    return np.sqrt(-4.0 * np.log1p(-np.asarray(q)) / math.pi)


class TestNormalize:
    def test_constant_sample(self):
        s = normalize([2.0, 2.0, 2.0])
        assert s.mean == 2.0
        assert np.array_equal(s.normalized, [1.0, 1.0, 1.0])

    def test_order_preserved(self):
        s = normalize([1.0, 3.0])
        assert s.mean == 2.0
        assert np.array_equal(s.normalized, [0.5, 1.5])

    def test_scale_invariance(self):
        raw = np.array([0.2, 1.4, 3.3, 0.9])
        assert np.allclose(normalize(raw).normalized, normalize(7.0 * raw).normalized,
                           rtol=0, atol=1e-15)

    def test_unit_mean_invariant(self):
        rng = np.random.default_rng(0)
        s = normalize(rng.exponential(5.0, size=10_001))
        assert abs(s.normalized.mean() - 1.0) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            normalize([])
        with pytest.raises(ValueError):
            normalize([0.0, 0.0])
        with pytest.raises(ValueError):
            normalize([1.0, -0.5])
        with pytest.raises(ValueError):
            normalize([1.0, math.inf])


class TestEcdf:
    def test_step_values_and_right_continuity(self):
        vals = np.array([1.0, 2.0, 2.0, 4.0])
        assert ecdf(vals, 0.5) == 0.0
        assert ecdf(vals, 1.0) == 0.25  # right-continuous: jump included at the point
        assert ecdf(vals, 2.0) == 0.75
        assert ecdf(vals, 4.0) == 1.0
        assert ecdf(vals, 9.0) == 1.0

    def test_nondecreasing(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=300)
        grid = np.linspace(-4, 4, 1001)
        assert np.all(np.diff(ecdf(vals, grid)) >= 0.0)


class TestKolmogorovSf:
    def test_against_scipy_oracle(self):
        for lam in np.concatenate([np.linspace(0.05, 0.99, 20), np.linspace(1.0, 4.0, 31)]):
            assert abs(kolmogorov_sf(lam) - scipy_kolmogorov(lam)) < 1e-8

    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80


class TestKsTest:
    def test_sample_from_own_curve(self):
        # inverse-CDF transform of 1e5 uniforms through the closed-form
        # linear-repulsion quantile function
        rng = np.random.default_rng(314)
        raw = goe_quantile(rng.uniform(size=100_000))
        res = ks_test(normalize(raw), "GOE")
        assert res.d < 0.006
        assert res.n == 100_000
        assert 0.0 <= res.p_value <= 1.0

    def test_exact_quantile_points(self):
        n = 1000
        raw = goe_quantile((np.arange(1, n + 1) - 0.5) / n)
        res = ks_test(normalize(raw), "GOE")
        assert res.d <= 0.5 / n + 1e-4

    def test_quantile_d_shrinks_with_n(self):
        ds = {}
        for n in (100, 10_000):
            raw = goe_quantile((np.arange(1, n + 1) - 0.5) / n)
            ds[n] = ks_test(normalize(raw), "GOE").d
        assert ds[100] / ds[10_000] >= 10.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        raw = rng.gamma(2.0, 1.0, size=2000)
        d1 = ks_test(normalize(raw), "GUE").d
        d2 = ks_test(normalize(437.5 * raw), "GUE").d
        assert d1 == d2

    def test_detects_wrong_curve(self):
        sample, _ = ensembles.sample_spacings(ensembles.GSE, 20_000,
                                              ensembles.SamplerConfig(seed=5))
        assert ks_test(sample, "GSE").d < 0.02
        assert ks_test(sample, "GOE").d > 0.1

    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("kind", [ensembles.GOE, ensembles.GPUE], ids=str)
    def test_asymptotic_p_is_conservative_after_normalization(self, kind, n):
        # samples of the curve's own law, scaled to unit sample mean: a calibrated
        # p would fall below 0.05 in about 20 of 400 draws; this one almost never does
        rejected = sum(
            ks_test(ensembles.sample_spacings(kind, n, ensembles.SamplerConfig(seed=s))[0],
                    kind.reference_curve).p_value < 0.05
            for s in range(400)
        )
        assert rejected <= 4


class TestHistogram:
    def test_two_bins(self):
        h = histogram(normalize([0.5, 1.5]), bins=2, value_range=(0.0, 2.0))
        assert np.array_equal(h.counts, [1, 1])
        assert np.allclose(h.density, [0.5, 0.5])
        assert h.out_of_range == 0

    def test_no_overlap(self):
        h = histogram(normalize([0.5, 1.5]), bins=4, value_range=(5.0, 6.0))
        assert np.all(h.counts == 0)
        assert h.out_of_range == 2

    def test_upper_edge_excluded(self):
        h = histogram(normalize([1.0, 3.0]), bins=2, value_range=(0.0, 1.5))
        # normalized values are 0.5 and 1.5; 1.5 == hi falls out of range
        assert h.counts.sum() == 1
        assert h.out_of_range == 1

    def test_density_integrates_to_in_range_fraction(self):
        rng = np.random.default_rng(3)
        s = normalize(rng.exponential(1.0, size=5000))
        h = histogram(s, bins=37, value_range=(0.2, 2.9))
        width = np.diff(h.edges)
        frac = (h.n_total - h.out_of_range) / h.n_total
        assert abs(float(np.sum(h.density * width)) - frac) < 1e-12

    def test_mc_density_tracks_curve(self):
        sample, _ = ensembles.sample_spacings(ensembles.GOE, 1_000_000,
                                              ensembles.SamplerConfig(seed=12))
        h = histogram(sample, bins=100, value_range=(0.0, 4.0))
        centers = 0.5 * (h.edges[:-1] + h.edges[1:])
        assert np.max(np.abs(h.density - curves.pdf("GOE", centers))) < 0.02

    def test_validation(self):
        s = normalize([1.0, 2.0])
        with pytest.raises(ValueError):
            histogram(s, bins=0, value_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            histogram(s, bins=5, value_range=(1.0, 1.0))
        for bad in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                histogram(s, bins=10, value_range=bad)


class TestChiSquare:
    def test_exact_match_is_zero(self):
        # build a histogram whose counts equal the expected counts exactly
        edges = np.linspace(0.0, 4.0, 9)
        mass = np.diff(curves.cdf("GOE", edges))
        n = 10_000
        h = stats.Histogram(edges=edges, counts=n * mass, density=mass / np.diff(edges),
                            n_total=n, out_of_range=0)
        res = chi_square(h, "GOE")
        assert res.statistic < 1e-18

    def test_goe_mc_statistic_in_concentration_band(self):
        sample, _ = ensembles.sample_spacings(ensembles.GOE, 100_000,
                                              ensembles.SamplerConfig(seed=13))
        h = histogram(sample, bins=50, value_range=(0.0, 4.0))
        res = chi_square(h, "GOE")
        lo = res.dof - 4.0 * math.sqrt(2.0 * res.dof)
        hi = res.dof + 4.0 * math.sqrt(2.0 * res.dof)
        assert lo <= res.statistic <= hi

    def test_gross_mismatch_is_large(self):
        h = histogram(normalize(np.full(1000, 3.0)), bins=8, value_range=(0.0, 4.0))
        res = chi_square(h, "GOE")
        assert res.statistic > 1000.0

    def test_underfull_bins_merged_rightward(self):
        sample, _ = ensembles.sample_spacings(ensembles.GOE, 2_000,
                                              ensembles.SamplerConfig(seed=14))
        h = histogram(sample, bins=60, value_range=(0.0, 6.0))
        res = chi_square(h, "GOE", min_expected=5.0)
        assert res.merged_bins < 60
        assert res.dof == res.merged_bins - 1

    def test_too_few_bins_after_merge(self):
        h = histogram(normalize([1.0, 1.1, 0.9]), bins=2, value_range=(0.0, 4.0))
        with pytest.raises(ValueError):
            chi_square(h, "GOE", min_expected=5.0)
