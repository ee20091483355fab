"""Analytic curves: constants, frozen pdf oracle values, closed-form cdf
against direct quadrature, and moments."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spacinglab
from spacinglab import curves, specfun
from spacinglab.curves import cdf, constants, moment, pdf, small_x_approx

# mpmath oracle (40 digits, rounded to double)
ALPHA_GPOE = 0.5818024568173420
BETA_GPOE = 0.4569465810444636
B_GPUE = 1.4515351070109914
ALPHA_GPUE = 2.5433186624966314
BETA_GPUE = 0.5267385417213526
GAMMA_GPUE = 1.0263903172978129
GUE_PDF_1 = 0.9075892109166814
GOE_MEDIAN_X = 0.9394372786996513

PDF_POINTS = {
    "GPOE": [(0.25, 0.534190895455325), (0.5, 0.667950939604740),
             (1.0, 0.581744048110563), (2.0, 0.164011448742069),
             (3.5, 0.00391686031960841)],
    "GPUE": [(0.25, 0.470945490865805), (0.5, 0.678873997956159),
             (1.0, 0.631518330876260), (2.0, 0.154565204762048),
             (3.5, 0.00212698291651247)],
    "GSE": [(0.25, 0.0393262657172901), (1.0, 1.20592739350741),
            (3.5, 1.57897469365698e-09)],
}


class TestConstants:
    def test_gpoe_matches_published_decimals(self):
        c = constants("GPOE")
        assert abs(c.alpha - 0.5818) <= 5e-5
        assert abs(c.beta - 0.4569) <= 5e-5

    def test_gpoe_matches_oracle(self):
        c = constants("GPOE")
        assert abs(c.alpha - ALPHA_GPOE) / ALPHA_GPOE < 1e-12
        assert abs(c.beta - BETA_GPOE) / BETA_GPOE < 1e-12

    def test_gpue_matches_published_decimals(self):
        c = constants("GPUE")
        assert abs(c.alpha - 2.5433) <= 5e-4
        assert abs(c.beta - 0.5267) <= 5e-4
        assert abs(c.gamma - 1.0263) <= 5e-4

    def test_gpue_matches_oracle(self):
        c = constants("GPUE")
        for got, want in [(c.B, B_GPUE), (c.alpha, ALPHA_GPUE),
                          (c.beta, BETA_GPUE), (c.gamma, GAMMA_GPUE)]:
            assert abs(got - want) / want < 1e-12

    def test_gpue_constant_relations(self):
        c = constants("GPUE")
        assert abs(c.gamma - c.B / math.sqrt(2.0)) <= 1e-12
        assert abs(c.beta - c.B * c.B / 4.0) <= 1e-12
        assert abs(c.alpha - c.B * c.B / (2.0 * (math.sqrt(2.0) - 1.0))) <= 1e-12

    def test_classical_coefficients(self):
        pi = math.pi
        assert constants("GOE") == curves.CurveConstants(pi / 2, pi / 4)
        assert constants("GUE") == curves.CurveConstants(32 / pi**2, 4 / pi)
        assert constants("GSE") == curves.CurveConstants(2**18 / (3**6 * pi**3), 64 / (9 * pi))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            constants("POISSON")


class TestPdf:
    def test_zero_at_origin_for_all_kinds(self):
        for kind in curves.CURVE_ORDER:
            assert pdf(kind, 0.0) == 0.0

    def test_gue_at_one(self):
        assert abs(pdf("GUE", 1.0) - GUE_PDF_1) / GUE_PDF_1 < 1e-14

    @pytest.mark.parametrize("kind", sorted(PDF_POINTS))
    def test_oracle_points(self, kind):
        for x, expected in PDF_POINTS[kind]:
            assert abs(pdf(kind, x) - expected) / expected < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pdf("GOE", -0.1)
        with pytest.raises(ValueError):
            pdf("GPUE", np.array([0.5, -1.0]))

    def test_nan_rejected(self):
        for kind in curves.CURVE_ORDER:
            with pytest.raises(ValueError):
                pdf(kind, math.nan)

    def test_gpoe_tiny_arguments_finite(self):
        vals = pdf("GPOE", np.array([0.0, 1e-300, 1e-12, 1e-6]))
        assert np.all(np.isfinite(vals)) and vals[0] == 0.0 and np.all(vals[1:] > 0.0)

    def test_gpue_large_arguments_no_overflow(self):
        vals = pdf("GPUE", np.array([20.0, 40.0, 1000.0]))
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 4.0, 9)
        for kind in curves.CURVE_ORDER:
            vec = pdf(kind, xs)
            assert vec.shape == xs.shape
            assert all(vec[i] == pdf(kind, float(x)) for i, x in enumerate(xs))

    def test_repulsion_exponents(self):
        # pdf/x^r approaches a positive constant; ratio stable to 1% at 1e-3 vs 1e-4
        for kind, r in (("GOE", 1), ("GUE", 2), ("GSE", 4)):
            hi = pdf(kind, 1e-3) / 1e-3**r
            lo = pdf(kind, 1e-4) / 1e-4**r
            assert hi > 0 and lo > 0
            assert abs(hi / lo - 1.0) < 0.01

    def test_weaker_repulsion_ordering(self):
        xs = np.linspace(0.05, 0.35, 301)
        stack = [pdf(k, xs) for k in ("GPOE", "GPUE", "GOE", "GUE", "GSE")]
        for upper, lower in zip(stack, stack[1:]):
            assert np.all(upper > lower)

    def test_unimodality(self):
        xs = np.linspace(0.0, 8.0, 10_000)
        for kind in curves.CURVE_ORDER:
            slope_sign = np.sign(np.diff(pdf(kind, xs)))
            changes = np.count_nonzero(np.diff(slope_sign[slope_sign != 0]) != 0)
            assert changes == 1


class TestCdf:
    def test_zero_at_origin(self):
        for kind in curves.CURVE_ORDER:
            assert cdf(kind, 0.0) == 0.0

    def test_goe_median(self):
        assert abs(cdf("GOE", GOE_MEDIAN_X) - 0.5) < 1e-10

    def test_total_mass(self):
        for kind in curves.CURVE_ORDER:
            assert abs(cdf(kind, 50.0) - 1.0) <= 1e-8

    def test_monotone(self):
        xs = np.linspace(0.0, 12.0, 4001)
        for kind in curves.CURVE_ORDER:
            vals = cdf(kind, xs)
            assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_matches_direct_quadrature(self, kind):
        rng = np.random.default_rng(abs(hash(kind)) % 2**32)
        xs = np.concatenate([rng.uniform(0.0, 8.0, 47), [1e-4, 1e-3, 0.01]])
        spec = specfun.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)
        for x in xs:
            direct = specfun.integrate(lambda t: pdf(kind, t), 0.0, float(x), spec).value
            assert abs(cdf(kind, float(x)) - direct) <= 1e-10

    def test_goe_closed_form_oracle(self):
        # independent closed form 1 - exp(-pi x^2/4)
        xs = np.linspace(0.05, 6.0, 40)
        closed = 1.0 - np.exp(-math.pi * xs * xs / 4.0)
        assert np.max(np.abs(cdf("GOE", xs) - closed)) < 1e-10

    @pytest.mark.parametrize("grid", [(0.0, 4.0, 100_001), (0.0, 1e-3, 4001)])
    def test_monotone_on_printed_grid(self, grid):
        # the grid as the `curve` CSV prints it: 12 significant digits
        xs = np.array([float(format(v, ".12g")) for v in np.linspace(*grid)])
        for kind in curves.CURVE_ORDER:
            assert np.all(np.diff(cdf(kind, xs)) >= 0.0), kind

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cdf("GUE", -0.5)

    def test_nan_rejected(self):
        for kind in curves.CURVE_ORDER:
            with pytest.raises(ValueError):
                cdf(kind, math.nan)
            with pytest.raises(ValueError):
                cdf(kind, np.array([0.5, math.nan]))

    def test_huge_and_infinite_saturate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for kind in curves.CURVE_ORDER:
                vals = cdf(kind, np.array([1e200, math.inf]))
                assert np.all(np.isfinite(vals)), kind
                assert np.all(np.abs(vals - 1.0) <= 1e-14), kind


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.integrate"])
def test_import_skips_scipy_submodule(module):
    src = str(Path(spacinglab.__file__).resolve().parents[1])
    code = f"import sys, spacinglab; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"


class TestMoment:
    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_normalization_and_mean(self, kind):
        assert abs(moment(kind, 0) - 1.0) <= 1e-8
        assert abs(moment(kind, 1) - 1.0) <= 1e-6

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_matches_quadrature(self, kind, k):
        spec = specfun.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=400)
        direct = specfun.integrate(lambda t: t**k * pdf(kind, t), 0.0, math.inf, spec).value
        assert abs(moment(kind, k) - direct) <= 1e-12 * direct

    def test_goe_second_moment_closed_form(self):
        assert abs(moment("GOE", 2) - 4.0 / math.pi) < 1e-9

    def test_order_validation(self):
        with pytest.raises(ValueError):
            moment("GOE", 5)
        with pytest.raises(ValueError):
            moment("GOE", -1)


class TestSmallXApprox:
    def test_gpoe_value(self):
        expected = 0.1 * (0.5 - 1.2 * math.log(0.1))
        assert abs(small_x_approx("GPOE", 0.1) - expected) < 1e-15
        assert abs(expected - 0.32631021115928547) < 1e-15

    def test_gpue_values(self):
        assert abs(small_x_approx("GPUE", 0.1) - 0.22625) < 1e-15
        assert abs(small_x_approx("GPUE", 0.4) - 0.62) < 1e-15

    def test_domain(self):
        for bad in (0.0, 0.5, 0.7, -0.1, math.nan, [0.1, math.nan]):
            for kind in ("GPOE", "GPUE"):
                with pytest.raises(ValueError):
                    small_x_approx(kind, bad)

    def test_only_pseudo_kinds(self):
        with pytest.raises(ValueError):
            small_x_approx("GOE", 0.2)
