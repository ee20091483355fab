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
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# GPUE cdf by mpmath quadrature of its density (40 digits, exact constants)
GPUE_CDF_POINTS = [(1e-8, 1.2716593214297709e-16), (1e-5, 1.2716495127369401e-10),
                   (1e-3, 1.2706778115742221e-6), (0.1, 0.011767252219322895),
                   (0.45, 0.18026269665095203)]


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

    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_zero_at_infinity_and_huge_x(self, kind):
        # warnings are errors here: inf * exp(-inf) must not be evaluated
        assert pdf(kind, math.inf) == 0.0
        vals = pdf(kind, np.array([0.5, 60.0, 1e200, 1.7e308, math.inf]))
        assert vals[0] > 0.0
        assert vals[1:].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_gpoe_tiny_arguments_finite(self):
        # beta x^2 is subnormal at 2.33e-162 .. 4.02e-162, where k0 itself is inf
        vals = pdf("GPOE", np.array([0.0, 1e-300, 2.33e-162, 3e-162, 4.02e-162, 1e-12, 1e-6]))
        assert np.all(np.isfinite(vals)) and vals[0] == 0.0 and np.all(vals[1:] > 0.0)

    def test_gpoe_small_x_matches_mpmath(self):
        # on both sides of the threshold (beta x^2 = _TINY at x = 2.21e-154), and where
        # the pdf is subnormal: within 4e-15 relative plus one subnormal ulp
        mpmath = pytest.importorskip("mpmath")
        c = constants("GPOE")
        xs = [5e-324, 1e-323, 1e-321, 1e-318, 1e-310, 1e-200, 2.33e-162, 3e-162, 4.02e-162,
              5.2e-162, 1e-160, 1e-158, 2e-154, 3e-154, 1e-150]
        got = pdf("GPOE", np.array(xs))
        with mpmath.workdps(50):
            for x, value in zip(xs, got.tolist()):
                x = mpmath.mpf(x)
                want = mpmath.mpf(c.alpha) * x * mpmath.besselk(0, mpmath.mpf(c.beta) * x * x)
                assert abs(value - want) <= 4e-15 * want + 5e-324, float(x)

    def test_gpue_large_arguments_no_overflow(self):
        vals = pdf("GPUE", np.array([20.0, 40.0, 1000.0]))
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)

    @pytest.mark.parametrize("fn", [pdf, cdf], ids=["pdf", "cdf"])
    def test_vectorized_matches_scalar(self, fn):
        # 5e-324 and 1e-200 underflow beta x^2, so GPOE's pdf takes its K0 limit there
        xs = np.append(np.linspace(0.0, 4.0, 9), [5e-324, 1e-200])
        for kind in curves.CURVE_ORDER:
            vec = fn(kind, xs)
            assert vec.shape == xs.shape
            for i, x in enumerate(xs):
                for scalar in (float(x), np.float64(x), np.array(x)):
                    value = fn(kind, scalar)
                    assert type(value) is float and value == vec[i]

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
        for x in xs:
            direct = specfun.integrate(lambda t: pdf(kind, t), 0.0, float(x))
            assert abs(cdf(kind, float(x)) - direct) <= 1e-10

    def test_gpue_small_x_relative_accuracy(self):
        # where the survival form 1 - S cancels: all of its digits by x = 1e-8
        for x, expected in GPUE_CDF_POINTS:
            assert abs(cdf("GPUE", x) - expected) <= 1e-15 * expected

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


@pytest.mark.parametrize("kind", curves.CURVE_ORDER)
@settings(max_examples=60)
@given(xs=st.lists(st.floats(min_value=0.0), min_size=1, max_size=40))
@example(xs=[0.0, 5e-324, 2.2250738585072014e-308, 2.35e-162, 1e-8, 1e300, math.inf])
@example(xs=[1.2e-9, 1.23e-9])  # GPUE's survival form alone gives 1.3e-15, then 0
def test_cdf_nondecreasing_within_unit_interval(kind, xs):
    vals = cdf(kind, np.sort(xs))
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("fn", [cdf, pdf], ids=["cdf", "pdf"])
@pytest.mark.parametrize("kind", curves.CURVE_ORDER)
@settings(max_examples=30)
@given(
    xs=st.lists(st.floats(min_value=0.0), max_size=10),
    bad=st.one_of(st.just(math.nan), st.floats(max_value=-5e-324)),
    where=st.integers(0, 10),
)
def test_cdf_refuses_nan_and_negative(fn, kind, xs, bad, where):
    # pdf and cdf share one argument check
    xs.insert(where, bad)
    with pytest.raises(ValueError, match=curves._NEGATIVE_OR_NAN):
        fn(kind, np.array(xs))
    with pytest.raises(ValueError, match=curves._NEGATIVE_OR_NAN):
        fn(kind, bad)


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.integrate", "scipy.special"])
def test_import_skips_scipy_submodule(module, tmp_path):
    # neither the import nor a `sample` run evaluates a curve or a p-value
    src = str(Path(spacinglab.__file__).resolve().parents[1])
    argv = ["sample", "--ensemble", "gpue", "--n", "100", "--seed", "1",
            "--out", str(tmp_path / "s.csv")]
    code = (f"import sys, spacinglab; print({module!r} in sys.modules, file=sys.stderr); "
            f"from spacinglab import cli; cli.main({argv!r}); "
            f"print({module!r} in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stderr.split() == ["False", "False"]


def test_gpoe_curve_does_not_load_specfun():
    # the GPOE density calls scipy.special.k0 itself; specfun serves only the tests
    src = str(Path(spacinglab.__file__).resolve().parents[1])
    code = ("import sys, spacinglab; spacinglab.pdf('GPOE', [0.0, 0.5, 3.0]); "
            "spacinglab.cdf('GPOE', [0.0, 0.5, 3.0]); print('spacinglab.specfun' in sys.modules)")
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
        direct = specfun.integrate(lambda t: t**k * pdf(kind, t), 0.0, math.inf)
        assert abs(moment(kind, k) - direct) <= 1e-12 * direct

    def test_goe_second_moment_closed_form(self):
        assert abs(moment("GOE", 2) - 4.0 / math.pi) < 1e-9

    def test_order_validation(self):
        with pytest.raises(ValueError):
            moment("GOE", 5)
        with pytest.raises(ValueError):
            moment("GOE", -1)
        with pytest.raises(ValueError, match="moment order must be an integer"):
            moment("GOE", 1.5)
        assert moment("GOE", np.int64(2)) == moment("GOE", 2)


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
