"""Special-function kernel: frozen oracle values (mpmath, 40 digits) and invariants.

TestLnGamma and TestErfc pin the scipy.special functions that the curves
call directly: gammaln for the GPOE constants, erfc in the GPUE cdf.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc, gammaln, gammasgn

from spacinglab.specfun import QUAD_TOL, bessel_k0, integrate

# mpmath oracle values
LN_SQRT_PI = 0.5723649429247001
ABS_GAMMA_M14 = 4.9016668098607106
LN_ABS_GAMMA_M14 = 1.5895753125511860
GAMMA_34 = 1.2254167024651776
INT_K0_0_1 = 1.2425098486237783

LNGAMMA_POINTS = [
    (0.1, 2.2527126517342060, 1),
    (1.5, -0.12078223763524522, 1),
    (7.25, 7.0521854507385394, 1),
    (29.5, 69.569080920823634, 1),
    (49.5, 142.61728282114598, 1),
    (-0.75, 1.5757045971498584, -1),
    (-5.5, -4.5178321740077414, 1),
    (-29.25, -70.612901265878627, 1),
    (-49.75, -146.00658587252627, 1),
]

K0_POINTS = [
    (0.1, 2.4270690247020166),
    (0.5, 0.9244190712276659),
    (1.0, 0.4210244382407083),
    (2.0, 0.1138938727495334),
    (5.0, 0.0036910983340425943),
    (10.0, 1.7780062316167652e-05),
]

ERFC_POINTS = [
    (0.5, 0.4795001221869535),
    (1.0, 0.15729920705028513),
    (3.0, 2.2090496998585441e-05),
    (-2.0, 1.9953222650189527),
]


class TestLnGamma:
    def test_gamma_one(self):
        assert gammaln(1.0) == 0.0
        assert gammasgn(1.0) == 1

    def test_gamma_half(self):
        assert gammasgn(0.5) == 1
        assert abs(gammaln(0.5) - LN_SQRT_PI) < 1e-14

    def test_gamma_minus_quarter(self):
        # |Gamma(-1/4)| = 4 Gamma(3/4) by the recurrence, and the sign is negative
        assert gammasgn(-0.25) == -1
        assert abs(math.exp(gammaln(-0.25)) - ABS_GAMMA_M14) / ABS_GAMMA_M14 < 1e-13
        assert abs(math.exp(gammaln(-0.25)) - 4.0 * GAMMA_34) / ABS_GAMMA_M14 < 1e-13

    @pytest.mark.parametrize("x,expected,sign", LNGAMMA_POINTS)
    def test_oracle_points(self, x, expected, sign):
        assert gammasgn(x) == sign
        assert abs(gammaln(x) - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -37.0])
    def test_poles(self, x):
        assert gammaln(x) == math.inf

    def test_recurrence_property(self):
        # Gamma(x+1) == x Gamma(x), 1000 random points in (0.1, 30)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.1, 30.0, size=1000)
        for x in xs:
            g1 = math.exp(gammaln(x + 1.0))
            gx = math.exp(gammaln(x))
            assert abs(g1 - x * gx) / g1 <= 1e-11

    def test_reflection(self):
        prod = math.exp(gammaln(0.75) + gammaln(0.25))
        assert abs(prod - math.pi * math.sqrt(2.0)) / prod <= 1e-11


class TestBesselK0:
    @pytest.mark.parametrize("x,expected", K0_POINTS)
    def test_oracle_points(self, x, expected):
        assert abs(bessel_k0(x) - expected) / expected <= 1e-10

    def test_small_argument_asymptotics(self):
        # K0(x) -> -ln(x/2) - euler_gamma as x -> 0+
        for x in (1e-6, 1e-8):
            limit = -math.log(x / 2.0) - np.euler_gamma
            assert abs(bessel_k0(x) / limit - 1.0) < 1e-9

    def test_monotone_decreasing(self):
        xs = np.logspace(-8, math.log10(700.0), 500)
        vals = bessel_k0(xs)
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                bessel_k0(bad)

    def test_underflow_to_zero(self):
        assert bessel_k0(700.0) > 0.0
        assert bessel_k0(800.0) == 0.0

    def test_array_input(self):
        out = bessel_k0(np.array([1.0, 2.0]))
        assert out.shape == (2,)
        assert abs(out[0] - K0_POINTS[2][1]) < 1e-12


class TestErfc:
    def test_zero(self):
        assert erfc(0.0) == 1.0

    def test_limits(self):
        assert abs(erfc(6.0)) < 1e-16
        assert abs(erfc(-6.0) - 2.0) < 1e-15

    @pytest.mark.parametrize("x,expected", ERFC_POINTS)
    def test_oracle_points(self, x, expected):
        assert abs(erfc(x) - expected) / expected <= 1e-12

    def test_symmetry(self):
        xs = np.linspace(-6.0, 6.0, 101)
        assert np.max(np.abs(erfc(-xs) + erfc(xs) - 2.0)) < 1e-14

    def test_complementarity_with_erf(self):
        for x in np.linspace(-6.0, 6.0, 241):
            assert abs(erfc(x) + math.erf(x) - 1.0) <= 1e-13


class TestIntegrate:
    def test_unit_interval(self):
        assert abs(integrate(lambda t: 1.0, 0.0, 1.0) - 1.0) < 1e-14

    def test_k0_total_mass(self):
        # standard identity used as a self-test of the semi-infinite transform
        value = integrate(lambda t: bessel_k0(t), 0.0, math.inf)
        assert abs(value - math.pi / 2.0) / (math.pi / 2.0) < 1e-9

    def test_unit_mean_linear_repulsion_curve(self):
        f = lambda x: x * (math.pi / 2.0) * x * math.exp(-math.pi * x * x / 4.0)
        assert abs(integrate(f, 0.0, math.inf) - 1.0) < 1e-10

    def test_log_singularity(self):
        value = integrate(lambda t: bessel_k0(t), 0.0, 1.0)
        assert abs(value - INT_K0_0_1) <= QUAD_TOL * max(1.0, INT_K0_0_1)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_k0_integral_representation(self, x):
        # K0(x) = int_0^inf exp(-x cosh t) dt; independent quadrature route
        def integrand(t):
            z = x * math.cosh(t) if t < 700.0 else math.inf
            return math.exp(-z) if z < 745.0 else 0.0

        value = integrate(integrand, 0.0, math.inf)
        assert abs(value - bessel_k0(x)) / bessel_k0(x) <= 1e-9

    def test_returns_a_float(self):
        value = integrate(lambda t: t * t, 0.0, 2.0)
        assert type(value) is float
        assert abs(value - 8.0 / 3.0) < 1e-12

    def test_nonconvergence_reports_best_estimate(self):
        # this oscillation needs more than QUAD_SUBDIVISIONS (400) subintervals
        with pytest.raises(RuntimeError, match="best estimate") as excinfo:
            integrate(lambda t: math.sin(1e4 * t), 0.0, 100.0)
        estimate = str(excinfo.value).partition("best estimate ")[2].partition(",")[0]
        assert math.isfinite(float(estimate))

    def test_doubly_infinite_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda t: math.exp(-t * t), -math.inf, math.inf)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bound_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="^integration bounds must not be NaN$"):
            integrate(lambda t: 1.0, lo, hi)
