"""Each family's spacing law derived from its generators alone, against the closed-form curves.

The sampler's model is H = a 1 + sum_j p_j G_j with (H - a)^2 = D 1, where
D = X - Y: X sums (s_j z_j)^2 over the Hermitian generators j >= 1 and Y over
the anti-Hermitian ones (``ensembles._SIGNS``), with z_j standard normal and
s_j from ``ensembles._param_stds``.  A group of k equal-variance terms s^2 z^2
is a Gamma law of shape k/2 and scale 2 s^2.  Then

    f_D(u) = int_0^inf f_X(u + y) f_Y(y) dy,   y = t^2,

the substitution cancelling f_Y's 1/sqrt(y) singularity at 0, and
P(D >= 0) = int_0^inf f_Y(y) P(X >= y) dy.  The spacing is r = 2 sqrt(D) given
D >= 0; it is rescaled to unit mean by the mean the same quadrature gives.
No curve constant enters, so agreement to 1e-11 ties the sampler's generators,
signs and widths to the paper's closed forms far more finely than the 0.005 or
so in KS d that a Monte Carlo sample resolves.

QH4's X = v1 z1^2 + v2 (z2^2 + z3^2) has two variances, b's v1 and the shared
v2 of c and d, and no Y.  Integrating z2^2 + z3^2 (an exponential law) out
leaves, with c = v1 / (2 v2) - 1/2 = sinh^2 kappa and h = sqrt(u / v1),

    F_X(u) = erf(h / sqrt 2) - (2 / sqrt pi) dawsn(sqrt(c) h) exp(-u / (2 v1)) / sqrt(2 c),

the chi-square law of 3 degrees of freedom at c = 0.  Its sup-distances to
the curves say where QH4's law lies among them as kappa grows.
"""

import math
from functools import cache

import numpy as np
import pytest
from scipy import integrate, special

from spacinglab import curves, ensembles
from spacinglab.ensembles import GOE, GPOE, GPUE, GSE, GUE, qh3, qh4

QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=200)
X_POINTS = np.linspace(0.02, 4.0, 60)


def gamma_law(kind, sign):
    """(shape, scale) of the Gamma law of the terms of D with this sign, or None if it has none."""
    stds = ensembles._param_stds(kind)[1:]
    variances = [s * s for s, g in zip(stds, ensembles._SIGNS[kind.tag][1:]) if g == sign]
    if not variances:
        return None
    assert len(set(variances)) == 1, f"{kind}: the terms of sign {sign} have several variances"
    return len(variances) / 2.0, 2.0 * variances[0]


def gamma_pdf(law, x):
    k, scale = law
    return x ** (k - 1.0) * math.exp(-x / scale) / (math.gamma(k) * scale**k)


@cache
def spacing_law(kind):
    """(pdf of the unit-mean spacing, P(D >= 0), raw mean spacing) derived from ``kind``'s row."""
    x_law, y_law = gamma_law(kind, 1), gamma_law(kind, -1)
    if y_law is None:
        def f_d(u):
            return gamma_pdf(x_law, u)
        accept = 1.0
    else:
        m, scale = y_law

        def weight(t):  # f_Y(t^2) dy/dt, finite at t = 0
            return 2.0 * t ** (2.0 * m - 1.0) * math.exp(-t * t / scale) / (math.gamma(m) * scale**m)

        def f_d(u):
            return integrate.quad(lambda t: gamma_pdf(x_law, u + t * t) * weight(t), 0.0, np.inf, **QUAD)[0]

        accept = integrate.quad(lambda t: weight(t) * special.gammaincc(x_law[0], t * t / x_law[1]),
                                0.0, np.inf, **QUAD)[0]
    # E[2 sqrt(D); D >= 0] with u = v^2
    mean = integrate.quad(lambda v: 4.0 * v * v * f_d(v * v), 0.0, np.inf, **QUAD)[0] / accept

    def pdf(x):
        r = mean * x
        return mean * f_d(r * r / 4.0) * (r / 2.0) / accept

    return pdf, accept, mean


FAMILY_CURVES = [(GOE, "GOE"), (GUE, "GUE"), (GSE, "GSE"), (GPOE, "GPOE"), (GPUE, "GPUE"),
                 (qh3(0.25), "GOE"), (qh3(0.7), "GOE"), (qh3(2.0), "GOE")]


@pytest.mark.parametrize("kind, curve", FAMILY_CURVES, ids=lambda v: str(v))
def test_derived_law_is_the_reference_curve(kind, curve):
    assert kind.reference_curve == curve
    pdf, _, _ = spacing_law(kind)
    derived = np.array([pdf(x) for x in X_POINTS])
    np.testing.assert_allclose(derived, curves.pdf(curve, X_POINTS), rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("kind", [GPOE, GPUE], ids=str)
def test_derived_reality_probability_is_the_acceptance(kind):
    _, accept, _ = spacing_law(kind)
    assert kind.has_rejection
    assert abs(accept - kind.acceptance) <= 1e-12


@pytest.mark.parametrize("kind", [GOE, GUE, GSE, qh3(0.7), qh4(0.7)], ids=str)
def test_no_anti_hermitian_term_means_every_draw_is_real(kind):
    assert gamma_law(kind, -1) is None
    assert kind.acceptance == 1.0 and not kind.has_rejection


@pytest.mark.parametrize("kind", [GOE, GUE, GSE, qh3(0.7)], ids=str)
def test_quadrature_mean_is_the_gamma_laws_own(kind):
    # E[2 sqrt(X)] = 2 sqrt(scale) Gamma(k + 1/2) / Gamma(k) for X ~ Gamma(k, scale)
    k, scale = gamma_law(kind, 1)
    _, _, mean = spacing_law(kind)
    assert mean == pytest.approx(2.0 * math.sqrt(scale) * math.gamma(k + 0.5) / math.gamma(k), rel=1e-13)


def qh4_law(kappa):
    """(cdf of QH4's unit-mean spacing, c) derived from its row, with c = v1 / (2 v2) - 1/2."""
    kind = qh4(kappa)
    stds = ensembles._param_stds(kind)
    assert ensembles._SIGNS[kind.tag][1:] == (1, 1, 1) and stds[2] == stds[3]
    v1, v2 = stds[1] ** 2, stds[2] ** 2
    c = v1 / (2.0 * v2) - 0.5

    def sf(u):  # P(X > u)
        h = np.sqrt(u / v1)
        if c == 0.0:
            tail = math.sqrt(2.0 / math.pi) * h * np.exp(-u / (2.0 * v1))
        else:
            tail = (2.0 / math.sqrt(math.pi) * special.dawsn(math.sqrt(c) * h) * np.exp(-u / (2.0 * v1))
                    / math.sqrt(2.0 * c))
        return special.erfc(h / math.sqrt(2.0)) + tail

    mean = integrate.quad(lambda t: sf(t * t / 4.0), 0.0, np.inf, **QUAD)[0]  # E[2 sqrt(X)]
    return (lambda x: 1.0 - sf((mean * x) ** 2 / 4.0)), c


SUP_POINTS = np.linspace(0.0, 6.0, 60_001)
QH4_CURVES = ("GOE", "GUE", "GPOE", "GPUE")
# sup |F_QH4 - F_curve| to QH4_CURVES, from a 1201-point trapezoid CDF on [0, 6]
QH4_SUP = {0.5: (0.0654, 0.0039, 0.1268, 0.1022), 1.0: (0.0444, 0.0371, 0.1048, 0.0792),
           1.5: (0.0483, 0.0998, 0.0642, 0.0396), 3.0: (0.1276, 0.1938, 0.0685, 0.0942)}


def qh4_sup(kappa, curve):
    F, _ = qh4_law(kappa)
    return np.abs(F(SUP_POINTS) - curves.cdf(curve, SUP_POINTS)).max()


@pytest.mark.parametrize("kappa", QH4_SUP)
def test_qh4_sup_distances(kappa):
    assert qh4_law(kappa)[1] == pytest.approx(math.sinh(kappa) ** 2, rel=1e-12)
    sups = [qh4_sup(kappa, curve) for curve in QH4_CURVES]
    np.testing.assert_allclose(sups, QH4_SUP[kappa], rtol=0.0, atol=2e-3)


def test_qh4_at_kappa_0_is_gue():
    F, c = qh4_law(0.0)
    assert c == 0.0
    np.testing.assert_allclose(F(SUP_POINTS), curves.cdf("GUE", SUP_POINTS), rtol=0.0, atol=1e-12)


def test_qh4_is_nearer_goe_than_gue_from_a_kappa_between_1_04_and_1_05():
    # about 1.0434, the crossover README and EnsembleKind.reference_curve give
    assert qh4_sup(1.04, "GOE") > qh4_sup(1.04, "GUE")
    assert qh4_sup(1.05, "GOE") < qh4_sup(1.05, "GUE")
