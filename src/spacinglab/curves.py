"""Analytic nearest-neighbour level-spacing distributions.

Five universality curves on x >= 0 (x is the spacing scaled to unit mean),
all normalized to unit mass and unit mean:

    GOE   (pi/2) x exp(-pi x^2 / 4)
    GUE   (32/pi^2) x^2 exp(-4 x^2 / pi)
    GSE   (2^18 / (3^6 pi^3)) x^4 exp(-64 x^2 / (9 pi))
    GPOE  alpha x K0(beta x^2),
          alpha = Gamma(-1/4)^4 / (32 pi^3),  beta = 2 Gamma(3/4)^4 / pi^2
    GPUE  alpha x exp(beta x^2) erfc(gamma x),
          B = 2 (sqrt2 - ln(1+sqrt2)) / (sqrt(pi) (sqrt2 - 1)),
          alpha = B^2 / (2 (sqrt2 - 1)),  beta = B^2/4,  gamma = B/sqrt2

Constants are computed from the closed forms on first use, never
hard-coded from rounded decimals.  The GPOE density tends to 0 at x = 0
(x K0 -> 0 despite K0's logarithmic divergence) with the slowest repulsion
of the five: on small x the densities order as
GPOE > GPUE > GOE > GUE > GSE.  Where z = beta x^2 < _TINY, its cdf's
threshold, the GPOE pdf takes K0(z) = -ln(z/2) - euler_gamma: it is finite,
and within 4e-15 relative plus one subnormal ulp of mpmath's on 5e-324..1e-150.

The CDFs are closed forms in scipy.special, with z = beta x^2:

    GOE   1 - exp(-z)
    GUE   P(3/2, z) = erf(sqrt z) - (2/sqrt(pi)) sqrt(z) exp(-z)
    GSE   P(5/2, z) = erf(sqrt z) - (2/sqrt(pi)) sqrt(z) exp(-z) (1 + 2z/3)
    GPOE  (alpha / 2 beta) int_0^z K0(t) dt              (iti0k0)
    GPUE  1 - (alpha / 2 beta) [sqrt2 erfc(sqrt z) - erfcx(gamma x) exp(-z)]

P is the regularized lower incomplete gamma function; for z < 0.25, where
the erf difference cancels, it comes from gammainc directly.  GPUE is
written as a survival function because its direct form cancels in the
tail; below gamma x = 0.5, where the survival form cancels instead, it is
summed from its Taylor series (relative error below 4e-16 against
mpmath).  Against adaptive quadrature the absolute error is below 2e-15 for
GOE, GUE, GSE and GPUE and below 3e-11 for GPOE (the accuracy of iti0k0).

The moments M_k = int_0^inf x^k pdf(x) dx, k = 0..4, are closed forms too:

    GOE, GUE, GSE  alpha Gamma(m/2) / (2 beta^(m/2)),  m = k+2, k+3, k+5
    GPOE  (alpha / 4 beta) (2 / beta)^(k/2) Gamma((k+2)/4)^2
    GPUE  alpha gamma^-(k+2) Gamma((k+3)/2) / (sqrt(pi) (k+2))
          * 2F1((k+3)/2, (k+2)/2; (k+4)/2; 1/2)

GPOE uses int_0^inf t^(mu-1) K0(t) dt = 2^(mu-2) Gamma(mu/2)^2 and GPUE
uses gamma^2 = 2 beta; all 25 agree with adaptive quadrature to 1e-15.
pdf, cdf and small_x_approx share one argument check (_evaluate): x is a
scalar or an array of any shape that _checks.real_array takes (no bool,
complex, text, None, date or void).  One rule (_select) picks the curves a
name or a list names, for stats.classify and the CLI's --against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _checks

__all__ = [
    "CURVE_ORDER",
    "CurveConstants",
    "constants",
    "pdf",
    "cdf",
    "moment",
    "small_x_approx",
    "canonical_kind",
]

CURVE_ORDER = ("GOE", "GUE", "GSE", "GPOE", "GPUE")

# Every pdf is 0 and every cdf 1 to double precision beyond this x (the
# slowest tail, GPOE's, holds < 1e-19 mass past 10 and its pdf underflows past
# 40.3); capping x keeps beta x^2 finite for any input, infinity included.
_X_SAT = 50.0
# Smallest normal double; below it iti0k0 can be NaN and k0 inf (see _cdf, _pdf)
_TINY = np.finfo(float).tiny
# Below this z the erf forms of P(3/2, z) and P(5/2, z) cancel; gammainc is
# exact there but several times slower, so it only serves the small-z slice.
_GAMMAINC_BELOW = 0.25
# Below this y = gamma x the GPUE survival form cancels; the cdf is then
# summed from its Taylor series in y (see _gpue_series).
_GPUE_SERIES_BELOW = 0.5


def _gpue_series() -> list[float]:
    """a_k with GPUE cdf = (alpha / 2 beta) y^2 sum_k a_k y^k, y = gamma x.

    With gamma^2 = 2 beta, cdf = (alpha / 2 beta) int_0^y u h(u) du for
    h(u) = e^(u^2/2) erfc(u), whose Taylor coefficients are the product of
    those of e^(u^2/2) and erfc(u).  For y < 0.5 the terms past k = 19 fall
    below 1e-16 of the first.
    """
    ks = range(20)
    exp_half = [1.0 / (2.0 ** (k // 2) * math.factorial(k // 2)) if k % 2 == 0 else 0.0
                for k in ks]
    erfc = [-(-1.0) ** (k // 2) * 2.0 / (math.sqrt(math.pi) * math.factorial(k // 2) * k)
            if k % 2 else float(k == 0) for k in ks]
    return (np.convolve(exp_half, erfc)[:20] / np.arange(2.0, 22.0)).tolist()


_GPUE_SERIES = _gpue_series()


def canonical_kind(kind: str) -> str:
    """Normalize a curve name (case-insensitive) to its canonical tag."""
    tag = str(kind).upper()
    if tag not in CURVE_ORDER:
        raise ValueError(f"unknown curve kind {kind!r}; expected one of {CURVE_ORDER}")
    return tag


def _select(names) -> tuple[str, ...]:
    """The canonical tags of the curves ``names`` names, in ``CURVE_ORDER``; none is a ValueError.
    A str (numpy's str_ included) is one name, not a list of letters."""
    chosen = {canonical_kind(name) for name in ([names] if isinstance(names, str) else names)}
    if not chosen:
        raise ValueError("selected no curves")
    return tuple(k for k in CURVE_ORDER if k in chosen)


@dataclass(frozen=True)
class CurveConstants:
    """Closed-form constants of one curve.

    ``alpha`` is the overall coefficient and ``beta`` the coefficient inside
    the x^2 term (Gaussian rate for GOE/GUE/GSE, K0 argument for GPOE,
    exponential growth rate for GPUE).  ``gamma`` and ``B`` are GPUE-only;
    they satisfy gamma = B/sqrt2 and beta = B^2/4 exactly.
    """

    alpha: float
    beta: float
    gamma: float | None = None
    B: float | None = None


@lru_cache(maxsize=None)
def constants(kind: str) -> CurveConstants:
    import scipy.special as special

    kind = canonical_kind(kind)
    pi = math.pi
    if kind == "GOE":
        return CurveConstants(alpha=pi / 2.0, beta=pi / 4.0)
    if kind == "GUE":
        return CurveConstants(alpha=32.0 / pi**2, beta=4.0 / pi)
    if kind == "GSE":
        return CurveConstants(alpha=2.0**18 / (3.0**6 * pi**3), beta=64.0 / (9.0 * pi))
    if kind == "GPOE":
        # gammaln is log|Gamma|; Gamma(-1/4) < 0, but its 4th power is positive
        alpha = math.exp(4.0 * special.gammaln(-0.25)) / (32.0 * pi**3)
        beta = 2.0 * math.exp(4.0 * special.gammaln(0.75)) / pi**2
        return CurveConstants(alpha=alpha, beta=beta)
    # GPUE
    s2 = math.sqrt(2.0)
    B = 2.0 * (s2 - math.log(1.0 + s2)) / (math.sqrt(pi) * (s2 - 1.0))
    return CurveConstants(
        alpha=B * B / (2.0 * (s2 - 1.0)), beta=B * B / 4.0, gamma=B / s2, B=B
    )


_NEGATIVE_OR_NAN = "spacing argument must be nonnegative, not NaN"


def _evaluate(kernel, kind: str, x):
    """The one argument check of pdf, cdf and small_x_approx; then ``kernel`` on the tag and x, >= 1-d."""
    kind = canonical_kind(kind)
    arr = _checks.real_array(x, "spacing argument")
    if not (arr >= 0.0).all():  # also rejects NaN
        raise ValueError(_NEGATIVE_OR_NAN)
    out = kernel(kind, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def pdf(kind: str, x):
    """Probability density of the curve at x >= 0 (scalar or array); 0 at infinity."""
    return _evaluate(_pdf, kind, x)


def cdf(kind: str, x):
    """Cumulative distribution of the curve at x >= 0 (scalar or array).

    Integral of :func:`pdf` from 0 in closed form (see the module docstring);
    exactly 0 at x = 0, clipped to [0, 1], and nondecreasing up to rounding:
    of two floats a few ulps apart, the larger can come out lower by less
    than the accuracy stated in the module docstring.
    """
    return _evaluate(_cdf, kind, x)


def _pdf(kind: str, x: np.ndarray) -> np.ndarray:
    """The closed forms behind :func:`pdf`, on the inputs :func:`_cdf` takes."""
    import scipy.special as special

    c = constants(kind)
    xs = np.minimum(x, _X_SAT)
    if kind == "GOE":
        out = c.alpha * xs * np.exp(-c.beta * xs * xs)
    elif kind == "GUE":
        out = c.alpha * xs * xs * np.exp(-c.beta * xs * xs)
    elif kind == "GSE":
        out = c.alpha * xs**4 * np.exp(-c.beta * xs * xs)
    elif kind == "GPOE":  # alpha x K0(beta x^2), 0 at x = 0
        out = np.zeros(xs.shape)
        z = c.beta * xs * xs
        body = z >= _TINY  # _cdf's threshold; k0 is inf at the smallest subnormal
        out[body] = c.alpha * xs[body] * special.k0(z[body])
        tiny = ~body & (xs > 0.0)  # K0(z) = -ln(z/2) - euler_gamma; x last, as alpha x may be subnormal
        xt = xs[tiny]
        out[tiny] = c.alpha * (-(math.log(c.beta / 2.0) + 2.0 * np.log(xt)) - np.euler_gamma) * xt
    else:  # GPUE; erfcx form avoids exp overflow: e^{b x^2} erfc(g x)
        # = erfcx(g x) e^{(b - g^2) x^2} with g^2 = 2b
        out = c.alpha * xs * special.erfcx(c.gamma * xs) * np.exp((c.beta - c.gamma * c.gamma) * xs * xs)
    return out


def _cdf(kind: str, x: np.ndarray) -> np.ndarray:
    """The closed forms behind :func:`cdf`, without its checks.

    ``kind`` must be a canonical tag and ``x`` a float array of at least one
    dimension whose entries are nonnegative and not NaN; the result is a new
    array of x's shape.
    """
    import scipy.special as special

    c = constants(kind)
    xs = np.minimum(x, _X_SAT)
    z = c.beta * xs * xs
    if kind == "GOE":
        out = -np.expm1(-z)
    elif kind in ("GUE", "GSE"):
        root = np.sqrt(z)
        tail = (2.0 / math.sqrt(math.pi)) * root * np.exp(-z)
        if kind == "GSE":
            tail *= 1.0 + 2.0 * z / 3.0
        out = special.erf(root) - tail
        small = z < _GAMMAINC_BELOW
        if small.any():  # an empty slice would still pay every ufunc call
            out[small] = special.gammainc(1.5 if kind == "GUE" else 2.5, z[small])
    elif kind == "GPOE":
        # below _TINY the integral is under 1e-304, so it is taken as 0
        z[z < _TINY] = 0.0
        out = c.alpha / (2.0 * c.beta) * special.iti0k0(z)[1]
    else:  # GPUE, as a survival function: the direct form cancels in the tail
        scale = c.alpha / (2.0 * c.beta)
        y = c.gamma * xs
        out = 1.0 - scale * (math.sqrt(2.0) * special.erfc(np.sqrt(z)) - special.erfcx(y) * np.exp(-z))
        small = y < _GPUE_SERIES_BELOW
        if small.any():  # an empty slice would still pay the 38 ufunc calls of the loop
            ys = y[small]
            series = np.full(ys.shape, _GPUE_SERIES[-1])
            for a in _GPUE_SERIES[-2::-1]:  # Horner, in place; the ufunc calls beat *= and +=
                np.multiply(series, ys, out=series)
                np.add(series, a, out=series)
            out[small] = scale * ys * ys * series
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    return out


def moment(kind: str, k: int) -> float:
    """k-th moment of the curve in closed form (see the module docstring), k = 0..4.

    moment(kind, 0) == 1 and moment(kind, 1) == 1 for every kind (unit
    normalization and unit mean are built into the closed forms).
    """
    import scipy.special as special

    kind = canonical_kind(kind)
    k = _checks.count(k, "moment order")
    if not (0 <= k <= 4):
        raise ValueError("moment order must be between 0 and 4")
    c = constants(kind)
    if kind == "GPOE":
        return c.alpha / (4.0 * c.beta) * (2.0 / c.beta) ** (k / 2) * math.gamma((k + 2) / 4) ** 2
    if kind == "GPUE":
        a = (k + 3) / 2
        return (c.alpha * c.gamma ** -(k + 2) * math.gamma(a) / (math.sqrt(math.pi) * (k + 2))
                * float(special.hyp2f1(a, (k + 2) / 2, (k + 4) / 2, 0.5)))
    m = k + {"GOE": 2, "GUE": 3, "GSE": 5}[kind]
    return c.alpha * math.gamma(m / 2) / (2.0 * c.beta ** (m / 2))


def small_x_approx(kind: str, x):
    """Printed small-spacing approximants of the two pseudo curves.

    GPOE: (0.5 - 1.2 ln x) x;  GPUE: 2.5 x (1 - 0.95 x).  Domain (0, 0.5),
    exclusive; provided for plots and regression-tested against pdf().
    """
    if canonical_kind(kind) not in ("GPOE", "GPUE"):
        raise ValueError("small-x approximants exist for GPOE and GPUE only")
    return _evaluate(_small_x, kind, x)


def _small_x(kind: str, x: np.ndarray) -> np.ndarray:
    if not np.all((x > 0.0) & (x < 0.5)):
        raise ValueError("small_x_approx domain is 0 < x < 0.5")
    return (0.5 - 1.2 * np.log(x)) * x if kind == "GPOE" else 2.5 * x * (1.0 - 0.95 * x)
