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

Constants are computed from the closed forms at import time, never
hard-coded from rounded decimals.  The GPOE density tends to 0 at x = 0
(x K0 -> 0 despite K0's logarithmic divergence) with the slowest repulsion
of the five: on small x the densities order as
GPOE > GPUE > GOE > GUE > GSE.

The CDFs are closed forms in scipy.special, with z = beta x^2:

    GOE   1 - exp(-z)
    GUE   P(3/2, z) = erf(sqrt z) - (2/sqrt(pi)) sqrt(z) exp(-z)
    GSE   P(5/2, z) = erf(sqrt z) - (2/sqrt(pi)) sqrt(z) exp(-z) (1 + 2z/3)
    GPOE  (alpha / 2 beta) int_0^z K0(t) dt              (iti0k0)
    GPUE  1 - (alpha / 2 beta) [sqrt2 erfc(sqrt z) - erfcx(gamma x) exp(-z)]

P is the regularized lower incomplete gamma function; for z < 0.25, where
the erf difference cancels, it comes from gammainc directly.  GPUE is
written as a survival function because its direct form cancels in the
tail.  Against adaptive quadrature the absolute error is below 2e-15 for
GOE, GUE, GSE and GPUE and below 3e-11 for GPOE (the accuracy of iti0k0).

The moments M_k = int_0^inf x^k pdf(x) dx, k = 0..4, are closed forms too:

    GOE, GUE, GSE  alpha Gamma(m/2) / (2 beta^(m/2)),  m = k+2, k+3, k+5
    GPOE  (alpha / 4 beta) (2 / beta)^(k/2) Gamma((k+2)/4)^2
    GPUE  alpha gamma^-(k+2) Gamma((k+3)/2) / (sqrt(pi) (k+2))
          * 2F1((k+3)/2, (k+2)/2; (k+4)/2; 1/2)

GPOE uses int_0^inf t^(mu-1) K0(t) dt = 2^(mu-2) Gamma(mu/2)^2 and GPUE
uses gamma^2 = 2 beta; all 25 agree with adaptive quadrature to 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from . import specfun

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

# Every cdf is 1 to double precision beyond this x (the slowest tail, GPOE's,
# holds < 1e-19 mass past 10); capping x keeps beta x^2 finite for any input.
_X_SAT = 40.0
# Below this z the erf forms of P(3/2, z) and P(5/2, z) cancel; gammainc is
# exact there but several times slower, so it only serves the small-z slice.
_GAMMAINC_BELOW = 0.25


def canonical_kind(kind: str) -> str:
    """Normalize a curve name (case-insensitive) to its canonical tag."""
    tag = str(kind).upper()
    if tag not in CURVE_ORDER:
        raise ValueError(f"unknown curve kind {kind!r}; expected one of {CURVE_ORDER}")
    return tag


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
        alpha = math.exp(4.0 * _sp.gammaln(-0.25)) / (32.0 * pi**3)
        beta = 2.0 * math.exp(4.0 * _sp.gammaln(0.75)) / pi**2
        return CurveConstants(alpha=alpha, beta=beta)
    # GPUE
    s2 = math.sqrt(2.0)
    B = 2.0 * (s2 - math.log(1.0 + s2)) / (math.sqrt(pi) * (s2 - 1.0))
    return CurveConstants(
        alpha=B * B / (2.0 * (s2 - 1.0)), beta=B * B / 4.0, gamma=B / s2, B=B
    )


def _check_nonnegative(x: np.ndarray) -> None:
    if not np.all(x >= 0.0):  # also rejects NaN
        raise ValueError("spacing argument must be nonnegative, not NaN")


def pdf(kind: str, x):
    """Probability density of the curve at x >= 0 (scalar or array)."""
    kind = canonical_kind(kind)
    arr = np.asarray(x, dtype=float)
    _check_nonnegative(arr)
    c = constants(kind)
    if kind == "GOE":
        out = c.alpha * arr * np.exp(-c.beta * arr * arr)
    elif kind == "GUE":
        out = c.alpha * arr * arr * np.exp(-c.beta * arr * arr)
    elif kind == "GSE":
        out = c.alpha * arr**4 * np.exp(-c.beta * arr * arr)
    elif kind == "GPOE":
        out = _gpoe_pdf(np.atleast_1d(arr), c.alpha, c.beta).reshape(arr.shape)
    else:  # GPUE; erfcx form avoids exp overflow: e^{b x^2} erfc(g x)
        # = erfcx(g x) e^{(b - g^2) x^2} with g^2 = 2b
        out = c.alpha * arr * _sp.erfcx(c.gamma * arr) * np.exp(
            (c.beta - c.gamma * c.gamma) * arr * arr
        )
    return float(out) if np.ndim(x) == 0 else out


def _gpoe_pdf(arr: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """alpha x K0(beta x^2) with the x -> 0 limit (value 0) built in."""
    out = np.zeros(arr.shape)
    arg = beta * arr * arr
    body = arg > 0.0  # x small enough to underflow beta x^2 contributes ~0
    out[body] = alpha * arr[body] * np.asarray(specfun.bessel_k0(arg[body]))
    tiny = (~body) & (arr > 0.0)
    if np.any(tiny):
        # K0(z) ~ -ln(z/2) - euler_gamma for z -> 0+
        xt = arr[tiny]
        out[tiny] = alpha * xt * (
            -(math.log(beta / 2.0) + 2.0 * np.log(xt)) - np.euler_gamma
        )
    return out


def cdf(kind: str, x):
    """Cumulative distribution of the curve at x >= 0 (scalar or array).

    Integral of :func:`pdf` from 0 in closed form (see the module docstring);
    exactly 0 at x = 0, nondecreasing, and clipped to [0, 1].
    """
    kind = canonical_kind(kind)
    arr = np.asarray(x, dtype=float)
    _check_nonnegative(arr)
    c = constants(kind)
    xs = np.minimum(np.atleast_1d(arr), _X_SAT)
    z = c.beta * xs * xs
    if kind == "GOE":
        out = -np.expm1(-z)
    elif kind in ("GUE", "GSE"):
        root = np.sqrt(z)
        tail = (2.0 / math.sqrt(math.pi)) * root * np.exp(-z)
        if kind == "GSE":
            tail *= 1.0 + 2.0 * z / 3.0
        out = _sp.erf(root) - tail
        small = z < _GAMMAINC_BELOW
        out[small] = _sp.gammainc(1.5 if kind == "GUE" else 2.5, z[small])
    elif kind == "GPOE":
        out = c.alpha / (2.0 * c.beta) * _sp.iti0k0(z)[1]
    else:  # GPUE, as a survival function: the direct form cancels in the tail
        out = 1.0 - c.alpha / (2.0 * c.beta) * (
            math.sqrt(2.0) * _sp.erfc(np.sqrt(z)) - _sp.erfcx(c.gamma * xs) * np.exp(-z)
        )
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def moment(kind: str, k: int) -> float:
    """k-th moment of the curve in closed form (see the module docstring), k = 0..4.

    moment(kind, 0) == 1 and moment(kind, 1) == 1 for every kind (unit
    normalization and unit mean are built into the closed forms).
    """
    kind = canonical_kind(kind)
    k = int(k)
    if not (0 <= k <= 4):
        raise ValueError("moment order must be between 0 and 4")
    c = constants(kind)
    if kind == "GPOE":
        return c.alpha / (4.0 * c.beta) * (2.0 / c.beta) ** (k / 2) * math.gamma((k + 2) / 4) ** 2
    if kind == "GPUE":
        a = (k + 3) / 2
        return (c.alpha * c.gamma ** -(k + 2) * math.gamma(a) / (math.sqrt(math.pi) * (k + 2))
                * float(_sp.hyp2f1(a, (k + 2) / 2, (k + 4) / 2, 0.5)))
    m = k + {"GOE": 2, "GUE": 3, "GSE": 5}[kind]
    return c.alpha * math.gamma(m / 2) / (2.0 * c.beta ** (m / 2))


def small_x_approx(kind: str, x):
    """Printed small-spacing approximants of the two pseudo curves.

    GPOE: (0.5 - 1.2 ln x) x;  GPUE: 2.5 x (1 - 0.95 x).  Domain (0, 0.5),
    exclusive; provided for plots and regression-tested against pdf().
    """
    kind = canonical_kind(kind)
    if kind not in ("GPOE", "GPUE"):
        raise ValueError("small-x approximants exist for GPOE and GPUE only")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < 0.5)):
        raise ValueError("small_x_approx domain is 0 < x < 0.5")
    if kind == "GPOE":
        out = (0.5 - 1.2 * np.log(arr)) * arr
    else:
        out = 2.5 * arr * (1.0 - 0.95 * arr)
    return float(out) if np.ndim(x) == 0 else out
