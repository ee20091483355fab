"""K0 and the adaptive quadrature the tests use as a reference.

Contract-enforcing wrappers over scipy.special (Cephes) and scipy.integrate
(QUADPACK): strict domain checks, and a RuntimeError when quadrature does
not converge.  No package module imports this one: the curves are closed
forms, and the GPOE density calls ``scipy.special.k0`` itself.
:func:`integrate` imports scipy.integrate on first use.
Everything here is a pure function and safe to call from any thread.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special as _sci_special

__all__ = [
    "bessel_k0",
    "integrate",
]

# QUADPACK's absolute and relative tolerance, and its subdivision budget
QUAD_TOL = 1e-12
QUAD_SUBDIVISIONS = 400


def bessel_k0(x):
    """Modified Bessel function of the second kind, order zero.

    Accepts a positive scalar or array of positive values.  Relative
    accuracy ~1e-14 across [1e-8, 700]; for x beyond ~705 the true value
    drops below the smallest double and the result underflows to 0.0,
    which is the documented behaviour.  x <= 0 raises ValueError.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise ValueError("bessel_k0 requires x > 0")
    out = _sci_special.k0(arr)
    return float(out) if np.ndim(x) == 0 else out


def integrate(f: Callable[[float], float], lower: float, upper: float) -> float:
    """Adaptive quadrature of ``f`` over [lower, upper].

    The domain is a finite interval or a semi-infinite ray (exactly one of
    the bounds may be infinite).  Semi-infinite rays are mapped onto a
    finite interval by QUADPACK's substitution x = a + (1 - t)/t before
    adaptive Gauss-Kronrod subdivision with extrapolation, which also
    handles integrable endpoint singularities such as the logarithmic one
    of K0 at zero.

    Absolute and relative tolerance are ``QUAD_TOL``, within at most
    ``QUAD_SUBDIVISIONS`` subintervals; if QUADPACK cannot meet them it
    raises RuntimeError, whose message carries the best estimate.
    """
    lo, hi = float(lower), float(upper)
    if math.isinf(lo) and math.isinf(hi):
        raise ValueError("domain must be a finite interval or a semi-infinite ray")
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("integration bounds must not be NaN")

    from scipy import integrate as _sci_integrate

    out = _sci_integrate.quad(f, lo, hi, epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                              limit=QUAD_SUBDIVISIONS, full_output=True)
    value, abserr = float(out[0]), float(out[1])
    if len(out) > 3:
        # quad appends an explanation string when it could not converge
        raise RuntimeError(f"{str(out[3]).strip()} (best estimate {value!r}, "
                           f"error estimate {abserr!r})")
    return value
