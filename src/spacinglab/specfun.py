"""K0 for the GPOE density, and the quadrature the tests use as a reference.

Contract-enforcing wrappers over scipy.special (Cephes) and scipy.integrate
(QUADPACK): strict domain checks, and explicit failure reporting when
quadrature does not converge.  The curves are closed forms, so no package
code calls :func:`integrate`; it imports scipy.integrate on first use.
Everything here is a pure function and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _sci_special

from . import _checks

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "QuadratureError",
    "bessel_k0",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for :func:`integrate`.

    ``abs_tol`` and ``rel_tol`` must be strictly positive and
    ``max_subdivisions`` at least 1.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be strictly positive")
        _checks.count(self.max_subdivisions, "max_subdivisions", 1)


class QuadResult(NamedTuple):
    value: float
    error: float


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; the best estimate is attached."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(
            f"{message} (best estimate {estimate!r}, error estimate {error_estimate!r})"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate


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


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec | None = None,
) -> QuadResult:
    """Adaptive quadrature of ``f`` over [lower, upper].

    The domain is a finite interval or a semi-infinite ray (exactly one of
    the bounds may be infinite).  Semi-infinite rays are mapped onto a
    finite interval by QUADPACK's substitution x = a + (1 - t)/t before
    adaptive Gauss-Kronrod subdivision with extrapolation, which also
    handles integrable endpoint singularities such as the logarithmic one
    of K0 at zero.

    Returns ``QuadResult(value, error)``.  If the subdivision budget in
    ``spec`` is exhausted before the tolerances are met, raises
    :class:`QuadratureError` carrying the best estimate.
    """
    spec = spec if spec is not None else QuadratureSpec()
    lo, hi = float(lower), float(upper)
    if math.isinf(lo) and math.isinf(hi):
        raise ValueError("domain must be a finite interval or a semi-infinite ray")
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("integration bounds must not be NaN")

    from scipy import integrate as _sci_integrate

    out = _sci_integrate.quad(
        f,
        lo,
        hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=int(spec.max_subdivisions),
        full_output=True,
    )
    value, abserr = float(out[0]), float(out[1])
    if len(out) > 3:
        # quad appends an explanation string when it could not converge
        raise QuadratureError(str(out[3]), estimate=value, error_estimate=abserr)
    return QuadResult(value, abserr)
