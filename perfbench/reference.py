"""Independent references the benchmark checks the program's outputs against.

The reference CDFs are the closed forms of the five curves in scipy.special
(GPOE through the integral of K0, ``iti0k0``).  They share nothing with the
program's quadrature table, which they match to better than 1e-9; ``D_TOL``
leaves room for a later exact CDF while catching any real change in d.
Unfolding and the KS distance are re-derived here from their definitions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

CURVES = ("GOE", "GUE", "GSE", "GPOE", "GPUE")
D_TOL = 1e-8  # absolute tolerance on a KS distance d
CDF_TOL = 1e-8  # absolute tolerance on a tabulated cdf value


def _gpoe_constants() -> tuple[float, float]:
    alpha = math.gamma(-0.25) ** 4 / (32.0 * math.pi**3)
    beta = 2.0 * math.gamma(0.75) ** 4 / math.pi**2
    return alpha, beta


def _gpue_constants() -> tuple[float, float, float]:
    s2 = math.sqrt(2.0)
    b = 2.0 * (s2 - math.log(1.0 + s2)) / (math.sqrt(math.pi) * (s2 - 1.0))
    return b * b / (2.0 * (s2 - 1.0)), b * b / 4.0, b / s2


def cdf(kind: str, x) -> np.ndarray:
    """Closed-form CDF of a curve at x >= 0."""
    x = np.asarray(x, dtype=float)
    pi = math.pi
    if kind == "GOE":
        return -np.expm1(-pi / 4.0 * x * x)
    if kind == "GUE":
        b = 4.0 / pi
        return special.erf(math.sqrt(b) * x) - 2.0 * math.sqrt(b / pi) * x * np.exp(-b * x * x)
    if kind == "GSE":
        a, b = 2.0**18 / (3.0**6 * pi**3), 64.0 / (9.0 * pi)
        return a * (
            3.0 * math.sqrt(pi) / (8.0 * b**2.5) * special.erf(math.sqrt(b) * x)
            - np.exp(-b * x * x) * (x**3 / (2.0 * b) + 3.0 * x / (4.0 * b * b))
        )
    if kind == "GPOE":
        a, b = _gpoe_constants()
        return a / (2.0 * b) * special.iti0k0(b * x * x)[1]
    if kind == "GPUE":
        a, b, g = _gpue_constants()
        return a / (2.0 * b) * (
            special.erfcx(g * x) * np.exp(-b * x * x) - 1.0 + math.sqrt(2.0) * special.erf(math.sqrt(b) * x)
        )
    raise ValueError(kind)


def ks_distances(raw) -> dict[str, float]:
    """Two-sided KS distance of unit-mean-scaled spacings against every curve."""
    raw = np.asarray(raw, dtype=float)
    xs = np.sort(raw / raw.mean())
    n = xs.size
    i = np.arange(1, n + 1, dtype=float)
    out = {}
    for kind in CURVES:
        F = cdf(kind, xs)
        out[kind] = float(max(np.max(i / n - F), np.max(F - (i - 1.0) / n)))
    return out


def unfold(levels: np.ndarray, method: str) -> np.ndarray:
    """Unfolded spacings for 'global', 'local:w' or 'poly:p' (before unit-mean scaling)."""
    spacings = np.diff(levels)
    if method == "global":
        return spacings
    name, arg = method.split(":")
    if name == "local":
        half = int(arg) // 2
        m = spacings.size
        idx = np.arange(m)
        lo, hi = np.maximum(idx - half, 0), np.minimum(idx + half + 1, m)
        csum = np.concatenate(([0.0], np.cumsum(spacings)))
        return spacings * (hi - lo) / (csum[hi] - csum[lo])
    fit = np.polynomial.Polynomial.fit(levels, np.arange(1, levels.size + 1, dtype=float), int(arg))
    return np.diff(fit(levels))


def spectrum(law: str, n_levels: int, rng: np.random.Generator) -> np.ndarray:
    """Level sequence whose spacings follow the GOE or GUE Wigner surmise.

    Spacings are those of 2x2 matrices (2 |(b, c)| for GOE, 2 |(b, c, d)| for
    GUE with standard normal entries); their cumulative sum, on a seeded
    offset and scale, is a uniform-density spectrum with the given law.
    """
    dims = {"GOE": 2, "GUE": 3}[law]
    gaps = 2.0 * np.sqrt(np.sum(rng.standard_normal((n_levels - 1, dims)) ** 2, axis=1))
    scale = rng.uniform(0.1, 10.0)
    return rng.uniform(-1e3, 1e3) + scale * np.concatenate(([0.0], np.cumsum(gaps)))


def levels_text(levels: np.ndarray, source: str) -> str:
    """The program's spectrum format: '#' comment header, one level per line."""
    return f"# {source}\n" + "\n".join(map(repr, levels.tolist())) + "\n"
