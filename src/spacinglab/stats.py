"""Spacing post-processing and goodness-of-fit statistics.

Unit-mean normalization of raw spacings, density histograms, the one-sample
Kolmogorov-Smirnov test against the analytic curves, and a chi-square test
on binned counts.  All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov as _kolmogorov

from . import curves

__all__ = [
    "SpacingSample",
    "normalize",
    "ecdf",
    "KsResult",
    "kolmogorov_sf",
    "ks_test",
    "Histogram",
    "histogram",
    "ChiSquareResult",
    "chi_square",
]


@dataclass(frozen=True)
class SpacingSample:
    """Raw nonnegative spacings with their unit-mean rescaling.

    normalized[i] = raw[i] / mean(raw); input order is preserved.
    """

    raw: np.ndarray
    mean: float
    normalized: np.ndarray

    def __len__(self) -> int:
        return self.raw.size


def normalize(raw) -> SpacingSample:
    """Scale spacings to unit mean.  Rejects empty or all-zero input."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise ValueError("cannot normalize an empty spacing list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("spacings must be finite")
    if np.any(arr < 0.0):
        raise ValueError("spacings must be nonnegative")
    mean = float(arr.mean())
    if mean <= 0.0:
        raise ValueError("cannot normalize: mean spacing is zero")
    arr = arr.copy()
    arr.flags.writeable = False
    norm = arr / mean
    norm.flags.writeable = False
    return SpacingSample(raw=arr, mean=mean, normalized=norm)


def ecdf(values: np.ndarray, x) -> np.ndarray:
    """Empirical CDF of ``values`` at the points ``x`` (right-continuous)."""
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    return np.searchsorted(sorted_vals, np.asarray(x, dtype=float), side="right") / sorted_vals.size


@dataclass(frozen=True)
class KsResult:
    d: float
    n: int
    p_value: float


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the asymptotic Kolmogorov distribution.

    P(sqrt(n) D > lam) for n -> inf, from ``scipy.special.kolmogorov``;
    1 for lam <= 0.
    """
    return float(_kolmogorov(float(lam)))


def ks_test(sample: SpacingSample, kind: str) -> KsResult:
    """One-sample Kolmogorov-Smirnov test against an analytic curve.

    d is the supremum over the sorted normalized spacings of the two-sided
    step bounds |i/n - F(x_i)| and |F(x_i) - (i-1)/n|; the p-value is the
    asymptotic Kolmogorov survival function at sqrt(n) d.  That law assumes
    a curve fixed in advance, but the spacings are first scaled to unit
    sample mean, which pulls them towards the curve (Lilliefors, 1967), so
    p is conservative at every n: on samples drawn from the curve itself it
    falls below 0.05 far less often than 5 % of the time.  d is exactly
    invariant under positive rescaling of the raw spacings, since
    normalization absorbs the scale.
    """
    if len(sample) == 0:
        raise ValueError("ks_test requires a nonempty sample")
    xs = np.sort(sample.normalized)
    n = xs.size
    F = np.atleast_1d(curves.cdf(kind, xs))
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - F))
    d_minus = float(np.max(F - (i - 1.0) / n))
    d = max(d_plus, d_minus)
    return KsResult(d=d, n=n, p_value=kolmogorov_sf(math.sqrt(n) * d))


@dataclass(frozen=True)
class Histogram:
    """Equal-width binned counts with density = count / (n_total * width).

    ``sum(density * width)`` equals the in-range fraction of the sample;
    samples falling outside [edges[0], edges[-1]) are tallied separately in
    ``out_of_range``.
    """

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    n_total: int
    out_of_range: int


def histogram(sample: SpacingSample, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Histogram of the normalized spacings on [lo, hi) with equal-width bins."""
    bins = int(bins)
    lo, hi = float(value_range[0]), float(value_range[1])
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("histogram range must be finite with lo < hi")
    x = sample.normalized
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.searchsorted(edges, x, side="right") - 1
    in_range = (idx >= 0) & (idx < bins) & (x < hi)
    counts = np.bincount(idx[in_range], minlength=bins)
    width = (hi - lo) / bins
    n_total = x.size
    density = counts / (n_total * width)
    return Histogram(
        edges=edges,
        counts=counts,
        density=density,
        n_total=n_total,
        out_of_range=int(n_total - counts.sum()),
    )


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    merged_bins: int


def chi_square(hist: Histogram, kind: str, min_expected: float = 5.0) -> ChiSquareResult:
    """Chi-square statistic of binned counts against an analytic curve.

    Expected counts are n_total times the curve mass in each bin.  Bins
    whose expectation falls below ``min_expected`` are merged rightward
    (a trailing underfull group is folded into its left neighbour); the
    statistic is sum (obs - exp)^2 / exp over the merged groups and
    dof = merged groups - 1.
    """
    if hist.n_total <= 0 or hist.counts.sum() <= 0:
        raise ValueError("chi_square requires a histogram with counts")
    mass = np.diff(np.atleast_1d(curves.cdf(kind, hist.edges)))
    expected = hist.n_total * mass

    groups: list[tuple[float, float]] = []
    obs_acc = 0.0
    exp_acc = 0.0
    for o, e in zip(hist.counts, expected):
        obs_acc += float(o)
        exp_acc += float(e)
        if exp_acc >= min_expected:
            groups.append((obs_acc, exp_acc))
            obs_acc = 0.0
            exp_acc = 0.0
    if exp_acc > 0.0 or obs_acc > 0.0:
        if groups:
            last_o, last_e = groups[-1]
            groups[-1] = (last_o + obs_acc, last_e + exp_acc)
        else:
            groups.append((obs_acc, exp_acc))
    if len(groups) < 2:
        raise ValueError("fewer than 2 bins remain after merging; widen the histogram")
    stat = sum((o - e) ** 2 / e for o, e in groups)
    return ChiSquareResult(statistic=float(stat), dof=len(groups) - 1, merged_bins=len(groups))
