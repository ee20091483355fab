"""Spacing post-processing, the goodness-of-fit test and classification.

Unit-mean normalization of raw spacings, the one-sample Kolmogorov-Smirnov
test against the analytic curves, and the best fit among them.  All
functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import _checks, curves

__all__ = [
    "SpacingSample",
    "normalize",
    "KsResult",
    "ks_test",
    "Classification",
    "classify",
]


@dataclass(frozen=True)
class SpacingSample:
    """Raw nonnegative spacings with their unit-mean rescaling.

    normalized[i] = raw[i] / mean(raw); input order is preserved, and both
    arrays are read-only.  The sorted spacings and the KS results of all five
    curves (``ks_results``, which checks the sample) are built on first use,
    and :func:`ks_test` and :func:`classify` only read them.
    """

    raw: np.ndarray
    mean: float
    normalized: np.ndarray

    def __len__(self) -> int:
        return self.raw.size

    @cached_property
    def sorted_normalized(self) -> np.ndarray:
        """The normalized spacings in ascending order: sorted on first use, read-only,
        and shared by every :func:`ks_test` on this sample."""
        xs = np.sort(self.normalized)
        xs.flags.writeable = False
        return xs

    @cached_property
    def ks_results(self) -> tuple[KsResult, ...]:
        """:func:`ks_test`'s result against each curve, in ``CURVE_ORDER``, from one pass.

        It first checks the sample, raising ValueError: nonempty, x_0 >= 0 and
        x_{n-1} not NaN (NaN sorts last and has no grid cell).  The sorted spacings
        are read-only, so a passed check holds for the cache's life.  Both rules
        evaluate F at knots, all five curves' in one ``curves._cdf`` call, and
        take each curve's d from its own knots' exact step bounds (:func:`_knot_d`).

        Below ``_KS_BOUND_MIN`` points a bracket picks the knots.  With k the
        grid cell of x_j (see :func:`_cells`), one gather from :func:`_cdf_grid`
        plus the steps (j+1)/n, then -j/n, gives each curve's lower bounds, to
        within ``_KS_SLACK``, of (j+1)/n - F(x_j), then of F(x_j) - j/n; each
        is within T_{k+1} - T_k + 2 ``_KS_SLACK`` of its step bound.  d is at
        least the largest lower bound L, so only the points whose lower bound
        is within the widest cell's rise plus 2 ``_KS_SLACK`` of L can attain it.

        From there on the knots are every ``_KS_BLOCK``-th point and the last,
        which bound d from below.  As F is nondecreasing, every j strictly
        between knots a < b has (j+1)/n - F_j <= b/n - F_a and F_j - j/n <=
        F_b - (a+1)/n, so a second ``_cdf`` call covers each block whose bound,
        plus ``_KS_SLACK``, reaches its curve's lower bound; a short last block
        is padded with x_{n-1}, a knot already.  The slack exceeds the amount
        by which the computed F can fall between any two points (see
        ``curves``), so neither rule drops a point that could hold the
        maximum, and d has the full scan's bits.
        """
        xs = self.sorted_normalized
        n = xs.size
        if n == 0:
            raise ValueError("ks_test requires a nonempty sample")
        if not xs[0] >= 0.0 or xs[-1] != xs[-1]:  # a negative minimum; NaN sorts to the end
            raise ValueError(curves._NEGATIVE_OR_NAN)
        rows = len(curves.CURVE_ORDER)
        if n < _KS_BOUND_MIN:
            grid, rises = _cdf_grid()
            cells = _cells(xs)
            steps = np.arange(n + 1.0) / n
            steps = np.concatenate((steps[1:], -steps[:-1]))
            lower = grid.take(np.concatenate((cells, cells + _KS_CELLS)), axis=1)  # row i: curve i's bounds
            lower += steps
            cut = lower.max(axis=1) - (rises + 2.0 * _KS_SLACK)
            flat = np.flatnonzero(lower >= cut[:, None])  # row by row, each row nonempty: it holds its max
            knots = flat % n
            edges = np.searchsorted(flat, np.arange(0, (rows + 1) * 2 * n, 2 * n))
            F = curves._cdf(xs[knots], edges.tolist())  # xs passed the end checks: any subset is valid
            d = _knot_d(F, steps[knots], steps[knots + n], edges[:-1])
        else:
            knots = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
            k = knots.size
            hi, neg_lo = (knots + 1) / n, knots / -n
            F = curves._cdf(np.tile(xs[knots], rows), list(range(0, (rows + 1) * k, k))).reshape(rows, k)
            d = np.maximum((hi - F).max(axis=1), (F + neg_lo).max(axis=1))  # a lower bound
            bound = np.maximum(-(neg_lo[1:] + F[:, :-1]), F[:, 1:] - hi[:-1])
            curve, block = np.nonzero(bound + _KS_SLACK >= d[:, None])  # grouped by curve
            inner = np.minimum(knots[block, None] + np.arange(1, _KS_BLOCK), n - 1).ravel()
            edges = np.searchsorted(curve, np.arange(rows + 1)) * (_KS_BLOCK - 1)  # a short last block padded
            F = curves._cdf(xs[inner], edges.tolist())
            full = np.flatnonzero(np.diff(edges))  # reduceat would give an empty part a point of the next
            d[full] = np.maximum(d[full], _knot_d(F, (inner + 1) / n, inner / -n, edges[full]))
        p = curves._special().kolmogorov(math.sqrt(n) * d)
        return tuple(KsResult(di, n, pi) for di, pi in zip(d.tolist(), p.tolist()))


def normalize(raw) -> SpacingSample:
    """Scale spacings to unit mean.  Rejects empty or all-zero input, finite
    spacings whose sum overflows a float, any input ``_checks.real_array``
    refuses (a bool, complex, text, None, date or void), and, rather than
    flattening it, an input of two or more dimensions such as a sample table.

    The sample keeps a private copy of the input, so changing the input later
    leaves the sample unchanged.
    """
    arr = _checks.real_array(raw, "spacings")
    if arr.ndim > 1:
        raise ValueError(f"spacings must be one-dimensional, got shape {arr.shape}")
    return _own(arr.flatten())  # a private 1-d copy


def _own(arr: np.ndarray) -> SpacingSample:
    """:func:`normalize`'s value checks and scaling on the 1-d float64 ndarray
    ``arr``, which is marked read-only and kept as the sample's ``raw``: the
    caller hands it over and keeps no writable reference.  Sampling, unfolding
    and ``compare`` pass the array they have just filled or read."""
    if arr.size == 0:
        raise ValueError("cannot normalize an empty spacing list")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(arr.sum())  # arr.mean()'s bits, divided below, without its Python wrapper
    if not (arr.min() >= 0.0 and total < math.inf):  # False on NaN too
        if not np.all(np.isfinite(arr)):
            raise ValueError("spacings must be finite")
        if arr.min() < 0.0:
            raise ValueError("spacings must be nonnegative")
        raise ValueError("cannot normalize: the sum of the spacings overflows a float; "
                         "rescale the spacings")
    mean = total / arr.size
    if mean <= 0.0:
        raise ValueError("cannot normalize: mean spacing is zero")
    if mean < np.finfo(float).tiny:  # a subnormal quotient has lost bits: normalized would miss mean 1
        raise ValueError("cannot normalize: the mean spacing is subnormal; rescale the spacings")
    arr.flags.writeable = False
    norm = arr / mean
    norm.flags.writeable = False
    return SpacingSample(raw=arr, mean=mean, normalized=norm)


# ks_results picks its knots by one of two rules, each for all five curves
# at once: the grid bracket below _KS_BOUND_MIN points, the block search from
# there on.  On one sorted sample (best of 7, 2 vCPU, GOE and GPUE samples, two
# runs) the bracket takes 125-161 us against 251-346 us by the block search at
# 4095 and 4096 points, and 213-235 against 330-378 us at 8000, but its
# candidates grow with n, so it loses from about 2e4 points on (599-662 against
# 411-599 us at 2e4, 4.0-4.5 against 0.9-1.5 ms at 1e5).  The cutoff stays:
# perfbench's only samples between 2000 and 1e5 points are verify's
# 2e4-spacing rows, one per 800 small-experiments operations, so no workload
# could show a move.
_KS_BOUND_MIN = 4096
_KS_BLOCK = 32
# The bracket's grid: cells of width 1/_KS_GRID on [0, _KS_GRID_MAX), then
# one cell for every x >= _KS_GRID_MAX.
_KS_GRID = 512
_KS_GRID_MAX = 8.0
_KS_CELLS = int(_KS_GRID * _KS_GRID_MAX) + 1
# A block is skipped, or a point ruled out, only if its bound falls below the
# knots' D, or the largest lower bound, by more than this.  curves.cdf is
# exact to 3e-11 (GPOE, the accuracy of iti0k0) and to 2e-15 for the other
# curves, so it is nondecreasing to within 6e-11; 1e-9 covers that and the
# rounding of the bound many times over.
_KS_SLACK = 1e-9


def _cells(x: np.ndarray) -> np.ndarray:
    """The bracket's grid cell of each x: min(floor(512 x), 4096), exact, as
    scaling by a power of two is."""
    return (np.minimum(x, _KS_GRID_MAX) * _KS_GRID).astype(np.intp)


@cache
def _cdf_grid() -> tuple[np.ndarray, np.ndarray]:
    """The bracket of every curve for :func:`ks_test`: one array, row by row in
    ``CURVE_ORDER``, and each row's widest cell's rise.

    With T_k = F(k / 512) for k = 0 .. 4096 and T_4097 = 1, F is
    nondecreasing to within ``_KS_SLACK`` and at most 1, so T_k - _KS_SLACK
    <= F(x) <= T_{k+1} + _KS_SLACK for x in cell k (see
    ``SpacingSample.ks_results``).  Curve i's row of the read-only array holds
    -T_{k+1} at k and T_k at k + ``_KS_CELLS``; its rise is the largest
    T_{k+1} - T_k.
    """
    rows = len(curves.CURVE_ORDER)
    x = np.tile(np.arange(_KS_CELLS) / _KS_GRID, rows)
    T = curves._cdf(x, np.arange(rows + 1) * _KS_CELLS).reshape(rows, _KS_CELLS)
    T = np.concatenate((T, np.ones((rows, 1))), axis=1)
    grid = np.concatenate((-T[:, 1:], T[:, :-1]), axis=1)
    rises = np.diff(T, axis=1).max(axis=1)
    grid.flags.writeable = rises.flags.writeable = False
    return grid, rises


@dataclass(frozen=True)
class KsResult:
    d: float
    n: int
    p_value: float


def _knot_d(F: np.ndarray, hi: np.ndarray, neg_lo: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each curve's d, the largest of hi - F and F + neg_lo over its knots j (hi = (j+1)/n, neg_lo =
    -j/n); the curves' parts, none empty, start at ``starts``, the last running to the end."""
    # max is exact, so each curve's d has the bits of its own max over its knots; -j/n is kept negated
    return np.maximum(np.maximum.reduceat(hi - F, starts), np.maximum.reduceat(F + neg_lo, starts))


def ks_test(sample: SpacingSample, kind: str) -> KsResult:
    """One-sample Kolmogorov-Smirnov test against an analytic curve.

    d is the maximum over the sorted normalized spacings x_0 <= ... <= x_{n-1}
    of the two-sided step bounds (j+1)/n - F(x_j) and F(x_j) - j/n; the
    p-value is the asymptotic Kolmogorov survival function at sqrt(n) d.  That
    law assumes a curve fixed in advance, but the spacings are first scaled to
    unit sample mean, which pulls them towards the curve (Lilliefors, 1967), so
    p is conservative at every n: on samples drawn from the curve itself it
    falls below 0.05 far less often than 5 % of the time.  d is invariant,
    to a few ulps, under positive rescaling of the raw spacings, since
    normalization absorbs the scale up to the rounding of raw / mean.

    A lookup: the canonical kind's entry of ``sample.ks_results``, which on
    first read checks the sample and tests it against all five curves in one
    pass with the kernel behind :func:`curves.cdf` (same bits).  So a bad kind
    is named before a bad sample, one curve costs as much as five, and the
    curves asked, and their order, change no bit of d or p.
    """
    i = curves.CURVE_ORDER.index(curves.canonical_kind(kind))  # the kind is checked before the sample
    return sample.ks_results[i]


@dataclass(frozen=True)
class Classification:
    """The KS result of each curve tested, in ``CURVE_ORDER``, and the best fit."""

    ks: dict[str, KsResult]
    best_fit: str


def classify(sample: SpacingSample, against=curves.CURVE_ORDER) -> Classification:
    """Each named curve's entry of ``sample.ks_results`` (which checks the sample), in ``CURVE_ORDER``.
    The best fit has the least d, a tie going to the curve first in ``CURVE_ORDER``.  Warns
    on a zero-variance sample; raises ValueError when no curve is named, before the sample checks.
    Naming fewer curves saves no time: the first read of ``ks_results`` computes all five."""
    names = curves._select(against)
    ks = {k: r for k, r in zip(curves.CURVE_ORDER, sample.ks_results) if k in names}
    if sample.sorted_normalized[0] == sample.sorted_normalized[-1]:  # sorted once, by ks_results
        warnings.warn("zero-variance sample: every spacing is identical", stacklevel=2)
    return Classification(ks=ks, best_fit=min(ks, key=lambda k: ks[k].d))  # first least d
