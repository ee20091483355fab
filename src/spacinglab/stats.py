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
    arrays are read-only.  The sorted spacings are built on first use and kept,
    read-only, for every :func:`ks_test` on the sample; below
    ``_KS_BOUND_MIN`` points, so are the results of all five curves
    (``ks_results``), which the first ks_test computes in one pass.
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

        ks_test reads it below ``_KS_BOUND_MIN`` points, after its checks (a
        NaN has no grid cell).  With k_j the grid cell of the sorted spacing
        x_j (see :func:`_cells`), one gather from :func:`_cdf_grid` plus the
        steps (j+1)/n, then -j/n, gives each curve's lower bounds, to within
        ``_KS_SLACK``, of (j+1)/n - F(x_j), then of F(x_j) - j/n.  The knots
        of all five curves go to one call of ``curves._cdf``, and one
        reduction per side takes each curve's d from its own knots (see
        :func:`ks_test`).
        """
        special = curves._special()
        xs = self.sorted_normalized
        n = xs.size
        grid, rises = _cdf_grid()
        cells = _cells(xs)
        index = np.concatenate((cells, cells + _KS_CELLS))
        steps = np.arange(n + 1.0) / n
        steps = np.concatenate((steps[1:], -steps[:-1]))
        lower = grid.take(index, axis=1)  # row i: curve i's bounds, each exceeded less _KS_SLACK
        lower += steps
        cut = lower.max(axis=1) - (rises + 2.0 * _KS_SLACK)
        flat = np.flatnonzero(lower >= cut[:, None])  # row by row, each row nonempty: it holds its max
        knots = flat % n
        edges = np.searchsorted(flat, np.arange(0, (len(curves.CURVE_ORDER) + 1) * 2 * n, 2 * n))
        hi, neg_lo = steps[knots], steps[knots + n]
        F = curves._cdf(xs[knots], edges.tolist())  # xs passed ks_test's end checks, so any subset is valid
        # max is exact, so each curve's d has the bits of its own max over its knots; -j/n is kept negated
        d = np.maximum(np.maximum.reduceat(hi - F, edges[:-1]), np.maximum.reduceat(F + neg_lo, edges[:-1]))
        p = special.kolmogorov(math.sqrt(n) * d)
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
    arr.flags.writeable = False
    norm = arr / mean
    norm.flags.writeable = False
    return SpacingSample(raw=arr, mean=mean, normalized=norm)


# ks_test picks its knots by one of two rules: the grid bracket, one pass for
# all five curves, below _KS_BOUND_MIN points, the block search, per curve,
# from there on.  Five-curve KS on one sorted sample (best of 7, 2 vCPU, GOE
# and GPUE samples, two runs) takes 157-196 us by the bracket against 458-489
# us by the block search at 4095 and 4096 points, and 257-271 against 488-501
# us at 8000, but the bracket's candidates grow with n, so it loses from about
# 1.5-2e4 points on (608-684 against 543-585 us at 2e4, 3.6-3.8 against 1.1-1.2
# ms at 1e5).  The cutoff stays: perfbench's only samples between 2000 and 1e5
# points are verify's 2e4-spacing rows, one per 800 small-experiments
# operations, so no workload could show a move.
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

    The kind is canonicalized and the sample is checked at its sorted ends
    alone, on every call: x_0 >= 0, and x_{n-1} is not NaN (NaN sorts last).
    F is then the closed-form kernel behind :func:`curves.cdf`, which skips
    the per-call checks and gives the same bits.

    Below ``_KS_BOUND_MIN`` points the first ks_test on a sample tests it
    against all five curves in one pass (``SpacingSample.ks_results``), and
    every later one, for any curve, returns that result: one curve costs as
    much as five.  The pass evaluates F at knots and takes d from their exact
    step bounds.  A bracket picks the knots: x_j's grid cell k gives T_k -
    ``_KS_SLACK`` <= F(x_j) <= T_{k+1} + ``_KS_SLACK`` from the curve's row of
    the cached grid (see ``_cdf_grid``), so each step bound of x_j lies between
    a lower bound and that bound plus T_{k+1} - T_k + 2 ``_KS_SLACK``.  d is at
    least the largest lower bound L, so only the points with a lower bound
    within the widest cell's rise plus 2 ``_KS_SLACK`` of L can attain it;
    they are the knots, and d is exact.  The knots of the five curves go to
    one call of the CDF kernel, and each curve's d is the maximum over its own
    knots, so the curves asked, and their order, change no bit of d or p.

    From ``_KS_BOUND_MIN`` points on, each call tests its one curve: the knots
    are every ``_KS_BLOCK``-th point and the last one, so d is a lower bound.
    Because F is nondecreasing, every j strictly between knots a < b has
    (j+1)/n - F_j <= b/n - F_a and F_j - j/n <= F_b - (a+1)/n; a second
    evaluation covers the interior of each block whose bound, plus
    ``_KS_SLACK``, reaches the lower bound.  The slack exceeds the amount by
    which the computed F can fall between any two points (see ``curves``),
    so neither rule drops a point that could hold the maximum, and d has the
    full scan's bits.  -j/n is kept negated, which changes no bit of d, as
    negation is exact.
    """
    if len(sample) == 0:
        raise ValueError("ks_test requires a nonempty sample")
    kind = curves.canonical_kind(kind)
    xs = sample.sorted_normalized
    n = xs.size
    if not xs[0] >= 0.0 or xs[-1] != xs[-1]:  # a negative minimum; NaN sorts to the end
        raise ValueError(curves._NEGATIVE_OR_NAN)
    if n < _KS_BOUND_MIN:  # the bracket's knots hold d, so it is exact and needs no refinement
        return sample.ks_results[curves.CURVE_ORDER.index(kind)]
    knots = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
    hi, neg_lo = (knots + 1) / n, knots / -n
    F = curves._cdf_of(kind, xs[knots])  # xs passed the end checks: any subset is a valid input
    d = max((hi - F).max(), (F + neg_lo).max())  # adding -j/n gives F - j/n's bits
    bound = np.maximum(-(neg_lo[1:] + F[:-1]), F[1:] - hi[:-1])
    starts = knots[:-1][bound + _KS_SLACK >= d]
    inner = (starts[:, None] + np.arange(1, _KS_BLOCK)).ravel()
    inner = inner[inner < n - 1]  # the last block can be shorter
    if inner.size:
        F = curves._cdf_of(kind, xs[inner])
        d = max(d, ((inner + 1) / n - F).max(), (F - inner / n).max())
    d = float(d)
    return KsResult(d=d, n=n, p_value=float(curves._special().kolmogorov(math.sqrt(n) * d)))


@dataclass(frozen=True)
class Classification:
    """The KS result of each curve tested, in ``CURVE_ORDER``, and the best fit."""

    ks: dict[str, KsResult]
    best_fit: str


def classify(sample: SpacingSample, against=curves.CURVE_ORDER) -> Classification:
    """KS-test ``sample`` once against each named curve, results in ``CURVE_ORDER``.
    The best fit has the least d, a tie going to the curve first in ``CURVE_ORDER``.
    Warns on a zero-variance sample; raises ValueError when no curve is named."""
    ks = {k: ks_test(sample, k) for k in curves._select(against)}
    if sample.sorted_normalized[0] == sample.sorted_normalized[-1]:  # sorted once, by ks_test
        warnings.warn("zero-variance sample: every spacing is identical", stacklevel=2)
    return Classification(ks=ks, best_fit=min(ks, key=lambda k: ks[k].d))  # first least d
