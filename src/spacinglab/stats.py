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

    normalized[i] = raw[i] / mean(raw); input order is preserved.  The sorted
    spacings, the ECDF steps i/n and, for :func:`ks_test` below
    ``_KS_BOUND_MIN`` points, the CDF grid cell of each sorted spacing
    (``ks_bracket``) are built on first use and kept, read-only, for every
    :func:`ks_test` on the sample.
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
    def ecdf_steps(self) -> np.ndarray:
        """The ECDF steps i/n, i = 0..n, in one array: built on first use, read-only."""
        steps = np.arange(self.raw.size + 1.0)
        np.divide(steps, self.raw.size, out=steps)
        steps.flags.writeable = False
        return steps

    @cached_property
    def ks_bracket(self) -> tuple[np.ndarray, np.ndarray]:
        """Where :func:`ks_test` reads its bracket of a curve, built on first use, read-only.

        With k_j = min(floor(512 x_j), 4096) the grid cell of the sorted spacing
        x_j (exact, as scaling by a power of two is): the indices k_j, then k_j
        + ``_KS_CELLS``, into the array of :func:`_cdf_grid`, and the steps
        (j+1)/n, then -j/n.  Added to the entries the indices pick, the steps
        give lower bounds, to within ``_KS_SLACK``, of (j+1)/n - F(x_j), then
        of F(x_j) - j/n.  ks_test reads it only after its end checks: a NaN
        has no cell.
        """
        cells = (np.minimum(self.sorted_normalized, _KS_GRID_MAX) * _KS_GRID).astype(np.intp)
        index = np.concatenate((cells, cells + _KS_CELLS))
        steps = np.concatenate((self.ecdf_steps[1:], -self.ecdf_steps[:-1]))
        index.flags.writeable = steps.flags.writeable = False
        return index, steps


def normalize(raw) -> SpacingSample:
    """Scale spacings to unit mean.  Rejects empty or all-zero input, finite
    spacings whose sum overflows a float, any input ``_checks.real_array``
    refuses (a bool, complex, text, None, date or void), and, rather than
    flattening it, an input of two or more dimensions such as a sample table.

    A read-only 1-d float64 ndarray that owns its data, such as the array
    :func:`~spacinglab.ensembles.sample_spacings` fills, or that is a view of
    a read-only ndarray owning its data, such as the column
    :func:`~spacinglab.ingest.load_spacings` reads, becomes the sample's
    ``raw`` without a copy: whoever made the owner read-only must leave it so.
    Any other input, a writable array or a view of one included, is copied
    first, so changing it later leaves the sample unchanged.
    """
    owner = raw if getattr(raw, "base", None) is None else raw.base
    if (type(raw) is np.ndarray and raw.dtype == np.float64 and raw.ndim == 1
            and not raw.flags.writeable and type(owner) is np.ndarray
            and owner.flags.owndata and not owner.flags.writeable):
        arr = raw
    else:
        arr = _checks.real_array(raw, "spacings")
        if arr.ndim > 1:
            raise ValueError(f"spacings must be one-dimensional, got shape {arr.shape}")
        arr = arr.flatten()  # a private 1-d copy
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


# ks_test's knots are the points a grid bracket cannot rule out below
# _KS_BOUND_MIN points and block ends from there on.  Five-curve KS on one
# sorted GOE or GPUE sample (2-core x86-64, interquartile ranges) takes
# 112-156 us at 100 points against the full scan's 122-165, 127-159 against
# 288-336 at 1000 and 191-219 against 826-979 at 4095.  The block search,
# with 32-point blocks, takes 503-642 us at 4096 points, 1.8x less than the
# full scan, and 7x less at 2e4 and 19x at 1e5.
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


@cache
def _cdf_grid(kind: str) -> tuple[np.ndarray, float]:
    """The curve's bracket for :func:`ks_test`: one array and the widest cell's rise.

    With T_k = F(k / 512) for k = 0 .. 4096 and T_4097 = 1, F is
    nondecreasing to within ``_KS_SLACK`` and at most 1, so T_k - _KS_SLACK
    <= F(x) <= T_{k+1} + _KS_SLACK for x in cell k (see
    ``SpacingSample.ks_bracket``).  The read-only array holds -T_{k+1} at k and
    T_k at k + ``_KS_CELLS``; the rise is the largest T_{k+1} - T_k.
    """
    T = np.append(curves._cdf(kind, np.arange(_KS_CELLS) / _KS_GRID), 1.0)
    grid = np.concatenate((-T[1:], T[:-1]))
    grid.flags.writeable = False
    return grid, float(np.diff(T).max())


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

    The kind is canonicalized once and the sample is checked at its sorted
    ends alone: x_0 >= 0, and x_{n-1} is not NaN (NaN sorts last).  F is then
    the closed-form kernel behind :func:`curves.cdf`, which skips the
    per-call checks and gives the same bits.

    One pass evaluates F at the knots and takes d from their exact step
    bounds.  Below ``_KS_BOUND_MIN`` points a bracket picks the knots: x_j's
    grid cell k (``SpacingSample.ks_bracket``) gives T_k - ``_KS_SLACK`` <=
    F(x_j) <= T_{k+1} + ``_KS_SLACK`` from the curve's cached grid (see
    ``_cdf_grid``), so each step bound of x_j lies between a lower bound and
    that bound plus T_{k+1} - T_k + 2 ``_KS_SLACK``.  d is at least the
    largest lower bound L, so only the points with a lower bound within the
    widest cell's rise plus 2 ``_KS_SLACK`` of L can attain it; they are the
    knots, and d is exact.  From there on the knots are every
    ``_KS_BLOCK``-th point and the last one, so d is a lower bound.  Because
    F is nondecreasing, every j strictly between knots a < b has (j+1)/n -
    F_j <= b/n - F_a and F_j - j/n <= F_b - (a+1)/n; a second evaluation
    covers the interior of each block whose bound, plus ``_KS_SLACK``,
    reaches the lower bound.  The slack exceeds the amount by which the
    computed F can fall between any two points (see ``curves``), so neither
    rule drops a point that could hold the maximum, and d has the full scan's
    bits.
    """
    import scipy.special as special

    if len(sample) == 0:
        raise ValueError("ks_test requires a nonempty sample")
    kind = curves.canonical_kind(kind)
    xs = sample.sorted_normalized
    n = xs.size
    if not xs[0] >= 0.0 or xs[-1] != xs[-1]:  # a negative minimum; NaN sorts to the end
        raise ValueError(curves._NEGATIVE_OR_NAN)
    if n < _KS_BOUND_MIN:  # the bracket's knots hold d, so it is exact and needs no refinement
        grid, rise = _cdf_grid(kind)
        index, steps = sample.ks_bracket
        lower = grid[index]  # (j+1)/n - F(x_j), then F(x_j) - j/n, exceed these less _KS_SLACK
        lower += steps
        knots = (lower >= lower.max() - (rise + 2.0 * _KS_SLACK)).nonzero()[0] % n
        lo, hi = sample.ecdf_steps[knots], sample.ecdf_steps[knots + 1]
    else:
        knots = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
        lo, hi = knots / n, (knots + 1) / n
    F = curves._cdf(kind, xs[knots])  # xs passed the end checks: any subset is a valid input
    d = max((hi - F).max(), (F - lo).max())
    if n >= _KS_BOUND_MIN:
        bound = np.maximum(lo[1:] - F[:-1], F[1:] - hi[:-1])
        starts = knots[:-1][bound + _KS_SLACK >= d]
        inner = (starts[:, None] + np.arange(1, _KS_BLOCK)).ravel()
        inner = inner[inner < n - 1]  # the last block can be shorter
        if inner.size:
            F = curves._cdf(kind, xs[inner])
            d = max(d, ((inner + 1) / n - F).max(), (F - inner / n).max())
    d = float(d)
    return KsResult(d=d, n=n, p_value=float(special.kolmogorov(math.sqrt(n) * d)))


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
