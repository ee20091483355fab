"""Gaussian matrix ensembles and Monte Carlo sampling of level spacings.

Seven families of small random matrices, each parameterized by independent
centered Gaussians and each with closed-form eigenvalues:

=====  ======  ==========================  ==========================
tag    params  matrix                      eigenvalues
=====  ======  ==========================  ==========================
GOE    a,b,c   real symmetric 2x2          a +- sqrt(b^2+c^2)
GUE    a..d    Hermitian 2x2               a +- sqrt(b^2+c^2+d^2)
GSE    a..f    quaternion-structured 4x4   a +- sqrt(b^2+...+f^2), doubly degenerate
GPOE   a,b,c   complex-symmetric 2x2,      a +- sqrt(b^2-c^2)  iff b^2 >= c^2,
               metric diag(1,-1)           else complex pair (rejected)
GPUE   a..d    pseudo-Hermitian 2x2,       a +- sqrt(b^2-c^2-d^2)  iff
               metric diag(1,-1)           b^2 >= c^2+d^2, else rejected
QH3    a,b,c   quasi-Hermitian 2x2,        a +- sqrt(b^2+c^2), always real
QH4    a..d    metric diag(eps, 1/eps)     a +- sqrt(b^2+c^2+d^2), always real
=====  ======  ==========================  ==========================

Sampling weight: exp(-Tr(H H^dagger) / 2).  For the 2x2 families this makes
every active parameter an independent N(0, 1/2); the GSE trace weight
differs only by a global scale, which is irrelevant after unit-mean
normalization of spacings, so the same N(0, 1/2) convention is used.  Any
other width would only rescale the raw spacings, so no statistic of the
normalized ones depends on it.  For the quasi-Hermitian families with
eps = exp(-kappa), the trace picks up cosh(2 kappa) on the dressed
parameters: QH3 draws b, c (and QH4 draws c, d) from
N(0, 1 / (2 cosh 2 kappa)).  This is the only place kappa enters QH4's
spacing law; QH3 stays isotropic in (b, c) at every kappa and therefore
reproduces the linear-repulsion statistics identically.

Every matrix is H = a 1 + sum_j p_j G_j over its parameters (a, b, c, ...),
with traceless generators G_j (Pauli matrices; Kronecker products of them
for GSE) that anticommute pairwise and square to +1 if Hermitian, -1 if
anti-Hermitian, so (H - a)^2 = D 1 with D = sum_j +-p_j^2.  GPOE and GPUE
are GOE and GUE with sigma_x (and sigma_y) swapped for i sigma_x (and
i sigma_y), which anticommute with the metric eta = sigma_z: H is then
pseudo-Hermitian, eta H eta^-1 = H^dagger, and those terms enter D with a
minus sign.  QH3/QH4 dress the off-diagonal: H[0,1] / eps, H[1,0] * eps.

A parameter vector is (a, b, c, ...) in the order of the table, with exactly
``kind.n_params`` entries.  :func:`realize_matrix` and
:func:`pseudo_hermiticity_residual` take a stack of them, shape (..., n_params),
and :func:`eigenvalues` exactly one; all three refuse any other length, any non-finite
entry and what ``_checks.real_array`` refuses, with a ValueError naming the kind.

``_FAMILIES`` describes each family: its generators (the identity first), the
first parameter kappa shrinks, the exact probability of real eigenvalues (1/2
for GPOE, 1 - 1/sqrt2 for GPUE's cone) and the reference curve; everything
else about a family, the signs in D included, is derived from its row.

Reproducibility: spacing generation is split into fixed-size logical
blocks (streams).  Block ``i`` owns a private generator seeded by
``SeedSequence(seed, spawn_key=(i,))``; the ``workers`` setting only
schedules blocks onto threads, and neither the rejection batch size nor the
chunk edges ever show in the output (``Generator.standard_normal`` fills in
sequence, D is computed row by row, and draws count up to the quota-th
acceptance).  Output is therefore identical for any worker count, and
bit-identical for fixed (kind, n, seed).

The output array is allocated once, before any draw, so an ``n`` that
cannot be held is refused at once; each stream then fills its own slice of
it in place.  A stream reads its draws in chunks through one draws buffer
of at most ``_CHUNK_VALUES`` floats (128 KiB) and one D buffer of one
float per row, so each worker's working memory is a constant, whatever
``n``.  The filled array becomes the sample's ``raw`` without a copy.  The
draws stay unscaled: each term of D scales its own column, fl(fl(p_j s_j)^2),
which are the bits D has for scaled parameters, and the ``a`` column is drawn
but never scaled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _checks, stats

__all__ = [
    "ENSEMBLE_ORDER",
    "EnsembleKind",
    "SamplerConfig",
    "SpectralParams",
    "GOE",
    "GUE",
    "GSE",
    "GPOE",
    "GPUE",
    "qh3",
    "qh4",
    "eigenvalues",
    "sample_spacings",
    "acceptance_rate",
    "spectral_to_params",
    "realize_matrix",
    "metric",
    "pseudo_hermiticity_residual",
]


# 2x2 generators, written out; i sigma_x and i sigma_y anticommute with sigma_z
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_I2 = np.eye(2, dtype=complex)
_MINUS_SY = np.array([[0, 1j], [-1j, 0]])
_I_SX = np.array([[0, 1j], [1j, 0]])
_I_SY = np.array([[0, 1], [-1, 0]], dtype=complex)


class _Family(NamedTuple):
    generators: np.ndarray  # stack of 1, G_b, G_c, ... in H = a 1 + b G_b + c G_c + ...
    shrink: int | None  # first parameter kappa shrinks, or None
    acceptance: float  # exact probability that a draw has real eigenvalues
    curve: str  # analytic reference curve


_FAMILIES = {
    "GOE": _Family(np.array((_I2, _SZ, _SX)), None, 1.0, "GOE"),
    "GUE": _Family(np.array((_I2, _SZ, _SX, _MINUS_SY)), None, 1.0, "GUE"),
    "GSE": _Family(np.array((np.kron(_I2, _I2), np.kron(_SZ, _I2), np.kron(_SX, _I2),
                             np.kron(_SY, _SZ), np.kron(_SY, _SY), np.kron(_SY, _SX))),
                   None, 1.0, "GSE"),
    "GPOE": _Family(np.array((_I2, _SZ, _I_SX)), None, 0.5, "GPOE"),
    "GPUE": _Family(np.array((_I2, _SZ, _I_SX, _I_SY)), None, 1 - 1 / math.sqrt(2), "GPUE"),
    "QH3": _Family(np.array((_I2, _SX, _MINUS_SY)), 1, 1.0, "GOE"),
    "QH4": _Family(np.array((_I2, _SZ, _SX, _MINUS_SY)), 2, 1.0, "GUE"),
}
ENSEMBLE_ORDER = tuple(_FAMILIES)

# sign of p_j^2 in D (a's unused): G_j^2 = +1 if G_j is Hermitian, -1 if anti-Hermitian
_SIGNS = {
    tag: tuple(1 if np.array_equal(g, g.conj().T) else -1 for g in family.generators)
    for tag, family in _FAMILIES.items()
}

# accepted spacings per logical stream; workers only schedule streams
BLOCK_QUOTA = 16384
# float64 values in one stream's draws buffer (128 KiB): a stream reads its
# draws in chunks of at most _CHUNK_VALUES // n_params rows
_CHUNK_VALUES = 2**14


@dataclass(frozen=True)
class EnsembleKind:
    """One of the seven samplable families, with kappa for QH3/QH4 only."""

    tag: str
    kappa: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in _FAMILIES:
            raise ValueError(f"unknown ensemble tag {self.tag!r}")
        if _FAMILIES[self.tag].shrink is not None:
            # at 100 the shrunk variance, 1/(2 cosh 200) = 1.4e-87, is still far from
            # subnormal; beyond 100, kappa changes normalized spacings by < 1e-15 anyway
            if (kappa := _checks.real_array(self.kappa, "kappa")).ndim or not (0.0 <= kappa <= 100.0):
                raise ValueError(f"kappa must be one number in [0, 100], not {self.kappa!r}")
            object.__setattr__(self, "kappa", float(kappa))
        elif self.kappa is not None:
            raise ValueError(f"kappa is only meaningful for QH3/QH4, not {self.tag}")

    @property
    def n_params(self) -> int:
        return len(_FAMILIES[self.tag].generators)

    @property
    def acceptance(self) -> float:
        """Exact probability that one draw has real eigenvalues."""
        return _FAMILIES[self.tag].acceptance

    @property
    def has_rejection(self) -> bool:
        return self.acceptance < 1.0

    @property
    def reference_curve(self) -> str:
        """Analytic curve this family's spacings follow (QH4: approximately)."""
        return _FAMILIES[self.tag].curve

    def __str__(self) -> str:
        if self.kappa is not None:
            return f"{self.tag}(kappa={self.kappa:g})"
        return self.tag


GOE = EnsembleKind("GOE")
GUE = EnsembleKind("GUE")
GSE = EnsembleKind("GSE")
GPOE = EnsembleKind("GPOE")
GPUE = EnsembleKind("GPUE")


def qh3(kappa: float) -> EnsembleKind:
    return EnsembleKind("QH3", kappa)


def qh4(kappa: float) -> EnsembleKind:
    return EnsembleKind("QH4", kappa)


@dataclass(frozen=True)
class SamplerConfig:
    """Master seed and worker count for sampling."""

    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _checks.count(self.seed, "seed", 0))
        if self.seed >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "workers", _checks.count(self.workers, "workers", 1))


@dataclass(frozen=True)
class SpectralParams:
    """Spectral coordinates (t, s, theta[, phi]) of the pseudo families, each one finite real number
    by ``_checks.real_array``'s rule: t = e1 + e2, s = e1 - e2 >= 0; phi is used by GPUE only."""

    t: float
    s: float
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        coords = _checks.real_array((self.t, self.s, self.theta, self.phi), "SpectralParams coordinates")
        if coords.shape != (4,) or not np.isfinite(coords).all():
            raise ValueError(f"SpectralParams requires one finite number each for t, s, theta, phi: {self}")
        if coords[1] < 0.0:
            raise ValueError("SpectralParams requires s >= 0")
        for field, value in zip(("t", "s", "theta", "phi"), coords.tolist()):
            object.__setattr__(self, field, value)


def _param_stds(kind: EnsembleKind) -> np.ndarray:
    """Per-parameter standard deviations induced by the trace weight."""
    # not math.sqrt(0.5): that differs in the last bit, and so would the sample bytes
    stds = np.full(kind.n_params, 1.0 / math.sqrt(2.0))
    shrink = _FAMILIES[kind.tag].shrink
    if shrink is not None:
        stds[shrink:] /= math.sqrt(math.cosh(2.0 * kind.kappa))
    return stds


def _stream_rng(seed: int, stream_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_index,))
    return np.random.default_rng(ss)


def _active(kind: EnsembleKind, p) -> np.ndarray:
    arr = np.atleast_1d(_checks.real_array(p, f"{kind.tag} parameters"))
    if (got := arr.shape[-1]) != kind.n_params:
        raise ValueError(f"{kind.tag} needs exactly {kind.n_params} parameters, got {got}")
    if (bad := ~np.isfinite(arr).all(axis=-1)).any():  # arr[bad][0]: the first bad vector
        raise ValueError(f"{kind.tag} parameters must be finite, got {arr[bad][0].tolist()}")
    return arr


def _discriminants(
    kind: EnsembleKind,
    params: np.ndarray,
    stds: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized D = +-b^2 +- c^2 ... (added left to right) of ``params`` scaled by ``stds``,
    column by column; eigenvalues a +- sqrt(D).

    Each term scales its own column first, fl(fl(p_j s_j)^2), so the unscaled
    draws give the bits of the scaled block and no pass scales the block
    (column ``a`` is never read).  D is written to ``out`` if given.
    """
    cols = params.T

    def term(j: int, dst):
        dst = np.multiply(cols[j], stds[j], out=dst)
        dst *= dst
        return dst

    disc = term(1, out)  # every family's first generator is Hermitian: D starts at +b^2
    tmp = None
    for j in range(2, len(cols)):
        tmp = term(j, tmp)
        (np.add if _SIGNS[kind.tag][j] > 0 else np.subtract)(disc, tmp, out=disc)
    return disc


def eigenvalues(kind: EnsembleKind, p) -> tuple[float, float] | None:
    """Closed-form eigenvalues (e1, e2) with e1 >= e2, or None outside the real sector.

    ``p`` is one parameter vector; a stack is refused.
    The reality predicate for GPOE/GPUE is exact (b^2 >= c^2 [+ d^2], no
    tolerance): D takes ``p`` at unit scales, and p * 1.0 is exact, so each
    term is fl(p_j^2).  GSE's doubly degenerate 4x4 spectrum is reported as its
    two distinct values.  Only real eigenvalues define a spacing, e1 - e2.
    """
    row = _active(kind, p)
    if row.ndim != 1:
        raise ValueError(f"{kind.tag} eigenvalues take one parameter vector, got {row.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        disc = float(_discriminants(kind, row[None, :], np.ones(kind.n_params))[0])
    if not math.isfinite(disc):
        raise ValueError(f"{kind.tag} discriminant overflows for parameters {row.tolist()}")
    if disc < 0.0:
        return None
    a = float(row[0])
    r = math.sqrt(disc)
    return a + r, a - r


def _batch_rows(need: int, p: float) -> int:
    """Draws that give ``need`` acceptances at rate ``p`` with near certainty.

    need/p plus four standard deviations of the accepted count, so one batch
    nearly always suffices; at p = 1 it is need.
    """
    return math.ceil((need + 4.0 * math.sqrt(need * (1.0 - p))) / p)


def _buffers(kind: EnsembleKind, first_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """One stream's draws buffer and D buffer: min(first_rows, _CHUNK_VALUES // n_params) rows."""
    rows = min(first_rows, _CHUNK_VALUES // kind.n_params)
    return np.empty((rows, kind.n_params)), np.empty(rows)


def _fill_stream(
    kind: EnsembleKind, stds: np.ndarray, seed: int, stream_index: int, out: np.ndarray
) -> int:
    """Fill ``out`` with one logical stream's accepted spacings; return the raw draws consumed.

    Raw draws are consumed in stream order up to and including the draw that
    yields the last acceptance, which makes the reported acceptance rate
    reproducible.  Each chunk holds ``_batch_rows`` (need) draws, at most the
    rows of the draws buffer and D buffer, which are allocated once per stream
    and never exceed its first batch; the values whose D is non-negative are
    taken from the D buffer.  At acceptance 1 a batch is ``need`` rows and
    every draw is kept.
    """
    rng = _stream_rng(seed, stream_index)
    p = kind.acceptance
    draws, disc = _buffers(kind, _batch_rows(out.size, p))  # the first batch is the largest
    raws = filled = 0
    while (need := out.size - filled) > 0:
        rows = min(_batch_rows(need, p), len(draws))
        chunk = _discriminants(kind, rng.standard_normal(out=draws[:rows]), stds, out=disc[:rows])
        ok = np.flatnonzero(chunk >= 0.0)[:need]
        # ok is always in range; mode="raise" would buffer out and copy it back
        dest = np.take(chunk, ok, out=out[filled:filled + ok.size], mode="clip")
        used = int(ok[-1]) + 1 if ok.size == need else rows
        np.sqrt(dest, out=dest)
        dest *= 2.0
        raws += used
        filled += dest.size
    return raws


def sample_spacings(
    kind: EnsembleKind, n_accepted: int, config: SamplerConfig
) -> tuple[stats.SpacingSample, float]:
    """Exactly ``n_accepted`` spacings from accepted draws, plus acceptance rate.

    Returns (sample, rate) where ``sample`` carries the raw spacings in
    stream order together with their unit-mean normalization, and ``rate``
    is accepted/consumed raw draws (exactly 1.0 for the always-real kinds).
    At most min(``config.workers``, streams, ``os.cpu_count()``) threads run.
    An ``n_accepted`` whose output cannot be allocated raises MemoryError
    before any draw.
    """
    n_accepted = _checks.float64_count(n_accepted, "n_accepted", 1)
    out = np.empty(n_accepted)
    starts = range(0, n_accepted, BLOCK_QUOTA)
    stds = _param_stds(kind)

    def job(start: int) -> int:
        return _fill_stream(kind, stds, config.seed, start // BLOCK_QUOTA,
                            out[start:start + BLOCK_QUOTA])

    # the output does not depend on the worker count, so no more threads start
    # than there are streams or cores; os.cpu_count() reads a file, so it is asked last
    workers = min(config.workers, len(starts))
    if workers > 1 and (cores := os.cpu_count() or 1) > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here, as only this branch needs it

        with ThreadPoolExecutor(max_workers=min(workers, cores)) as pool:
            total_raws = sum(pool.map(job, starts))
    else:
        total_raws = sum(map(job, starts))
    return stats._own(out), n_accepted / total_raws


def acceptance_rate(kind: EnsembleKind, n_raw: int, config: SamplerConfig) -> float:
    """Fraction of real-eigenvalue outcomes among ``n_raw`` raw draws.

    The draws are split into streams of BLOCK_QUOTA raw draws, each seeded
    from ``config.seed`` and its index as in :func:`sample_spacings`, so the
    result is deterministic.  Only ``config.seed`` is read: ``config.workers``
    is ignored, and every stream is read in turn on the calling thread.  The
    streams are read in chunks, as the sampler reads them, through one draws
    buffer and one D buffer allocated once, so the working memory does not
    grow with ``n_raw``.  Always 1.0 for the non-rejecting kinds.
    """
    n_raw = _checks.count(n_raw, "n_raw", 1)
    stds = _param_stds(kind)
    draws, disc = _buffers(kind, min(BLOCK_QUOTA, n_raw))  # stream 0 is the longest
    accepted = 0
    for start in range(0, n_raw, BLOCK_QUOTA):
        quota = min(BLOCK_QUOTA, n_raw - start)
        rng = _stream_rng(config.seed, start // BLOCK_QUOTA)
        for done in range(0, quota, len(disc)):
            rows = min(len(disc), quota - done)
            chunk = _discriminants(kind, rng.standard_normal(out=draws[:rows]), stds,
                                   out=disc[:rows])
            accepted += int(np.count_nonzero(chunk >= 0.0))
    return accepted / n_raw


def _cosh_sinh(x: float) -> tuple[float, float]:
    try:
        return math.cosh(x), math.sinh(x)
    except OverflowError:  # |x| above about 710; the parameters are then inf or nan
        return math.inf, math.inf


def _spectral_params(n_params: int, t, s, theta, phi=None) -> np.ndarray:
    """Matrix parameters, one row per entry of the columns (t, s, theta, phi).

    The map of :func:`spectral_to_params`; ``phi`` is read only for
    ``n_params`` 4.  cosh, sinh, cos and sin are math's, taken per value:
    numpy's may differ in the last bit, and its cosh and sinh do.  Entries
    that overflow are inf or nan.
    """
    half_s = np.asarray(s, dtype=float) / 2.0
    ch, sh = np.array([_cosh_sinh(2.0 * v) for v in np.asarray(theta, dtype=float).tolist()]).T
    with np.errstate(over="ignore", invalid="ignore"):
        cols = [np.asarray(t, dtype=float) / 2.0, half_s * ch, -half_s * sh]
        if n_params == 4:  # GPUE splits the (c, d) plane by phi
            phi = np.asarray(phi, dtype=float).tolist()
            cols[2] = cols[2] * [math.cos(v) for v in phi]
            cols.append(half_s * sh * [math.sin(v) for v in phi])
    return np.stack(cols, axis=-1)


def spectral_to_params(kind: EnsembleKind, sp: SpectralParams) -> np.ndarray:
    """Map spectral coordinates back to the kind's ``n_params`` matrix parameters.

    GPOE: a = t/2, b = (s/2) cosh 2theta, c = -(s/2) sinh 2theta.
    GPUE additionally splits the (c, d) plane by phi:
    c = -(s/2) sinh 2theta cos phi, d = (s/2) sinh 2theta sin phi.
    Round trip: eigenvalues(kind, result) == ((t+s)/2, (t-s)/2).
    Refuses coordinates whose parameters overflow with a ValueError naming the kind.
    """
    if not kind.has_rejection:
        raise ValueError("spectral coordinates are defined for GPOE/GPUE only")
    params = _spectral_params(kind.n_params, [sp.t], [sp.s], [sp.theta], [sp.phi])[0]
    if not np.isfinite(params).all():
        raise ValueError(f"{kind.tag} parameters overflow for {sp}")
    return params


def realize_matrix(kind: EnsembleKind, p) -> np.ndarray:
    """Explicit complex matrices a 1 + sum_j p_j G_j (2x2; 4x4 for GSE), QH-dressed.

    ``p`` of shape (..., n_params) gives H of shape (..., m, m).  Refuses
    parameters whose matrix entries overflow with a ValueError naming the kind.
    """
    params = _active(kind, p)
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.einsum("...j,jkl->...kl", params, _FAMILIES[kind.tag].generators)
        if kind.kappa is not None:
            eps = math.exp(-kind.kappa)
            H[..., 0, 1] /= eps
            H[..., 1, 0] *= eps
    if (bad := ~np.isfinite(H).all(axis=(-2, -1))).any():
        raise ValueError(f"{kind.tag} matrix overflows for parameters {params[bad][0].tolist()}")
    return H


def metric(kind: EnsembleKind) -> np.ndarray:
    """Metric eta with eta H eta^-1 = H^dagger for every draw H of ``kind``.

    diag(1, -1) for GPOE/GPUE, diag(eps, 1/eps) for QH3/QH4, and the
    identity (4x4 for GSE) for the Hermitian kinds, which are the eta = 1 case.
    """
    if kind.has_rejection:
        return np.diag([1.0, -1.0]).astype(complex)
    if kind.kappa is not None:
        eps = math.exp(-kind.kappa)
        return np.diag([eps, 1.0 / eps]).astype(complex)
    return _FAMILIES[kind.tag].generators[0].copy()  # the identity


def pseudo_hermiticity_residual(kind: EnsembleKind, p) -> float | np.ndarray:
    """Residual max |H_ij eta_i / eta_j - conj(H_ji)| of eta H eta^-1 = H^dagger, eta = :func:`metric`.

    One per vector: exactly 0 for GOE, GUE and GSE, and zero by construction up to rounding for the
    others.  It is absolute: <= 1e-12 for the sampler's scaled draws, but about 2e28 for unscaled
    unit parameters at kappa = 100, where H's entries reach p e^100.
    """
    H = realize_matrix(kind, p)
    diag = np.diagonal(metric(kind))
    with np.errstate(over="ignore"):
        return np.max(np.abs(H * (diag[:, None] / diag) - H.conj().swapaxes(-2, -1)), axis=(-2, -1))
