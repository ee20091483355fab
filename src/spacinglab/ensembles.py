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

Sampling weight: exp(-Tr(H H^dagger) / (2 sigma^2)).  For the 2x2 families
this makes every active parameter an independent N(0, sigma^2/2); the GSE
trace weight differs only by a global scale, which is irrelevant after
unit-mean normalization of spacings, so the same N(0, sigma^2/2) convention
is used.  For the quasi-Hermitian families with eps = exp(-kappa), the
trace picks up cosh(2 kappa) on the dressed parameters: QH3 draws b, c
(and QH4 draws c, d) from N(0, sigma^2 / (2 cosh 2 kappa)).  This is the
only place kappa enters QH4's spacing law; QH3 stays isotropic in (b, c)
at every kappa and therefore reproduces the linear-repulsion statistics
identically.

``_FAMILIES`` is where a family is described: the signs in D, the first
parameter kappa shrinks, the exact probability of real eigenvalues (1/2 for
GPOE, 1 - 1/sqrt2 for GPUE's cone) and the reference curve; everything else
about a family is derived from its row.

Reproducibility: spacing generation is split into fixed-size logical
blocks (streams).  Block ``i`` owns a private generator seeded by
``SeedSequence(seed, spawn_key=(i,))``; the ``workers`` setting only
schedules blocks onto threads, and the rejection batch size never shows
in the output (``Generator.normal`` fills in sequence, and draws count up to
the quota-th acceptance).  Output is therefore identical for any worker
count, and bit-identical for fixed (kind, n, seed).
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stats

__all__ = [
    "ENSEMBLE_ORDER",
    "EnsembleKind",
    "SamplerConfig",
    "RealPair",
    "ComplexRejected",
    "COMPLEX_REJECTED",
    "SpectralParams",
    "GOE",
    "GUE",
    "GSE",
    "GPOE",
    "GPUE",
    "qh3",
    "qh4",
    "draw_params",
    "eigenvalues",
    "spacing",
    "sample_spacings",
    "acceptance_rate",
    "spectral_to_params",
    "realize_matrix",
    "metric",
    "matrix_metric_residual",
    "pseudo_hermiticity_residual",
    "hermiticity_residual",
]


class _Family(NamedTuple):
    signs: tuple[int, ...]  # signs of b^2, c^2, ... in D
    shrink: int | None  # first parameter kappa shrinks, or None
    acceptance: float  # exact probability that a draw has real eigenvalues
    curve: str  # analytic reference curve


_FAMILIES = {
    "GOE": _Family((1, 1), None, 1.0, "GOE"),
    "GUE": _Family((1, 1, 1), None, 1.0, "GUE"),
    "GSE": _Family((1, 1, 1, 1, 1), None, 1.0, "GSE"),
    "GPOE": _Family((1, -1), None, 0.5, "GPOE"),
    "GPUE": _Family((1, -1, -1), None, 1.0 - 1.0 / math.sqrt(2.0), "GPUE"),
    "QH3": _Family((1, 1), 1, 1.0, "GOE"),
    "QH4": _Family((1, 1, 1), 2, 1.0, "GUE"),
}
ENSEMBLE_ORDER = tuple(_FAMILIES)

# accepted spacings per logical stream; workers only schedule streams
BLOCK_QUOTA = 16384


def _count(value, name: str, lowest: int) -> int:
    """``value`` as an int >= ``lowest``; a float or other non-integral type is a ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if value < lowest:
        raise ValueError(f"{name} must be >= {lowest}")
    return value


@dataclass(frozen=True)
class EnsembleKind:
    """One of the seven samplable families, with kappa for QH3/QH4 only."""

    tag: str
    kappa: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in _FAMILIES:
            raise ValueError(f"unknown ensemble tag {self.tag!r}")
        if _FAMILIES[self.tag].shrink is not None:
            if self.kappa is None:
                raise ValueError(f"{self.tag} requires kappa >= 0")
            kappa = float(self.kappa)
            # with sigma >= 1e-100 the shrunk draws' squares stay normal (1e-287 and up);
            # beyond 100, kappa changes normalized spacings by < 1e-15 anyway
            if not (0.0 <= kappa <= 100.0):
                raise ValueError(f"kappa must be in [0, 100], not {kappa:g}")
        elif self.kappa is not None:
            raise ValueError(f"kappa is only meaningful for QH3/QH4, not {self.tag}")

    @property
    def n_params(self) -> int:
        return 1 + len(_FAMILIES[self.tag].signs)

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
    return EnsembleKind("QH3", float(kappa))


def qh4(kappa: float) -> EnsembleKind:
    return EnsembleKind("QH4", float(kappa))


@dataclass(frozen=True)
class SamplerConfig:
    """Gaussian scale, master seed, and worker count for sampling."""

    sigma: float = 1.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        # in this range squared draws neither overflow nor turn subnormal
        if not (1e-100 <= self.sigma <= 1e100):
            raise ValueError(f"sigma must be in [1e-100, 1e100], not {float(self.sigma):g}")
        if _count(self.seed, "seed", 0) >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _count(self.workers, "workers", 1)


@dataclass(frozen=True)
class RealPair:
    """Ordered pair of real eigenvalues, e1 >= e2."""

    e1: float
    e2: float

    def __post_init__(self) -> None:
        if not (self.e1 >= self.e2):
            raise ValueError("RealPair requires e1 >= e2")


class ComplexRejected:
    """Marker: the draw fell in the complex-conjugate-eigenvalue sector."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ComplexRejected"


COMPLEX_REJECTED = ComplexRejected()


@dataclass(frozen=True)
class SpectralParams:
    """Spectral coordinates (t, s, theta[, phi]) of the pseudo families.

    t = e1 + e2, s = e1 - e2 >= 0; phi is used by GPUE only.
    """

    t: float
    s: float
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.s >= 0.0):
            raise ValueError("SpectralParams requires s >= 0")


def _param_stds(kind: EnsembleKind, sigma: float) -> np.ndarray:
    """Per-parameter standard deviations induced by the trace weight."""
    stds = np.full(kind.n_params, sigma / math.sqrt(2.0))
    shrink = _FAMILIES[kind.tag].shrink
    if shrink is not None:
        stds[shrink:] /= math.sqrt(math.cosh(2.0 * kind.kappa))
    return stds


def _stream_rng(seed: int, stream_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_index),))
    return np.random.default_rng(ss)


def _draw_block(
    kind: EnsembleKind, sigma: float, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` parameter rows (count, n_params) from one stream."""
    return rng.normal(size=(count, kind.n_params)) * _param_stds(kind, sigma)


def _pad_params(kind: EnsembleKind, row: np.ndarray) -> np.ndarray:
    out = np.zeros(6)
    out[: kind.n_params] = row
    return out


def draw_params(kind: EnsembleKind, config: SamplerConfig, stream_index: int) -> np.ndarray:
    """First parameter vector of the given stream, padded to length 6.

    Unused trailing entries are exactly zero.  Deterministic: the result is
    a pure function of (kind, config.sigma, config.seed, stream_index), and
    coincides with the first row consumed by :func:`sample_spacings` for the
    same stream.
    """
    rng = _stream_rng(config.seed, stream_index)
    return _pad_params(kind, _draw_block(kind, config.sigma, rng, 1)[0])


def _active(kind: EnsembleKind, p: np.ndarray) -> np.ndarray:
    arr = np.asarray(p, dtype=float).ravel()
    if arr.size < kind.n_params:
        raise ValueError(
            f"{kind.tag} needs {kind.n_params} parameters, got {arr.size}"
        )
    return arr[: kind.n_params]


def _discriminants(kind: EnsembleKind, params: np.ndarray) -> np.ndarray:
    """Vectorized D = +-b^2 +- c^2 ... (added left to right); eigenvalues a +- sqrt(D)."""
    sq = params * params
    disc = 0.0
    for sign, col in zip(_FAMILIES[kind.tag].signs, sq.T[1:]):
        disc = disc + col if sign > 0 else disc - col
    return disc


def eigenvalues(kind: EnsembleKind, p) -> RealPair | ComplexRejected:
    """Closed-form eigenvalue pair, or COMPLEX_REJECTED outside the real sector.

    The reality predicate for GPOE/GPUE is exact (b^2 >= c^2 [+ d^2], no
    tolerance).  GSE's doubly degenerate 4x4 spectrum is reported as its
    two distinct values.
    """
    row = _active(kind, p)
    disc = float(_discriminants(kind, row[None, :])[0])
    if disc < 0.0:
        if not kind.has_rejection:
            raise AssertionError("negative discriminant for an always-real kind")
        return COMPLEX_REJECTED
    a = float(row[0])
    r = math.sqrt(disc)
    return RealPair(a + r, a - r)


def spacing(outcome: RealPair | ComplexRejected) -> float | None:
    """E1 - E2 for a real pair (>= 0 by ordering); None for a rejected draw.

    Spacings are defined on real eigenvalues only, never as the modulus of
    the difference of a complex-conjugate pair.
    """
    if outcome is COMPLEX_REJECTED or isinstance(outcome, ComplexRejected):
        return None
    return outcome.e1 - outcome.e2


def _sample_block(
    kind: EnsembleKind, sigma: float, seed: int, stream_index: int, quota: int
) -> tuple[np.ndarray, int]:
    """Accepted spacings and raw draws consumed for one logical stream.

    Raw draws are consumed in stream order up to and including the draw that
    yields the quota-th acceptance, which makes the reported acceptance rate
    reproducible.  A batch exceeds need/p by four standard deviations of the
    accepted count, so one batch nearly always suffices; at p = 1 it is need.
    """
    rng = _stream_rng(seed, stream_index)
    p = kind.acceptance
    pieces: list[np.ndarray] = []
    raws = 0
    need = quota
    while need > 0:
        batch = math.ceil((need + 4.0 * math.sqrt(need * (1.0 - p))) / p)
        disc = _discriminants(kind, _draw_block(kind, sigma, rng, batch))
        ok = np.flatnonzero(disc >= 0.0)[:need]
        pieces.append(2.0 * np.sqrt(disc[ok]))
        raws += int(ok[-1]) + 1 if ok.size == need else batch
        need -= ok.size
    return np.concatenate(pieces), raws


def _stream_plan(n_accepted: int) -> list[tuple[int, int]]:
    """(stream_index, quota) pairs covering n_accepted spacings."""
    plan = []
    full, rest = divmod(n_accepted, BLOCK_QUOTA)
    for i in range(full):
        plan.append((i, BLOCK_QUOTA))
    if rest:
        plan.append((full, rest))
    return plan


def sample_spacings(
    kind: EnsembleKind, n_accepted: int, config: SamplerConfig
) -> tuple[stats.SpacingSample, float]:
    """Exactly ``n_accepted`` spacings from accepted draws, plus acceptance rate.

    Returns (sample, rate) where ``sample`` carries the raw spacings in
    stream order together with their unit-mean normalization, and ``rate``
    is accepted/consumed raw draws (exactly 1.0 for the always-real kinds).
    """
    n_accepted = _count(n_accepted, "n_accepted", 1)
    plan = _stream_plan(n_accepted)

    def job(entry: tuple[int, int]) -> tuple[np.ndarray, int]:
        idx, quota = entry
        return _sample_block(kind, config.sigma, config.seed, idx, quota)

    if config.workers > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=int(config.workers)) as pool:
            results = list(pool.map(job, plan))
    else:
        results = [job(entry) for entry in plan]

    raw = np.concatenate([r[0] for r in results])
    total_raws = sum(r[1] for r in results)
    return stats.normalize(raw), n_accepted / total_raws


def acceptance_rate(kind: EnsembleKind, n_raw: int, config: SamplerConfig) -> float:
    """Fraction of real-eigenvalue outcomes among ``n_raw`` raw draws.

    Uses the same stream construction as :func:`sample_spacings` (streams of
    BLOCK_QUOTA raw draws), so the result is deterministic and
    worker-independent.  Always 1.0 for the non-rejecting kinds.
    """
    n_raw = _count(n_raw, "n_raw", 1)
    accepted = 0
    for idx, quota in _stream_plan(n_raw):
        rng = _stream_rng(config.seed, idx)
        params = _draw_block(kind, config.sigma, rng, quota)
        accepted += int(np.count_nonzero(_discriminants(kind, params) >= 0.0))
    return accepted / n_raw


def spectral_to_params(kind: EnsembleKind, sp: SpectralParams) -> np.ndarray:
    """Map spectral coordinates back to matrix parameters (padded to 6).

    GPOE: a = t/2, b = (s/2) cosh 2theta, c = -(s/2) sinh 2theta.
    GPUE additionally splits the (c, d) plane by phi:
    c = -(s/2) sinh 2theta cos phi, d = (s/2) sinh 2theta sin phi.
    Round trip: eigenvalues(kind, result) == ((t+s)/2, (t-s)/2).
    """
    if not kind.has_rejection:
        raise ValueError("spectral coordinates are defined for GPOE/GPUE only")
    a = sp.t / 2.0
    half_s = sp.s / 2.0
    ch, sh = math.cosh(2.0 * sp.theta), math.sinh(2.0 * sp.theta)
    if kind.tag == "GPOE":
        row = np.array([a, half_s * ch, -half_s * sh])
    else:
        row = np.array(
            [
                a,
                half_s * ch,
                -half_s * sh * math.cos(sp.phi),
                half_s * sh * math.sin(sp.phi),
            ]
        )
    return _pad_params(kind, row)


def realize_matrix(kind: EnsembleKind, p) -> np.ndarray:
    """Explicit complex matrix (2x2; 4x4 for GSE) for the given parameters."""
    row = _active(kind, p)
    a = row[0]
    if kind.tag == "GOE":
        b, c = row[1], row[2]
        return np.array([[a + b, c], [c, a - b]], dtype=complex)
    if kind.tag == "GUE":
        b, g = row[1], row[2] + 1j * row[3]
        return np.array([[a + b, g], [np.conj(g), a - b]], dtype=complex)
    if kind.tag == "GSE":
        b = row[1]
        al, be = a + b, a - b
        g = row[2] + 1j * row[3]
        d = row[4] + 1j * row[5]
        return np.array(
            [
                [al, 0.0, np.conj(g), -d],
                [0.0, al, np.conj(d), g],
                [g, d, be, 0.0],
                [-np.conj(d), np.conj(g), 0.0, be],
            ],
            dtype=complex,
        )
    if kind.tag == "GPOE":
        b, c = row[1], row[2]
        return np.array([[a + b, 1j * c], [1j * c, a - b]], dtype=complex)
    if kind.tag == "GPUE":
        b, c, d = row[1], row[2], row[3]
        return np.array([[a + b, d + 1j * c], [-d + 1j * c, a - b]], dtype=complex)
    eps = math.exp(-kind.kappa)
    if kind.tag == "QH3":
        g = row[1] + 1j * row[2]
        return np.array([[a, g / eps], [np.conj(g) * eps, a]], dtype=complex)
    # QH4
    b = row[1]
    g = row[2] + 1j * row[3]
    return np.array([[a + b, g / eps], [np.conj(g) * eps, a - b]], dtype=complex)


def metric(kind: EnsembleKind) -> np.ndarray:
    """Metric eta with eta H eta^-1 = H^dagger for the pseudo-Hermitian kinds."""
    if kind.has_rejection:
        return np.diag([1.0, -1.0]).astype(complex)
    if kind.kappa is not None:
        eps = math.exp(-kind.kappa)
        return np.diag([eps, 1.0 / eps]).astype(complex)
    raise ValueError(
        f"{kind.tag} is plainly Hermitian; use hermiticity_residual instead"
    )


def matrix_metric_residual(H: np.ndarray, eta: np.ndarray) -> float:
    """Max-abs-entry norm of eta H eta^-1 - H^dagger."""
    H = np.asarray(H, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    lhs = eta @ H @ np.linalg.inv(eta)
    return float(np.max(np.abs(lhs - H.conj().T)))


def pseudo_hermiticity_residual(kind: EnsembleKind, p) -> float:
    """Residual of the pseudo-Hermiticity relation for GPOE/GPUE/QH3/QH4.

    Exact by construction (up to rounding, <= 1e-12 for any sampled matrix).
    Raises ValueError for the Hermitian kinds.
    """
    return matrix_metric_residual(realize_matrix(kind, p), metric(kind))


def hermiticity_residual(kind: EnsembleKind, p) -> float:
    """Max-abs-entry norm of H - H^dagger for the plainly Hermitian kinds."""
    if kind.has_rejection or kind.kappa is not None:
        raise ValueError(f"{kind.tag} is not a plainly Hermitian kind")
    H = realize_matrix(kind, p)
    return float(np.max(np.abs(H - H.conj().T)))
