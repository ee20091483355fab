"""Runtime self-verification suite.

A reduced, fast battery of the package's core numerical claims: curve
constants against their published 4-decimal values, normalization and unit
mean of all five curves, finite-difference Jacobian proportionality of the
spectral parameterizations, rejection-rate geometry, Monte Carlo agreement
with the analytic curves, and the small-spacing repulsion ordering.  Used
by the ``verify`` CLI subcommand; each check reports name / tolerance /
observed value / pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves, ensembles, stats

__all__ = [
    "CheckResult",
    "jacobian_ratios",
    "run_verification",
    "format_table",
    "MC_KS_THRESHOLD",
]

# At n = 2e4 the null KS distance concentrates near 0.006; 0.015 passes a
# correct sampler with wide margin while the nearest wrong curve sits at
# distance >= 0.026.
MC_KS_THRESHOLD = 0.015
MC_SAMPLE_SIZE = 20_000
RATE_DRAWS = 100_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: str
    observed: str
    passed: bool


def _fd_jacobian(fn, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    cols = []
    for j in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((fn(hi) - fn(lo)) / (2.0 * h))
    return np.column_stack(cols)


def jacobian_ratios(kind: ensembles.EnsembleKind, n_points: int = 100, seed: int = 1234) -> np.ndarray:
    """|det J| of the spectral->parameter map divided by its reference factor.

    Reference factors: |s| for the 3-parameter map, (s^2/4) |sinh 2theta|
    for the 4-parameter one.  The ratios are constant across points: 1/4
    and 1/2 respectively (the extra 1/2 relative to the bare 2x2 block
    comes from a = t/2).
    """
    rng = np.random.default_rng(seed)
    k = kind.n_params

    def fn(v: np.ndarray) -> np.ndarray:
        sp = ensembles.SpectralParams(
            t=v[0], s=v[1], theta=v[2], phi=v[3] if k == 4 else 0.0
        )
        return ensembles.spectral_to_params(kind, sp)[:k]

    ratios = np.empty(n_points)
    for i in range(n_points):
        t = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.2, 3.0)
        theta = rng.uniform(-1.5, 1.5)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        point = np.array([t, s, theta, phi][:k])
        det = abs(np.linalg.det(_fd_jacobian(fn, point)))
        if k == 3:
            ref = abs(s)
        else:
            ref = (s * s / 4.0) * abs(math.sinh(2.0 * theta))
        ratios[i] = det / ref
    return ratios


def _check(name: str, tolerance: str, observed: str, passed: bool) -> CheckResult:
    return CheckResult(name, tolerance, observed, bool(passed))


def run_verification(seed: int = 42) -> list[CheckResult]:
    results: list[CheckResult] = []

    # published 4-decimal constants
    c = curves.constants("GPOE")
    results.append(_check(
        "GPOE constants alpha,beta vs 0.5818,0.4569",
        "abs 5e-5",
        f"{c.alpha:.6f},{c.beta:.6f}",
        abs(c.alpha - 0.5818) <= 5e-5 and abs(c.beta - 0.4569) <= 5e-5,
    ))
    c = curves.constants("GPUE")
    results.append(_check(
        "GPUE constants alpha,beta,gamma vs 2.5433,0.5267,1.0263",
        "abs 5e-4",
        f"{c.alpha:.6f},{c.beta:.6f},{c.gamma:.6f}",
        abs(c.alpha - 2.5433) <= 5e-4
        and abs(c.beta - 0.5267) <= 5e-4
        and abs(c.gamma - 1.0263) <= 5e-4,
    ))

    for kind in curves.CURVE_ORDER:
        m0 = curves.moment(kind, 0)
        m1 = curves.moment(kind, 1)
        results.append(_check(
            f"{kind} normalization and mean",
            "m0 1e-8, m1 1e-6",
            f"m0-1={m0 - 1:.2e}, m1-1={m1 - 1:.2e}",
            abs(m0 - 1.0) <= 1e-8 and abs(m1 - 1.0) <= 1e-6,
        ))

    for kind, const in ((ensembles.GPOE, 0.25), (ensembles.GPUE, 0.5)):
        ratios = jacobian_ratios(kind, n_points=100, seed=seed)
        spread = float(np.max(np.abs(ratios / const - 1.0)))
        results.append(_check(
            f"{kind.tag} Jacobian ratio == {const}",
            "rel 1e-6 at 100 points",
            f"max dev {spread:.2e}",
            spread <= 1e-6,
        ))

    cfg = ensembles.SamplerConfig(seed=seed)
    for kind in (ensembles.GPOE, ensembles.GPUE):
        rate = ensembles.acceptance_rate(kind, RATE_DRAWS, cfg)
        results.append(_check(
            f"{kind.tag} acceptance rate vs {kind.acceptance:.5f}",
            "abs 5e-3",
            f"{rate:.5f}",
            abs(rate - kind.acceptance) <= 5e-3,
        ))

    for tag in curves.CURVE_ORDER:
        kind = ensembles.EnsembleKind(tag)
        sample, _ = ensembles.sample_spacings(kind, MC_SAMPLE_SIZE, cfg)
        res = {k: stats.ks_test(sample, k).d for k in curves.CURVE_ORDER}
        best = min(curves.CURVE_ORDER, key=lambda k: res[k])
        results.append(_check(
            f"{tag} Monte Carlo vs analytic curve (n={MC_SAMPLE_SIZE})",
            f"d < {MC_KS_THRESHOLD} and best fit",
            f"d={res[tag]:.4f}, best={best}",
            res[tag] < MC_KS_THRESHOLD and best == tag,
        ))

    xs = np.arange(0.05, 0.351, 0.05)
    stack = [curves.pdf(k, xs) for k in ("GPOE", "GPUE", "GOE", "GUE", "GSE")]
    ordered = all(
        np.all(stack[i] > stack[i + 1]) for i in range(len(stack) - 1)
    )
    results.append(_check(
        "repulsion ordering GPOE>GPUE>GOE>GUE>GSE on [0.05,0.35]",
        "strict",
        "ordered" if ordered else "violated",
        ordered,
    ))
    return results


def format_table(results: list[CheckResult]) -> str:
    name_w = max(len(r.name) for r in results)
    tol_w = max(len(r.tolerance) for r in results)
    obs_w = max(len(r.observed) for r in results)
    lines = []
    header = f"{'check':<{name_w}}  {'tolerance':<{tol_w}}  {'observed':<{obs_w}}  result"
    lines.append(header)
    lines.append("-" * len(header))
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{name_w}}  {r.tolerance:<{tol_w}}  {r.observed:<{obs_w}}  {verdict}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append("-" * len(header))
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
