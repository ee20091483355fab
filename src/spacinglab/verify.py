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
from collections.abc import Iterator
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
JACOBIAN_POINTS = 100
JACOBIAN_STEP = 1e-5  # central-difference step in each spectral coordinate
SEED = 42  # seeds every random draw the checks make
# (curve, its published 4-decimal constants by field, absolute tolerance)
_PUBLISHED = (
    ("GPOE", {"alpha": 0.5818, "beta": 0.4569}, "5e-5"),
    ("GPUE", {"alpha": 2.5433, "beta": 0.5267, "gamma": 1.0263}, "5e-4"),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: str
    observed: str
    passed: bool


def jacobian_ratios(kind: ensembles.EnsembleKind) -> np.ndarray:
    """|det J| of the spectral->parameter map divided by its reference factor.

    Evaluated at ``JACOBIAN_POINTS`` random points drawn with ``SEED``.
    Reference factors: |s| for the 3-parameter map, (s^2/4) |sinh 2theta|
    for the 4-parameter one.  The ratios are constant across points: 1/4
    and 1/2 respectively (the extra 1/2 relative to the bare 2x2 block
    comes from a = t/2).
    """
    k = kind.n_params
    # rows (t, s, theta, phi) in draw order; GPOE drops phi but still draws it
    points = np.random.default_rng(SEED).uniform(
        [-2.0, 0.2, -1.5, 0.0], [2.0, 3.0, 1.5, 2.0 * math.pi], size=(JACOBIAN_POINTS, 4)
    )[:, :k]
    step = JACOBIAN_STEP * np.eye(k)
    probes = points[:, None, :] + np.concatenate([step, -step])  # (point, +-step j, coordinate)
    params = ensembles._spectral_params(k, *probes.reshape(-1, k).T).reshape(-1, 2 * k, k)
    # jac[i, m, j] = d param_m / d coordinate_j at point i, by central differences
    jac = ((params[:, :k] - params[:, k:]) / (2.0 * JACOBIAN_STEP)).transpose(0, 2, 1)
    # math.sinh, not np.sinh: the two differ in the last bit
    ref = [abs(s) if k == 3 else (s * s / 4.0) * abs(math.sinh(2.0 * theta))
           for s, theta in points[:, 1:3]]
    return np.abs(np.linalg.det(jac)) / ref


def run_verification() -> list[CheckResult]:
    return list(_rows())


def _rows() -> Iterator[CheckResult]:
    """Each check's row, once, in table order."""
    for tag, published, tol in _PUBLISHED:
        got = [getattr(curves.constants(tag), field) for field in published]
        yield CheckResult(
            f"{tag} constants {','.join(published)} vs {','.join(map(str, published.values()))}",
            f"abs {tol}",
            ",".join(f"{v:.6f}" for v in got),
            all(abs(g - v) <= float(tol) for g, v in zip(got, published.values())),
        )

    for kind in curves.CURVE_ORDER:
        m0 = curves.moment(kind, 0)
        m1 = curves.moment(kind, 1)
        yield CheckResult(
            f"{kind} normalization and mean",
            "m0 1e-8, m1 1e-6",
            f"m0-1={m0 - 1:.2e}, m1-1={m1 - 1:.2e}",
            abs(m0 - 1.0) <= 1e-8 and abs(m1 - 1.0) <= 1e-6,
        )

    for kind, const in ((ensembles.GPOE, 0.25), (ensembles.GPUE, 0.5)):
        ratios = jacobian_ratios(kind)
        spread = float(np.max(np.abs(ratios / const - 1.0)))
        yield CheckResult(
            f"{kind.tag} Jacobian ratio == {const}",
            f"rel 1e-6 at {JACOBIAN_POINTS} points",
            f"max dev {spread:.2e}",
            spread <= 1e-6,
        )

    cfg = ensembles.SamplerConfig(seed=SEED)
    for kind in (ensembles.GPOE, ensembles.GPUE):
        rate = ensembles.acceptance_rate(kind, RATE_DRAWS, cfg)
        yield CheckResult(
            f"{kind.tag} acceptance rate vs {kind.acceptance:.5f}",
            "abs 5e-3",
            f"{rate:.5f}",
            abs(rate - kind.acceptance) <= 5e-3,
        )

    for tag in curves.CURVE_ORDER:
        kind = ensembles.EnsembleKind(tag)
        sample, _ = ensembles.sample_spacings(kind, MC_SAMPLE_SIZE, cfg)
        fit = stats.classify(sample)
        yield CheckResult(
            f"{tag} Monte Carlo vs analytic curve (n={MC_SAMPLE_SIZE})",
            f"d < {MC_KS_THRESHOLD} and best fit",
            f"d={fit.ks[tag].d:.4f}, best={fit.best_fit}",
            fit.ks[tag].d < MC_KS_THRESHOLD and fit.best_fit == tag,
        )

    xs = np.arange(0.05, 0.351, 0.05)
    stack = [curves.pdf(k, xs) for k in ("GPOE", "GPUE", "GOE", "GUE", "GSE")]
    ordered = all(
        np.all(stack[i] > stack[i + 1]) for i in range(len(stack) - 1)
    )
    yield CheckResult(
        "repulsion ordering GPOE>GPUE>GOE>GUE>GSE on [0.05,0.35]",
        "strict",
        "ordered" if ordered else "violated",
        ordered,
    )


def format_table(results: list[CheckResult]) -> str:
    """Columns padded to their widest cell, label included; the verdict column is last."""
    rows = [("check", "tolerance", "observed", "result")]
    rows += [(r.name, r.tolerance, r.observed, "PASS" if r.passed else "FAIL") for r in results]
    widths = [max(len(row[j]) for row in rows) for j in range(3)]
    header, *body = ["  ".join([*map(str.ljust, row[:3], widths), row[3]]) for row in rows]
    rule = "-" * len(header)
    n_passed = sum(r.passed for r in results)
    return "\n".join([header, rule, *body, rule, f"{n_passed}/{len(results)} checks passed"])
