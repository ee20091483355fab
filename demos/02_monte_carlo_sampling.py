#!/usr/bin/env python3
"""Monte Carlo sampling of the seven ensembles against the analytic curves.

Draws spacings from every family, reports acceptance rates for the two
conditional-reality ensembles, and cross-tests each sample against all five
curves with the one-sample KS statistic: the diagonal should be tiny and
the classifier (argmin d) should recover each ensemble.  Finally the binned
density of a GPOE sample (numpy's counts over n times the bin width) is set
beside its curve.
"""

import numpy as np

from spacinglab import (
    CURVE_ORDER,
    EnsembleKind,
    SamplerConfig,
    classify,
    pdf,
    sample_spacings,
)

N = 50_000
cfg = SamplerConfig(seed=2024, workers=2)

print("=" * 72)
print(f"Sampling n={N} spacings per ensemble (seed {cfg.seed})")
print("=" * 72)

print("\nKS distance of each sample against each curve:")
print("sample   " + "".join(f"{k:>9}" for k in CURVE_ORDER) + "   best fit   rate")
for tag in CURVE_ORDER:
    sample, rate = sample_spacings(EnsembleKind(tag), N, cfg)
    fit = classify(sample)
    row = f"{tag:<9}" + "".join(f"{fit.ks[k].d:>9.4f}" for k in CURVE_ORDER)
    print(row + f"   {fit.best_fit:<9}  {rate:.4f}")

print("\nConditional reality: the pseudo ensembles reject complex sectors")
print("  GPOE keeps the half-plane b^2 >= c^2           -> rate ~ 1/2")
print("  GPUE keeps the cone b^2 >= c^2 + d^2           -> rate ~ 1 - 1/sqrt(2) ~ 0.2929")

print("\nHistogram of a GPOE sample vs its curve (first 10 of 60 bins):")
sample, _ = sample_spacings(EnsembleKind("GPOE"), 200_000, cfg)
counts, edges = np.histogram(sample.normalized, bins=60, range=(0.0, 3.0))
width = 3.0 / 60
density = counts / (sample.normalized.size * width)  # spacings beyond 3 still count in n
centers = 0.5 * (edges[:-1] + edges[1:])
print("  x       density   curve")
for i in range(10):
    print(f"  {centers[i]:.3f}   {density[i]:.4f}    {pdf('GPOE', centers[i]):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.2))
    ax.bar(centers, density, width=width, align="center",
           alpha=0.4, label="GPOE Monte Carlo")
    xs = np.linspace(0.0, 3.0, 400)
    ax.plot(xs, pdf("GPOE", xs), "k-", label="GPOE curve")
    ax.plot(xs, pdf("GOE", xs), "r--", label="GOE curve")
    ax.set(xlabel="x", ylabel="P(x)")
    ax.legend()
    fig.tight_layout()
    fig.savefig(__file__.replace(".py", ".png"), dpi=120)
    print(f"\nsaved figure to {__file__.replace('.py', '.png')}")
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
