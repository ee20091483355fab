#!/usr/bin/env python3
"""Two dichotomies of the quasi-Hermitian families.

The 3-parameter family stays isotropic in its off-diagonal parameters at
every non-Hermiticity kappa, so its spacing statistics reproduce the
linear-repulsion (GOE) curve identically.  The 4-parameter family is
Hermitian only at kappa = 0; turning kappa up shrinks two of its four
parameters, and the spacing law leaves the quadratic-repulsion (GUE) curve:
it stays close through kappa = 0.5, and by kappa = 1.0 the GOE curve fits
it about as well.
"""

import numpy as np

from spacinglab import SamplerConfig, ks_test, qh3, qh4, sample_spacings

N = 100_000
cfg = SamplerConfig(seed=7)

print("=" * 72)
print("Dichotomy 1: the 3-parameter family is GOE at every kappa")
print("=" * 72)
for kappa in (0.0, 0.25, 0.5, 1.0, 2.0):
    sample, _ = sample_spacings(qh3(kappa), N, cfg)
    d = ks_test(sample, "GOE").d
    print(f"  kappa = {kappa:<5} KS d vs GOE = {d:.5f}")
print("  (identical d at every kappa: the kappa-dependence cancels exactly)")

print()
print("=" * 72)
print("Dichotomy 2: the 4-parameter family stays close to GUE up to kappa = 0.5")
print("=" * 72)
print("  kappa    d vs GOE   d vs GUE   d vs GSE")
for kappa in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5):
    sample, _ = sample_spacings(qh4(kappa), N, cfg)
    ds = {k: ks_test(sample, k).d for k in ("GOE", "GUE", "GSE")}
    print(f"  {kappa:<7}  {ds['GOE']:.5f}    {ds['GUE']:.5f}    {ds['GSE']:.5f}")
print("\n  Through kappa = 0.5, d vs GUE stays below 0.01 and GOE/GSE lie an order")
print("  of magnitude farther away.  GOE then catches up: by kappa = 1.0, d vs GOE")
print("  is within 0.01 of d vs GUE.")
