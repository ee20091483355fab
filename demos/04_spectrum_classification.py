#!/usr/bin/env python3
"""Classifying an externally supplied spectrum against the five curves.

Builds a dense Hermitian random matrix, writes its bulk eigenvalues to a
spectrum file in the package's one-level-per-line format, then runs the
parse -> unfold -> KS-classify pipeline.  The same pipeline serves real
data: run on the Riemann zeros committed at two heights, the first 1e4 in
data/riemann_zeros.txt and 1e4 at t ~ 1e6 in data/riemann_zeros_t1e6.txt
(both made by tools/riemann_zeros.py), it finds GUE the nearest of the five
curves at both heights, well ahead of GPUE.  Yet a KS test rejects all five
at the 1 % level there: the curves are 2x2 surmises, and 1e4 zeros resolve
their distance from the large-N GUE law the zeros follow.
"""

import tempfile
from pathlib import Path

import numpy as np

from spacinglab import LocalWindow, PolynomialStaircase, classify, load_spectrum, unfold

print("=" * 72)
print("Synthetic spectrum: bulk eigenvalues of a 1200x1200 Hermitian matrix")
print("=" * 72)

rng = np.random.default_rng(3)
n = 1200
A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
H = (A + A.conj().T) / 2.0
evals = np.linalg.eigvalsh(H)
bulk = evals[200:-200]
print(f"kept {bulk.size} bulk levels out of {n}")

path = Path(tempfile.gettempdir()) / "demo_spectrum.txt"
path.write_text(
    "# bulk spectrum of a dense Hermitian Gaussian matrix\n"
    + "\n".join(repr(float(v)) for v in bulk)
    + "\n"
)
print(f"wrote {path}")

spectrum = load_spectrum(path)
for method in (LocalWindow(51), PolynomialStaircase(7)):
    sample = unfold(spectrum, method)
    fit = classify(sample)
    row = "  ".join(f"{k} {r.d:.4f}" for k, r in fit.ks.items())
    print(f"\nunfold {method}:")
    print(f"  {row}")
    print(f"  best fit: {fit.best_fit}")

print(
    "\nSame thing from the command line:\n"
    f"  spacinglab analyze --spectrum {path} --unfold local:51 --report json"
)

data = Path(__file__).resolve().parents[1] / "data"
for zeros in (data / "riemann_zeros.txt", data / "riemann_zeros_t1e6.txt"):
    print("\n" + "=" * 72)
    print(f"Riemann zeros: {zeros.name}")
    print("=" * 72)
    fit = classify(unfold(load_spectrum(zeros), LocalWindow(51)))
    print("  " + "  ".join(f"{k} {r.d:.4f}" for k, r in fit.ks.items()))
    print("  p " + "  ".join(f"{k} {r.p_value:.2g}" for k, r in fit.ks.items()))
    print(f"  nearest curve: {fit.best_fit}; KS rejects all five at the 1 % level:",
          all(r.p_value < 0.01 for r in fit.ks.values()))
    print(f"  spacinglab analyze --spectrum {zeros} --unfold local:51 gives the same")
