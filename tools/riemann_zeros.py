#!/usr/bin/env python3
"""Write two windows of nontrivial zeros of the Riemann zeta function.

    python tools/riemann_zeros.py

writes ``data/riemann_zeros.txt``, the first 10 000 zeros (t from 10 to
9878), and ``data/riemann_zeros_t1e6.txt``, the 10 105 zeros with t from 1e6
to 1 005 300: each a ``#`` header naming this command, then one ordinate t
of a zero 1/2 + it per line, as ``repr(float)``, in increasing order.
Rerunning it rewrites both files byte for byte.

The zeros are the sign changes of the Riemann-Siegel function Z(t), which is
real and has the zeros' ordinates as its zeros.  Z is evaluated in numpy as
its main sum plus the first correction term C0, on a grid of step 0.02, and
each sign change is bisected to the float resolution of that approximation.
Its error is largest at low t (2.5e-3 at zero 1), so the lowest ``REFINED``
zeros are refined with ``mpmath.findroot`` on ``mpmath.siegelz``; the others
of the first window lie within about 1e-4 of the true zeros, whose spacing
averages 0.85 or more, and those at t >= 1e6 within about 2e-6 (mean spacing
0.52).  The number of zeros in each window must equal ``mpmath.nzeros`` over
it.  Zeros 1, 2, 100 and 10 000 are checked against ``mpmath.zetazero``, and
a few zeros of the second window against ``mpmath.findroot`` on
``mpmath.siegelz`` (``zetazero`` takes far longer there).  mpmath is needed
to run this script (it is a test extra), not to read the files.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath
import numpy as np

T_LOW, T_HIGH, STEP = 10.0, 9878.0, 0.02
CHUNK = 1 << 15  # grid points per Z evaluation
BISECTIONS = 45  # 0.02 / 2**45 is below the float spacing of t >= 10
REFINED = 300
# largest distance allowed from mpmath.zetazero: within the refined zeros, and beyond them
SPOT_CHECKS = {1: 1e-12, 2: 1e-12, 100: 1e-12, 10_000: 1e-5}
OUT = Path(__file__).resolve().parents[1] / "data" / "riemann_zeros.txt"
# the second window; its zeros are checked against findroot, half a second a zero at this height
HIGH_T_LOW, HIGH_T_HIGH = 1e6, 1_005_300.0
HIGH_SPOT_CHECKS = (0, 1, 5000, -2, -1)  # indices in the window
HIGH_TOL = 1e-5
HIGH_OUT = OUT.with_name("riemann_zeros_t1e6.txt")


def theta(t: np.ndarray) -> np.ndarray:
    """The Riemann-Siegel theta function, by its asymptotic series to t**-3."""
    return t / 2 * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8 + 1 / (48 * t) + 7 / (5760 * t**3)


def siegel_z(t: np.ndarray) -> np.ndarray:
    """Z(t) by the Riemann-Siegel formula: the main sum and the C0 term, for t >= 2 pi."""
    a = np.sqrt(t / (2 * np.pi))
    terms = np.floor(a)
    p = a - terms
    th = theta(t)
    z = np.zeros_like(t)
    for n in range(1, int(terms.max()) + 1):
        z += np.where(n <= terms, np.cos(th - t * math.log(n)) / math.sqrt(n), 0.0)
    c0 = np.cos(2 * np.pi * (p * p - p - 1 / 16)) / np.cos(2 * np.pi * p)
    sign = np.where(terms % 2 == 1, 1.0, -1.0)  # (-1)**(terms - 1)
    return 2 * z + sign * c0 / np.sqrt(a)  # (t / 2 pi)**(-1/4) = 1 / sqrt(a)


def bracketed_zeros(t_low: float, t_high: float) -> np.ndarray:
    """The sign changes of Z on the grid from t_low to t_high, each bisected BISECTIONS times."""
    grid = t_low + STEP * np.arange(round((t_high - t_low) / STEP) + 1)
    z = np.concatenate([siegel_z(grid[i:i + CHUNK]) for i in range(0, grid.size, CHUNK)])
    left = np.flatnonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))
    lo, hi, z_lo = grid[left], grid[left + 1], z[left]
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2
        z_mid = siegel_z(mid)
        same = np.signbit(z_mid) == np.signbit(z_lo)
        lo, z_lo = np.where(same, mid, lo), np.where(same, z_mid, z_lo)
        hi = np.where(same, hi, mid)
    return (lo + hi) / 2


def window_zeros(t_low: float, t_high: float, refined: int) -> np.ndarray:
    """The zeros from t_low to t_high, the lowest ``refined`` refined by mpmath.findroot,
    checked for their count against mpmath.nzeros and for their order."""
    zeros = bracketed_zeros(t_low, t_high)
    expected = int(mpmath.nzeros(t_high)) - int(mpmath.nzeros(t_low))
    if zeros.size != expected:
        raise RuntimeError(f"found {zeros.size} zeros in [{t_low:g}, {t_high:g}], mpmath.nzeros {expected}")
    for i in range(min(refined, zeros.size)):
        root = float(mpmath.findroot(mpmath.siegelz, zeros[i]))
        if abs(root - zeros[i]) >= STEP / 2:
            raise RuntimeError(f"zero {i + 1} refined away from {zeros[i]!r} to {root!r}")
        zeros[i] = root
    if not np.all(np.diff(zeros) > 0):
        raise RuntimeError("the zeros are not strictly increasing")
    return zeros


def write(path: Path, header: str, zeros: np.ndarray) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(header + "".join(f"{t!r}\n" for t in zeros.tolist()))
    print(f"wrote {zeros.size} zeros to {path}")


def main() -> None:
    zeros = window_zeros(T_LOW, T_HIGH, REFINED)
    for k, tol in SPOT_CHECKS.items():
        error = abs(zeros[k - 1] - float(mpmath.zetazero(k).imag))
        if not error < tol:
            raise RuntimeError(f"zero {k} is {error:.2e} from mpmath.zetazero")
    write(OUT, f"# the first {zeros.size} nontrivial zeros 1/2 + it of the Riemann zeta function, "
               f"t in [{T_LOW:g}, {T_HIGH:g}], one t per line\n"
               f"# made by: python tools/riemann_zeros.py (numpy Riemann-Siegel Z with the C0 term, "
               f"zeros 1-{REFINED} refined by mpmath, the rest within about 1e-4)\n", zeros)

    zeros = window_zeros(HIGH_T_LOW, HIGH_T_HIGH, 0)
    for i in HIGH_SPOT_CHECKS:
        error = abs(zeros[i] - float(mpmath.findroot(mpmath.siegelz, zeros[i])))
        if not error < HIGH_TOL:
            raise RuntimeError(f"the zero near {zeros[i]!r} is {error:.2e} from mpmath.findroot")
    write(HIGH_OUT, f"# the {zeros.size} nontrivial zeros 1/2 + it of the Riemann zeta function with "
                    f"t in [{HIGH_T_LOW:.0f}, {HIGH_T_HIGH:.0f}], one t per line\n"
                    f"# made by: python tools/riemann_zeros.py (numpy Riemann-Siegel Z with the C0 term, "
                    f"within about 2e-6 of the zeros)\n", zeros)


if __name__ == "__main__":
    main()
