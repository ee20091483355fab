"""A probe of how fast this host runs Python right now, and the scaling that uses it.

The 2-core reference machine (a shared VM) runs in a fast or a slow state:
a fixed pure-Python loop takes about 0.5 ms or about 0.85 ms.  A state holds
for seconds to minutes, so the share of slow time differs from one 10 s run
to the next, and raw timings move with it (quartile spread over ten seeds
0.11-0.31; see README.md).  The probe is a fixed piece of pure Python of
the kind the program spends its time on (float formatting and parsing,
sorting); it shares no code with spacinglab, so a change to the program
cannot move it.

Across runs a timing goes as the probe time to a power: about 0.75 for the
small library calls and about 1 for the bulk CLI commands on the reference
machine, and at times more for ``sample-bulk``, whose ``--workers 2`` calls
use both cores.  ``scale`` divides out the
power ``EXPONENT``, so a latency reads as it would while the probe takes
``REFERENCE_S``.  A program change moves a scaled latency by the same
factor as the raw one.  ``trajectory.py`` records how far the scaled values
of each workload still follow the probe.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.0005
EXPONENT = 0.8
PROBE_EVERY_S = 0.05  # probe interval while operations or a set-up run
_VALUES = [i * 0.001234567 + 0.5 for i in range(1000)]


def probe() -> float:
    """Seconds the kernel takes, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        text = ",".join(format(v, ".12g") for v in _VALUES)
        sum(float(x) for x in text.split(","))
        sorted(_VALUES, reverse=True)
        best = min(best, perf_counter() - t0)
    return best


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * (REFERENCE_S / probe_s) ** EXPONENT
