"""spacinglab: level-spacing statistics of Gaussian random-matrix ensembles.

A Monte Carlo laboratory for nearest-neighbour level-spacing distributions:
samples 2x2 (and 4x4) Hermitian, pseudo-Hermitian and quasi-Hermitian
matrix families with Gaussian entries, compares the resulting spacing
statistics against five analytic universality curves, and classifies
externally supplied spectra against the same curves.
"""

from . import curves, ensembles, ingest, stats
from .curves import *
from .ensembles import *
from .ingest import *
from .stats import *

__version__ = "0.1.0"

__all__ = [*curves.__all__, *ensembles.__all__, *ingest.__all__, *stats.__all__, "__version__"]
