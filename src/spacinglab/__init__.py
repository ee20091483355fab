"""spacinglab: level-spacing statistics of Gaussian random-matrix ensembles.

A Monte Carlo laboratory for nearest-neighbour level-spacing distributions:
samples 2x2 (and 4x4) Hermitian, pseudo-Hermitian and quasi-Hermitian
matrix families with Gaussian entries, compares the resulting spacing
statistics against five analytic universality curves, and classifies
externally supplied spectra against the same curves.
"""

from .curves import CURVE_ORDER, CurveConstants, cdf, constants, moment, pdf, small_x_approx
from .ensembles import (
    GOE,
    GPOE,
    GPUE,
    GSE,
    GUE,
    EnsembleKind,
    SamplerConfig,
    SpectralParams,
    acceptance_rate,
    eigenvalues,
    qh3,
    qh4,
    realize_matrix,
    sample_spacings,
    spectral_to_params,
)
from .ingest import (
    GlobalMean,
    LocalWindow,
    PolynomialStaircase,
    SpectrumFile,
    load_spectrum,
    parse_levels,
    unfold,
)
from .stats import Classification, KsResult, SpacingSample, classify, ks_test, normalize

__version__ = "0.1.0"

__all__ = [
    "CURVE_ORDER",
    "CurveConstants",
    "pdf",
    "cdf",
    "moment",
    "constants",
    "small_x_approx",
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
    "SpectrumFile",
    "GlobalMean",
    "LocalWindow",
    "PolynomialStaircase",
    "parse_levels",
    "load_spectrum",
    "unfold",
    "SpacingSample",
    "normalize",
    "KsResult",
    "ks_test",
    "Classification",
    "classify",
    "__version__",
]
