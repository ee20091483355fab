"""Parsing and unfolding of externally supplied level sequences.

Input format (normative): UTF-8 text, one decimal real per line, lines
starting with '#' are comments, blank lines are ignored.  Unfolding rescales
a spectrum to unit local mean spacing so its fluctuations can be compared
against the universality curves; since different communities fix the local
mean differently, three standard conventions are provided.  LocalWindow(51)
is the sensible default for long spectra.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from . import _checks, stats

__all__ = [
    "SpectrumFile",
    "SpectrumParseError",
    "GlobalMean",
    "LocalWindow",
    "PolynomialStaircase",
    "UnfoldMethod",
    "parse_levels",
    "serialize_levels",
    "load_spectrum",
    "parse_unfold_method",
    "unfold",
]


class SpectrumParseError(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumFile:
    """Strictly increasing level sequence (length >= 3) with a source label."""

    levels: np.ndarray
    source_label: str = ""


@dataclass(frozen=True)
class GlobalMean:
    pass


@dataclass(frozen=True)
class LocalWindow:
    window: int

    def __post_init__(self) -> None:
        if _checks.count(self.window, "LocalWindow width") < 1 or self.window % 2 == 0:
            raise ValueError("LocalWindow width must be a positive odd integer")


@dataclass(frozen=True)
class PolynomialStaircase:
    degree: int

    def __post_init__(self) -> None:
        if not (1 <= _checks.count(self.degree, "PolynomialStaircase degree") <= 9):
            raise ValueError("PolynomialStaircase degree must be in [1, 9]")


UnfoldMethod = Union[GlobalMean, LocalWindow, PolynomialStaircase]


def parse_levels(stream: Union[str, TextIO], source_label: str = "") -> SpectrumFile:
    """Parse one level per line; '#' comments and blank lines are skipped.

    Non-monotone input is sorted with a warning and exact duplicates are
    dropped with a warning; fewer than 3 usable levels or any non-numeric
    token is an error (reported with its line number).
    """
    text = stream if isinstance(stream, str) else stream.read()
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        item = line.strip()
        if not item or item.startswith("#"):
            continue
        try:
            v = float(item)
        except ValueError:
            raise SpectrumParseError(
                f"line {lineno}: cannot parse {item!r} as a real number"
            ) from None
        if not math.isfinite(v):
            raise SpectrumParseError(f"line {lineno}: level must be finite, got {item!r}")
        values.append(v)
    if not values:
        raise SpectrumParseError("no usable levels in input")
    levels = np.asarray(values, dtype=float)
    if np.any(np.diff(levels) < 0):
        warnings.warn("levels were not monotone increasing; sorting", stacklevel=2)
        levels = np.sort(levels)
    if np.any(np.diff(levels) == 0):
        warnings.warn("duplicate levels removed", stacklevel=2)
        levels = np.unique(levels)
    if levels.size < 3:
        raise SpectrumParseError(f"need at least 3 distinct levels, got {levels.size}")
    levels.flags.writeable = False
    return SpectrumFile(levels=levels, source_label=source_label)


def serialize_levels(spectrum: SpectrumFile) -> str:
    """One level per line, shortest round-trip float representation."""
    return "\n".join(repr(float(v)) for v in spectrum.levels) + "\n"


def load_spectrum(path) -> SpectrumFile:
    p = Path(path)
    return parse_levels(p.read_text(encoding="utf-8"), source_label=p.name)


def parse_unfold_method(text: str) -> UnfoldMethod:
    """Parse 'global', 'local:<w>' or 'poly:<degree>'."""
    token = text.strip().lower()
    if token == "global":
        return GlobalMean()
    name, _, size = token.partition(":")
    method = {"local": LocalWindow, "poly": PolynomialStaircase}.get(name)
    if method is not None:
        try:
            size = int(size)
        except ValueError:
            pass
        else:
            return method(size)
    raise ValueError(f"unknown unfolding method {text!r}; use global, local:w or poly:p")


def unfold(spectrum: SpectrumFile, method: UnfoldMethod) -> stats.SpacingSample:
    """Rescale a spectrum's spacings to unit local mean.

    GlobalMean divides every spacing by the global mean spacing.
    LocalWindow(w) divides each spacing by the mean of the w nearest
    spacings (centered window, truncated at the spectrum edges).
    PolynomialStaircase(p) least-squares fits the counting staircase
    N(E_i) = i with a degree-p polynomial and takes differences of the
    fitted values.  The output is renormalized to exact unit mean as a
    final step.
    """
    spacings = np.diff(spectrum.levels)
    m = spacings.size
    if isinstance(method, GlobalMean):
        out = spacings / spacings.mean()
    elif isinstance(method, LocalWindow):
        if method.window >= m:
            raise ValueError(
                f"window {method.window} must be smaller than the number of spacings {m}"
            )
        half = method.window // 2
        csum = np.concatenate(([0.0], np.cumsum(spacings)))
        lo = np.clip(np.arange(m) - half, 0, None)
        hi = np.clip(np.arange(m) + half + 1, None, m)
        local_mean = (csum[hi] - csum[lo]) / (hi - lo)
        out = spacings / local_mean
    elif isinstance(method, PolynomialStaircase):
        n = spectrum.levels.size
        if method.degree >= n:
            raise ValueError("polynomial degree must be below the number of levels")
        staircase = np.arange(1, n + 1, dtype=float)
        try:
            fit = np.polynomial.Polynomial.fit(spectrum.levels, staircase, method.degree)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate staircase fit: {exc}") from exc
        unfolded = fit(spectrum.levels)
        out = np.diff(unfolded)
        if np.any(out < 0):
            raise ValueError(
                "fitted staircase is not increasing on the data; lower the degree"
            )
    else:
        raise TypeError(f"unknown unfolding method {method!r}")
    return stats.normalize(out)
