"""Reading of spectrum files and spacing CSVs, and unfolding of spectra.

Input format (normative) of both files: UTF-8 text; a '#' starts a comment
that runs to the end of its line, and lines holding nothing else are skipped.
A value is what float() reads ("1_0" is 10) and must be finite; a bad one is
refused with its line number.  A spectrum line holds one value, so the decimal
comma "14,134725" is refused.  A spacing CSV's rows are comma separated; a
first row that does not start with a number is a header, and the column it
names raw_spacing (else the first column) is read.

Unfolding rescales a spectrum to unit local mean spacing so its fluctuations
can be compared against the universality curves; since different
communities fix the local mean differently, three standard conventions are
provided.  LocalWindow(51) is the sensible default for long spectra.
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
    "load_spacings",
    "parse_unfold_method",
    "unfold",
]


class SpectrumParseError(ValueError):
    """A spectrum file or spacing CSV breaks the input format."""


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


def _read_column(text: str, source: str, csv: bool) -> np.ndarray:
    """The values of a spacing CSV (``csv``) or spectrum, in file order.

    ``np.loadtxt`` reads them; where it refuses a row or reads a non-finite
    value, ``float()`` reads them a line at a time and names the bad line.
    """
    noun = "spacing" if csv else "level"
    prefix = f"{source}: " if source else ""
    col = 0
    lines = text.splitlines()
    data_lines = (i for i, line in enumerate(lines) if line.partition("#")[0].strip())
    start = next(data_lines, None)
    if csv and start is not None:
        head = [tok.strip().lower() for tok in lines[start].partition("#")[0].split(",")]
        try:
            float(head[0])
        except ValueError:
            col = head.index("raw_spacing") if "raw_spacing" in head else 0
            start = next(data_lines, None)
    if start is None:
        raise SpectrumParseError(f"{prefix}no {noun} rows")
    try:
        # a spectrum reads every field, so a row "14,134725" has two and is refused below
        values = np.loadtxt(lines[start:], delimiter=",", usecols=col if csv else None,
                            comments="#", ndmin=2)
        if values.shape[1] == 1 and np.isfinite(values).all():
            return values[:, 0]
    except ValueError:
        pass
    values = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        data = line.partition("#")[0].strip()
        if not data:
            continue
        fields = data.split(",", col + 1) if csv else [data]
        try:
            v = float(fields[col])
        except (ValueError, IndexError):
            v = math.nan  # refused below, as a non-finite value is
        if not math.isfinite(v):
            raise SpectrumParseError(
                f"{prefix}line {lineno}: cannot read a {noun} from {data!r}: not a finite number")
        values.append(v)
    return np.asarray(values)


def parse_levels(stream: Union[str, TextIO], source_label: str = "") -> SpectrumFile:
    """Read one level per line (module docstring format); errors name ``source_label``.

    Non-monotone input is sorted with a warning and exact duplicates are
    dropped with a warning; fewer than 3 usable levels is an error.
    """
    text = stream if isinstance(stream, str) else stream.read()
    levels = _read_column(text, source_label, csv=False)
    if np.any(levels[1:] < levels[:-1]):  # compared, not subtracted: no overflow
        warnings.warn("levels were not monotone increasing; sorting", stacklevel=2)
        levels = np.sort(levels)
    if np.any(levels[1:] == levels[:-1]):
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


def load_spacings(path) -> np.ndarray:
    """The raw spacings of a spacing CSV (module docstring format); errors name ``path``."""
    return _read_column(Path(path).read_text(encoding="utf-8"), str(path), csv=True)


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
    if not math.isfinite(float(spectrum.levels[-1]) - float(spectrum.levels[0])):
        raise ValueError("the spectrum's span overflows a float; rescale the levels")
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
        if not np.all(local_mean > 0):
            raise ValueError("a local mean spacing rounds to zero; the spacings span "
                             "too many scales for local unfolding")
        out = spacings / local_mean
    elif isinstance(method, PolynomialStaircase):
        n = spectrum.levels.size
        if method.degree >= n:
            raise ValueError("polynomial degree must be below the number of levels")
        staircase = np.arange(1, n + 1, dtype=float)
        try:
            fit, (_, rank, _, _) = np.polynomial.Polynomial.fit(
                spectrum.levels, staircase, method.degree, full=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate staircase fit: {exc}") from exc
        if rank <= method.degree:
            raise ValueError("degenerate staircase fit: the levels fix fewer "
                             f"than {method.degree + 1} coefficients; lower the degree")
        unfolded = fit(spectrum.levels)
        out = np.diff(unfolded)
        if np.any(out < 0):
            raise ValueError(
                "fitted staircase is not increasing on the data; lower the degree"
            )
    else:
        raise TypeError(f"unknown unfolding method {method!r}")
    return stats.normalize(out)
