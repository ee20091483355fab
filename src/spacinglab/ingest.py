"""Reading of spectrum files and spacing CSVs, and unfolding of spectra.

Input format (normative) of both files: UTF-8 text, of which one leading
byte-order mark is ignored.  A line ends at \n, \r\n or \r, as open() ends
the lines of a file, and at no other character, so a file, a pipe and a string
read alike.  A '#' starts a comment that runs to the end of its line, and lines
holding nothing else are skipped.  A value is what float() reads ("1_0" is 10)
and must be finite; a bad one is refused with its line number.  A spectrum line
holds one value, so the decimal comma "14,134725" is refused.  A spacing CSV's
rows are comma separated; a first row that does not start with a number is a
header, and the column it names raw_spacing (else the first column) is read.

Unfolding rescales a spectrum to unit local mean spacing so its fluctuations
can be compared against the universality curves; since different
communities fix the local mean differently, three standard conventions are
provided.  LocalWindow(51) is the sensible default for long spectra.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Union

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


def _lines(text: str) -> list[str]:
    """The lines of ``text`` by the input format's line rule, first to last.

    One leading byte-order mark is dropped and a line ends at \\n, \\r\\n or
    \\r, as ``open()`` ends the lines of a file.
    """
    text = text.removeprefix("\ufeff")
    if "\r" in text:  # replace() scans the text even when it finds nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _read_column(text: str | None, source: str, csv: bool, path: Path | None = None) -> np.ndarray:
    """The values of a spacing CSV (``csv``) or spectrum (module docstring format), in file
    order, read-only.

    ``text`` is the text to read, or None to read the file at ``path``.  A
    regular file is read once: its head through ``open()`` (which ends lines
    as ``_lines`` does) for the header and the first data row, its values by
    ``np.loadtxt``.  A text is cut into lines once, for both.  Where ``open()``
    meets a byte that is not UTF-8, or ``np.loadtxt`` refuses a row or reads a
    non-finite value, a file is read as text: ``_read_text`` names the line of
    such a byte, else ``float()`` reads the lines one at a time and names the bad line.
    """
    noun = "spacing" if csv else "level"
    prefix = f"{source}: " if source else ""
    if text is None and not path.is_file():  # a pipe cannot be read twice
        text = _read_text(path, source)
    rows = path if text is None else _lines(text)
    col = 0
    try:
        with open(path, encoding="utf-8-sig") if text is None else nullcontext(rows) as lines:
            data_lines = ((i, line) for i, line in enumerate(lines) if line.partition("#")[0].strip())
            start, first = next(data_lines, (None, ""))
            if csv and start is not None:
                head = [tok.strip().lower() for tok in first.partition("#")[0].split(",")]
                try:
                    float(head[0])
                except ValueError:
                    col = head.index("raw_spacing") if "raw_spacing" in head else 0
                    start, _ = next(data_lines, (None, ""))
    except UnicodeDecodeError:
        _read_text(path, source)  # raises, naming the line of the byte that is not UTF-8
        raise
    if start is None:
        raise SpectrumParseError(f"{prefix}no {noun} rows")
    try:
        # a spectrum reads every field, so a row "14,134725" has two and is refused below
        values = np.loadtxt(rows, skiprows=start, encoding="utf-8-sig", delimiter=",",
                            usecols=col if csv else None, comments="#", ndmin=2)
        if values.shape[1] == 1 and np.isfinite(values).all():
            values.flags.writeable = False  # and with it the column view
            return values[:, 0]
    except ValueError:
        pass
    lines = _lines(_read_text(path, source)) if text is None else rows
    values = []
    for lineno, line in enumerate(islice(lines, start, None), start=start + 1):
        data = line.partition("#")[0].strip()
        if not data:
            continue
        fields = data.split(",", col + 1) if csv else [data]
        reason = "not a finite number"
        try:
            v = float(fields[col])
        except ValueError:
            v = math.nan  # refused below, as a non-finite value is
        except IndexError:  # col > 0 only where the header names raw_spacing
            v, reason = math.nan, "no raw_spacing column"
        if not math.isfinite(v):
            raise SpectrumParseError(
                f"{prefix}line {lineno}: cannot read a {noun} from {data!r}: {reason}")
        values.append(v)
    values = np.asarray(values)
    values.flags.writeable = False
    return values


def _spectrum(levels: np.ndarray, source_label: str) -> SpectrumFile:
    """``levels`` sorted with a warning, duplicates dropped with a warning, at least 3."""
    if np.any(levels[1:] < levels[:-1]):  # compared, not subtracted: no overflow
        warnings.warn("levels were not monotone increasing; sorting", stacklevel=3)
        levels = np.sort(levels)
    if np.any(levels[1:] == levels[:-1]):
        warnings.warn("duplicate levels removed", stacklevel=3)
        levels = np.unique(levels)
    if levels.size < 3:
        prefix = f"{source_label}: " if source_label else ""
        raise SpectrumParseError(f"{prefix}need at least 3 distinct levels, got {levels.size}")
    levels.flags.writeable = False
    return SpectrumFile(levels=levels, source_label=source_label)


def parse_levels(text: str, source_label: str = "") -> SpectrumFile:
    """Read one level per line (module docstring format); errors name ``source_label``.

    Non-monotone input is sorted with a warning and exact duplicates are
    dropped with a warning; fewer than 3 usable levels is an error.
    """
    return _spectrum(_read_column(text, source_label, csv=False), source_label)


def _read_text(path: Path, source: str) -> str:
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_lines(data[:exc.start].decode("utf-8")))
        raise SpectrumParseError(
            f"{source}: line {lineno}: not UTF-8 text ({exc.reason})") from None


def load_spectrum(path) -> SpectrumFile:
    """The levels of a spectrum file (module docstring format); errors name ``path``.

    The levels are sorted, deduplicated and counted as in ``parse_levels``.
    """
    path, source = Path(path), str(path)
    return _spectrum(_read_column(None, source, csv=False, path=path), source)


def load_spacings(path) -> np.ndarray:
    """The raw spacings of a spacing CSV (module docstring format); errors name ``path``.

    The array is read-only, and it owns its data or is a view of a read-only
    array that does, so :func:`~spacinglab.stats.normalize` keeps it as the
    sample's ``raw`` without a copy.
    """
    path, source = Path(path), str(path)
    return _read_column(None, source, csv=True, path=path)


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


# the normal equations square the condition number of the least-squares problem,
# so above this condition number of the Gram matrix the fit is left to lstsq
_GRAM_COND_MAX = 1e8


def _legendre_staircase(levels: np.ndarray, staircase: np.ndarray, degree: int) -> np.ndarray | None:
    """The fitted staircase from the Legendre normal equations (see ``unfold``).

    None where the Cholesky factorization of the Gram matrix fails or the
    matrix's condition number exceeds ``_GRAM_COND_MAX``.  ``np.einsum`` is
    called without ``optimize``, the setting under which it calls no BLAS.
    """
    lo, hi = levels[0], levels[-1]
    u = (levels - lo) / (hi - lo) * 2.0 - 1.0  # not 2x - (lo + hi): that sum can overflow
    vander = np.polynomial.legendre.legvander(u, degree)
    gram = np.einsum("ij,ik->jk", vander, vander)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.cond(gram) > _GRAM_COND_MAX:
        return None
    rhs = np.einsum("ij,i->j", vander, staircase)
    coef = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return np.einsum("ij,j->i", vander, coef)


def _lstsq_staircase(levels: np.ndarray, staircase: np.ndarray, degree: int) -> np.ndarray:
    """The fitted staircase from ``Polynomial.fit`` (an SVD least-squares solve).

    Refuses with a ValueError a fit of rank at most ``degree``, and one whose
    mapping of the levels onto [-1, 1] overflows, as it does for a subnormal
    span or where the sum of the first and last level overflows.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            fit, (_, rank, _, _) = np.polynomial.Polynomial.fit(
                levels, staircase, degree, full=True)
            fitted = fit(levels)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise ValueError(f"degenerate staircase fit: {exc}") from exc
    if rank <= degree:
        raise ValueError("degenerate staircase fit: the levels fix fewer "
                         f"than {degree + 1} coefficients; lower the degree")
    return fitted


def unfold(spectrum: SpectrumFile, method: UnfoldMethod) -> stats.SpacingSample:
    """Rescale a spectrum's spacings to unit local mean.

    GlobalMean divides every spacing by the global mean spacing.
    LocalWindow(w) divides each spacing by the mean of the w nearest
    spacings (centered window, truncated at the spectrum edges).
    PolynomialStaircase(p) least-squares fits the counting staircase
    N(E_i) = i with a degree-p polynomial and takes differences of the
    fitted values.  The output is renormalized to exact unit mean as a
    final step.

    The staircase fit maps the levels onto u in [-1, 1] and solves the
    (p + 1) x (p + 1) normal equations on the Legendre basis P_0(u) ..
    P_p(u) by Cholesky.  Their products over the levels are ``np.einsum``
    calls, which call no BLAS: a multithreaded BLAS spends longer starting
    threads than on these thin products.  Where the Gram matrix is not
    positive definite or its condition number exceeds 1e8 (the normal
    equations square it), the fit falls back to the SVD least-squares
    solve of ``np.polynomial.Polynomial.fit``, which refuses a
    rank-deficient fit.  The two fits agree to rounding, not bit for bit.
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
        unfolded = _legendre_staircase(spectrum.levels, staircase, method.degree)
        if unfolded is None:
            unfolded = _lstsq_staircase(spectrum.levels, staircase, method.degree)
        out = np.diff(unfolded)
        if np.any(out < 0):
            raise ValueError(
                "fitted staircase is not increasing on the data; lower the degree"
            )
    else:
        raise TypeError(f"unknown unfolding method {method!r}")
    out.flags.writeable = False  # so normalize keeps it without a copy
    return stats.normalize(out)
