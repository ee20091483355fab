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
        object.__setattr__(self, "window", _checks.count(self.window, "LocalWindow width"))
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("LocalWindow width must be a positive odd integer")


@dataclass(frozen=True)
class PolynomialStaircase:
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _checks.count(self.degree, "PolynomialStaircase degree"))
        if not 1 <= self.degree <= 9:
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


def _staircase_fit(levels: np.ndarray, degree: int) -> np.ndarray:
    """The steps of the degree-``degree`` least-squares fit to the staircase N(E_i) = i.

    The monic polynomials q_0 .. q_p orthogonal on u follow from q_(k+1) =
    (u - a_k) q_k - b_k q_(k-1) (Forsythe, J. SIAM 5 (1957) 74-88), and each
    q_k's projection on the staircase's residual moves from the residual to
    the fit.  The rank rule is ``Polynomial.fit``'s: from u^k = sum_j t_kj q_j,
    diag(|q_j|) t^T is the power-basis Vandermonde matrix's triangular factor,
    and a fit whose column-scaled factor has sigma_min <= n eps sigma_max, or
    where some |q_k|^2 underflows to 0, is refused.  So is a fit with a
    negative step, and one where the map onto u, which rounds to 1.1e-16,
    costs some step more than 1e-8 of the mean step.
    """
    n = levels.size
    rank_error = ValueError("degenerate staircase fit: the levels fix fewer "
                            f"than {degree + 1} coefficients; lower the degree")
    lo, hi = levels[0], levels[-1]
    u = (levels - lo) / (hi - lo) * 2.0 - 1.0  # not 2x - (lo + hi): that sum can overflow
    resid, fit = np.arange(1.0, n + 1.0), np.zeros(n)
    q, q_prev, work = np.ones(n), np.zeros(n), np.empty(n)
    a, norms = np.zeros(degree + 1), np.zeros(degree + 1)  # a_k and |q_k|^2
    for k in range(degree + 1):
        norms[k] = np.einsum("i,i->", q, q)
        if norms[k] == 0.0:
            raise rank_error
        fit += np.multiply(q, np.einsum("i,i->", resid, q) / norms[k], out=work)
        resid -= work
        if k < degree:  # q_prev becomes q_(k+1)
            a[k] = np.einsum("i,i,i->", u, q, q) / norms[k]
            q_prev *= -norms[k] / norms[k - 1] if k else 0.0
            q_prev += np.multiply(np.subtract(u, a[k], out=work), q, out=work)
            q, q_prev = q_prev, q
    # t_kk = 1 (the q_k are monic), and u q_j = q_(j+1) + a_j q_j + b_j q_(j-1)
    # gives row k + 1 of t from row k
    t = np.eye(degree + 1)
    b = norms[1:] / norms[:-1]
    for k in range(degree):
        t[k + 1, 1:] = t[k, :-1]
        t[k + 1] += a * t[k]
        t[k + 1, :-1] += b * t[k, 1:]
    factor = t.T * np.sqrt(norms)[:, None]
    factor /= np.sqrt(np.einsum("jk,jk->k", factor, factor))
    sigma = np.linalg.svd(factor, compute_uv=False)
    if sigma[-1] <= n * np.finfo(float).eps * sigma[0]:
        raise rank_error
    steps = np.diff(fit)
    if steps.min() < 0:
        raise ValueError("fitted staircase is not increasing on the data; lower the degree")
    # each step carries the map's relative error on its gap of u, |du - du_exact|
    # / du_exact with du_exact = diff(levels) 2 / (hi - lo), taken in the fit's
    # buffers; a non-finite error is refused
    du, exact = work[1:], q[1:]
    with np.errstate(all="ignore"):
        np.subtract(u[1:], u[:-1], out=du)
        np.divide(np.subtract(levels[1:], levels[:-1], out=exact), hi - lo, out=exact)
        exact *= 2.0
        du -= exact
        np.abs(du, out=du)
        du /= exact
        du *= steps
        worst = du.max()
    if not worst <= 1e-8 * (fit[-1] - fit[0]) / (n - 1):
        raise ValueError("the map of the levels onto [-1, 1] rounds away their spacings; "
                         "use local:w or global unfolding")
    return steps


def unfold(spectrum: SpectrumFile, method: UnfoldMethod) -> stats.SpacingSample:
    """Rescale a spectrum's spacings to unit local mean.

    GlobalMean divides every spacing by the global mean spacing.
    LocalWindow(w) divides each spacing by the mean of the w nearest
    spacings (centered window, truncated at the spectrum edges).
    PolynomialStaircase(p) least-squares fits the counting staircase
    N(E_i) = i with a degree-p polynomial and takes differences of the
    fitted values.  The output is renormalized to exact unit mean as a
    final step.

    The staircase fit maps the levels onto u in [-1, 1] and projects the
    staircase on the polynomials orthogonal on them, with no n x (p + 1)
    matrix.  Its sums over the levels are ``np.einsum`` calls without
    ``optimize``, which call no BLAS: a threaded BLAS spends longer starting
    threads than on these thin products, and its last bits change with the
    thread count.  A fit the levels cannot determine is refused by
    ``Polynomial.fit``'s rank rule; the two fits agree to rounding.  A fit
    whose map onto [-1, 1] rounds away the spacings of a tight cluster is
    refused too.
    """
    if not math.isfinite(float(spectrum.levels[-1]) - float(spectrum.levels[0])):
        raise ValueError("the spectrum's span overflows a float; rescale the levels")
    if isinstance(method, GlobalMean):
        spacings = np.diff(spectrum.levels)
        out = spacings / spacings.mean()
    elif isinstance(method, LocalWindow):
        spacings = np.diff(spectrum.levels)
        m = spacings.size
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
        out = _staircase_fit(spectrum.levels, method.degree)
    else:
        raise TypeError(f"unknown unfolding method {method!r}")
    out.flags.writeable = False  # so normalize keeps it without a copy
    return stats.normalize(out)
