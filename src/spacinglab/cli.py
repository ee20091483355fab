"""Command-line front end: sampling, curve tabulation, comparison, analysis.

Subcommands
    sample    draw level spacings from an ensemble, write a CSV
    curve     tabulate an analytic curve's pdf and cdf on a grid
    compare   KS-test a spacing file against the analytic curves
    analyze   parse + unfold a raw spectrum, then compare against all curves
    verify    run the built-in verification suite

Exit codes: 0 success, 1 runtime or check failure, 2 usage error; every usage
error prints one ``error:`` line that names the flag.  CSV outputs are
byte-deterministic for fixed flags (12 significant digits, LF newlines); JSON
reports are deterministic except for their timestamp field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import _checks, curves, ensembles, ingest, stats, verify

_ENSEMBLE_CHOICES = tuple(tag.lower() for tag in ensembles.ENSEMBLE_ORDER)
_CURVE_CHOICES = tuple(tag.lower() for tag in curves.CURVE_ORDER)
# Rows per formatted CSV block.  Each block pays a fixed cost of some fifty
# numpy calls, so larger blocks write faster, but the workspace they are
# formatted in grows with them (_Workspace, 90 bytes a value), and so do the
# Python strings of a block's one ``%`` call when many of its values are off
# the fast path.  At 4096 rows the traced peak of a 1e5-row two-column write
# is about 920 KiB, and about 1.5 MiB when every value takes ``%``, under the
# 1.2 and 1.7 MiB allowed to them; 8192 rows would take 1.8 and 2.9 MiB.
_CSV_BLOCK_ROWS = 4096
# Bytes per value in a block's text buffer (see _csv_tables for the layout).
_SLOT = 24


@functools.cache
def _csv_tables():
    """Tables of the vectorized ``%.12g`` path, built on first use.

    Returns the 4-digit ASCII groups (uint32 per 0..9999), their trailing
    zero counts (4 for 0000), the exact powers of ten 10**k = p1[k] * p2[k]
    for k in 0..44, and three per-class byte tables viewed as uint64: the
    keep masks of the two digit copies and the literal text.  A class is an
    exponent e in -33..11 and a digit count nd in 1..12 (the 12 significand
    digits less their trailing zeros), at index (e + 33) * 12 + nd - 1.  In a
    value's 24-byte slot, bytes 0-4 hold the "0.000" prefix of 1e-4 <= x < 1,
    bytes 4-15 copy A of the digits and bytes 5-16 copy B (one byte later,
    so the point can sit between digits), bytes 17-20 the "e-XX" suffix and
    byte 21 the separator.  `%g` puts the point after digit e + 1 when
    -4 <= e < 12 and writes d.ddd plus the suffix otherwise; bytes left 0
    are dropped.
    """
    i = np.arange(10000)
    groups = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    digits = groups.astype(np.uint8).view(np.uint32).ravel()
    zeros = (i % 10 == 0).astype(np.intp) + (i % 100 == 0) + (i % 1000 == 0) + (i == 0)
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # exact: 10**k = 2**k * 5**k, 5**22 < 2**53
    k = np.arange(45)
    p1, p2 = pow10[np.minimum(k, 22)], pow10[np.maximum(k - 22, 0)]
    e = np.arange(-33, 12)[:, None, None]
    nd = np.arange(1, 13)[None, :, None]
    s = np.arange(_SLOT)
    below1, fixed, sci = (e >= -4) & (e < 0), e >= 0, e < -4
    ja, jb = s - 4, s - 5  # digit index of copy A, copy B at each byte
    keep_a = (ja >= 0) & np.where(fixed, ja <= e, sci & (ja == 0))
    keep_b = (jb >= 0) & (jb < nd) & (below1 | (fixed & (jb > e)) | (sci & (jb > 0)))
    point = np.where(below1, 5 + e, np.where(fixed & (nd > e + 1), 5 + e, np.where(sci & (nd > 1), 5, -1)))
    text = np.where(s == point, ord("."), 0)
    text = np.where(below1 & (s >= 4 + e) & (s < 5) & (s != 5 + e), ord("0"), text)
    for at, byte in ((17, ord("e")), (18, ord("-")), (19, ord("0") + -e // 10), (20, ord("0") + -e % 10)):
        text = np.where(sci & (s == at), byte, text)

    def words(table):
        table = np.ascontiguousarray(np.broadcast_to(table, (45, 12, _SLOT)), dtype=np.uint8)
        return table.reshape(45 * 12, _SLOT).view(np.uint64)

    tables = digits, zeros, p1, p2, words(keep_a * 255), words(keep_b * 255), words(text)
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _exact_text(values: np.ndarray) -> np.ndarray:
    """Python's own ``%.12g`` text of ``values``, each in a _SLOT-byte slot
    with 0 in the bytes it leaves unused, as (len(values), _SLOT // 8) uint64
    words.  The text never holds a space and is at most 19 bytes long
    (-4.94065645841e-324), so the padding of ``%-24.12g`` is all it replaces
    and the separator byte 21 stays free."""
    text = (f"%-{_SLOT}.12g" * len(values) % tuple(values.tolist())).encode()
    return np.frombuffer(text.replace(b" ", b"\0"), np.uint64).reshape(-1, _SLOT // 8)


class _Workspace:
    """The buffers ``_block_text`` formats a file's blocks in, allocated once per file.

    Sized for blocks of up to ``rows`` rows of ``columns`` values: the stacked
    block, two rows of per-value flags (the fast flag and a test result),
    the exponents, and three uint64 arrays of _SLOT bytes a value: the slots
    the text is built in, their copy one byte later, and the gather buffer
    that takes each class-table lookup.  The slots are a view of the
    bytearray ``text``, which ``_write_csv`` writes less its 0 bytes.  Until
    the digits are in the slots, the gather buffer holds the three float
    scratch rows and the shifted copy the three int scratch rows, so the
    workspace takes 90 bytes a value.
    """

    def __init__(self, rows: int, columns: int):
        n = rows * columns
        self.block = np.empty((rows, columns))
        self.flags = np.empty((2, n), bool)
        self.e = np.empty(n, np.intp)
        self.text = bytearray(n * _SLOT)
        self.slots = np.frombuffer(self.text, np.uint64).reshape(n, _SLOT // 8)
        self.shifted, self.gather = np.empty((2, n, _SLOT // 8), np.uint64)

    def scratch(self, n: int):
        """Three float64 rows in the gather buffer and three intp rows in the
        shifted copy, ``n`` values each."""
        f = self.gather.reshape(-1).view(np.float64)
        i = self.shifted.reshape(-1).view(np.intp)
        return f[:n], f[n : 2 * n], f[2 * n : 3 * n], i[:n], i[n : 2 * n], i[2 * n : 3 * n]


def _block_text(block: np.ndarray, ws: _Workspace) -> np.ndarray:
    """The ``%.12g`` text of a (rows, columns) block, value by value.

    ``block`` is the leading rows of ``ws.block``, and every step writes into
    the workspace ``ws``.  Numpy builds the text of each value it can round
    exactly (see ``_write_csv``); ``_exact_text`` then writes the text of
    every other value of the block over that value's slot, in one call,
    among them each value whose significand m misses [1e11, 1e12).
    Returns the block's uint8 text buffer of shape (rows, columns, _SLOT), a
    view of ``ws.slots`` with 0 for every byte to drop and the separators
    not yet set.
    """
    n = block.size
    x = block.reshape(n)
    ok, test = ws.flags[:, :n]
    np.greater_equal(x, 1e-33, out=ok)
    ok &= np.less(x, 1e12, out=test)
    digits, zeros, p1, p2, keep_a, keep_b, text = _csv_tables()
    xs, m, f, k, hi, mid = ws.scratch(n)
    np.copyto(xs, x)
    np.copyto(xs, 1.0, where=np.logical_not(ok, out=test))
    e = ws.e[:n]
    np.copyto(e, np.floor(np.log10(xs, out=f), out=f), casting="unsafe")
    np.subtract(11, e, out=k)
    np.multiply(xs, np.take(p1, k, out=m, mode="clip"), out=m)
    m *= np.take(p2, k, out=f, mode="clip")
    ok &= np.greater_equal(m, 1e11, out=test)  # else log10 rounded across a power of ten
    ok &= np.less(m, 1e12, out=test)
    big = np.rint(m, out=f)
    ok &= np.less(np.abs(np.subtract(m, big, out=m), out=m), 0.499, out=test)
    carry = np.flatnonzero(np.equal(big, 1e12, out=test))  # 0.99999999999996 rounds to 1: 1e11 at e + 1
    big[carry] = 1e11
    e[carry] += 1
    ok[carry] &= e[carry] <= 11
    lo = k
    np.copyto(lo, big, casting="unsafe")
    np.floor_divide(lo, 100_000_000, out=hi)
    lo -= np.multiply(hi, 100_000_000, out=mid)
    np.floor_divide(lo, 10_000, out=mid)
    lo -= np.multiply(mid, 10_000, out=f.view(np.intp))
    words, group = ws.slots[:n].view(np.uint32), xs.view(np.uint32)[:n]
    for j, part in ((1, hi), (2, mid), (3, lo)):
        words[:, j] = np.take(digits, part, out=group, mode="clip")
    trailing = np.take(zeros, lo, out=m.view(np.intp), mode="clip")
    whole = np.flatnonzero(np.equal(lo, 0, out=test))
    midz = zeros.take(mid[whole])
    trailing[whole] += midz + (midz == 4) * zeros.take(hi[whole], mode="clip")
    cls = e  # (e + 33) * 12 + 11 - trailing
    cls *= 12
    cls += 33 * 12 + 11
    cls -= trailing
    a, b, g = ws.slots[:n], ws.shifted[:n], ws.gather[:n]
    b.view(np.uint8).reshape(-1)[1:] = a.view(np.uint8).reshape(-1)[:-1]
    b &= np.take(keep_b, cls, axis=0, out=g, mode="clip")
    a &= np.take(keep_a, cls, axis=0, out=g, mode="clip")
    a |= b
    a |= np.take(text, cls, axis=0, out=g, mode="clip")
    exact = np.flatnonzero(np.logical_not(ok, out=test))
    a[exact] = _exact_text(x[exact])
    return a.view(np.uint8).reshape(*block.shape, _SLOT)


def _write_csv(path, header: str, *columns) -> None:
    """Write float columns under a header line, one ``.12g`` row per line.

    The text is the same, byte for byte, as ``"%.12g" % x`` for every
    value.  Numpy formats a value when it can prove the digits:
    for 1e-33 <= x < 1e12 it takes e = floor(log10 x) and m = x * 10**(11 - e)
    with at most two multiplies by exact powers of ten, so |m - exact| <=
    2.3e-4.  If m lies in [1e11, 1e12) and more than 1e-3 from a .5 tie
    (|m - rint(m)| < 0.499), rint(m) is the rounded 12-digit significand
    (1e12 carries to 1e11 at e + 1, up to e + 1 = 11).  Every other value (0,
    -0.0, negatives, NaN, inf, subnormals, near-ties, x >= 1e12 or below
    1e-33, and an x whose log10 rounds across a power of ten, so that m
    misses [1e11, 1e12)) is formatted by Python's own ``%`` into its own
    slot, by ``_exact_text``; the rest of its row keeps numpy's text.

    The columns are copied block by block into one ``_Workspace``, allocated
    for the call and sized to one block, and ``_block_text`` formats each
    block in it, so the working memory does not grow with the table.  Each
    block is one write: the workspace's slot bytes less their 0 bytes.
    """
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns differ in length")
    seps = np.frombuffer(("," * (len(columns) - 1) + "\n").encode(), np.uint8)
    ws = _Workspace(min(n_rows, _CSV_BLOCK_ROWS), len(columns))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = ws.block[: min(_CSV_BLOCK_ROWS, n_rows - lo)]
            for j, column in enumerate(columns):
                block[:, j] = column[lo : lo + len(block)]
            _block_text(block, ws)[:, :, 21] = seps
            ws.slots[block.size :] = 0  # the slots a short last block leaves unused
            fh.write(ws.text.translate(None, b"\0"))


class _Parser(argparse.ArgumentParser):
    """Print every usage error as one ``error: <message>`` line, exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _checked(parser: argparse.ArgumentParser, flag: str, make, *args):
    """Call ``make(*args)``; its ValueError becomes the usage error ``<flag>: <message>``."""
    try:
        return make(*args)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _cmd_sample(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    tag = args.ensemble.upper()
    default_kappa = ensembles._FAMILIES[tag].shrink is not None and args.kappa is None
    kind = _checked(parser, "--kappa", ensembles.EnsembleKind, tag, 0.0 if default_kappa else args.kappa)
    _checked(parser, "--seed", ensembles.SamplerConfig, args.seed)  # so the next call can fail only on workers
    config = _checked(parser, "--workers", ensembles.SamplerConfig, args.seed, args.workers)
    if args.n < 1:
        parser.error("--n: must be at least 1")
    _checks.float64_count(args.n, "--n")
    try:
        sample, rate = ensembles.sample_spacings(kind, args.n, config)
    except MemoryError as exc:  # a size no allocation can take
        raise MemoryError(f"--n: {exc}") from None
    _write_csv(args.out, "raw_spacing,normalized_spacing", sample.raw, sample.normalized)
    if default_kappa:  # a failed run ends in its one error line alone
        print(f"note: --kappa not given for {args.ensemble}; defaulting to kappa=0", file=sys.stderr)
    print(f"acceptance-rate {rate:.12g}")
    return 0


def _cmd_curve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 0 < args.xmax < np.inf:
        parser.error(f"--xmax: must be positive and finite, not {args.xmax:g}")
    if args.points < 2:
        parser.error("--points: must be at least 2")
    _checks.float64_count(args.points, "--points")
    try:  # a size no allocation can take: numpy's MemoryError, or np.arange's ValueError near 2**60
        xs = np.linspace(0.0, args.xmax, args.points)
        ps, cs = curves.pdf(args.curve, xs), curves.cdf(args.curve, xs)
    except (MemoryError, ValueError) as exc:  # pdf and cdf raise no ValueError on this grid
        raise MemoryError(f"--points: {exc}") from None
    _write_csv(args.out, "x,pdf,cdf", xs, ps, cs)
    return 0


def _parse_against(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return curves.CURVE_ORDER
    return curves._select([tok.strip() for tok in text.split(",") if tok.strip()])


def build_report(source: str, n: int, fit: stats.Classification) -> dict:
    """Assemble a RunReport dict; key order is part of the stable schema."""
    return {
        "ensemble-or-source": source,
        "n": int(n),
        "seed": None,
        "ks-results": {k: {"d": r.d, "p": r.p_value} for k, r in fit.ks.items()},
        "best-fit": fit.best_fit,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit_report(report: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(report, indent=2))
        return
    print(f"source:   {report['ensemble-or-source']}")
    print(f"n:        {report['n']}")
    print("curve     d           p")
    for name, entry in report["ks-results"].items():
        print(f"{name:<8}  {entry['d']:<10.6f}  {entry['p']:.6g}")
    print(f"best-fit: {report['best-fit']}")


def _report(args: argparse.Namespace, source: str, sample, against=curves.CURVE_ORDER) -> int:
    """The step compare and analyze end in: classify, then print the report as ``--report`` asks."""
    _emit_report(build_report(source, len(sample), stats.classify(sample, against)), args.report)
    return 0


def _cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    against = _checked(parser, "--against", _parse_against, args.against)
    return _report(args, str(args.spacings), stats._own(ingest.load_spacings(args.spacings)), against)


def _cmd_analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    method = _checked(parser, "--unfold", ingest.parse_unfold_method, args.unfold)
    spectrum = ingest.load_spectrum(args.spectrum)
    return _report(args, f"{spectrum.source_label} (unfold={args.unfold})", ingest.unfold(spectrum, method))


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    results = verify.run_verification()
    print(verify.format_table(results))
    return 0 if all(r.passed for r in results) else 1


@functools.cache  # built once per process: parse_args does not change the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spacinglab",
        description="Level-spacing statistics of Gaussian random-matrix ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample spacings from an ensemble into a CSV")
    p.add_argument("--ensemble", required=True, choices=_ENSEMBLE_CHOICES, help="family to sample")
    p.add_argument("--kappa", type=float, default=None, help="qh3/qh4 non-Hermiticity parameter")
    p.add_argument("--n", required=True, type=int, help="number of accepted spacings")
    p.add_argument("--seed", required=True, type=int, help="master seed, 0 to 2**64 - 1")
    p.add_argument("--workers", type=int, default=1, help="threads to sample on; the output bytes "
                   "do not depend on it, and at most min(workers, streams, cores) threads run")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("curve", help="tabulate an analytic curve (x, pdf, cdf)")
    p.add_argument("--curve", required=True, choices=_CURVE_CHOICES, help="curve to tabulate")
    p.add_argument("--xmax", required=True, type=float, help="grid end; the grid starts at 0")
    p.add_argument("--points", required=True, type=int, help="number of grid points, at least 2")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("compare", help="KS-test a spacing CSV against analytic curves")
    p.add_argument("--spacings", required=True, help="spacing CSV; its raw_spacing or first column")
    p.add_argument("--against", default="all", help="comma list of curves, or 'all'")
    p.add_argument("--report", choices=("json", "text"), default="text", help="output format")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("analyze", help="parse, unfold and classify a raw spectrum")
    p.add_argument("--spectrum", required=True, help="text file of levels, one a row")
    p.add_argument("--unfold", default="local:51", help="global, local:w or poly:p")
    p.add_argument("--report", choices=("json", "text"), default="text", help="output format")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a warning shows as one line; which warnings show, or raise, is left to the filters
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(parser, args)
    except (ValueError, OSError, RuntimeError, MemoryError, Warning) as exc:  # Warning: under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning
