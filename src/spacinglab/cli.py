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
import json
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import curves, ensembles, ingest, stats, verify

_ENSEMBLE_CHOICES = tuple(tag.lower() for tag in ensembles.ENSEMBLE_ORDER)
_CURVE_CHOICES = tuple(tag.lower() for tag in curves.CURVE_ORDER)
# Rows per formatted CSV block.  At 1024 rows every per-block temporary
# stays below glibc's 128 KiB mmap threshold; larger blocks (or stacking the
# whole table at once) raised the peak RSS of later commands in the same
# process by 2-3 MiB.
_CSV_BLOCK_ROWS = 1024


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _write_csv(path, header: str, *columns) -> None:
    """Write float columns under a header line, one ``.12g`` row per line.

    Rows are formatted a block at a time with one ``%`` on a repeated row
    template; ``"%.12g" % x`` prints the same text as ``_fmt(x)``.
    """
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[lo : lo + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


class _Parser(argparse.ArgumentParser):
    """Print every usage error as one ``error: <message>`` line, exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _checked(parser: argparse.ArgumentParser, flag: str | None, make, *args):
    """Call ``make(*args)``; its ValueError becomes the usage error ``<flag>: <message>``,
    the flag defaulting to the message's first word (a ``SamplerConfig`` field)."""
    try:
        return make(*args)
    except ValueError as exc:
        parser.error(f"{flag or '--' + str(exc).split()[0]}: {exc}")


def _cmd_sample(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.ensemble in ("qh3", "qh4") and args.kappa is None:
        print(f"note: --kappa not given for {args.ensemble}; defaulting to kappa=0",
              file=sys.stderr)
        args.kappa = 0.0
    kind = _checked(parser, "--kappa", ensembles.EnsembleKind, args.ensemble.upper(), args.kappa)
    config = _checked(parser, None, ensembles.SamplerConfig, args.seed, args.workers)
    if args.n < 1:
        parser.error("--n: must be at least 1")
    sample, rate = ensembles.sample_spacings(kind, args.n, config)
    _write_csv(args.out, "raw_spacing,normalized_spacing", sample.raw, sample.normalized)
    print(f"acceptance-rate {_fmt(rate)}")
    return 0


def _cmd_curve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 0 < args.xmax < np.inf:
        parser.error(f"--xmax: must be positive and finite, not {args.xmax:g}")
    if args.points < 2:
        parser.error("--points: must be at least 2")
    xs = np.linspace(0.0, args.xmax, args.points)
    ps = curves.pdf(args.curve, xs)
    cs = curves.cdf(args.curve, xs)
    _write_csv(args.out, "x,pdf,cdf", xs, ps, cs)
    return 0


def _parse_against(text: str) -> list[str]:
    if text.strip().lower() == "all":
        return list(curves.CURVE_ORDER)
    tokens = (tok.strip() for tok in text.split(","))
    requested = [curves.canonical_kind(tok) for tok in tokens if tok]
    if not requested:
        raise ValueError("selected no curves")
    # keep the canonical order, drop duplicates
    return [k for k in curves.CURVE_ORDER if k in requested]


def build_report(source: str, n: int, ks_results: dict[str, stats.KsResult]) -> dict:
    """Assemble a RunReport dict; key order is part of the stable schema."""
    best = min(ks_results, key=lambda k: (ks_results[k].d, curves.CURVE_ORDER.index(k)))
    return {
        "ensemble-or-source": source,
        "n": int(n),
        "seed": None,
        "ks-results": {k: {"d": r.d, "p": r.p_value} for k, r in ks_results.items()},
        "best-fit": best,
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


def _compare_sample(sample: stats.SpacingSample, against: list[str]) -> dict[str, stats.KsResult]:
    xs = sample.sorted_normalized  # sorted once here for every ks_test below
    if xs[0] == xs[-1]:
        warnings.warn("zero-variance sample: every spacing is identical", stacklevel=2)
    return {k: stats.ks_test(sample, k) for k in against}


def _cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    against = _checked(parser, "--against", _parse_against, args.against)
    raw = ingest.load_spacings(args.spacings)
    sample = stats.normalize(raw)
    ks_results = _compare_sample(sample, against)
    report = build_report(str(args.spacings), len(sample), ks_results)
    _emit_report(report, args.report)
    return 0


def _cmd_analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    method = _checked(parser, "--unfold", ingest.parse_unfold_method, args.unfold)
    spectrum = ingest.load_spectrum(args.spectrum)
    sample = ingest.unfold(spectrum, method)
    ks_results = _compare_sample(sample, list(curves.CURVE_ORDER))
    source = f"{spectrum.source_label} (unfold={args.unfold})"
    report = build_report(source, len(sample), ks_results)
    _emit_report(report, args.report)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    results = verify.run_verification()
    print(verify.format_table(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spacinglab",
        description="Level-spacing statistics of Gaussian random-matrix ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample spacings from an ensemble into a CSV")
    p.add_argument("--ensemble", required=True, choices=_ENSEMBLE_CHOICES)
    p.add_argument("--kappa", type=float, default=None, help="qh3/qh4 non-Hermiticity parameter")
    p.add_argument("--n", required=True, type=int, help="number of accepted spacings")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("curve", help="tabulate an analytic curve (x, pdf, cdf)")
    p.add_argument("--curve", required=True, choices=_CURVE_CHOICES)
    p.add_argument("--xmax", required=True, type=float)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("compare", help="KS-test a spacing CSV against analytic curves")
    p.add_argument("--spacings", required=True)
    p.add_argument("--against", default="all", help="comma list of curves, or 'all'")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("analyze", help="parse, unfold and classify a raw spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--unfold", default="local:51", help="global, local:w or poly:p")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
