#!/usr/bin/env python3
"""Time the library's small operations on two checkouts in one process.

    python tools/ab_ops.py PARENT CHANGE [--reps R] [--ops N]

loads ``PARENT/src/spacinglab`` and ``CHANGE/src/spacinglab`` as two
packages under their own names, so both run in one interpreter on the same
inputs.  One round of the mix is ``N`` small operations, three of four an
experiment and every fourth a spectrum, then one ``verify``, one bulk
classification, one reading of the family facts, four acceptance rates,
twenty curve evaluations, three CSV tables and three spectrum files:

- experiment: sample 50..2000 spacings (log-spaced) of one of the seven
  kinds, then KS-test them against the five curves;
- spectrum: parse 200..800 levels, built from the library's own GOE or GUE
  spacings, unfold them by ``global``, ``local:21`` or ``poly:3`` and
  KS-test them against the five curves; every fifth spectrum, from the
  first on, is first classified against one curve alone;
- verify: ``verify.run_verification()``;
- classify-1e5: ``normalize`` and ``classify`` 1e5 GPUE spacings;
- family: each of the seven kinds' ``acceptance`` (hex), ``has_rejection``,
  ``reference_curve`` and ``n_params``, with QH3 and QH4 at kappa 0, 0.25 and
  1.2 (where GUE is no longer QH4's nearest curve); no other kind reads the
  last two, so a tree that derives them otherwise than its parent shows here;
- rate: ``acceptance_rate`` of GPOE and of GPUE at 1e5 raw draws (seven
  streams), on one and on two workers, one operation each, with one seed per
  kind; a tree that ignores ``workers`` reads its serial bits on both, so a
  threaded stream runner that loses a bit shows as a difference;
- curve: ``pdf`` and ``cdf`` of one curve alone, for each of the five, on
  one point (a scalar), on 129 points and on the 1e5-point grid that
  ``curve --xmax 8 --points 100000`` tabulates, one operation each;
  ``small_x_approx`` of GPOE and of GPUE at 0.1 and on 129 points in
  (0, 0.5); and GPOE's ``pdf`` and ``cdf`` on 15 points from 5e-324 to
  1e-150, on both sides of the threshold below which its pdf takes K0's
  small-z limit;
- csv: ``cli._write_csv`` of three tables to a file, read back as bytes:
  the round's 1e5 GPUE spacings (raw and normalized, as ``sample`` writes
  them), GSE's pdf and cdf on that 1e5-point grid (whose tail rounds across
  a power of ten, as 0.99999999999996 does to 1) and a short table of
  special values (0, -0.0, nan, +-inf, 5e-324, 999999999999.5 and the
  predecessors of the powers of ten), each also negated; no other kind
  writes a table, so a tree whose text differs from its parent's in one
  byte shows here;
- spectrum-file: ``ingest.load_spectrum`` of one file of 1e4 levels (1e3 on,
  built from the round's GPUE spacings) written three ways: as ``repr`` (16
  or 17 digits a row, which the plain-decimal route reads), as ``%.12g``
  (``np.loadtxt``), and as ``repr`` under a header comment with one row in
  exponent form and one of 20 digits (which the route declines); the levels
  and any warnings are compared, so a tree that reads one row in another bit
  shows here.

Operation i asks for the five curves starting at the (i mod 5)-th of GOE,
GUE, GSE, GPOE, GPUE and going round, and a classified spectrum's one curve
is that one, so a cache whose bits depend on which curve a sample is first
tested against shows as a difference.

The mix runs once untimed, then ``R`` timed rounds.  Each operation runs on
both trees back to back; which tree goes first alternates from one operation
to the next and from one round to the next, so drift of the machine hits both
alike.  If any d, p, acceptance rate, sample mean or sample length (or any
line of the verify table, any entry of a curve's value, any family fact or
any byte of a table) differs in a bit between the trees, the first
difference is printed and the exit code is 1.  Otherwise each kind's median time on each tree, their ratio
CHANGE/PARENT and the quartiles of the per-operation ratios are printed, one
line per kind, and the exit code is 0.
On a 2-core x86-64 machine, where separate processes drift by up to 30 %,
two runs of one tree against itself give ratios within 1 % of 1 for
``experiment`` and ``spectrum``, which time thousands of operations, so the
tool sizes such a change before the slower benchmark runs.  ``verify``,
``classify-1e5`` and ``family`` time one operation a round; against itself a
tree read 0.98 to 1.12 on the first two, so only a change well beyond their
quartiles shows in those ratios.  ``rate`` times four, two of them threaded,
so its median falls between the one- and two-worker calls.  ``curve`` times
twenty operations of four sizes, so its median falls among the 129-point
calls and its quartiles span the sizes.  ``csv`` times three writes a
round, so its median is the GPUE table's, and ``spectrum-file`` three
reads, so its median is the middle one's.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

KINDS = ("experiment", "spectrum", "verify", "classify-1e5", "family", "rate", "curve", "csv", "spectrum-file")
UNFOLDINGS = ("global", "local:21", "poly:3")
BULK_N = 100_000
FILE_LEVELS = 10_000
KAPPA = 0.25  # qh3 and qh4
FAMILY_KAPPAS = (0.0, KAPPA, 1.2)
CURVES = ("GOE", "GUE", "GSE", "GPOE", "GPUE")
CURVE_POINTS = (1.0, np.linspace(0.0, 8.0, 129), np.linspace(0.0, 8.0, BULK_N))
SMALL_X_POINTS = (0.1, np.linspace(0.01, 0.49, 129))
GPOE_THRESHOLD_POINTS = np.array([5e-324, 1e-323, 1e-321, 1e-318, 1e-310, 1e-200, 2.33e-162, 3e-162,
                                  4.02e-162, 5.2e-162, 1e-160, 1e-158, 2e-154, 3e-154, 1e-150])
SPECIAL_VALUES = np.r_[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 999999999999.5,
                       np.nextafter(10.0 ** np.arange(-35, 16), 0.0)]


def load(root: Path, name: str):
    """``root/src/spacinglab`` imported as the package ``name``, with its modules."""
    init = root / "src" / "spacinglab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.verify")
    importlib.import_module(f"{name}.cli")
    return package


def ensemble_kinds(ens, kappa: float = KAPPA) -> list:
    return [ens.GOE, ens.GUE, ens.GSE, ens.GPOE, ens.GPUE, ens.qh3(kappa), ens.qh4(kappa)]


def ks_bits(stats, sample, first: int) -> list:
    """d and p of the five curves, asked for from ``CURVES[first]`` on and around, as exact hex strings
    in ``CURVES`` order, then the sample's mean (hex) and length."""
    results = {curve: stats.ks_test(sample, curve) for curve in CURVES[first:] + CURVES[:first]}
    return [x.hex() for curve in CURVES for x in (results[curve].d, results[curve].p_value)] + [
        sample.mean.hex(), len(sample)]


def operations(lib, n_ops: int, rng: np.random.Generator) -> list[tuple[str, object]]:
    """The mix of one round on ``lib``: (kind, argument) pairs in run order."""
    ens = lib.ensembles
    n_kinds = len(ensemble_kinds(ens))
    n_spec = n_ops // 4
    n_exp = n_ops - n_spec
    sizes = np.rint(np.geomspace(50, 2000, n_exp)).astype(int)
    ops = []
    for i in range(n_ops):
        if i % 4 == 3:
            j = i // 4
            n_levels = 200 + 600 * j // max(n_spec - 1, 1)
            law = (ens.GOE, ens.GUE)[j % 2]
            raw = ens.sample_spacings(law, n_levels - 1, ens.SamplerConfig(seed=int(rng.integers(2**63))))[0].raw
            t = np.cumsum(raw)
            levels = t + t * t / (4.0 * t[-1])  # a density that grows along the spectrum
            text = "\n".join(map(repr, levels.tolist()))
            ops.append(("spectrum", (text, UNFOLDINGS[j % 3], i % 5, j % 5 == 0)))
        else:
            j = i - (i + 1) // 4
            ops.append(("experiment", (j % n_kinds, int(sizes[j]), int(rng.integers(2**63)), i % 5)))
    bulk = ens.sample_spacings(ens.GPUE, BULK_N, ens.SamplerConfig(seed=int(rng.integers(2**63))))[0]
    rate_seeds = {tag: int(rng.integers(2**63)) for tag in ("GPOE", "GPUE")}
    rate_ops = [("rate", (tag, workers, seed)) for tag, seed in rate_seeds.items() for workers in (1, 2)]
    curve_ops = [("curve", (("pdf", "cdf"), curve, x)) for x in CURVE_POINTS for curve in CURVES]
    curve_ops += [("curve", (("small_x_approx",), curve, x)) for x in SMALL_X_POINTS for curve in CURVES[3:]]
    curve_ops.append(("curve", (("pdf", "cdf"), "GPOE", GPOE_THRESHOLD_POINTS)))
    x = CURVE_POINTS[-1]
    csv_ops = [("csv", ("raw_spacing,normalized_spacing", np.array(bulk.raw), np.array(bulk.normalized))),
               ("csv", ("x,pdf,cdf", x, lib.curves.pdf("GSE", x), lib.curves.cdf("GSE", x))),
               ("csv", ("value,negated", SPECIAL_VALUES, -SPECIAL_VALUES))]
    t = np.cumsum(bulk.raw[:FILE_LEVELS])
    rows = list(map(repr, (1e3 + t + t * t / (4.0 * t[-1])).tolist()))
    odd = rows.copy()
    odd[FILE_LEVELS // 2] = format(float(odd[FILE_LEVELS // 2]), ".16e")
    odd[FILE_LEVELS // 2 + 1] = format(float(odd[FILE_LEVELS // 2 + 1]), ".20g")
    file_ops = [("spectrum-file", (name, "".join(f"{row}\n" for row in lines))) for name, lines in (
        ("repr", rows), ("12g", [format(float(row), ".12g") for row in rows]),
        ("declined", ["# levels, two rows in other forms", *odd]))]
    singles = [("verify", None), ("classify-1e5", np.array(bulk.raw)), ("family", None)]
    return ops + singles + rate_ops + curve_ops + csv_ops + file_ops


def runner(lib, table: Path):
    """``run(kind, arg)``: one operation on ``lib``, returning what must match bit for bit; a csv
    operation writes its table to the file ``table``, and a spectrum-file operation reads its
    text from a file beside it, written on first use."""
    curves, ens, ingest, stats = lib.curves, lib.ensembles, lib.ingest, lib.stats
    kinds = ensemble_kinds(ens)
    methods = {m: ingest.parse_unfold_method(m) for m in UNFOLDINGS}

    def run(kind, arg):
        if kind == "experiment":
            k, n, seed, first = arg
            sample, rate = ens.sample_spacings(kinds[k], n, ens.SamplerConfig(seed=seed))
            return [rate.hex(), *ks_bits(stats, sample, first)]
        if kind == "spectrum":
            text, method, first, one_curve = arg
            sample = ingest.unfold(ingest.parse_levels(text), methods[method])
            if not one_curve:
                return ks_bits(stats, sample, first)
            fit = stats.classify(sample, CURVES[first])  # this curve alone comes first
            r = fit.ks[CURVES[first]]
            return [fit.best_fit, r.d.hex(), r.p_value.hex(), *ks_bits(stats, sample, first)]
        if kind == "verify":
            return [(r.name, r.observed, r.passed) for r in lib.verify.run_verification()]
        if kind == "family":
            return [(k.acceptance.hex(), k.has_rejection, k.reference_curve, k.n_params)
                    for kappa in FAMILY_KAPPAS for k in ensemble_kinds(ens, kappa)]
        if kind == "rate":
            tag, workers, seed = arg
            config = ens.SamplerConfig(seed=seed, workers=workers)
            return [ens.acceptance_rate(getattr(ens, tag), BULK_N, config).hex()]
        if kind == "curve":
            functions, curve, x = arg
            values = [getattr(curves, f)(curve, x) for f in functions]
            return [v.hex() if isinstance(v, float) else v for v in values]
        if kind == "csv":
            lib.cli._write_csv(table, *arg)
            return [table.read_bytes()]
        if kind == "spectrum-file":
            name, text = arg
            path = table.with_name(f"spectrum-{name}.txt")
            if not path.exists():
                path.write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                levels = ingest.load_spectrum(path).levels
            return [levels, [str(w.message) for w in caught]]
        sample = stats.normalize(arg)
        fit = stats.classify(sample)
        return [fit.best_fit, *(x.hex() for r in fit.ks.values() for x in (r.d, r.p_value)),
                sample.mean.hex(), len(sample)]

    return run


def mismatch(parent: list, change: list) -> str | None:
    """Where two trees' results of one operation first differ, or None; a float array is read
    entry by entry, bit for bit, and a table's bytes line by line."""
    for j, (a, b) in enumerate(zip(parent, change)):
        if isinstance(a, bytes) and a != b:
            lines = a.split(b"\n"), b.split(b"\n")
            row = next((i for i, (u, v) in enumerate(zip(*lines)) if u != v), min(map(len, lines)))
            return f"value {j}, line {row + 1}: PARENT {lines[0][row:row + 1]} != CHANGE {lines[1][row:row + 1]}"
        if not isinstance(a, np.ndarray):
            if a != b:
                return f"value {j}: PARENT {[a]} != CHANGE {[b]}"
        elif a.shape != np.shape(b):
            return f"value {j}: PARENT shape {a.shape} != CHANGE shape {np.shape(b)}"
        elif (k := np.flatnonzero(a.view(np.uint64) != b.view(np.uint64))).size:
            return f"value {j}, entry {k[0]}: PARENT {[a[k[0]].hex()]} != CHANGE {[b[k[0]].hex()]}"
    j = min(len(parent), len(change))
    return None if len(parent) == len(change) else f"value {j}: PARENT {parent[j:j + 1]} != CHANGE {change[j:j + 1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose src/spacinglab is the baseline")
    parser.add_argument("change", type=Path, help="checkout whose src/spacinglab is measured against it")
    parser.add_argument("--reps", type=int, default=20, help="timed rounds of the mix (default 20)")
    parser.add_argument("--ops", type=int, default=400, help="small operations per round (default 400)")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.ops < 4:
        parser.error("--reps must be at least 1 and --ops at least 4")
    libs = [load(args.parent, "spacinglab_parent"), load(args.change, "spacinglab_change")]
    ops = operations(libs[0], args.ops, np.random.default_rng(39))
    with tempfile.TemporaryDirectory() as tmp:
        runs = [runner(lib, Path(tmp) / "table.csv") for lib in libs]
        times = {kind: ([], []) for kind in KINDS}
        for rep in range(args.reps + 1):  # round 0 warms both trees up and is not timed
            for i, (kind, arg) in enumerate(ops):
                out = [None, None]
                for t in ((i + rep) % 2, 1 - (i + rep) % 2):  # each operation swaps order every round
                    start = time.perf_counter()
                    out[t] = runs[t](kind, arg)
                    if rep:
                        times[kind][t].append(time.perf_counter() - start)
                where = mismatch(*out)
                if where:
                    print(f"error: {kind} operation {i}, {where}", file=sys.stderr)
                    return 1
    print(f"{'kind':<14}{'ops':>7}{'PARENT ms':>12}{'CHANGE ms':>12}{'CHANGE/PARENT':>15}{'ratio Q1':>10}{'ratio Q3':>10}")
    for kind in KINDS:
        parent_s, change_s = times[kind]
        parent, change = statistics.median(parent_s) * 1e3, statistics.median(change_s) * 1e3
        q1, q3 = np.percentile(np.divide(change_s, parent_s), [25, 75])
        print(f"{kind:<14}{len(parent_s):>7}{parent:>12.4f}{change:>12.4f}{change / parent:>15.4f}"
              f"{q1:>10.4f}{q3:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
