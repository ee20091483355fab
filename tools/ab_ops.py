#!/usr/bin/env python3
"""Time the library's small operations on two checkouts in one process.

    python tools/ab_ops.py PARENT CHANGE [--reps R] [--ops N]

loads ``PARENT/src/spacinglab`` and ``CHANGE/src/spacinglab`` as two
packages under their own names, so both run in one interpreter on the same
inputs.  One round of the mix is ``N`` small operations, three of four an
experiment and every fourth a spectrum, then one ``verify`` and one bulk
classification:

- experiment: sample 50..2000 spacings (log-spaced) of one of the seven
  kinds, then KS-test them against the five curves;
- spectrum: parse 200..800 levels, built from the library's own GOE or GUE
  spacings, unfold them by ``global``, ``local:21`` or ``poly:3`` and
  KS-test them against the five curves;
- verify: ``verify.run_verification()``;
- classify-1e5: ``normalize`` and ``classify`` 1e5 GPUE spacings.

The mix runs once untimed, then ``R`` timed rounds.  Each operation runs on
both trees back to back; which tree goes first alternates from one operation
to the next and from one round to the next, so drift of the machine hits both
alike.  If any d or p (or any line of the verify table) differs in a bit
between the trees, the first difference is printed and the exit code is 1.
Otherwise each kind's median time on each tree, their ratio CHANGE/PARENT and
the quartiles of the per-operation ratios are printed, one line per kind, and
the exit code is 0.  On a 2-core x86-64 machine, where separate processes
drift by up to 30 %, two runs of one tree against itself give ratios within
1 % of 1 for ``experiment`` and ``spectrum``, which time thousands of
operations, so the tool sizes such a change before the slower benchmark
runs.  ``verify`` and ``classify-1e5`` time one operation a round; against
itself a tree read 0.98 to 1.12 there, so only a change well beyond their
quartiles shows in those two ratios.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

KINDS = ("experiment", "spectrum", "verify", "classify-1e5")
UNFOLDINGS = ("global", "local:21", "poly:3")
BULK_N = 100_000
KAPPA = 0.25  # qh3 and qh4


def load(root: Path, name: str):
    """``root/src/spacinglab`` imported as the package ``name``, with its modules."""
    init = root / "src" / "spacinglab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.verify")
    return package


def ensemble_kinds(ens) -> list:
    return [ens.GOE, ens.GUE, ens.GSE, ens.GPOE, ens.GPUE, ens.qh3(KAPPA), ens.qh4(KAPPA)]


def ks_bits(stats, sample) -> list[str]:
    """d and p of the five curves, as exact hex strings."""
    results = [stats.ks_test(sample, curve) for curve in ("GOE", "GUE", "GSE", "GPOE", "GPUE")]
    return [x.hex() for r in results for x in (r.d, r.p_value)]


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
            ops.append(("spectrum", ("\n".join(map(repr, levels.tolist())), UNFOLDINGS[j % 3])))
        else:
            j = i - (i + 1) // 4
            ops.append(("experiment", (j % n_kinds, int(sizes[j]), int(rng.integers(2**63)))))
    bulk = ens.sample_spacings(ens.GPUE, BULK_N, ens.SamplerConfig(seed=int(rng.integers(2**63))))[0]
    return ops + [("verify", None), ("classify-1e5", np.array(bulk.raw))]


def runner(lib):
    """``run(kind, arg)``: one operation on ``lib``, returning what must match bit for bit."""
    ens, ingest, stats = lib.ensembles, lib.ingest, lib.stats
    kinds = ensemble_kinds(ens)
    methods = {m: ingest.parse_unfold_method(m) for m in UNFOLDINGS}

    def run(kind, arg):
        if kind == "experiment":
            k, n, seed = arg
            sample, rate = ens.sample_spacings(kinds[k], n, ens.SamplerConfig(seed=seed))
            return [rate.hex(), *ks_bits(stats, sample)]
        if kind == "spectrum":
            text, method = arg
            return ks_bits(stats, ingest.unfold(ingest.parse_levels(text), methods[method]))
        if kind == "verify":
            return [(r.name, r.observed, r.passed) for r in lib.verify.run_verification()]
        fit = stats.classify(stats.normalize(arg))
        return [fit.best_fit, *(x.hex() for r in fit.ks.values() for x in (r.d, r.p_value))]

    return run


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
    runs = [runner(lib) for lib in libs]
    ops = operations(libs[0], args.ops, np.random.default_rng(39))
    times = {kind: ([], []) for kind in KINDS}
    for rep in range(args.reps + 1):  # round 0 warms both trees up and is not timed
        for i, (kind, arg) in enumerate(ops):
            out = [None, None]
            for t in ((i + rep) % 2, 1 - (i + rep) % 2):  # each operation swaps order every round
                start = time.perf_counter()
                out[t] = runs[t](kind, arg)
                if rep:
                    times[kind][t].append(time.perf_counter() - start)
            if out[0] != out[1]:
                j = next((j for j, (a, b) in enumerate(zip(*out)) if a != b), min(map(len, out)))
                print(f"error: {kind} operation {i}, value {j}: PARENT {out[0][j:j + 1]} "
                      f"!= CHANGE {out[1][j:j + 1]}", file=sys.stderr)
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
