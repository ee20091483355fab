"""One measurement process of the benchmark: set-up, inputs, closed loop, checks.

``run.py`` starts this file in a fresh interpreter for every measurement, so
``setup_s`` covers interpreter start, ``import spacinglab`` and the lazy set-up
the workload's warm-up triggers::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --mode run|setup|trace --work DIR --result FILE --t0 MONOTONIC

Load is a closed loop with one client: each operation starts after the
previous one returned.  Operations go through the public entry points only,
``spacinglab.cli.main(argv)`` and the public functions of the library modules.
Every output is checked outside the timed call; a wrong output, a nonzero exit
code or a raised exception counts as a failed operation.

``python3 perfbench/workloads.py --record-golden`` rewrites golden.json from
the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 42
GOLDEN = HERE / "golden.json"

ENSEMBLES = ("goe", "gue", "gse", "gpoe", "gpue", "qh3", "qh4")
KAPPA = 0.25  # qh3/qh4; qh4 is near-GUE for kappa <= 0.5
BEST_FIT = {"goe": "GOE", "gue": "GUE", "gse": "GSE", "gpoe": "GPOE", "gpue": "GPUE", "qh3": "GOE", "qh4": "GUE"}
RATE = {"gpoe": 0.5, "gpue": 1.0 - 1.0 / math.sqrt(2.0)}
SAMPLE_N = 100_000  # spacings per bulk `sample` call, and rows of each `compare` input
SPECTRUM_LEVELS = 100_000  # levels of each bulk `analyze` input
UNFOLDINGS = ("global", "local:51", "poly:7")
CURVE_POINTS = 100_000
CURVE_XMAX = 4.0
SMALL_CYCLE = 800  # operations per cycle of small-experiments; the last one is verify
# fixed work of a traced run, in cycles, so per-layer totals compare across commits
TRACE_CYCLES = {"sample-bulk": 4, "classify-bulk": 4, "small-experiments": 8}


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check(result)`` returns an error or None."""

    kind: str
    items: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    reads: tuple[Path, ...] = ()
    writes: tuple[Path, ...] = ()
    label: str = ""
    size: int = 0  # input size: spacings, levels or grid points

    def __post_init__(self):
        self.size = self.size or self.items


@dataclass
class Plan:
    """A workload: warm-up (its return ends set-up), untimed input generation, the cycle, and checks after it."""

    warmup: Op
    cycle: list[Op]
    prepare: Callable[[], None] = lambda: None
    after: list[Op] = field(default_factory=list)


@dataclass
class Context:
    seed: int
    work: Path
    cli: object = None
    golden: dict = field(default_factory=dict)
    first_hash: dict = field(default_factory=dict)


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout captured; a usage error's SystemExit becomes its code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = ctx.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


# ---------------------------------------------------------------- sample-bulk


def sample_argv(ens: str, seed: int, workers: int, out: Path, n: int = SAMPLE_N) -> list[str]:
    argv = ["sample", "--ensemble", ens, "--n", str(n), "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    return argv + (["--kappa", str(KAPPA)] if ens.startswith("qh") else [])


def check_sample(ctx: Context, ens: str, seed: int, n: int, out: Path, result) -> str | None:
    """Exit code, acceptance rate, row count and the SHA-256 of the CSV bytes.

    The bytes must equal the golden hash at the default seed, and every other
    call for the same (ensemble, seed), whatever ``--workers`` was.
    """
    rc, stdout = result
    if rc != 0:
        return f"sample {ens}: exit code {rc}"
    try:
        rate = float(stdout.split()[-1]) if stdout.startswith("acceptance-rate ") else -1.0
    except ValueError:
        rate = -1.0
    if abs(rate - RATE.get(ens, 1.0)) > (0.01 if ens in RATE else 0.0):
        return f"sample {ens}: acceptance rate line {stdout.strip()!r}"
    data = out.read_bytes()
    if not data.startswith(b"raw_spacing,normalized_spacing\n") or data.count(b"\n") != n + 1:
        return f"sample {ens}: CSV header or row count wrong"
    digest = hashlib.sha256(data).hexdigest()
    if seed == DEFAULT_SEED and n == SAMPLE_N:
        expected = ctx.golden["sample_sha256"][ens]
    else:
        expected = ctx.first_hash.setdefault((ens, seed, n), digest)
    return None if digest == expected else f"sample {ens} seed {seed}: CSV bytes differ ({digest[:12]} != {expected[:12]})"


def sample_op(ctx: Context, ens: str, seed: int, workers: int) -> Op:
    out = ctx.work / f"sample-{ens}.csv"
    return Op(
        "sample",
        SAMPLE_N,
        lambda: run_cli(ctx, sample_argv(ens, seed, workers, out)),
        lambda r: check_sample(ctx, ens, seed, SAMPLE_N, out, r),
        writes=(out,),
    )


def sample_bulk(ctx: Context) -> Plan:
    """Bulk CLI `sample`: all seven ensembles, each with `--workers` 1 and 2.

    After the loop a golden phase writes each ensemble at the default seed
    once more and checks it against the stored hash, with the worker count
    varying by seed.
    """

    out = ctx.work / "warmup.csv"
    warmup = Op("warmup", 2000, lambda: run_cli(ctx, sample_argv("goe", ctx.seed, 1, out, 2000)),
                lambda r: check_sample(ctx, "goe", ctx.seed, 2000, out, r), writes=(out,))
    cycle = [sample_op(ctx, ens, ctx.seed, 1 + (i + rep) % 2) for rep in range(2) for i, ens in enumerate(ENSEMBLES)]
    golden = [sample_op(ctx, ens, DEFAULT_SEED, 1 + (i + ctx.seed) % 2) for i, ens in enumerate(ENSEMBLES)]
    return Plan(warmup, cycle, after=golden)


# -------------------------------------------------------------- classify-bulk


def check_report(kind: str, result, n: int, best: str | None, ref_d: dict, golden_d: dict | None) -> str | None:
    """A compare/analyze JSON report: exit code, n, best fit (unless None), and every d and p."""
    rc, stdout = result
    if rc != 0:
        return f"{kind}: exit code {rc}"
    report = json.loads(stdout)
    if report["n"] != n:
        return f"{kind}: n {report['n']} != {n}"
    if best is not None and report["best-fit"] != best:
        return f"{kind}: best-fit {report['best-fit']} != {best}"
    for curve in reference.CURVES:
        entry = report["ks-results"][curve]
        if not 0.0 <= entry["p"] <= 1.0:
            return f"{kind}: p {entry['p']} outside [0, 1]"
        for label, want in (("reference", ref_d[curve]), ("golden", (golden_d or {}).get(curve))):
            if want is not None and not abs(entry["d"] - want) <= reference.D_TOL:
                return f"{kind}: d[{curve}] {entry['d']!r} != {label} {want!r}"
    return None


def check_curve(kind: str, result, path: Path) -> str | None:
    """A curve CSV: grid, finite nonnegative pdf, finite nondecreasing cdf equal to the reference."""
    rc, _ = result
    if rc != 0:
        return f"curve {kind}: exit code {rc}"
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (CURVE_POINTS, 3):
        return f"curve {kind}: table shape {table.shape}"
    x, p, c = table.T
    if not (np.all(np.isfinite(table)) and np.all(p >= 0.0)):
        return f"curve {kind}: non-finite or negative value"
    if np.any(np.diff(c) < 0.0):
        return f"curve {kind}: cdf decreases"
    if np.max(np.abs(x - np.linspace(0.0, CURVE_XMAX, CURVE_POINTS))) > 1e-11:
        return f"curve {kind}: grid differs from linspace"
    err = float(np.max(np.abs(c - reference.cdf(kind, x))))
    return None if err <= reference.CDF_TOL else f"curve {kind}: cdf off the reference by {err:.2e}"


def classify_bulk(ctx: Context) -> Plan:
    """Bulk CLI `compare`, `analyze` and `curve`.

    Inputs, all from the seed and before timing: one `sample` CSV per ensemble
    (written by the CLI), and a GOE-law and a GUE-law spectrum (numpy only),
    each analyzed with three unfoldings.
    """
    work = ctx.work
    rng = np.random.default_rng([ctx.seed, 1])
    tiny = work / "warmup.csv"
    raw = 2.0 * np.hypot(rng.standard_normal(200), rng.standard_normal(200))
    tiny.write_text("raw_spacing\n" + "".join(f"{v!r}\n" for v in raw.tolist()), encoding="utf-8")

    warmup = Op("warmup", raw.size,
                lambda: run_cli(ctx, ["compare", "--spacings", str(tiny), "--against", "all", "--report", "json"]),
                lambda r: check_report("warm-up compare", r, raw.size, None, reference.ks_distances(raw), None),
                reads=(tiny,))

    cycle: list[Op] = []
    golden = ctx.golden if ctx.seed == DEFAULT_SEED else {}

    def prepare():
        for ens in ENSEMBLES:
            path = work / f"compare-{ens}.csv"
            err = check_sample(ctx, ens, ctx.seed, SAMPLE_N, path, run_cli(ctx, sample_argv(ens, ctx.seed, 1, path)))
            if err:
                raise RuntimeError(f"input generation: {err}")
            ref = reference.ks_distances(np.loadtxt(path, delimiter=",", skiprows=1, usecols=0))
            gold = golden.get("compare_d", {}).get(ens)
            argv = ["compare", "--spacings", str(path), "--against", "all", "--report", "json"]
            cycle.append(Op(
                "compare", SAMPLE_N,
                lambda argv=argv: run_cli(ctx, argv),
                lambda r, ens=ens, ref=ref, gold=gold: check_report(f"compare {ens}", r, SAMPLE_N, BEST_FIT[ens], ref, gold),
                reads=(path,),
            ))
        for i, law in enumerate(("GOE", "GUE")):
            levels = reference.spectrum(law, SPECTRUM_LEVELS, np.random.default_rng([ctx.seed, 2, i]))
            path = work / f"spectrum-{law}.txt"
            path.write_text(reference.levels_text(levels, f"{law}-law spectrum, seed {ctx.seed}"), encoding="utf-8")
            for method in UNFOLDINGS:
                ref = reference.ks_distances(reference.unfold(levels, method))
                gold = golden.get("analyze_d", {}).get(f"{law}/{method}")
                argv = ["analyze", "--spectrum", str(path), "--unfold", method, "--report", "json"]
                cycle.append(Op(
                    "analyze", SPECTRUM_LEVELS,
                    lambda argv=argv: run_cli(ctx, argv),
                    lambda r, law=law, m=method, ref=ref, gold=gold: check_report(
                        f"analyze {law} {m}", r, SPECTRUM_LEVELS - 1, law, ref, gold),
                    reads=(path,), label=f"{law}/{method}",
                ))
        for kind in reference.CURVES:
            path = work / f"curve-{kind}.csv"
            argv = ["curve", "--curve", kind.lower(), "--xmax", str(CURVE_XMAX), "--points", str(CURVE_POINTS), "--out", str(path)]
            cycle.append(Op(
                "curve", CURVE_POINTS,
                lambda argv=argv: run_cli(ctx, argv),
                lambda r, kind=kind, path=path: check_curve(kind, r, path),
                writes=(path,),
            ))

    return Plan(warmup, cycle, prepare)


# ---------------------------------------------------------- small-experiments


def check_experiment(ens_tag: str, n: int, result) -> str | None:
    sample, rate, ks = result
    raw = np.asarray(sample.raw)
    if len(sample) != n or not (np.all(np.isfinite(raw)) and np.all(raw >= 0.0)):
        return f"experiment {ens_tag} n={n}: bad sample"
    if abs(float(np.mean(sample.normalized)) - 1.0) > 1e-12:
        return f"experiment {ens_tag} n={n}: normalized mean != 1"
    if not (0.0 < rate <= 1.0) or (ens_tag not in ("GPOE", "GPUE") and rate != 1.0):
        return f"experiment {ens_tag} n={n}: acceptance rate {rate}"
    return check_ks(f"experiment {ens_tag} n={n}", ks, n, reference.ks_distances(raw))


def check_ks(label: str, ks: dict, n: int, ref: dict) -> str | None:
    for curve in reference.CURVES:
        res = ks[curve]
        if res.n != n or not 0.0 <= res.p_value <= 1.0:
            return f"{label}: KS n or p wrong for {curve}"
        if not abs(res.d - ref[curve]) <= reference.D_TOL:
            return f"{label}: d[{curve}] {res.d!r} != reference {ref[curve]!r}"
    return None


def small_experiments(ctx: Context) -> Plan:
    """Many small library operations in a seeded, fixed mix.

    Three of four operations sample 50..2000 spacings (log-spaced) from one
    of the seven ensembles and KS-test them against all five curves; the
    fourth parses a spectrum of 200..800 levels, unfolds it and KS-tests it.
    The last operation of each cycle is a full `verify.run_verification()`.
    """
    from spacinglab import ensembles, ingest, stats, verify

    rng = np.random.default_rng([ctx.seed, 3])
    kinds = [ensembles.GOE, ensembles.GUE, ensembles.GSE, ensembles.GPOE, ensembles.GPUE,
             ensembles.qh3(KAPPA), ensembles.qh4(KAPPA)]
    methods = {"global": ingest.GlobalMean(), "local:21": ingest.LocalWindow(21), "poly:3": ingest.PolynomialStaircase(3)}

    def experiment(kind, n, seed):
        def call():
            sample, rate = ensembles.sample_spacings(kind, n, ensembles.SamplerConfig(seed=seed))
            return sample, rate, {c: stats.ks_test(sample, c) for c in reference.CURVES}
        return Op("experiment", 1, call, lambda r: check_experiment(kind.tag, n, r), size=n)

    def spectrum_op(law, n_levels, method):
        levels = reference.spectrum(law, n_levels, rng)
        text = reference.levels_text(levels, f"{law}-law levels")
        ref = reference.ks_distances(reference.unfold(levels, method))

        def call():
            spec = ingest.parse_levels(text)
            sample = ingest.unfold(spec, methods[method])
            return spec, {c: stats.ks_test(sample, c) for c in reference.CURVES}

        def check(result):
            spec, ks = result
            if not np.array_equal(spec.levels, levels):
                return f"spectrum {law}: parsed levels differ"
            return check_ks(f"spectrum {law} {method}", ks, n_levels - 1, ref)
        return Op("spectrum", 1, call, check, size=n_levels)

    def verify_op():
        def check(results):
            failed = [r.name for r in results if not r.passed]
            return f"verify: failed {failed}" if failed else None
        return Op("verify", 1, verify.run_verification, check)

    cycle: list[Op] = []

    def prepare():
        # Sizes, ensembles, laws and unfoldings are evenly spread over their
        # ranges and shuffled, so every seed runs the same mix in another order
        # on other data.
        n_spec = (SMALL_CYCLE - 1) // 4
        n_exp = SMALL_CYCLE - 1 - n_spec
        grid = lambda lo, hi, k: (lo + (hi - lo) * (np.arange(k) + 0.5) / k)  # noqa: E731
        sizes = rng.permutation(np.rint(np.exp(grid(math.log(50), math.log(2000), n_exp))).astype(int))
        tags = rng.permutation(np.arange(n_exp) % len(kinds))
        experiments = [experiment(kinds[t], int(n), int(rng.integers(2**63))) for t, n in zip(tags, sizes)]
        levels = rng.permutation(np.rint(grid(200, 800, n_spec)).astype(int))
        laws = rng.permutation(np.arange(n_spec) % 2)
        unfoldings = rng.permutation(np.arange(n_spec) % len(methods))
        spectra = [spectrum_op(("GOE", "GUE")[law], int(n), list(methods)[m]) for law, n, m in zip(laws, levels, unfoldings)]
        for i in range(SMALL_CYCLE - 1):
            cycle.append(spectra.pop() if i % 4 == 3 else experiments.pop())
        cycle.append(verify_op())

    warmup = dataclasses.replace(experiment(ensembles.GOE, 200, ctx.seed), kind="warmup")
    return Plan(warmup, cycle, prepare)


WORKLOADS = {"sample-bulk": sample_bulk, "classify-bulk": classify_bulk, "small-experiments": small_experiments}


# ------------------------------------------------------------------- the loop


def execute(op: Op, tracer: tracing.Tracer | None) -> dict:
    """Time one operation, then check it; exceptions count as failures."""
    error = None
    t0 = time.perf_counter()
    try:
        result = tracer.run_op(op.kind, op.call) if tracer else op.call()
    except Exception:  # a failed operation is a measured outcome, not a crash
        result = None
        error = traceback.format_exc(limit=2).strip().splitlines()[-1]
    latency = time.perf_counter() - t0
    returned = time.monotonic()
    if error is None:
        try:
            error = op.check(result)
        except Exception:
            error = "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    size = lambda paths: sum(p.stat().st_size for p in paths if p.exists())  # noqa: E731
    stdout = len(result[1]) if error is None and op.kind in ("sample", "compare", "analyze", "curve") else 0
    # computed, not counted: file and stdout sizes, and the float64 payload of the op's input
    return {"kind": op.kind, "latency_s": latency, "items": op.items, "size": op.size,
            "bytes_in": size(op.reads), "bytes_out": size(op.writes) + stdout, "array_bytes": 8 * op.size,
            "error": error, "returned": returned}


def closed_loop(cycle: list[Op], seconds: float, cycles: int | None, tracer) -> list[dict]:
    """Whole cycles until ``seconds`` have passed, or exactly ``cycles`` cycles.

    Each record gets ``host_s``, the mean of the host-speed probes taken just
    before and just after it (see hostspeed.py).
    """
    records, probes = [], [hostspeed.probe()]
    start = last_probe = time.perf_counter()
    done = 0
    while (done < cycles) if cycles is not None else (time.perf_counter() - start < seconds):
        for op in cycle:
            if time.perf_counter() - last_probe >= hostspeed.PROBE_EVERY_S:
                probes.append(hostspeed.probe())
                last_probe = time.perf_counter()
            records.append(dict(execute(op, tracer), probe=len(probes) - 1))
        done += 1
    probes.append(hostspeed.probe())
    for r in records:
        i = r.pop("probe")
        r["host_s"] = (probes[i] + probes[i + 1]) / 2.0
    return records


@contextlib.contextmanager
def tracing_off(tracer: tracing.Tracer | None):
    if tracer:
        tracer.enabled = False
    try:
        yield
    finally:
        if tracer:
            tracer.enabled = True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    ap.add_argument("--work", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--t0", type=float, help="time.monotonic() at which the parent started this process")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.record_golden:
        return record_golden()
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    tracer = None
    import spacinglab.cli

    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ctx = Context(args.seed, args.work, cli=spacinglab.cli,
                  golden=json.loads(GOLDEN.read_text(encoding="utf-8")))
    plan = WORKLOADS[args.workload](ctx)
    warm = execute(plan.warmup, tracer)
    out = {"setup_s": warm["returned"] - t0, "records": [warm]}
    args.result.with_suffix(".setup").touch()  # the parent stops probing the host
    if args.mode != "setup":
        # the trace covers the warm-up and the cycles, not input generation or golden checks
        with tracing_off(tracer):
            plan.prepare()
        cycles = TRACE_CYCLES[args.workload] if tracer else None
        out["records"] += closed_loop(plan.cycle, args.seconds, cycles, tracer)
        with tracing_off(tracer):
            out["records"] += [dict(execute(op, None), kind="golden-" + op.kind) for op in plan.after]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import scipy

    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
                       "spacinglab": spacinglab.__version__}
    if tracer:
        tracer.dump(args.work / "spans.json")
        out["trace"] = {
            "reduced": tracing.reduce_spans(tracer.spans, tracer.aggregates),
            "first_calls": {f"{n}|{v}": s for (n, v), s in tracer.first_calls.items()},
        }
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


def record_golden() -> int:
    """Write golden.json: sample CSV hashes and compare/analyze d at the default seed."""
    import spacinglab.cli

    work = HERE / ".work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(DEFAULT_SEED, work, cli=spacinglab.cli)
    golden = {"seed": DEFAULT_SEED, "n": SAMPLE_N, "kappa": KAPPA, "sample_sha256": {}, "compare_d": {}, "analyze_d": {}}
    for ens in ENSEMBLES:
        digests = set()
        for workers in (1, 2):
            out = work / f"{ens}-w{workers}.csv"
            rc, _ = run_cli(ctx, sample_argv(ens, DEFAULT_SEED, workers, out))
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        if rc != 0 or len(digests) != 1:
            raise SystemExit(f"{ens}: workers 1 and 2 disagree or exit code {rc}")
        golden["sample_sha256"][ens] = digests.pop()
        rc, stdout = run_cli(ctx, ["compare", "--spacings", str(out), "--report", "json"])
        golden["compare_d"][ens] = {k: v["d"] for k, v in json.loads(stdout)["ks-results"].items()}
    ctx.golden = golden
    plan = classify_bulk(ctx)
    plan.prepare()
    for op in plan.cycle:
        if op.kind == "analyze":
            rc, stdout = op.call()
            golden["analyze_d"][op.label] = {k: v["d"] for k, v in json.loads(stdout)["ks-results"].items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
