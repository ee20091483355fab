"""spacinglab benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload sample-bulk|classify-bulk|small-experiments \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  With ``--trace 0`` it runs the
workload once and sets up twice more, and prints every end-to-end metric of
BENCHMARK.json.  With ``--trace 1`` it runs the workload untraced and then
traced, times ``import spacinglab`` with ``-X importtime``, and prints every
per-layer metric.  The last line of stdout is the JSON result; the lines
before it give the per-command numbers and the provenance.  Inputs, outputs,
spans and the full result go to ``perfbench/.work/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-bulk", "classify-bulk", "small-experiments")
SETUP_REPEATS = 3  # set-ups per run whose median is setup_s
BUDGET_S = 170.0  # a run, all children included, ends within this
CLI_KINDS = ("sample", "compare", "analyze", "curve")
# the per-command metric name and item of each operation kind, for the `named` line
NAMED = {
    "sample": ("sample_spacings_per_s", "spacings"),
    "compare": ("compare_spacings_per_s", "spacings"),
    "analyze": ("analyze_levels_per_s", "levels"),
    "curve": ("curve_points_per_s", "points"),
    "experiment": ("experiments_per_s", "experiments"),
    "spectrum": ("spectrum_experiments_per_s", "experiments"),
}


class BenchError(RuntimeError):
    pass


def child(args, mode: str, work: Path, deadline: float) -> dict:
    """Run perfbench/workloads.py in a fresh interpreter and return its result.

    Until the child's set-up ends, this process probes the host speed every
    ``hostspeed.PROBE_EVERY_S``; ``setup_host_s`` is the median of the probes
    taken before the child's warm-up returned.  It stops probing when the
    child marks the end of its set-up, so that it does not load the host
    while operations are timed.
    """
    result = work / f"child-{mode}-{time.monotonic_ns()}.json"
    marker = result.with_suffix(".setup")  # workloads.py creates it once set-up is over
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--work", str(work), "--result", str(result),
           "--t0", repr(t0)]
    probes = []  # (time.monotonic(), probe seconds)
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL) as proc:
        while proc.poll() is None and not marker.exists() and time.monotonic() < deadline:
            probes.append((time.monotonic(), hostspeed.probe()))
            time.sleep(hostspeed.PROBE_EVERY_S)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} process exceeded the time budget") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    out = json.loads(result.read_text(encoding="utf-8"))
    setup_end = t0 + out["setup_s"]
    out["setup_host_s"] = statistics.median([p for t, p in probes if t <= setup_end] or [probes[0][1]])
    return out


def import_times(deadline: float, repeats: int = 3) -> dict[str, float]:
    """Median cumulative ``-X importtime`` seconds of spacinglab and its scipy submodules.

    scipy loads some packages lazily, so ``scipy.integrate`` itself may not get
    a line; then its outermost ``scipy.integrate.*`` lines are summed.
    """
    wanted = ("spacinglab", "scipy.interpolate", "scipy.integrate", "scipy.special")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spacinglab"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("import spacinglab failed")
        lines = []  # (depth, module, cumulative seconds)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                lines.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
        found = {}
        for pkg in wanted:
            exact = [s for _, m, s in lines if m == pkg]
            inner = [(d, s) for d, m, s in lines if m.startswith(pkg + ".")]
            top = min((d for d, _ in inner), default=None)
            found[pkg] = exact[0] if exact else sum(s for d, s in inner if d == top)
        runs.append(found)
    return {name: statistics.median(r[name] for r in runs) for name in wanted}


def timed(records: list[dict]) -> list[dict]:
    return [r for r in records if r["kind"] != "warmup" and not r["kind"].startswith("golden-")]


def raw(r: dict) -> float:
    return r["latency_s"]


def scaled(r: dict) -> float:
    """Latency at the reference host speed (see hostspeed.py)."""
    return hostspeed.scale(r["latency_s"], r["host_s"])


def rate(records: list[dict], latency=scaled) -> float:
    """Items per second of operation time."""
    busy = sum(latency(r) for r in records)
    return sum(r["items"] for r in records) / busy if busy > 0 else 0.0


def cmd_rate_geomean(records: list[dict], latency=scaled) -> float:
    """Geometric mean over the operation kinds of each kind's ``rate``."""
    return statistics.geometric_mean(rate([r for r in records if r["kind"] == kind], latency)
                                     for kind in sorted({r["kind"] for r in records}))


def named_metrics(records: list[dict]) -> dict:
    """Per-command rates and latencies, scaled like the gated ones; none of them is gated."""
    out = {}
    for kind, (name, item) in NAMED.items():
        rows = [r for r in records if r["kind"] == kind]
        if rows:
            out[name] = {"value": rate(rows), "unit": f"{item}/s", "n": len(rows)}
    exp = sorted(scaled(r) for r in records if r["kind"] == "experiment")
    if exp:
        p99 = exp[min(len(exp) - 1, int(0.99 * len(exp)))]
        out["experiment_p50_ms"] = {"value": 1e3 * statistics.median(exp), "unit": "ms", "n": len(exp)}
        # fewer than ten samples beyond p99 make it a rough estimate
        out["experiment_p99_ms"] = {"value": 1e3 * p99, "unit": "ms", "n": len(exp),
                                    "beyond": sum(x > p99 for x in exp)}
    ver = [scaled(r) for r in records if r["kind"] == "verify"]
    if ver:
        out["verify_s"] = {"value": statistics.median(ver), "unit": "s", "n": len(ver)}
    return out


def provenance(args, versions: dict, records: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    per_kind = {}
    for r in records:
        row = per_kind.setdefault(r["kind"], dict.fromkeys(("ops", "items", "size", "bytes_in", "bytes_out", "array_bytes"), 0))
        row["ops"] += 1
        for key in ("items", "size", "bytes_in", "bytes_out", "array_bytes"):
            row[key] += r[key]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), **versions,
        "git_commit": commit, "src_sha256": digest.hexdigest(), "last_level_cache": last_level_cache(),
        "operations": per_kind,
        "bytes_note": "computed from file, stdout and array sizes; no hardware counters are available",
    }


def last_level_cache() -> str | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def end_to_end(main: dict, children: list[dict]) -> dict[str, float]:
    ops = timed(main["records"])
    return {
        "setup_s": statistics.median(hostspeed.scale(c["setup_s"], c["setup_host_s"]) for c in children),
        "peak_rss_mb": main["peak_rss_mb"],
        "cmd_rate_geomean": cmd_rate_geomean(ops),
        "op_p50_ms": 1e3 * statistics.median(map(scaled, ops)),
    }


def unscaled(main: dict, children: list[dict]) -> dict:
    """The gated timings before host-speed scaling, and the median probes."""
    ops = timed(main["records"])
    return {
        "setup_s_raw": {"value": statistics.median(c["setup_s"] for c in children), "unit": "s"},
        "cmd_rate_geomean_raw": {"value": cmd_rate_geomean(ops, raw), "unit": "1/s"},
        "op_p50_ms_raw": {"value": 1e3 * statistics.median(map(raw, ops)), "unit": "ms"},
        "host_probe_ms": {"value": 1e3 * statistics.median(r["host_s"] for r in ops), "unit": "ms"},
        "setup_probe_ms": {"value": 1e3 * statistics.median(c["setup_host_s"] for c in children), "unit": "ms"},
    }


def per_layer(untraced: dict, traced: dict, imports: dict[str, float]) -> dict[str, float]:
    reduced = traced["trace"]["reduced"]
    first = traced["trace"]["first_calls"]
    zero = {"calls": 0, "self_s": 0.0, "items": 0, "counters": {}}
    row = lambda name: reduced.get(name, zero)  # noqa: E731
    ops = timed(traced["records"])
    cli_ops = [r for r in ops if r["kind"] in CLI_KINDS]
    out = {
        "import.total_s": imports["spacinglab"],
        "import.scipy.interpolate_s": imports["scipy.interpolate"],
        "import.scipy.integrate_s": imports["scipy.integrate"],
        "import.scipy.special_s": imports["scipy.special"],
        "cli.bytes_written": sum(r["bytes_out"] for r in cli_ops),
        "cli.bytes_read": sum(r["bytes_in"] for r in cli_ops),
    }
    for name, fields in (
        ("cli.main", ("calls", "self_s")),
        ("ensembles.sample_spacings", ("calls", "self_s")),
        ("ensembles.acceptance_rate", ("self_s",)),
        ("stats.normalize", ("calls", "self_s", "items")),
        ("stats.ks_test", ("calls", "self_s", "items")),
        ("curves.cdf", ("calls", "self_s", "items")),
        ("curves.pdf", ("calls", "self_s", "items")),
        ("curves.moment", ("self_s",)),
        ("specfun.integrate", ("calls", "self_s")),
        ("specfun.bessel_k0", ("calls", "self_s")),
        ("ingest.load_spectrum", ("calls", "self_s", "items")),
        ("ingest.parse_levels", ("self_s",)),
        ("verify.run_verification", ("self_s",)),
    ):
        for f in fields:
            out[f"{name}.{f}"] = row(name)[f]
    ss = row("ensembles.sample_spacings")
    raw_draws = ss["counters"].get("raw_draws", 0.0)
    out["ensembles.sample_spacings.spacings"] = ss["items"]
    out["ensembles.sample_spacings.raw_draws"] = raw_draws
    out["ensembles.sample_spacings.acceptance"] = ss["items"] / raw_draws if raw_draws else 0.0
    out["ensembles.sample_spacings.streams"] = ss["counters"].get("streams", 0)
    w1, w2 = row("ensembles.sample_spacings|w1"), row("ensembles.sample_spacings|w2")
    out["ensembles.sample_spacings.self_s_w1"] = w1["self_s"]
    out["ensembles.sample_spacings.self_s_w2"] = w2["self_s"]
    out["ensembles.sample_spacings.speedup_w2"] = (
        (w1["self_s"] / w1["items"]) / (w2["self_s"] / w2["items"]) if w1["self_s"] and w2["self_s"] else 0.0
    )
    for kind in ("GOE", "GUE", "GSE", "GPOE", "GPUE"):
        out[f"curves.cdf.first_call_s.{kind}"] = first.get(f"curves.cdf|{kind}", 0.0)
    for method in ("global", "local", "poly"):
        out[f"ingest.unfold.self_s.{method}"] = row(f"ingest.unfold|{method}")["self_s"]
    traced_rate = rate(ops)
    out["trace.overhead_frac"] = rate(timed(untraced["records"])) / traced_rate - 1.0 if traced_rate else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spacinglab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)  # workloads.DEFAULT_SEED, where golden.json holds
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spacinglab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no spacinglab source tree (src/spacinglab) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        main_run = child(args, "run", work, deadline)
        runs = [main_run]
        if args.trace:
            imports = import_times(deadline)
            traced = child(args, "trace", work, deadline)
            runs.append(traced)
            values, wanted = per_layer(main_run, traced, imports), spec["per_layer"]
        else:
            for _ in range(SETUP_REPEATS - 1):
                runs.append(child(args, "setup", work, deadline))
            values, wanted = end_to_end(main_run, runs), spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for run in runs for r in run["records"]]
    failures = [r for r in records if r["error"]]
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    named = named_metrics(timed(main_run["records"]))
    named["failed_ops_frac"] = {"value": len(failures) / len(records), "unit": "frac", "n": len(records)}
    if not args.trace:
        named.update(unscaled(main_run, runs))
    prov = provenance(args, main_run["versions"], records)
    for r in failures[:10]:
        print(f"failed {r['kind']}: {r['error']}")
    print("named " + json.dumps(named))
    print("provenance " + json.dumps(prov))
    (work / "result.json").write_text(json.dumps(
        {"provenance": prov, "named": named, "metrics": metrics, "records": records}), encoding="utf-8")
    for path in work.iterdir():
        if path.suffix in (".csv", ".txt") or path.name.startswith("child-"):
            path.unlink()
    print(json.dumps({"correct": not failures, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
