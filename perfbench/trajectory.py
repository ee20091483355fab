"""Run every workload on seeds 1-10 and write one point of the BENCH trajectory.

    python3 perfbench/trajectory.py --out perfbench/trajectory/<commit>.json

For every workload it runs ``run.py`` once per seed with tracing off, then
once traced on seed 1.  It records for every end-to-end metric the values,
the median and the quartile spread (Q3 - Q1 over the median, from
``statistics.quantiles(values, n=4)``); the same for the ungated numbers of
the ``named`` line; a check of the host-speed scaling (``host_check``); the
traced per-layer numbers; and the provenance of the last run.  The spreads
are printed as it goes.  Workloads and seeds are fixed so points compare.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-bulk", "classify-bulk", "small-experiments")
SEEDS = tuple(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    prov = next(json.loads(line[11:]) for line in lines if line.startswith("provenance "))
    named = next(json.loads(line[6:]) for line in lines if line.startswith("named "))
    return json.loads(lines[-1]), named, prov


def summarize(values: dict[str, list[float]]) -> dict:
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"  {name:28s} median {med:.6g}  spread {spread:.4f}", flush=True)
    return summary


def log_slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx if sxx else 0.0


def host_check(values: dict[str, list[float]], named: dict[str, list[float]]) -> dict:
    """Whether each scaled timing still follows the host speed.

    ``slope`` is the log-log slope of the values against the run's median
    probe time across the seeds: -1 to 1 for raw rates and latencies, near 0
    once scaling removes the host.  ``slow_over_fast`` is the median over the
    half of the seeds with the slowest probe over that of the fastest half.
    """
    out = {}
    for name, probe in (("setup_s", "setup_probe_ms"), ("cmd_rate_geomean", "host_probe_ms"),
                        ("op_p50_ms", "host_probe_ms")):
        hosts = named[probe]
        order = sorted(range(len(hosts)), key=hosts.__getitem__)
        half = len(order) // 2
        row = {"probe_ms": hosts}
        for label, vals in (("scaled", values[name]), ("raw", named[name + "_raw"])):
            fast = statistics.median(vals[i] for i in order[:half])
            slow = statistics.median(vals[i] for i in order[-half:])
            row[label] = {"slope": log_slope(hosts, vals), "slow_over_fast": slow / fast}
        out[name] = row
        print(f"  host check {name:18s} slope scaled {row['scaled']['slope']:+.2f} raw {row['raw']['slope']:+.2f}"
              f"  slow/fast scaled {row['scaled']['slow_over_fast']:.3f} raw {row['raw']['slow_over_fast']:.3f}",
              flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    point = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        named: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in SEEDS:
            result, per_command, prov = run(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, m in per_command.items():
                named.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary, named_summary = summarize(values), summarize(named)
        traced, _, _ = run(workload, SEEDS[0], spec["run_seconds"], 1)
        point["workloads"][workload] = {
            "end_to_end": summary, "named": named_summary, "host_check": host_check(values, named),
            "attempted": attempted, "failed": failed,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        point["provenance"] = {k: v for k, v in prov.items() if k not in ("workload", "seed", "operations")}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
