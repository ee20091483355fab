"""Self-tests of the benchmark harness: wrong outputs count as failed operations,
and the span reducer's self-time arithmetic is exact.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import hashlib
import json
import types

import numpy as np
import pytest

import reference
import tracing
import workloads
from workloads import Context, Op, execute


def _sample_ctx(tmp_path, cli) -> Context:
    return Context(workloads.DEFAULT_SEED, tmp_path, cli=cli, golden={"sample_sha256": {}})


def test_flipped_csv_byte_is_a_failed_op(tmp_path):
    """Same flags, workers 1 then 2: the second call's output has one byte flipped."""
    import spacinglab.cli

    ctx = _sample_ctx(tmp_path, spacinglab.cli)
    out = tmp_path / "s.csv"

    def op(workers, corrupt):
        def call():
            result = workloads.run_cli(ctx, workloads.sample_argv("gpue", 7, workers, out, 40_000))
            if corrupt:
                data = bytearray(out.read_bytes())
                data[-3] ^= 0x01
                out.write_bytes(bytes(data))
            return result
        return Op("sample", 40_000, call, lambda r: workloads.check_sample(ctx, "gpue", 7, 40_000, out, r))

    assert execute(op(1, False), None)["error"] is None
    assert execute(op(2, False), None)["error"] is None
    assert "CSV bytes differ" in execute(op(2, True), None)["error"]


def test_golden_hash_mismatch_is_a_failed_op(tmp_path):
    body = b"raw_spacing,normalized_spacing\n" + b"1,1\n" * workloads.SAMPLE_N
    out = tmp_path / "s.csv"
    out.write_bytes(body)
    ctx = _sample_ctx(tmp_path, None)
    ctx.golden["sample_sha256"]["goe"] = hashlib.sha256(body).hexdigest()
    check = lambda r: workloads.check_sample(ctx, "goe", workloads.DEFAULT_SEED, workloads.SAMPLE_N, out, r)  # noqa: E731
    assert execute(Op("sample", 1, lambda: (0, "acceptance-rate 1\n"), check), None)["error"] is None
    out.write_bytes(body[:-2] + b"2\n")
    assert "CSV bytes differ" in execute(Op("sample", 1, lambda: (0, "acceptance-rate 1\n"), check), None)["error"]
    assert "exit code 1" in execute(Op("sample", 1, lambda: (1, ""), check), None)["error"]


def _report(best: str, ds: dict) -> str:
    return json.dumps({"n": 100, "best-fit": best, "ks-results": {k: {"d": v, "p": 0.5} for k, v in ds.items()}})


def test_wrong_best_fit_is_a_failed_op():
    ds = {"GOE": 0.01, "GUE": 0.05, "GSE": 0.1, "GPOE": 0.06, "GPUE": 0.04}
    check = lambda r: workloads.check_report("compare", r, 100, "GOE", ds, None)  # noqa: E731
    assert execute(Op("compare", 100, lambda: (0, _report("GOE", ds)), check), None)["error"] is None
    assert "best-fit GPUE != GOE" in execute(Op("compare", 100, lambda: (0, _report("GPUE", ds)), check), None)["error"]
    off = dict(ds, GSE=0.1 + 1e-7)
    assert "d[GSE]" in execute(Op("compare", 100, lambda: (0, _report("GOE", off)), check), None)["error"]


def test_raised_exception_is_a_failed_op():
    def boom():
        raise ValueError("spacings must be finite")

    assert "ValueError: spacings must be finite" in execute(Op("experiment", 1, boom, lambda r: None), None)["error"]
    record = execute(Op("experiment", 1, lambda: None, lambda r: r.missing), None)
    assert record["error"].startswith("check raised")


def test_curve_check_rejects_decreasing_cdf(tmp_path):
    x = np.linspace(0.0, workloads.CURVE_XMAX, workloads.CURVE_POINTS)
    c = reference.cdf("GUE", x)
    path = tmp_path / "c.csv"
    for cdf_column, ok in ((c, True), (np.where(x > 2.0, c - 1e-6, c), False)):
        np.savetxt(path, np.column_stack([x, x, cdf_column]), fmt="%.12g", delimiter=",", header="x,pdf,cdf", comments="")
        assert (workloads.check_curve("GUE", (0, ""), path) is None) == ok


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has recorded children A [1, 4] and B [3, 6] (overlapping: only
    # their union, 5 s, is subtracted) and aggregated children C totalling 2 s.
    # A has aggregated children X totalling 1.5 s, and X aggregated children Y, 0.5 s.
    spans = [
        (0, 1, "root", "", None, 0.0, 10.0, 0, None),
        (1, 1, "A", "", 0, 1.0, 4.0, 3, None),
        (2, 1, "B", "v", 0, 3.0, 6.0, 0, {"k": 2}),
    ]
    x_key = (1, "X", "")
    aggregates = {
        (0, "C", ""): [4, 2.0, 40, None],
        x_key: [3, 1.5, 0, {"k": 1}],
        (x_key, "Y", ""): [9, 0.5, 0, None],
    }
    out = tracing.reduce_spans(spans, aggregates)
    assert out["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert out["A"]["self_s"] == pytest.approx(3.0 - 1.5)
    assert out["B"]["self_s"] == pytest.approx(3.0)
    assert out["B|v"]["counters"] == {"k": 2}
    assert out["C"]["calls"] == 4 and out["C"]["items"] == 40 and out["C"]["self_s"] == pytest.approx(2.0)
    assert out["X"]["self_s"] == pytest.approx(1.0)
    assert out["Y"]["self_s"] == pytest.approx(0.5)


def test_tracer_aggregates_frequent_calls_and_keeps_totals():
    tracer = tracing.Tracer()
    mod = types.SimpleNamespace()
    mod.leaf = tracer.wrap("m.leaf", lambda i: i, measure=lambda a, k, r: (1, None))
    mod.mid = tracer.wrap("m.mid", lambda: [mod.leaf(i) for i in range(3)])
    tracer.run_op("t", lambda: [mod.mid() for _ in range(3 * tracing.CHILD_CAP)])
    out = tracing.reduce_spans(tracer.spans, tracer.aggregates)
    assert out["m.mid"]["calls"] == 3 * tracing.CHILD_CAP
    assert out["m.leaf"]["calls"] == out["m.leaf"]["items"] == 9 * tracing.CHILD_CAP
    assert len(tracer.spans) == 1 + tracing.CHILD_CAP * 4  # the op, capped mids, their leaves
    root = out["op.t"]
    inner = sum(out[n]["self_s"] for n in ("m.mid", "m.leaf"))
    assert root["self_s"] + inner == pytest.approx(root["total_s"])
    assert tracer.first_calls[("m.leaf", "")] >= 0.0
