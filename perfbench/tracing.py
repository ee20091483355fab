"""Spans around the public functions of each spacinglab layer, and their reducer.

The benchmark's traced run calls :func:`install`, which replaces the public
module-level functions listed in ``LAYERS`` with wrappers that record a span
(name, variant, start, end, parent, operation id, item count).  Callers reach
these functions through module attributes (``curves.cdf``, ``stats.normalize``),
and calls inside a module resolve the module globals at call time, so every
call made through the program's own code is seen.  No file of the program is
changed.

Very frequent inner calls are aggregated: once a parent span has
``CHILD_CAP`` recorded children of one name, further calls of that name under
it, and every call below an aggregated call, are summed into a counter keyed
by (parent, name, variant).  The table build of one CDF alone makes 4096
``integrate`` calls and ~86,000 ``pdf`` calls, so this keeps the trace
bounded while totals stay exact.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`reduce_spans` turns spans and counters into self times: a node's self
time is its duration minus the part of its interval covered by recorded
children, minus the total of its aggregated children.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

CHILD_CAP = 8
MAX_SPANS = 100_000


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(x) -> int:
    return int(np.size(x))


def _unfold_variant(args, kwargs) -> str:
    return {"GlobalMean": "global", "LocalWindow": "local", "PolynomialStaircase": "poly"}.get(
        type(_arg(args, kwargs, 1, "method")).__name__, "other"
    )


def _sample_counters(args, kwargs, result):
    from spacinglab.ensembles import BLOCK_QUOTA

    n = int(_arg(args, kwargs, 1, "n_accepted"))
    streams = -(-n // BLOCK_QUOTA)
    return n, {"raw_draws": n / result[1], "streams": streams}


# module -> {function: (variant(args, kwargs) or None, measure(args, kwargs, result) or None)}
# ``measure`` returns (items, counters); a variant splits one function's numbers.
LAYERS = {
    "cli": {"main": (lambda a, k: str(_arg(a, k, 0, "argv")[0]), None)},
    "ensembles": {
        "sample_spacings": (
            lambda a, k: f"w{_arg(a, k, 2, 'config').workers}",
            _sample_counters,
        ),
        "acceptance_rate": (None, lambda a, k, r: (int(_arg(a, k, 1, "n_raw")), None)),
        "spectral_to_params": (None, None),
    },
    "stats": {
        "normalize": (None, lambda a, k, r: (len(r), None)),
        "ks_test": (None, lambda a, k, r: (r.n, None)),
    },
    "curves": {
        "cdf": (lambda a, k: str(_arg(a, k, 0, "kind")).upper(), lambda a, k, r: (_size(r), None)),
        "pdf": (None, lambda a, k, r: (_size(r), None)),
        "moment": (None, None),
    },
    "specfun": {
        "integrate": (None, None),
        "bessel_k0": (None, lambda a, k, r: (_size(r), None)),
    },
    "ingest": {
        "load_spectrum": (None, lambda a, k, r: (r.levels.size, None)),
        "parse_levels": (None, lambda a, k, r: (r.levels.size, None)),
        "unfold": (_unfold_variant, lambda a, k, r: (len(r), None)),
    },
    "verify": {"run_verification": (None, None)},
}


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, op, name, variant, parent, t0, t1, items, counters)
        self.aggregates: dict[tuple, list] = {}  # key -> [calls, total_s, items, counters]
        self.first_calls: dict[tuple[str, str], float] = {}
        self._children: dict[tuple, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = 0
        self.enabled = True  # off while the benchmark generates inputs or checks goldens

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, variant: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            parent_id = parent[1] if parent is not None and parent[0] == "span" else None
            if (
                (parent is not None and parent[0] == "agg")
                or len(self.spans) >= MAX_SPANS
                or (parent_id is not None and self._children[(parent_id, name)] >= CHILD_CAP)
            ):
                frame = ("agg", (parent[1] if parent is not None else None, name, variant))
            else:
                if parent_id is not None:
                    self._children[(parent_id, name)] += 1
                frame = ("span", len(self.spans), parent_id)
                self.spans.append(None)  # reserve the id; filled on exit
        stack.append(frame)
        return frame

    def _exit(self, frame, name, variant, t0, t1, items, counters) -> None:
        self._stack().pop()
        with self._lock:
            self.first_calls.setdefault((name, variant), t1 - t0)
            if frame[0] == "span":
                self.spans[frame[1]] = (
                    frame[1], self._op, name, variant, frame[2], t0, t1, items, counters
                )
                return
            rec = self.aggregates.get(frame[1])
            if rec is None:
                rec = self.aggregates[frame[1]] = [0, 0.0, 0, {}]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += items
            for key, value in (counters or {}).items():
                rec[3][key] = rec[3].get(key, 0) + value

    def wrap(self, name: str, fn, variant_of=None, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            variant = variant_of(args, kwargs) if variant_of else ""
            frame = self._enter(name, variant)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, name, variant, t0, perf_counter(), 0, None)
                raise
            t1 = perf_counter()
            items, counters = measure(args, kwargs, result) if measure else (0, None)
            self._exit(frame, name, variant, t0, t1, items, counters)
            return result

        return traced

    def run_op(self, kind: str, fn):
        """Run one benchmark operation as a root span with a new operation id."""
        self._op += 1
        return self.wrap(f"op.{kind}", fn)()

    def dump(self, path) -> None:
        data = {
            "spans": self.spans,
            "aggregates": [[list(k), v] for k, v in self.aggregates.items()],
            "first_calls": [[n, v, s] for (n, v), s in self.first_calls.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every function named in LAYERS in place, on the imported modules."""
    import importlib

    for layer, functions in LAYERS.items():
        module = importlib.import_module(f"spacinglab.{layer}")
        for fname, (variant_of, measure) in functions.items():
            original = getattr(module, fname)
            setattr(module, fname, tracer.wrap(f"{layer}.{fname}", original, variant_of, measure))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def reduce_spans(spans, aggregates) -> dict[str, dict]:
    """Totals per name and per "name|variant": calls, total_s, self_s, items, counters.

    ``spans`` are (id, op, name, variant, parent_id, t0, t1, items, counters);
    ``aggregates`` maps (parent_key, name, variant) to [calls, total_s, items,
    counters], where parent_key is a span id, another aggregate key or None.
    """
    child_intervals = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            child_intervals[s[4]].append((s[5], s[6]))
    aggregated_below = defaultdict(float)
    for key, rec in aggregates.items():
        aggregated_below[key[0]] += rec[1]

    out: dict[str, dict] = {}

    def add(name, variant, calls, total, self_s, items, counters):
        for key in (name, f"{name}|{variant}") if variant else (name,):
            row = out.setdefault(
                key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0, "counters": {}}
            )
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
            row["items"] += items
            for c, v in (counters or {}).items():
                row["counters"][c] = row["counters"].get(c, 0) + v

    for sid, _op, name, variant, _parent, t0, t1, items, counters in spans:
        self_s = (t1 - t0) - _covered(child_intervals.get(sid, ()), t0, t1)
        add(name, variant, 1, t1 - t0, self_s - aggregated_below.get(sid, 0.0), items, counters)
    for key, (calls, total, items, counters) in aggregates.items():
        add(key[1], key[2], calls, total, total - aggregated_below.get(key, 0.0), items, counters)
    return out
