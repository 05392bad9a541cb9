"""Span tracing around the public entry points of each bmixlhv layer.

The package is instrumented from outside: :func:`install` replaces each
listed function with a wrapper in every loaded ``bmixlhv`` module that holds
a reference to it (``from .model import rho_table`` copies the reference into
``montecarlo``, so patching the defining module alone would miss calls).
Spans stay in memory and are written as one JSON file when the process
ends; :func:`per_layer_metrics` turns the files of one workload iteration
into the per-layer numbers.

An entry point that no longer exists is recorded as absent instead of
failing, and every metric that depends on it is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# x values whose full_verification time is reported on its own
VERIFY_X = (0.776, 2.0, 5.0)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "attrs")

    def __init__(self, span_id, parent, name, thread):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.attrs = None
        self.end = None
        self.start = time.perf_counter()


class Tracer:
    """In-memory span recorder for one process.

    A span's parent is the innermost open span of the same thread.  A thread
    with no open span (a pool worker inside ``montecarlo.generate``) takes the
    innermost open span of the thread that created the tracer, which is the
    call blocked waiting for that worker.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_thread else []
            self._local.stack = stack
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._main_stack[-1].id if self._main_stack else 0
        span = Span(next(self._ids), parent, name, threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def dump(self, path) -> None:
        data = {
            "trace_id": self.trace_id,
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.thread, s.attrs]
                      for s in self.spans],
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# wrapping

def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bmixlhv" or name.startswith("bmixlhv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(tracer: Tracer, qualname: str):
    module_name, _, attr = qualname.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        tracer.absent.append(qualname)
        return None
    original = getattr(module, attr, None)
    if original is None:
        tracer.absent.append(qualname)
    return original


def wrap_span(tracer: Tracer, qualname: str, span_name: str, after=None) -> None:
    """Record a span around every call of ``qualname``.

    ``after(span, args, kwargs, result)`` runs once the span has closed, so
    its cost is not charged to the layer; it may set ``span.attrs`` and may
    return a replacement result (or None to keep the original).
    """
    original = _lookup(tracer, qualname)
    if original is None:
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.begin(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            try:
                replaced = after(span, args, kwargs, result)
            except (LookupError, AttributeError, TypeError, OSError) as exc:
                # a changed signature must not break the traced program
                span.attrs = {"hook_error": repr(exc)}
                replaced = None
            if replaced is not None:
                return replaced
        return result

    _replace_everywhere(original, wrapper)


def wrap_count(tracer: Tracer, qualname: str, counter: str) -> None:
    """Count calls of ``qualname`` without a span, for functions called too
    often for spans.  Only that module's reference is replaced, so a library
    function (``verification.quad`` is scipy's) is counted for one caller."""
    original = _lookup(tracer, qualname)
    if original is None:
        return
    module_name, _, attr = qualname.rpartition(".")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return original(*args, **kwargs)

    setattr(sys.modules[module_name], attr, wrapper)


class _TimedTable:
    """Proxy around the phase-density table: each evaluation (the lambda
    accept test) becomes a ``model.rho_eval`` span carrying its point count."""

    def __init__(self, table, tracer: Tracer):
        self._table = table
        self._tracer = tracer

    def __call__(self, lam):
        span = self._tracer.begin("model.rho_eval")
        try:
            return self._table(lam)
        finally:
            self._tracer.end(span)
            span.attrs = {"points": int(getattr(lam, "size", 1))}

    def __getattr__(self, name):
        return getattr(self._table, name)


def _event_count(args, kwargs):
    indices = args[1] if len(args) > 1 else kwargs["event_indices"]
    return int(getattr(indices, "size", 1))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    importlib.import_module("bmixlhv.cli")  # loads every layer

    def pairs(span, args, kwargs, result):
        span.attrs = {"pairs": _event_count(args, kwargs)}

    def timed_table(span, args, kwargs, result):
        return _TimedTable(result, tracer)

    def batch_stats(span, args, kwargs, result):
        stats = getattr(result, "rng_stats", None)
        if stats is not None:
            span.attrs = {"events": len(result),
                          "lambda_proposals": stats.lambda_proposals,
                          "t2_proposals": stats.t2_proposals}

    def file_bytes(path_arg):
        def after(span, args, kwargs, result):
            path = args[path_arg] if len(args) > path_arg else kwargs["path"]
            span.attrs = {"bytes": os.path.getsize(path)}
        return after

    def verify_x(span, args, kwargs, result):
        params = args[0] if args else kwargs["params"]
        span.attrs = {"x": params.x}

    def text_bytes(span, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        span.attrs = {"bytes": len(text.encode("utf-8"))}

    wrap_span(tracer, "bmixlhv.cli.main", "cli.main")
    wrap_span(tracer, "bmixlhv.streams.uniform_pair_block", "streams.uniform_pair_block", pairs)
    wrap_span(tracer, "bmixlhv.model.rho_table", "model.rho_table", timed_table)
    wrap_span(tracer, "bmixlhv.model.flavour_window_codes", "model.flavour_window")
    wrap_span(tracer, "bmixlhv.model.inverse_n", "model.inverse_n")
    wrap_span(tracer, "bmixlhv.montecarlo.generate", "montecarlo.generate", batch_stats)
    wrap_span(tracer, "bmixlhv.montecarlo.generate_events", "montecarlo.generate_events")
    wrap_span(tracer, "bmixlhv.montecarlo.write_events", "montecarlo.write_events", file_bytes(2))
    wrap_span(tracer, "bmixlhv.montecarlo.read_events", "montecarlo.read_events", file_bytes(0))
    wrap_span(tracer, "bmixlhv.analysis.bin_events", "analysis.bin_events")
    wrap_span(tracer, "bmixlhv.analysis.goodness_of_fit", "analysis.goodness_of_fit")
    wrap_span(tracer, "bmixlhv.analysis.bin_table", "analysis.bin_table")
    wrap_span(tracer, "bmixlhv.verification.full_verification",
              "verification.full_verification", verify_x)
    wrap_span(tracer, "bmixlhv.verification.reconstruct_joint", "verification.reconstruct_joint")
    wrap_span(tracer, "bmixlhv.verification.check_normalizations",
              "verification.check_normalizations")
    wrap_span(tracer, "bmixlhv.verification.check_i_kl", "verification.check_i_kl")
    wrap_count(tracer, "bmixlhv.verification.quad", "verification.quad_calls")
    for name in ("conditional_rate", "joint_density", "i_kl", "conditional_from_joint",
                 "asymmetry", "rate_curve"):
        wrap_span(tracer, f"bmixlhv.quantum.{name}", f"quantum.{name}")
    wrap_span(tracer, "bmixlhv.reporting.write_text", "reporting.write_text", text_bytes)


# ---------------------------------------------------------------------------
# analysis of dumped traces

def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["spans"] = [dict(zip(("id", "parent", "name", "start", "end", "thread", "attrs"), s))
                     for s in data["spans"]]
    return data


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def nesting_errors(trace: dict, slack: float = 1e-6) -> list[str]:
    """Spans whose parent is unknown or that are not inside their parent."""
    by_id = {s["id"]: s for s in trace["spans"]}
    errors = []
    for s in trace["spans"]:
        if s["end"] < s["start"]:
            errors.append(f"{s['name']}#{s['id']} ends before it starts")
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"{s['name']}#{s['id']} has unknown parent {s['parent']}")
        elif s["start"] < parent["start"] - slack or s["end"] > parent["end"] + slack:
            errors.append(f"{s['name']}#{s['id']} lies outside parent {parent['name']}")
    return errors


def _children(spans) -> dict:
    out = defaultdict(list)
    for s in spans:
        out[s["parent"]].append(s)
    return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_self_s(span: dict, children: dict) -> float:
    """Duration of ``span`` minus the time covered by its nearest descendant
    spans of other layers (descendants of the same layer count as self)."""
    layer = layer_of(span["name"])
    covered = []
    todo = list(children.get(span["id"], ()))
    while todo:
        child = todo.pop()
        if layer_of(child["name"]) == layer:
            todo.extend(children.get(child["id"], ()))
        else:
            covered.append((max(child["start"], span["start"]), min(child["end"], span["end"])))
    return (span["end"] - span["start"]) - _union_length(covered)


# name -> (unit, entry points it needs)
PER_LAYER = {
    "cli.self_s": ("s", ["cli.main"]),
    "streams.pairs": ("count", ["streams.uniform_pair_block"]),
    "streams.calls": ("count", ["streams.uniform_pair_block"]),
    "streams.busy_s": ("s", ["streams.uniform_pair_block"]),
    "streams.pairs_per_s": ("1/s", ["streams.uniform_pair_block"]),
    "model.rho_table_s": ("s", ["model.rho_table"]),
    "model.rho_eval_s": ("s", ["model.rho_table"]),
    "model.rho_eval_points": ("count", ["model.rho_table"]),
    "model.flavour_window_s": ("s", ["model.flavour_window_codes"]),
    "model.inverse_n.calls": ("count", ["model.inverse_n"]),
    "model.inverse_n.busy_s": ("s", ["model.inverse_n"]),
    "montecarlo.generate.self_s": ("s", ["montecarlo.generate"]),
    "montecarlo.lambda_acceptance": ("ratio", ["montecarlo.generate"]),
    "montecarlo.t2_acceptance": ("ratio", ["montecarlo.generate"]),
    "montecarlo.lambda_proposals": ("count", ["montecarlo.generate"]),
    "montecarlo.t2_proposals": ("count", ["montecarlo.generate"]),
    "montecarlo.rejection_rounds": ("count", ["montecarlo.generate_events",
                                              "streams.uniform_pair_block"]),
    "montecarlo.write_events_s": ("s", ["montecarlo.write_events"]),
    "montecarlo.read_events_s": ("s", ["montecarlo.read_events"]),
    "montecarlo.event_file_bytes": ("B", ["montecarlo.write_events"]),
    "montecarlo.write_mb_per_s": ("MB/s", ["montecarlo.write_events"]),
    "montecarlo.read_mb_per_s": ("MB/s", ["montecarlo.read_events"]),
    "analysis.bin_events_s": ("s", ["analysis.bin_events"]),
    "analysis.goodness_of_fit_s": ("s", ["analysis.goodness_of_fit"]),
    "analysis.bin_table_s": ("s", ["analysis.bin_table"]),
    **{f"verification.full_verification_s.x{x!r}": ("s", ["verification.full_verification"])
       for x in VERIFY_X},
    "verification.reconstruct_joint.calls": ("count", ["verification.reconstruct_joint"]),
    "verification.reconstruct_joint.busy_s": ("s", ["verification.reconstruct_joint"]),
    "verification.check_normalizations_s": ("s", ["verification.check_normalizations"]),
    "verification.check_i_kl_s": ("s", ["verification.check_i_kl"]),
    "verification.quad_calls": ("count", ["verification.quad"]),
    "quantum.busy_s": ("s", ["quantum.joint_density"]),
    "reporting.write_text_s": ("s", ["reporting.write_text"]),
    "reporting.bytes_written": ("B", ["reporting.write_text"]),
}


def per_layer_metrics(traces: list[dict]) -> dict:
    """Per-layer values (floats, or None when absent) over the trace files of
    one workload iteration."""
    counters = Counter()
    absent = set()
    by_name = defaultdict(list)
    outer = defaultdict(list)  # layer -> spans whose parent is another layer
    self_s = defaultdict(float)
    rounds = [0]
    for trace in traces:
        counters.update(trace["counters"])
        absent.update(name.removeprefix("bmixlhv.") for name in trace["absent"])
        by_id = {s["id"]: s for s in trace["spans"]}
        children = _children(trace["spans"])
        for s in trace["spans"]:
            by_name[s["name"]].append(s)
            parent = by_id.get(s["parent"])
            if parent is None or layer_of(parent["name"]) != layer_of(s["name"]):
                outer[layer_of(s["name"])].append(s)
            if s["name"] in ("cli.main", "montecarlo.generate"):
                self_s[s["name"]] += layer_self_s(s, children)
            if s["name"] == "montecarlo.generate_events":
                rounds.append(sum(1 for c in children.get(s["id"], ())
                                  if c["name"] == "streams.uniform_pair_block"))

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def busy(layer):
        return sum(s["end"] - s["start"] for s in outer[layer])

    def attr_sum(name, key):
        return sum((s["attrs"] or {}).get(key, 0) for s in by_name[name])

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    pairs = attr_sum("streams.uniform_pair_block", "pairs")
    events = attr_sum("montecarlo.generate", "events")
    lam_props = attr_sum("montecarlo.generate", "lambda_proposals")
    t2_props = attr_sum("montecarlo.generate", "t2_proposals")
    written = attr_sum("montecarlo.write_events", "bytes")
    read = attr_sum("montecarlo.read_events", "bytes")
    verify_by_x = defaultdict(float)
    for s in by_name["verification.full_verification"]:
        verify_by_x[(s["attrs"] or {}).get("x")] += s["end"] - s["start"]

    values = {
        "cli.self_s": self_s["cli.main"],
        "streams.pairs": pairs,
        "streams.calls": len(by_name["streams.uniform_pair_block"]),
        "streams.busy_s": busy("streams"),
        "streams.pairs_per_s": rate(pairs, busy("streams")),
        "model.rho_table_s": total("model.rho_table"),
        "model.rho_eval_s": total("model.rho_eval"),
        "model.rho_eval_points": attr_sum("model.rho_eval", "points"),
        "model.flavour_window_s": total("model.flavour_window"),
        "model.inverse_n.calls": len(by_name["model.inverse_n"]),
        "model.inverse_n.busy_s": total("model.inverse_n"),
        "montecarlo.generate.self_s": self_s["montecarlo.generate"],
        "montecarlo.lambda_acceptance": rate(events, lam_props),
        "montecarlo.t2_acceptance": rate(events, t2_props),
        "montecarlo.lambda_proposals": lam_props,
        "montecarlo.t2_proposals": t2_props,
        "montecarlo.rejection_rounds": max(rounds),
        "montecarlo.write_events_s": total("montecarlo.write_events"),
        "montecarlo.read_events_s": total("montecarlo.read_events"),
        "montecarlo.event_file_bytes": written,
        "montecarlo.write_mb_per_s": rate(written / 1e6, total("montecarlo.write_events")),
        "montecarlo.read_mb_per_s": rate(read / 1e6, total("montecarlo.read_events")),
        "analysis.bin_events_s": total("analysis.bin_events"),
        "analysis.goodness_of_fit_s": total("analysis.goodness_of_fit"),
        "analysis.bin_table_s": total("analysis.bin_table"),
        **{f"verification.full_verification_s.x{x!r}": verify_by_x[x] for x in VERIFY_X},
        "verification.reconstruct_joint.calls": len(by_name["verification.reconstruct_joint"]),
        "verification.reconstruct_joint.busy_s": total("verification.reconstruct_joint"),
        "verification.check_normalizations_s": total("verification.check_normalizations"),
        "verification.check_i_kl_s": total("verification.check_i_kl"),
        "verification.quad_calls": counters["verification.quad_calls"],
        "quantum.busy_s": busy("quantum"),
        "reporting.write_text_s": total("reporting.write_text"),
        "reporting.bytes_written": attr_sum("reporting.write_text", "bytes"),
    }
    return {name: (None if any(need in absent for need in needs) else float(values[name]))
            for name, (unit, needs) in PER_LAYER.items()}
