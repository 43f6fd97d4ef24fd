"""Span tracing at fdlab's module boundaries, installed from outside the package.

A `Tracer` replaces, for the duration of a traced run, the names through which
one fdlab layer reaches another (and the benchmark reaches fdlab) with
wrappers that record a span per call: name, start, end, parent span and
request id.  Spans live in flat arrays in memory and are written out once, when
the run ends.  Counts that per-layer ratios need are taken in the same
wrappers, from the call's arguments and result.  Nothing under `src/` changes,
and an untraced run installs nothing.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

import fdlab
import fdlab.checkers
import fdlab.engine
import fdlab.propagators
import fdlab.search
from fdlab.domains import Domain, IntSet

# Layer of each span name; a layer's self time is the time of its spans minus
# the time of their child spans.
SPAN_LAYERS = {
    "modelfile.parse_model": "modelfile",
    "search.solve": "search",
    "engine.propagate_all": "engine",
    "propagators.propagate": "propagators",
    "propagators.propagate_linear_br": "propagators",
    "checkers.check": "checkers",
    "checkers.find_int_support": "checkers",
    "checkers.real_support": "checkers",
    "checkers.scan_linear_np": "checkers",
    "checkers.scan_linear_py": "checkers",
    "constraints.sat_int": "constraints",
    "domains.intset_build": "domains",
    "domains.intset_remove": "domains",
    "domains.intset_clamp": "domains",
    "domains.with_set": "domains",
    "reductions.encode_subset_sum": "reductions",
}

# Every per-layer metric: name, unit, better direction, and the end-to-end
# metric and workload it is expected to move.
LAYER_METRICS = [
    ("modelfile.parse_ms", "ms", "lower", "latency_p50_ms on solve-csp"),
    ("search.nodes", "count", "lower", "requests_per_s on solve-csp"),
    ("search.failures", "count", "lower", "requests_per_s on solve-csp"),
    ("search.fail_ratio", "ratio", "lower", "requests_per_s on solve-csp"),
    ("search.self_ms", "ms", "lower", "requests_per_s on solve-csp"),
    ("engine.calls", "count", "lower",
     "latency_p50_ms on solve-csp; ~1 per request on wide-fixpoint, 0 on subsetsum-check"),
    ("engine.propagator_runs", "count", "lower", "latency_p50_ms on solve-csp"),
    ("engine.changed_run_ratio", "ratio", "higher", "latency_p50_ms on solve-csp"),
    ("engine.self_ms", "ms", "lower", "latency_p50_ms on solve-csp"),
    ("propagators.calls", "count", "lower", "latency_p50_ms on wide-fixpoint and solve-csp"),
    ("propagators.support_queries", "count", "lower",
     "latency_p50_ms on wide-fixpoint and solve-csp"),
    ("propagators.values_pruned", "count", "higher",
     "latency_p50_ms on wide-fixpoint and solve-csp"),
    ("propagators.pruned_per_query", "ratio", "higher",
     "latency_p50_ms on wide-fixpoint and solve-csp"),
    ("propagators.self_ms", "ms", "lower", "latency_p50_ms on wide-fixpoint and solve-csp"),
    ("propagators.linear_br_ms", "ms", "lower", "latency_p50_ms on subsetsum-check"),
    ("checkers.check_calls", "count", "lower", "latency_p50_ms/latency_p90_ms on subsetsum-check"),
    ("checkers.check_ms", "ms", "lower", "latency_p50_ms/latency_p90_ms on subsetsum-check"),
    ("checkers.np_scan_calls", "count", "lower",
     "latency_p50_ms/latency_p90_ms on subsetsum-check"),
    ("checkers.np_scan_ms", "ms", "lower", "latency_p50_ms/latency_p90_ms on subsetsum-check"),
    ("checkers.candidate_tuples", "count", "lower",
     "latency_p50_ms/latency_p90_ms on subsetsum-check"),
    ("checkers.py_scan_calls", "count", "lower", "requests_per_s on solve-csp"),
    ("checkers.int_support_calls", "count", "lower", "requests_per_s on solve-csp"),
    ("checkers.int_support_ms", "ms", "lower", "requests_per_s on solve-csp"),
    ("checkers.support_found_ratio", "ratio", "higher", "requests_per_s on solve-csp"),
    ("checkers.real_support_calls", "count", "lower", "latency_p50_ms on wide-fixpoint"),
    ("checkers.real_support_ms", "ms", "lower", "latency_p50_ms on wide-fixpoint"),
    ("checkers.self_ms", "ms", "lower", "latency_p50_ms on subsetsum-check"),
    ("constraints.sat_int_calls", "count", "lower", "requests_per_s on solve-csp"),
    ("constraints.sat_int_ms", "ms", "lower", "requests_per_s on solve-csp"),
    ("domains.intset_builds", "count", "lower",
     "latency_p50_ms and peak_rss_mb on wide-fixpoint; near-idle on subsetsum-check"),
    ("domains.intset_values_built", "count", "lower",
     "latency_p50_ms and peak_rss_mb on wide-fixpoint; near-idle on subsetsum-check"),
    ("domains.with_set_calls", "count", "lower",
     "latency_p50_ms and peak_rss_mb on wide-fixpoint; near-idle on subsetsum-check"),
    ("domains.intset_ms", "ms", "lower",
     "latency_p50_ms and peak_rss_mb on wide-fixpoint; near-idle on subsetsum-check"),
    ("reductions.encode_ms", "ms", "lower", "setup_s on subsetsum-check"),
    ("tracing.traced_requests_per_s", "1/s", "higher", "tracing overhead, every workload"),
    ("tracing.untraced_requests_per_s", "1/s", "higher", "tracing overhead, every workload"),
    ("tracing.overhead_ratio", "ratio", "lower",
     "untraced / traced requests_per_s on the same requests"),
]

# Counts that must repeat exactly across traced runs of the same seed.
DETERMINISTIC_COUNTS = (
    "search.nodes",
    "search.failures",
    "engine.calls",
    "engine.propagator_runs",
    "propagators.calls",
    "propagators.support_queries",
    "propagators.values_pruned",
    "checkers.check_calls",
    "checkers.np_scan_calls",
    "checkers.py_scan_calls",
    "checkers.int_support_calls",
    "checkers.real_support_calls",
    "checkers.candidate_tuples",
    "constraints.sat_int_calls",
    "domains.intset_builds",
    "domains.intset_values_built",
    "domains.with_set_calls",
)

After = Callable[[Counter, tuple, Any], None]


def _pruned(result) -> int:
    return sum(len(vals) for _, vals in result.pruned)


def _after_search_node(c: Counter, args: tuple, res) -> None:
    c["engine.calls"] += 1
    c["search.nodes"] += 1
    c["search.failures"] += res.failed


def _after_engine_call(c: Counter, args: tuple, res) -> None:
    c["engine.calls"] += 1


def _after_propagator_run(c: Counter, args: tuple, res) -> None:
    c["engine.propagator_runs"] += 1
    c["engine.changed_runs"] += bool(res.failed or res.pruned)
    c["propagators.calls"] += 1
    c["propagators.values_pruned"] += _pruned(res)


def _after_linear_br(c: Counter, args: tuple, res) -> None:
    c["propagators.calls"] += 1
    c["propagators.values_pruned"] += _pruned(res)


def _after_int_support(c: Counter, args: tuple, res) -> None:
    c["checkers.int_support_calls"] += 1
    c["propagators.support_queries"] += 1
    c["checkers.supports_found"] += res is not None


def _after_real_support(c: Counter, args: tuple, res) -> None:
    c["checkers.real_support_calls"] += 1
    c["propagators.support_queries"] += 1
    c["checkers.supports_found"] += bool(res[0])


def _after_check(c: Counter, args: tuple, res) -> None:
    c["checkers.check_calls"] += 1


def _after_scan(kind: str) -> After:
    def after(c: Counter, args: tuple, res) -> None:
        c[f"checkers.{kind}_scan_calls"] += 1
        c["checkers.candidate_tuples"] += math.prod(len(vs) for vs in args[0])

    return after


def _after_sat_int(c: Counter, args: tuple, res) -> None:
    c["constraints.sat_int_calls"] += 1


def _after_intset_build(c: Counter, args: tuple, res) -> None:
    c["domains.intset_builds"] += 1
    c["domains.intset_values_built"] += len(args[0].values)


def _after_with_set(c: Counter, args: tuple, res) -> None:
    c["domains.with_set_calls"] += 1


# (owner, attribute, span name, count hook).  The owner is the module or class
# through which the caller looks the name up at call time.
BOUNDARIES: list[tuple[Any, str, str, After | None]] = [
    (fdlab, "parse_model", "modelfile.parse_model", None),
    (fdlab, "solve", "search.solve", None),
    (fdlab, "propagate_all", "engine.propagate_all", _after_engine_call),
    (fdlab, "check", "checkers.check", _after_check),
    (fdlab, "propagate_linear_br", "propagators.propagate_linear_br", _after_linear_br),
    (fdlab, "encode_subset_sum", "reductions.encode_subset_sum", None),
    (fdlab.search, "propagate_all", "engine.propagate_all", _after_search_node),
    (fdlab.engine, "propagate", "propagators.propagate", _after_propagator_run),
    (fdlab.propagators, "_find_int_support", "checkers.find_int_support", _after_int_support),
    (fdlab.propagators, "_real_support", "checkers.real_support", _after_real_support),
    (fdlab.checkers, "_scan_linear_np", "checkers.scan_linear_np", _after_scan("np")),
    (fdlab.checkers, "_scan_linear_py", "checkers.scan_linear_py", _after_scan("py")),
    (fdlab.checkers, "sat_int", "constraints.sat_int", _after_sat_int),
    (IntSet, "__post_init__", "domains.intset_build", _after_intset_build),
    (IntSet, "remove", "domains.intset_remove", None),
    (IntSet, "clamp", "domains.intset_clamp", None),
    (Domain, "with_set", "domains.with_set", _after_with_set),
]


class Tracer:
    """In-memory span recorder; use as a context manager to install it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Counter = Counter()
        self.request_id = -1
        # Spans are recorded only while active, so that reference checks run
        # between traced requests stay out of the trace.
        self.active = False
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, after: After | None) -> Callable:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack, counts = self.span_start, self.span_end, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, after in BOUNDARIES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, after))
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "request": np.frombuffer(self.span_request, dtype=np.int32),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span, plus the span-name table, as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.span_arrays())

    def times_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total (inclusive) and self milliseconds per span name."""
        spans = self.span_arrays()
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        total = np.bincount(spans["name"], weights=dur, minlength=len(self.names))
        self_ = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        return (
            {n: total[i] / 1e6 for i, n in enumerate(self.names)},
            {n: self_[i] / 1e6 for i, n in enumerate(self.names)},
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS except the tracing.* ones."""
        total, self_ = self.times_ms()
        c = self.counts

        def layer_self(layer: str, prefix: str = "") -> float:
            return sum(
                t for n, t in self_.items()
                if SPAN_LAYERS[n] == layer and n.startswith(prefix)
            )

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {
            "modelfile.parse_ms": total.get("modelfile.parse_model", 0.0),
            "search.self_ms": layer_self("search"),
            "engine.self_ms": layer_self("engine"),
            "propagators.self_ms": layer_self("propagators"),
            "propagators.linear_br_ms": total.get("propagators.propagate_linear_br", 0.0),
            "checkers.check_ms": total.get("checkers.check", 0.0),
            "checkers.np_scan_ms": total.get("checkers.scan_linear_np", 0.0),
            "checkers.int_support_ms": total.get("checkers.find_int_support", 0.0),
            "checkers.real_support_ms": total.get("checkers.real_support", 0.0),
            "checkers.self_ms": layer_self("checkers"),
            "constraints.sat_int_ms": total.get("constraints.sat_int", 0.0),
            "domains.intset_ms": layer_self("domains", "domains.intset"),
            "reductions.encode_ms": total.get("reductions.encode_subset_sum", 0.0),
            "search.fail_ratio": ratio(c["search.failures"], c["search.nodes"]),
            "engine.changed_run_ratio": ratio(
                c["engine.changed_runs"], c["engine.propagator_runs"]
            ),
            "propagators.pruned_per_query": ratio(
                c["propagators.values_pruned"], c["propagators.support_queries"]
            ),
            "checkers.support_found_ratio": ratio(
                c["checkers.supports_found"], c["propagators.support_queries"]
            ),
        }
        for name in DETERMINISTIC_COUNTS:
            m[name] = c[name]
        return m
