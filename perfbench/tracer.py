"""Span tracer that wraps covmin's layer entry points from the outside.

Each entry point is replaced, where its caller looks it up, by a wrapper
that records a span: name, parent span, pipeline call, start and end. Spans
are kept in flat arrays in memory and written out once, when the benchmark
ends. Entry points that are not called in a traced run yield no metric at
all, so an entry point that moved reads as missing rather than as 0 s.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path) of every wrapped entry point, as its caller sees it.
ENTRY_POINTS = (
    ("covmin.blocks", "preprocess_all"),
    ("covmin.blocks", "cluster_outputs"),
    ("covmin.blocks", "cluster_actions"),
    ("covmin.blocks", "pairwise_matrix"),
    ("covmin.blocks", "select_hyperparams"),
    ("covmin.harness", "build_coverage"),
    ("covmin.harness", "reduce_problem"),
    ("covmin.harness", "mocco_run"),
    ("covmin.search", "valid_orders_gain"),
    ("covmin.search", "ComponentProblem.exposure"),
)
RUN_PIPELINE = "harness.run_pipeline"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _grid_size(values, grid) -> int:
    """Hyper-parameter grid points for a matrix, enumerated here from the grid
    definition rather than through the clustering module."""
    if grid.algo == "kmeans":
        lo, hi = grid.k_range
        return max(0, min(hi, len(values)) - max(1, lo) + 1)
    step = grid.eps_step
    if step is None:
        step = 1.0 if np.array_equal(values, np.round(values)) else 0.5
    lo, hi = grid.eps_range
    eps_points = 0
    eps = lo
    while eps <= hi + 1e-9:
        eps_points += 1
        eps += step
    mn_lo, mn_hi = grid.min_neighbors_range
    return eps_points * max(0, mn_hi - mn_lo + 1)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# What each entry point's span records besides its time: f(args, result) -> dict.
_OBSERVE = {
    "blocks.preprocess_all": lambda args, docs: {
        "pages": len(docs),
        "unique_docs": len(set(docs.values())),
        "tokens": sum(len(d.tokens) for d in docs.values()),
    },
    "blocks.pairwise_matrix": lambda args, m: {
        "pairs": _pairs(len(args[0])),
        "unique_pairs": _pairs(len(set(args[0]))),
    },
    "blocks.select_hyperparams": lambda args, choice: {
        "points": len(args[0].values),
        "grid_points": _grid_size(args[0].values, args[1]),
        "classes": len(set(choice.labels)),
    },
    "harness.build_coverage": lambda args, coverage: {
        "blocks": len(coverage.all_blocks()),
    },
    "harness.reduce_problem": lambda args, red: {
        "iterations": red.iterations,
        "necessary": len(red.necessary),
        "components": len(red.components),
        "max_component": max((len(c.inputs) for c in red.components), default=0),
    },
}


class FallbackCounter(logging.Handler):
    """Counts the reduction module's degraded-mode WARNING records."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.reset()

    def emit(self, record: logging.LogRecord) -> None:
        if "overlap neighbors" in str(record.msg):
            self.neighbor_cap_hits += 1
        elif "exhaustive threshold" in str(record.msg):
            self.greedy_fallbacks += 1

    def reset(self) -> None:
        self.neighbor_cap_hits = 0
        self.greedy_fallbacks = 0


class Tracer:
    """Spans of the wrapped entry points, in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.missing: list[str] = []
        self.call_id = -1
        self.origin = time.perf_counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def traced(self, fn, name: str):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        observe = _OBSERVE.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.call.append(self.call_id)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if observe is not None:
                self.attrs[span] = observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point that exists; remember the rest as missing."""
        for module_name, attr in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(span_name(module_name, attr))
                continue
            setattr(owner, leaf, self.traced(original, span_name(module_name, attr)))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def spans_of_call(self, call: int):
        """(name, parent name, duration, self time, attrs) of every span of
        one pipeline call."""
        ids = [s for s in range(len(self.start)) if self.call[s] == call]
        child_time = defaultdict(float)
        for s in ids:
            if self.parent[s] >= 0:
                child_time[self.parent[s]] += self.end[s] - self.start[s]
        out = []
        for s in ids:
            p = self.parent[s]
            duration = self.end[s] - self.start[s]
            out.append((
                self.names[self.name[s]],
                self.names[self.name[p]] if p >= 0 else None,
                duration,
                duration - child_time[s],
                self.attrs.get(s, {}),
            ))
        return out

    def write(self, path, header: dict) -> None:
        """One JSON object: the header, the span name table and the spans as
        parallel columns (times in seconds from the tracer's creation)."""
        payload = dict(header)
        payload["names"] = self.names
        payload["spans"] = {
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "call": self.call.tolist(),
            "start_s": [round(t - self.origin, 7) for t in self.start],
            "end_s": [round(t - self.origin, 7) for t in self.end],
        }
        payload["attrs"] = {str(s): a for s, a in sorted(self.attrs.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


PREPROCESS = ("blocks.preprocess_all", None)
OUTPUT_MATRIX = ("blocks.pairwise_matrix", "blocks.cluster_outputs")
ACTION_MATRIX = ("blocks.pairwise_matrix", "blocks.cluster_actions")
OUTPUT_SELECT = ("blocks.select_hyperparams", "blocks.cluster_outputs")
ACTION_SELECT = ("blocks.select_hyperparams", "blocks.cluster_actions")
COVERAGE = ("harness.build_coverage", None)
REDUCE = ("harness.reduce_problem", None)
PIPELINE = (RUN_PIPELINE, None)

# metric: (unit, source span as (name, parent name or None for any parent),
# value). The value is the spans' total "time", their "self" time, their
# "calls", or the sum of a count the spans recorded. Sources of None are
# filled in by `call_metrics` and the benchmark itself.
LAYER_METRICS = {
    "dataset.preprocess_s": ("s", PREPROCESS, "time"),
    "dataset.pages": ("count", PREPROCESS, "pages"),
    "dataset.unique_docs": ("count", PREPROCESS, "unique_docs"),
    "dataset.tokens": ("count", PREPROCESS, "tokens"),
    "distance.output_matrix_s": ("s", OUTPUT_MATRIX, "time"),
    "distance.output_pairs": ("count", OUTPUT_MATRIX, "pairs"),
    "distance.output_unique_pairs": ("count", OUTPUT_MATRIX, "unique_pairs"),
    "distance.output_us_per_pair": ("us", OUTPUT_MATRIX, None),
    "distance.action_matrix_s": ("s", ACTION_MATRIX, "time"),
    "distance.action_pairs": ("count", ACTION_MATRIX, "pairs"),
    "clustering.output_select_s": ("s", OUTPUT_SELECT, "time"),
    "clustering.output_points": ("count", OUTPUT_SELECT, "points"),
    "clustering.output_grid_points": ("count", OUTPUT_SELECT, "grid_points"),
    "clustering.output_classes": ("count", OUTPUT_SELECT, "classes"),
    "clustering.action_select_s": ("s", ACTION_SELECT, "time"),
    "clustering.action_select_calls": ("count", ACTION_SELECT, "calls"),
    "clustering.action_grid_points": ("count", ACTION_SELECT, "grid_points"),
    "blocks.build_coverage_s": ("s", COVERAGE, "time"),
    "blocks.self_s": ("s", COVERAGE, "self"),
    "blocks.blocks": ("count", COVERAGE, "blocks"),
    "blocks.action_parts": ("count", ("blocks.cluster_actions", None), "calls"),
    "reduction.reduce_s": ("s", REDUCE, "time"),
    "reduction.iterations": ("count", REDUCE, "iterations"),
    "reduction.necessary": ("count", REDUCE, "necessary"),
    "reduction.components": ("count", REDUCE, "components"),
    "reduction.max_component": ("count", REDUCE, "max_component"),
    "reduction.neighbor_cap_hits": ("count", None, None),
    "reduction.greedy_fallbacks": ("count", None, None),
    "search.mocco_s": ("s", ("harness.mocco_run", None), "time"),
    "search.mocco_calls": ("count", ("harness.mocco_run", None), "calls"),
    "search.gain_s": ("s", ("search.valid_orders_gain", None), "time"),
    "search.gain_calls": ("count", ("search.valid_orders_gain", None), "calls"),
    "search.exposure_s": ("s", ("search.exposure", None), "time"),
    "search.exposure_calls": ("count", ("search.exposure", None), "calls"),
    "harness.run_pipeline_s": ("s", PIPELINE, "time"),
    "harness.self_s": ("s", PIPELINE, "self"),
    "trace.overhead_frac": ("ratio", PIPELINE, None),
}


def call_metrics(spans, fallbacks: FallbackCounter) -> dict[str, float]:
    """Per-layer values of one traced pipeline call. A metric whose source
    span never occurred is absent."""
    totals = defaultdict(int)  # (span, parent or None, value kind) -> sum
    for name, parent, duration, self_time, attrs in spans:
        for key in {(name, None), (name, parent)}:
            totals[key, "time"] += duration
            totals[key, "self"] += self_time
            totals[key, "calls"] += 1
            for attr, value in attrs.items():
                totals[key, attr] += value

    out = {}
    for metric, (_, source, value) in LAYER_METRICS.items():
        if source is not None and value is not None and totals[source, "calls"]:
            out[metric] = totals[source, value]
    if "distance.output_pairs" in out and out["distance.output_pairs"]:
        out["distance.output_us_per_pair"] = (
            out["distance.output_matrix_s"] / out["distance.output_pairs"] * 1e6)
    out["reduction.neighbor_cap_hits"] = fallbacks.neighbor_cap_hits
    out["reduction.greedy_fallbacks"] = fallbacks.greedy_fallbacks
    return out


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced calls of every metric present in all of them."""
    common = set.intersection(*(set(m) for m in per_call)) if per_call else set()
    return {k: statistics.median(m[k] for m in per_call) for k in sorted(common)}
