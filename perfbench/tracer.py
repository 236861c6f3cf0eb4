"""Spans around the calls into the program's modules, recorded from outside.

Each target function is replaced, wherever a wlbind module binds it, by a
wrapper that records a span: name, start, end, parent span and operation
id. Spans are kept in flat in-memory typed arrays and written out when the
run ends. A span's self time is its duration minus the durations of its
child spans, so the self times of all spans under an operation's root span
add up to that operation's traced time. Targets that no longer exist are
reported as absent instead of failing the run.
"""
from __future__ import annotations

import functools
import sys
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

# (span name, module, attribute path); the two exact verifiers share a span
TARGETS = (
    ("refine.refine_once", "_refine", "refine_once"),
    ("refine.pair_hash", "_refine", "_pair_hash"),
    ("refine.verify", "_refine", "_verify_dense"),
    ("refine.verify", "_refine", "_verify_streaming"),
    ("refine.recognize", "_refine", "recognize"),
    ("refine.compact", "_refine", "compact"),
    ("wl.stabilize", "wl", "stabilize"),
    ("wl.certify_stable", "wl", "certify_stable"),
    ("wl.restrict_to_cells", "wl", "restrict_to_cells"),
    ("wl.individualize", "wl", "individualize"),
    ("wl.to_array", "wl", "_to_array"),
    ("wl.from_array", "wl", "_from_array"),
    ("graphs.disjoint_union", "graphs", "disjoint_union"),
    ("graphs.LabeledGraph.__post_init__", "graphs", "LabeledGraph.__post_init__"),
    ("graphs.SimpleGraph.__post_init__", "graphs", "SimpleGraph.__post_init__"),
    ("binding.bind", "binding", "bind"),
    ("binding.phi_graph", "binding", "phi_graph"),
    ("decider.decide_iso", "decider", "decide_iso"),
    ("decider.shared_basic_cells", "decider", "shared_basic_cells"),
    ("oracle.orbit_partition", "oracle", "orbit_partition"),
    ("harness.claim_checks", "harness", "claim_checks"),
)
ROOT = "op"


def _refine_counts(result: Any, counts: dict[str, int]) -> None:
    labels, k = result
    sizes = np.bincount(labels.ravel())
    counts["refine.classes"] += int(k)
    counts["refine.verify_candidates"] += int(labels.size - np.count_nonzero(sizes == 1))


def _stabilize_counts(result: Any, counts: dict[str, int]) -> None:
    counts["wl.rounds"] += result.trace.rounds
    counts["wl.final_dim"] += result.dim()


def _bind_counts(result: Any, counts: dict[str, int]) -> None:
    counts["binding.order"] += result.order


COUNTERS: dict[str, Callable[[Any, dict[str, int]], None]] = {
    "refine.refine_once": _refine_counts,
    "wl.stabilize": _stabilize_counts,
    "binding.bind": _bind_counts,
}
# each count and the span whose return value it is computed from
COUNT_SOURCES = {
    "refine.verify_candidates": "refine.refine_once",
    "refine.classes": "refine.refine_once",
    "wl.rounds": "wl.stabilize",
    "wl.final_dim": "wl.stabilize",
    "binding.order": "binding.bind",
}


def patch(
    module: str, path: str, make_wrapper: Callable[[Callable], Callable]
) -> Callable[[], None] | None:
    """Replace wlbind.<module>.<path> everywhere wlbind binds it.

    Returns a function that undoes the replacement, or None when the target
    does not exist.
    """
    mod = sys.modules.get(f"wlbind.{module}")
    *owner_path, attr = path.split(".")
    owner: Any = mod
    for part in owner_path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    if owner_path:  # a method: the class attribute is the only binding
        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)
    sites = [
        (m, name)
        for mname, m in list(sys.modules.items())
        if mname == "wlbind" or mname.startswith("wlbind.")
        for name, value in vars(m).items()
        if value is original
    ]
    for m, name in sites:
        setattr(m, name, wrapper)
    return lambda: [setattr(m, name, original) for m, name in sites]


class Tracer:
    """Span recorder for one traced run.

    The counts are computed from return values kept until the operation's
    root span has closed, so no span's time includes counting.
    """

    def __init__(self) -> None:
        self.names = list(dict.fromkeys([ROOT] + [name for name, _, _ in TARGETS]))
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNT_SOURCES, 0)
        self.returned: list[tuple[Callable[[Any, dict[str, int]], None], Any]] = []
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self.name_ids[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrapper(self, name: str) -> Callable[[Callable], Callable]:
        counter = COUNTERS.get(name)

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if counter is not None and self.op_id >= 0:
                    self.returned.append((counter, result))
                return result

            return traced

        return make

    def install(self) -> None:
        """Wrap every target; a span name none of whose targets exist is absent."""
        found = set()
        for name, module, path in TARGETS:
            undo = patch(module, path, self._wrapper(name))
            if undo is not None:
                found.add(name)
                self._undo.append(undo)
        self.absent = [name for name in self.names[1:] if name not in found]

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._open(ROOT)

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.op_id = -1
        for counter, result in self.returned:
            counter(result, self.counts)
        self.returned.clear()

    def per_op_metrics(self) -> dict[str, float]:
        """Per-operation means of each span's calls and, where it was called,
        its total and self time, and of the counts."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        total_ms = np.bincount(names, weights=dur, minlength=k) * 1000.0
        self_ms = np.bincount(names, weights=self_time, minlength=k) * 1000.0
        calls = np.bincount(names, minlength=k)
        ops = int(calls[self.name_ids[ROOT]])
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name in self.absent:
                continue
            if name != ROOT:
                out[f"{name}.calls"] = float(calls[nid]) / ops
            if calls[nid]:
                out[f"{name}.ms"] = float(total_ms[nid]) / ops
                out[f"{name}.self_ms"] = float(self_ms[nid]) / ops
        for name, value in self.counts.items():
            if COUNT_SOURCES[name] not in self.absent:
                out[name] = value / ops
        return out

    def write(self, path: Path) -> None:
        """One line per span: op, span id, parent id, name, start and end in ms."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w", encoding="utf-8") as f:
            f.write("op\tspan\tparent\tname\tstart_ms\tend_ms\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.start[i] - t0) * 1000.0:.4f}\t{(self.end[i] - t0) * 1000.0:.4f}\n"
                )


def stabilize_alloc_peak_mb(items: list[Any], op: Callable[[Any], Any]) -> float | None:
    """Largest traced allocation peak of one stabilize call over the items.

    Runs apart from the timed spans, since tracemalloc slows every
    allocation. None when wl.stabilize does not exist.
    """
    peak = 0

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def measured(*args: Any, **kwargs: Any) -> Any:
            nonlocal peak
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

        return measured

    undo = patch("wl", "stabilize", make)
    if undo is None:
        return None
    tracemalloc.start()
    try:
        for item in items:
            op(item)
    finally:
        tracemalloc.stop()
        undo()
    return peak / 2**20
