"""Experiment harness: corpora, claim-verification sweeps, benchmarks, reports.

Every experiment returns a plain report dict with a fixed key order
(experiment, engine_version, canonicalization, seed, corpus, cases,
counterexamples, timing). Cases are never silently dropped: each one is
classified agree / disagree / skipped, and every disagreement carries a
counterexample record that re-verifies from its own contents alone.
"""
from __future__ import annotations

import itertools
import json
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from . import __version__
from .binding import BASIC, MIXED, BindingGraph, bind, classify_cells, phi_graph
from .codecs import encode_graph6, parse_graph6
from .decider import decide_iso
from .graphs import EDGE, Partition, Permutation, SimpleGraph, apply_permutation, is_connected
from .oracle import BudgetExceeded, find_isomorphism, orbit_partition
from .wl import (
    CANONICALIZATION,
    StableGraph,
    block_partition,
    equivalent,
    individualize,
    restrict_to_cells,
    stabilize,
)

MAX_ENUM_ORDER = 7
MAX_BENCH_SIZE = 24


def enumerate_graphs(n: int, connected_only: bool = True) -> list[SimpleGraph]:
    """One representative per isomorphism class of order-n simple graphs.

    Exhaustive and exact: the representative is the minimum edge-set
    bitmask over all n! relabelings, listed in ascending mask order. The
    masks are walked in ascending order, and the smallest one not yet
    marked is the minimum of its orbit, so it is the next representative;
    one OR-reduce over the table of the bit each edge slot moves to under
    each relabeling marks all n! of its images. That costs
    (classes) * n! * n(n-1)/2 bit operations and one byte per mask: n = 7
    (1044 classes, 5040 relabelings, 2^21 masks) takes about 0.1 s. n is
    capped at 7.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}, got {n}")
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    slot = np.zeros((n, n), dtype=np.uint32)  # slot[a, b]: the edge slot of pair {a, b}
    for k, (i, j) in enumerate(slots):
        slot[i, j] = slot[j, i] = k
    ends = np.array(slots, dtype=np.intp).reshape(-1, 2)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # image[p, k]: the bit that edge slot k moves to under relabeling perms[p]
    image = np.uint32(1) << slot[perms[:, ends[:, 0]], perms[:, ends[:, 1]]]
    end = 1 << len(slots)
    marked = np.zeros(end + 1, dtype=bool)  # marked[end] stays False: the walk's stop
    out = []
    mask = 0
    while mask < end:
        bits = [k for k in range(len(slots)) if mask >> k & 1]
        marked[np.bitwise_or.reduce(image[:, bits], axis=1)] = True
        g = SimpleGraph.from_edges(n, [(slots[k][0] + 1, slots[k][1] + 1) for k in bits])
        if not connected_only or is_connected(g):
            out.append(g)
        mask += int(marked[mask:].argmin())
    return out


def random_connected_graph(n: int, rng: random.Random) -> SimpleGraph:
    """G(n, 1/2) rejection-sampled until connected."""
    while True:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = SimpleGraph.from_edges(n, edges)
        if is_connected(g):
            return g


def _g6(g: SimpleGraph) -> str:
    return encode_graph6(g).decode("ascii")


def _cells_json(p: Partition) -> list[list[int]]:
    return [list(c) for c in p.cells]


def _new_report(experiment: str, seed: Optional[int], per_n: dict[int, int]) -> dict:
    return {
        "experiment": experiment,
        "engine_version": __version__,
        "canonicalization": CANONICALIZATION,
        "seed": seed,
        "corpus": {"per_n": {str(n): c for n, c in sorted(per_n.items())}},
        "cases": [],
        "counterexamples": [],
        "timing": {"total_ms": 0.0, "per_case_median_ms": 0.0},
    }


def _finish_timing(report: dict, started: float, case_ms: list[float]) -> dict:
    report["timing"]["total_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    report["timing"]["per_case_median_ms"] = (
        round(statistics.median(case_ms), 3) if case_ms else 0.0
    )
    return report


# One case of a sweep: its report entry, the fields of its counterexample
# record beyond id and graphs (None unless the case disagrees), and the
# milliseconds it is timed at.
_Case = tuple[dict, Optional[dict], float]


def _sweep(
    experiment: str, max_n: int, cases: Callable[[int, list[SimpleGraph]], Iterator[_Case]]
) -> dict:
    """Run an experiment on every connected graph of order 2..max_n, one per
    isomorphism class; cases(n, graphs) yields the cases of one order."""
    if not 2 <= max_n <= MAX_ENUM_ORDER:
        raise ValueError(f"{experiment} sweep supports 2 <= max_n <= {MAX_ENUM_ORDER}")
    started = time.perf_counter()
    corpus = {n: enumerate_graphs(n) for n in range(2, max_n + 1)}
    report = _new_report(experiment, None, {n: len(gs) for n, gs in corpus.items()})
    case_ms: list[float] = []
    for n, graphs in corpus.items():
        for case, record, ms in cases(n, graphs):
            report["cases"].append(case)
            case_ms.append(ms)
            if record is not None:
                report["counterexamples"].append(
                    {"id": case["id"], "graphs": case["graphs"], **record}
                )
    return _finish_timing(report, started, case_ms)


def _skipped(case: dict, exc: BudgetExceeded, oracle: bool = True) -> dict:
    """case marked as skipped: the referee's search ran out of its budget."""
    if oracle:
        case["oracle"] = "skipped"
    case["agree"] = None
    case["skip_reason"] = str(exc)
    return case


def run_agreement(max_n: int) -> dict:
    """Procedure-vs-oracle sweep over all unordered pairs (self-pairs included)
    of equal-order connected graphs up to max_n. A case is timed by its
    decision alone."""

    def cases(n: int, graphs: list[SimpleGraph]) -> Iterator[_Case]:
        for i in range(len(graphs)):
            for j in range(i, len(graphs)):
                g, h = graphs[i], graphs[j]
                verdict = decide_iso(g, h)
                case = {
                    "id": f"n{n}:{i}-{j}",
                    "graphs": [_g6(g), _g6(h)],
                    "gi": "iso" if verdict.isomorphic else "noniso",
                }
                try:
                    witness = find_isomorphism(g, h)
                except BudgetExceeded as exc:
                    yield _skipped(case, exc), None, verdict.timing_ms
                    continue
                case["oracle"] = "iso" if witness is not None else "noniso"
                case["agree"] = (witness is not None) == verdict.isomorphic
                record = None if case["agree"] else {
                    "kind": "agreement",
                    "gi": case["gi"],
                    "oracle": case["oracle"],
                    "witness": list(witness.images) if witness else None,
                    "shared_basic_cells": [list(c) for c in verdict.shared_basic_cells],
                    "stable_dim": verdict.stable_dim,
                    "rounds": verdict.rounds,
                }
                yield case, record, verdict.timing_ms

    return _sweep("agreement", max_n, cases)


def run_orbit_check(max_n: int) -> dict:
    """Stable partition of each binding graph versus its true orbit partition.
    A case is timed from bind through the oracle."""

    def cases(n: int, graphs: list[SimpleGraph]) -> Iterator[_Case]:
        for i, g in enumerate(graphs):
            t0 = time.perf_counter()
            b = bind(g)
            x = stabilize(b.graph)
            case = {"id": f"n{n}:{i}", "graphs": [_g6(g)], "gi": _cells_json(x.cells)}
            try:
                orbits = orbit_partition(b.graph)
            except BudgetExceeded as exc:
                yield _skipped(case, exc), None, (time.perf_counter() - t0) * 1000.0
                continue
            case["oracle"] = _cells_json(orbits)
            case["agree"] = x.cells == orbits
            # colors are automorphism-invariant, so cells must at least be
            # unions of orbits even if the headline claim fails
            case["cells_are_orbit_unions"] = orbits.refines(x.cells)
            record = None if case["agree"] else {
                "kind": "orbit", "wl_cells": case["gi"], "oracle_orbits": case["oracle"]
            }
            yield case, record, (time.perf_counter() - t0) * 1000.0

    return _sweep("orbit-check", max_n, cases)


def _subset_family(num_cells: int) -> list[tuple[int, ...]]:
    """Cell-index subsets to probe with the restriction check.

    Exhaustive when small; beyond 8 cells a structured family (drop-one,
    keep-one, first-half) keeps the sweep polynomial.
    """
    idx = range(num_cells)
    if num_cells <= 8:
        out = []
        for r in range(1, num_cells + 1):
            out.extend(itertools.combinations(idx, r))
        return out
    out = [tuple(idx)]
    out.extend(tuple(i for i in idx if i != d) for d in idx)
    out.extend((i,) for i in idx)
    out.append(tuple(i for i in idx if i < num_cells // 2))
    return out


def _check_individualization(x: StableGraph) -> bool:
    for u in range(1, x.order + 1):
        if stabilize(individualize(x, u)).cells != block_partition(x, u):
            return False
    return True


def _check_restriction(x: StableGraph) -> bool:
    for keep in _subset_family(len(x.cells.cells)):
        try:
            restrict_to_cells(x, keep)
        except ValueError:
            return False
    return True


def _check_phi(b: BindingGraph, x: StableGraph) -> bool:
    return equivalent(stabilize(phi_graph(b, x)).graph, x.graph)


def _check_edge_color_separation(b: BindingGraph, x: StableGraph) -> bool:
    """Binding-edge colors over edge pairs and non-edge pairs never mix, and
    (for basic order > 2) basic-edge colors avoid binding-edge colors."""
    n = b.basic_count
    m = x.graph.matrix.tolist()
    basic = b.graph.matrix.tolist()
    edge_side: set[int] = set()
    nonedge_side: set[int] = set()
    for p, (u, v) in enumerate(b.pairs(), n + 1):
        side = edge_side if basic[u - 1][v - 1] == EDGE else nonedge_side
        side.update((m[p - 1][u - 1], m[u - 1][p - 1], m[p - 1][v - 1], m[v - 1][p - 1]))
    if edge_side & nonedge_side:
        return False
    if n > 2:
        basic_edge_colors = {
            m[u - 1][v - 1]
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and basic[u - 1][v - 1] == EDGE
        }
        if basic_edge_colors & (edge_side | nonedge_side):
            return False
    return True


def _check_pair_label_equivalences(b: BindingGraph, x: StableGraph) -> bool:
    """The label pair on (u,v), the labels on its binding edges, and the label
    of its binding vertex all determine each other: each takes as many
    distinct values over the pairs as the triples of all three do."""
    m = x.graph.matrix.tolist()
    feats = set()
    for p, (u, v) in enumerate(b.pairs(), b.basic_count + 1):
        conn = tuple(sorted((m[u - 1][v - 1], m[v - 1][u - 1])))
        bedges = tuple(sorted((m[u - 1][p - 1], m[v - 1][p - 1])))
        feats.add((conn, bedges, m[p - 1][p - 1]))
    return all(len({f[k] for f in feats}) == len(feats) for k in range(3))


def _check_basic_cells_are_orbits(b: BindingGraph, x: StableGraph) -> bool:
    orbits = {frozenset(c) for c in orbit_partition(b.graph).cells}
    classes = classify_cells(b, x.cells)
    return all(
        frozenset(cell) in orbits
        for cell, cls in zip(x.cells.cells, classes)
        if cls == BASIC
    )


def _check_no_mixed_cells(b: BindingGraph, x: StableGraph) -> bool:
    return MIXED not in classify_cells(b, x.cells)


def claim_checks(g: SimpleGraph) -> dict[str, Callable[[], bool]]:
    """The per-graph structural claims, keyed by name. Each entry is a thunk
    so a single claim can be replayed in isolation."""
    n = g.order
    plain = stabilize(g)
    b = bind(g)
    x = stabilize(b.graph)
    checks: dict[str, Callable[[], bool]] = {
        "individualization-block-partition": lambda: _check_individualization(plain),
        "individualization-block-partition-binding": lambda: _check_individualization(x),
        "restriction-stability": lambda: _check_restriction(plain),
        "restriction-stability-binding": lambda: _check_restriction(x),
        "binding-edge-color-separation": lambda: _check_edge_color_separation(b, x),
        "basic-cells-are-orbits": lambda: _check_basic_cells_are_orbits(b, x),
    }
    if n > 2:
        checks["phi-graph-equivalence"] = lambda: _check_phi(b, x)
        checks["pair-label-equivalences"] = lambda: _check_pair_label_equivalences(b, x)
    if n > 3:
        checks["no-mixed-cells"] = lambda: _check_no_mixed_cells(b, x)
    return checks


def run_lemma_suite(max_n: int) -> dict:
    """Per-graph structural invariants, emitted as a (claim, graph) matrix.
    A case is timed by its claim alone."""

    def cases(n: int, graphs: list[SimpleGraph]) -> Iterator[_Case]:
        for i, g in enumerate(graphs):
            g6 = _g6(g)
            for claim, check in claim_checks(g).items():
                case = {"id": f"{claim}:n{n}:{i}", "graphs": [g6], "claim": claim}
                t0 = time.perf_counter()
                try:
                    case["agree"] = check()
                except BudgetExceeded as exc:
                    _skipped(case, exc, oracle=False)
                ms = (time.perf_counter() - t0) * 1000.0
                record = {"kind": "lemma", "claim": claim} if case["agree"] is False else None
                yield case, record, ms

    return _sweep("lemmas", max_n, cases)


def bench_scaling(
    sizes: list[int],
    samples: int,
    seed: int = 0,
) -> dict:
    """Time the decision procedure on both verdicts at each size.

    Each sample draws a random connected pair (G, H), usually
    non-isomorphic, and times it beside the planted pair (G, G^pi), which is
    isomorphic and the slower verdict. Each case records its time and the
    minor page faults the process took during its decision (minor_faults,
    from getrusage). timing holds a log-log slope through the per-size
    median times of all pairs (null for a single size), per verdict and
    size the median time (verdict_median_ms), and the process's peak RSS
    when the bench ends (peak_rss_mb).
    """
    if not sizes or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be a non-empty, strictly ascending list")
    if any(not 2 <= s <= MAX_BENCH_SIZE for s in sizes):
        raise ValueError(f"sizes must lie in [2, {MAX_BENCH_SIZE}]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    started = time.perf_counter()
    rng = random.Random(seed)
    report = _new_report("bench", seed, {s: 2 * samples for s in sizes})
    case_ms: list[float] = []
    medians: list[float] = []
    by_verdict: dict[str, dict[str, list[float]]] = {"iso": {}, "noniso": {}}

    for size in sizes:
        times: list[float] = []
        for s in range(samples):
            g = random_connected_graph(size, rng)
            h = random_connected_graph(size, rng)
            images = list(range(1, size + 1))
            rng.shuffle(images)
            planted = apply_permutation(g, Permutation(tuple(images)))
            for kind, other in (("random", h), ("planted", planted)):
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                verdict = decide_iso(g, other)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                gi = "iso" if verdict.isomorphic else "noniso"
                times.append(verdict.timing_ms)
                case_ms.append(verdict.timing_ms)
                by_verdict[gi].setdefault(str(size), []).append(verdict.timing_ms)
                report["cases"].append(
                    {
                        "id": f"n{size}:{s}:{kind}",
                        "graphs": [_g6(g), _g6(other)],
                        "gi": gi,
                        "oracle": "skipped",
                        "agree": None,
                        "n": size,
                        "binding_order": size * (2 * size + 1),
                        "ms": round(verdict.timing_ms, 3),
                        "minor_faults": faults,
                    }
                )
        medians.append(statistics.median(times))

    slope = None  # a slope needs two sizes; JSON has no NaN
    if len(sizes) >= 2:
        fit = np.polyfit(np.log([float(s) for s in sizes]), np.log(medians), 1)
        slope = round(float(fit[0]), 4)
    report["timing"]["loglog_slope"] = slope
    report["timing"]["verdict_median_ms"] = {
        gi: {n: round(statistics.median(ms), 3) for n, ms in per_size.items()}
        for gi, per_size in by_verdict.items()
    }
    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["timing"]["peak_rss_mb"] = round(peak_kib / 1024.0, 1)
    return _finish_timing(report, started, case_ms)


_TOP_KEYS = (
    "experiment",
    "engine_version",
    "canonicalization",
    "seed",
    "corpus",
    "cases",
    "counterexamples",
    "timing",
)


def report_to_json(report: dict) -> str:
    """Serialize with one line per case so reports diff cleanly."""
    lines = ["{"]
    for key in _TOP_KEYS:
        val = report.get(key)
        if key in ("cases", "counterexamples"):
            items = [json.dumps(c, sort_keys=True, separators=(", ", ": ")) for c in val]
            if items:
                body = ",\n    ".join(items)
                lines.append(f'  "{key}": [\n    {body}\n  ],')
            else:
                lines.append(f'  "{key}": [],')
        else:
            rendered = json.dumps(val, sort_keys=True, separators=(", ", ": "))
            lines.append(f'  "{key}": {rendered},')
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    try:
        path.write_text(report_to_json(report), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc
    return path


def load_report(path: str | Path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"failed to read report from {path}: {exc}") from exc


# per counterexample kind: the number of graphs and the fields a replay reads
_RECORD_SHAPES = {
    "agreement": (2, ("gi", "witness", "oracle")),
    "orbit": (1, ("wl_cells", "oracle_orbits")),
    "lemma": (1, ("claim",)),
}


def verify_counterexample(record: dict) -> bool:
    """Replay a counterexample from nothing but its own contents.

    A record of an unknown kind, without a field its kind reads, or with
    the wrong number of graphs raises ValueError.
    """
    kind = record.get("kind")
    if kind not in _RECORD_SHAPES:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    count, fields = _RECORD_SHAPES[kind]
    for field in ("graphs", *fields):
        if field not in record:
            raise ValueError(f"{kind} record has no {field!r} field")
    if len(record["graphs"]) != count:
        raise ValueError(f"{kind} record needs {count} graph(s), got {len(record['graphs'])}")
    graphs = [parse_graph6(s) for s in record["graphs"]]
    if kind == "agreement":
        g, h = graphs
        verdict = decide_iso(g, h)
        gi = "iso" if verdict.isomorphic else "noniso"
        if gi != record["gi"]:
            return False
        if record["witness"] is not None:
            p = Permutation(tuple(record["witness"]))
            if apply_permutation(h, p) != g:
                return False
            oracle = "iso"
        else:
            oracle = "iso" if find_isomorphism(g, h) is not None else "noniso"
        return oracle == record["oracle"] and gi != oracle
    if kind == "orbit":
        (g,) = graphs
        b = bind(g)
        x = stabilize(b.graph)
        cells = _cells_json(x.cells)
        orbits = _cells_json(orbit_partition(b.graph))
        return (
            cells == record["wl_cells"]
            and orbits == record["oracle_orbits"]
            and cells != orbits
        )
    (g,) = graphs  # a lemma record
    check = claim_checks(g).get(record["claim"])
    if check is None:
        raise ValueError(f"no claim {record['claim']!r} for a graph of order {g.order}")
    return check() is False
