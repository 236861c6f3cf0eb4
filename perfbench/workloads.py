"""The benchmark's workloads: seeded inputs, the timed operation, and its check.

Inputs are made by the benchmark itself from the seed (its own G(n, p)
sampler, permutation draw and graph6 encoder) and handed to the program as
graph6 text, so a change to the program's own generators cannot change what
is measured. Each check is computed apart from the refinement engine.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from wlbind import codecs, decider, harness, oracle

ISO_ORDER = 10  # binding order 10 * 21 = 210, above the dense-verify limit
NONISO_ORDER = 12  # binding order 12 * 25 = 300
EDGE_PROBABILITY = 0.5
PAIRS = 32  # of each kind
LEMMA_MAX_ORDER = 6
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}  # OEIS A001349


@dataclass(frozen=True)
class Workload:
    """A run makes whole passes over the input list, in its order.

    The number of passes depends only on the requested seconds, never on
    the program's speed: the seconds divided by pass_seconds, the time one
    pass took when the benchmark was made (2-vCPU VM, Python 3.11), and at
    least min_passes. So every run with the same seed and seconds performs
    the same operations in the same order, and a faster program simply
    finishes sooner.
    """

    name: str
    make_inputs: Callable[[int], tuple[list[Any], bool]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    pass_seconds: float
    min_passes: int

    def passes(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.pass_seconds))


def graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 text for an order-n graph (n < 63) with 1-based edges u < v."""
    bits = [1 if (i, j) in edges else 0 for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_connected_edges(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Edge set of a G(n, 1/2) graph, redrawn until connected."""
    while True:
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < EDGE_PROBABILITY
        }
        if _connected(n, edges):
            return edges


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def iso_inputs(seed: int) -> tuple[list[Any], bool]:
    """PAIRS planted pairs (G, G^pi, pi); pi[u - 1] is the image of vertex u."""
    rng = _rng("decide-iso", seed)
    n = ISO_ORDER
    items = []
    for _ in range(PAIRS):
        edges = random_connected_edges(n, rng)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        moved = {tuple(sorted((pi[u - 1], pi[v - 1]))) for u, v in edges}
        g = codecs.parse_graph6(graph6(n, edges))
        h = codecs.parse_graph6(graph6(n, moved))
        items.append((g, h, pi))
    return items, True


def noniso_inputs(seed: int) -> tuple[list[Any], bool]:
    """PAIRS independent connected G(n, 1/2) pairs, as (G, H, None)."""
    rng = _rng("decide-noniso", seed)
    n = NONISO_ORDER
    items = []
    for _ in range(PAIRS):
        g = codecs.parse_graph6(graph6(n, random_connected_edges(n, rng)))
        h = codecs.parse_graph6(graph6(n, random_connected_edges(n, rng)))
        items.append((g, h, None))
    return items, True


def decide_inputs(seed: int) -> tuple[list[Any], bool]:
    """Planted isomorphic and independent pairs, alternating."""
    iso, _ = iso_inputs(seed)
    non, _ = noniso_inputs(seed)
    return [item for pair in zip(iso, non) for item in pair], True


def lemma_inputs(seed: int) -> tuple[list[Any], bool]:
    """Every connected graph of order 2..6, in an order drawn from the seed.

    The second value is false when the corpus does not have the known
    number of connected graphs of each order.
    """
    corpus = []
    counts_ok = True
    for n in range(2, LEMMA_MAX_ORDER + 1):
        graphs = harness.enumerate_graphs(n)
        counts_ok &= len(graphs) == CONNECTED_COUNTS[n]
        corpus.extend(codecs.parse_graph6(graph6(n, set(g.edges()))) for g in graphs)
    _rng("lemmas-n6", seed).shuffle(corpus)
    return corpus, counts_ok


def decide(item: Any) -> Any:
    return decider.decide_iso(item[0], item[1])


def check_decision(item: Any, verdict: Any) -> bool:
    """A planted pair (pi given) must be isomorphic, with each basic u in a
    basic cell with n + pi(u): the half-swapping automorphism of the union
    preserves stable colours. An independent pair must be non-isomorphic,
    as the brute-force oracle confirms."""
    g, h, pi = item
    if pi is None:
        return not verdict.isomorphic and oracle.find_isomorphism(g, h) is None
    n = g.order
    cell_of = {v: k for k, cell in enumerate(verdict.shared_basic_cells) for v in cell}
    return verdict.isomorphic and all(
        u in cell_of and cell_of[u] == cell_of.get(n + pi[u - 1]) for u in range(1, n + 1)
    )


def claims(g: Any) -> dict[str, bool]:
    return {name: fn() for name, fn in harness.claim_checks(g).items()}


def check_claims(g: Any, results: dict[str, bool]) -> bool:
    return len(results) >= 6 and all(v is True for v in results.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide", decide_inputs, decide, check_decision, 25.0, 2),
        # the two halves of "decide" on their own, for a per-verdict breakdown
        Workload("decide-iso", iso_inputs, decide, check_decision, 11.0, 2),
        Workload("decide-noniso", noniso_inputs, decide, check_decision, 14.0, 2),
        Workload("lemmas-n6", lemma_inputs, claims, check_claims, 5.0, 1),
    )
}
