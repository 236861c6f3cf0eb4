"""Binding graphs: one extra degree-2 vertex glued onto every basic pair."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._refine import check_order
from .graphs import BLANK, EDGE, LabeledGraph, Partition, Permutation, SimpleGraph
from .wl import StableGraph

CellClass = Literal["basic", "binding", "mixed"]

BASIC: CellClass = "basic"
BINDING: CellClass = "binding"
MIXED: CellClass = "mixed"


def _binder_order(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The binder order, defined here alone: on n basic vertices, binder n + r + 1
    binds the r-th pair u < v in lexicographic order. Returns, 0-based, u and v
    of each pair in that order and the symmetric n x n matrix of their binders."""
    u, v = np.triu_indices(n, 1)
    binder = np.zeros((n, n), dtype=np.int64)
    binder[u, v] = binder[v, u] = np.arange(n, n + u.size)
    return u, v, binder


@dataclass(frozen=True)
class BindingGraph:
    """A simple graph of order n(n+1)/2 whose last n(n-1)/2 vertices each bind
    one unordered pair of the first n (basic) vertices, in the order that
    _binder_order defines and pairs() lists."""

    graph: SimpleGraph
    basic_count: int

    @property
    def order(self) -> int:
        return self.graph.order

    def basic_graph(self) -> SimpleGraph:
        n = self.basic_count
        return SimpleGraph(self.graph.matrix[:n, :n])

    def pairs(self) -> list[tuple[int, int]]:
        """The basic pairs (u, v), u < v, in binder order: binding vertex
        basic_count + r + 1 binds the r-th."""
        u, v, _ = _binder_order(self.basic_count)
        return list(zip((u + 1).tolist(), (v + 1).tolist()))

    def pair_of(self, p: int) -> tuple[int, int]:
        """The basic pair bound by binding vertex p."""
        n = self.basic_count
        if not n < p <= self.order:
            raise ValueError(f"{p} is not a binding vertex (basic count {n})")
        return self.pairs()[p - n - 1]


def bind(g: SimpleGraph) -> BindingGraph:
    """Attach a fresh degree-2 vertex to every unordered pair of vertices.

    Binding vertices are placed after the basic ones, in the lexicographic
    pair order of _binder_order, which fixes one canonical naming among the
    many the construction allows. A binding order n(n + 1)/2 above MAX_ORDER is
    rejected before anything is built.
    """
    n = g.order
    if n < 2:
        raise ValueError("binding graph undefined for basic order < 2")
    n1 = n * (n + 1) // 2
    try:
        check_order(n1)
    except ValueError as exc:
        raise ValueError(f"basic order {n}: binding graph {exc}") from None
    m = np.zeros((n1, n1), dtype=np.int64)
    m[:n, :n] = g.matrix
    u, v, binder = _binder_order(n)
    p = binder[u, v]
    m[u, p] = m[p, u] = m[v, p] = m[p, v] = EDGE
    return BindingGraph(graph=SimpleGraph(m), basic_count=n)


def binding_vertex(b: BindingGraph, u: int, v: int) -> int:
    """The vertex binding the unordered pair {u, v}, in the binder order
    that _binder_order defines."""
    n = b.basic_count
    if u == v:
        raise ValueError(f"no binding vertex for the degenerate pair ({u},{u})")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"pair ({u},{v}) out of basic range [1,{n}]")
    _, _, binder = _binder_order(n)
    return int(binder[u - 1, v - 1]) + 1


def phi_graph(b: BindingGraph, x: StableGraph) -> LabeledGraph:
    """Blank out everything except vertex colors and binding-edge colors.

    Entry (i, j) keeps its stable color when i == j or when (i, j) is a
    binding edge; basic edges and all non-edges become the blank label.
    """
    if x.order != b.order:
        raise ValueError(f"order mismatch: stable graph {x.order}, binding graph {b.order}")
    n = b.basic_count
    keep = b.graph.matrix == EDGE
    keep[:n, :n] = False  # basic edges
    np.fill_diagonal(keep, True)
    return LabeledGraph(np.where(keep, x.graph.matrix, BLANK))


def extend_automorphism(b: BindingGraph, s: Permutation) -> Permutation:
    """Lift a basic-graph automorphism to the whole binding graph.

    Basic vertices move by s; the binder of {u, v} moves to the binder of
    {u^s, v^s}.
    """
    n = b.basic_count
    if s.order != n:
        raise ValueError(f"permutation order {s.order} does not match basic count {n}")
    im = np.array(s.images) - 1
    basic = b.graph.matrix[:n, :n]
    if not np.array_equal(basic[np.ix_(im, im)], basic):
        raise ValueError("permutation is not an automorphism of the basic graph")
    u, v, binder = _binder_order(n)
    return Permutation(tuple((np.concatenate((im, binder[im[u], im[v]])) + 1).tolist()))


def classify_cells(b: BindingGraph, p: Partition) -> list[CellClass]:
    """Tag each cell by whether it holds basic vertices, binding vertices, or both.

    A partition's cells are sorted, so a cell's ends decide its tag: it
    holds a basic vertex when its first is at most the basic count, and a
    binding vertex when its last is above it.
    """
    if p.order != b.order:
        raise ValueError(f"partition covers {p.order} vertices, binding graph has {b.order}")
    n = b.basic_count
    return [BASIC if cell[-1] <= n else BINDING if cell[0] > n else MIXED for cell in p.cells]
