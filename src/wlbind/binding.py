"""Binding graphs: one extra degree-2 vertex glued onto every basic pair."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ._refine import check_order
from .graphs import BLANK, EDGE, LabeledGraph, Partition, Permutation, SimpleGraph
from .wl import StableGraph

CellClass = Literal["basic", "binding", "mixed"]

BASIC: CellClass = "basic"
BINDING: CellClass = "binding"
MIXED: CellClass = "mixed"


@dataclass(frozen=True)
class BindingGraph:
    """A simple graph of order n(n+1)/2 whose last n(n-1)/2 vertices each bind
    one unordered pair of the first n (basic) vertices."""

    graph: SimpleGraph
    basic_count: int
    pair_index: dict[tuple[int, int], int] = field(repr=False)

    @property
    def order(self) -> int:
        return self.graph.order

    def basic_graph(self) -> SimpleGraph:
        n = self.basic_count
        return SimpleGraph(self.graph.matrix[:n, :n])

    def pair_of(self, p: int) -> tuple[int, int]:
        """The basic pair bound by binding vertex p."""
        n = self.basic_count
        if not n < p <= self.order:
            raise ValueError(f"{p} is not a binding vertex (basic count {n})")
        u, v = np.triu_indices(n, 1)  # binder n + r + 1 binds the r-th pair, as in bind
        r = p - n - 1
        return int(u[r]) + 1, int(v[r]) + 1


def bind(g: SimpleGraph) -> BindingGraph:
    """Attach a fresh degree-2 vertex to every unordered pair of vertices.

    Binding vertices are placed after the basic ones, in lexicographic
    pair order, which fixes one canonical naming among the many the
    construction allows. A binding order n(n + 1)/2 above MAX_ORDER is
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
    u, v = np.triu_indices(n, 1)  # the pairs u < v in lexicographic order
    p = np.arange(n, n1)
    m[u, p] = m[p, u] = m[v, p] = m[p, v] = EDGE
    pair_index = dict(zip(zip((u + 1).tolist(), (v + 1).tolist()), (p + 1).tolist()))
    return BindingGraph(graph=SimpleGraph(m), basic_count=n, pair_index=pair_index)


def binding_vertex(b: BindingGraph, u: int, v: int) -> int:
    """The vertex binding the unordered pair {u, v}."""
    n = b.basic_count
    if u == v:
        raise ValueError(f"no binding vertex for the degenerate pair ({u},{u})")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"pair ({u},{v}) out of basic range [1,{n}]")
    return b.pair_index[(min(u, v), max(u, v))]


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
    {u^s, v^s}, found by its rank in the pair order that bind places
    binders in.
    """
    n = b.basic_count
    if s.order != n:
        raise ValueError(f"permutation order {s.order} does not match basic count {n}")
    im = np.array(s.images) - 1
    basic = b.graph.matrix[:n, :n]
    if not np.array_equal(basic[np.ix_(im, im)], basic):
        raise ValueError("permutation is not an automorphism of the basic graph")
    u, v = np.triu_indices(n, 1)  # binder n + r binds the r-th pair, as in bind
    rank = np.empty((n, n), dtype=np.int64)
    rank[u, v] = rank[v, u] = np.arange(u.size)
    return Permutation(tuple((np.concatenate((im, n + rank[im[u], im[v]])) + 1).tolist()))


def classify_cells(b: BindingGraph, p: Partition) -> list[CellClass]:
    """Tag each cell by whether it holds basic vertices, binding vertices, or both."""
    if p.order != b.order:
        raise ValueError(f"partition covers {p.order} vertices, binding graph has {b.order}")
    n = b.basic_count
    out: list[CellClass] = []
    for cell in p.cells:
        has_basic = any(v <= n for v in cell)
        has_binding = any(v > n for v in cell)
        if has_basic and has_binding:
            out.append(MIXED)
        elif has_basic:
            out.append(BASIC)
        else:
            out.append(BINDING)
    return out
