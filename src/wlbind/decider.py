"""The end-to-end isomorphism decision: union, bind, stabilize, inspect cells."""
from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Optional

from ._refine import check_order
from .binding import BASIC, BindingGraph, bind, classify_cells
from .graphs import Partition, SimpleGraph, disjoint_union, is_connected
from .wl import stabilize


@dataclass(frozen=True)
class GiVerdict:
    """Decision plus the evidence it was read off from.

    isomorphic is true exactly when shared_basic_cells is non-empty; the
    remaining fields make the verdict self-contained for counterexample
    records.
    """

    isomorphic: bool
    shared_basic_cells: tuple[tuple[int, ...], ...]
    stable_dim: int
    rounds: int
    timing_ms: float
    reason: Optional[str] = None

    @property
    def decision(self) -> str:
        return "isomorphic" if self.isomorphic else "non-isomorphic"


def shared_basic_cells(b: BindingGraph, p: Partition, n: int) -> list[tuple[int, ...]]:
    """Basic cells containing vertices from both halves of a 2n-vertex union.

    A partition's cells are sorted: a cell meets the first half when its
    first vertex is at most n, and the second when the first vertex above n
    is at most 2n.
    """
    classes = classify_cells(b, p)
    out = []
    for cell, cls in zip(p.cells, classes):
        if cls != BASIC or cell[0] > n:
            continue
        above = bisect.bisect_right(cell, n)
        if above < len(cell) and cell[above] <= 2 * n:
            out.append(cell)
    return out


def decide_iso(g: SimpleGraph, h: SimpleGraph) -> GiVerdict:
    """Decide isomorphism of two connected simple graphs of order > 1.

    Builds the binding graph of the disjoint union, stabilizes it, and
    answers by whether some basic cell straddles the two halves. Unequal
    orders short-circuit to non-isomorphic; disconnected inputs are
    rejected (decompose into components first), and so are orders whose
    binding graph n(2n + 1) exceeds MAX_ORDER, before anything is built.
    """
    t0 = time.perf_counter()
    for name, graph in (("first", g), ("second", h)):
        if graph.order < 2:
            raise ValueError(f"{name} input has order {graph.order}; the procedure needs n > 1")
        if not is_connected(graph):
            raise ValueError(
                f"{name} input is disconnected; decide components separately and match them"
            )
    if g.order != h.order:
        return GiVerdict(
            isomorphic=False,
            shared_basic_cells=(),
            stable_dim=0,
            rounds=0,
            timing_ms=(time.perf_counter() - t0) * 1000.0,
            reason=f"order mismatch: {g.order} vs {h.order}",
        )

    n = g.order
    # bind would reject the union too, but only after the O(n^2) union is
    # built, and its message would name the union's order 2n, not the inputs'
    try:
        check_order(n * (2 * n + 1))
    except ValueError as exc:
        raise ValueError(f"inputs of order {n}: binding graph {exc}") from None
    union = disjoint_union(g, h)
    b = bind(union)
    x = stabilize(b.graph)
    shared = shared_basic_cells(b, x.cells, n)
    return GiVerdict(
        isomorphic=bool(shared),
        shared_basic_cells=tuple(tuple(c) for c in shared),
        stable_dim=x.dim(),
        rounds=x.trace.rounds,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )
