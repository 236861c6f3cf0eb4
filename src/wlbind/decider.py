"""The end-to-end isomorphism decision: union, bind, stabilize, inspect cells."""
from __future__ import annotations

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

    isomorphic is read off shared_basic_cells, so the two cannot disagree;
    the remaining fields make the verdict self-contained for counterexample
    records.
    """

    shared_basic_cells: tuple[tuple[int, ...], ...]
    stable_dim: int
    rounds: int
    timing_ms: float
    reason: Optional[str] = None

    @property
    def isomorphic(self) -> bool:
        """Whether some basic cell holds vertices of both halves."""
        return bool(self.shared_basic_cells)

    @property
    def decision(self) -> str:
        return "isomorphic" if self.isomorphic else "non-isomorphic"


def shared_basic_cells(b: BindingGraph, p: Partition) -> list[tuple[int, ...]]:
    """Basic cells containing vertices from both halves of the union b binds.

    The halves are 1..n and n+1..2n, n half of b's basic count, so a basic
    cell holds no vertex above 2n; being sorted, it meets both halves exactly
    when its first vertex is at most n and its last is above n. An odd basic
    count means b binds no two-half union, and is rejected.
    """
    n, odd = divmod(b.basic_count, 2)
    if odd:
        raise ValueError(f"basic count {b.basic_count} is odd: b binds no union of two halves")
    classes = classify_cells(b, p)
    return [cell for cell, cls in zip(p.cells, classes) if cls == BASIC and cell[0] <= n < cell[-1]]


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
    return GiVerdict(
        shared_basic_cells=tuple(tuple(c) for c in shared_basic_cells(b, x.cells)),
        stable_dim=x.dim(),
        rounds=x.trace.rounds,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )
