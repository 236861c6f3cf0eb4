"""Brute-force isomorphism, automorphism groups, and orbits for small graphs.

This module is the independent referee for everything the refinement
engine claims, so it deliberately shares no machinery with it and
imports nothing from the package but the graph types: plain backtracking
over color/degree-compatible assignments, an explicit node budget
(WLBIND_ORACLE_BUDGET) instead of silent slowness, and witnesses that
re-verify by direct matrix comparison. A binding graph is refereed like
any other graph, by searching its own matrix.
"""
from __future__ import annotations

import os
from typing import Optional

from .graphs import LabeledGraph, Partition, Permutation, apply_permutation

DEFAULT_NODE_BUDGET = 10_000_000
_BUDGET_ENV = "WLBIND_ORACLE_BUDGET"


class BudgetExceeded(RuntimeError):
    """The backtracking search ran out of its node budget."""

    def __init__(self, nodes: int) -> None:
        super().__init__(
            f"oracle search exceeded its node budget of {nodes}; "
            f"raise {_BUDGET_ENV} to allow a longer search"
        )
        self.nodes = nodes


def node_budget() -> int:
    """The search-node budget: WLBIND_ORACLE_BUDGET if set, else the default.

    Raises ValueError unless the variable holds an integer >= 1.
    """
    raw = os.environ.get(_BUDGET_ENV)
    if not raw:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return budget


def _profiles(rows: list[list[int]]) -> list[tuple]:
    """Per vertex: its diagonal color and sorted row and column colors."""
    return [
        (row[i], tuple(sorted(row)), tuple(sorted(col)))
        for i, (row, col) in enumerate(zip(rows, zip(*rows)))
    ]


class _Search:
    """Backtracking search for permutations p with h[i][j] == g[p(i)][p(j)]."""

    def __init__(self, g: LabeledGraph, h: LabeledGraph, budget: int) -> None:
        self.g_rows = g.matrix.tolist()
        self.h_rows = h.matrix.tolist()
        self.n = g.order
        self.budget = budget
        self.nodes = 0
        gp = _profiles(self.g_rows)
        hp = _profiles(self.h_rows)
        self.candidates = [
            [v for v in range(self.n) if gp[v] == hp[i]] for i in range(self.n)
        ]
        # most-constrained-first keeps the tree shallow; correctness is
        # independent of this ordering
        self.order = sorted(range(self.n), key=lambda i: (len(self.candidates[i]), i))

    def run(self, find_all: bool) -> list[Permutation]:
        """Depth-first search over the candidate lists, on an explicit stack.

        Depth d assigns vertex order[d]; nxt[d] is the position in its
        candidate list to try next. Every candidate that is not yet used
        counts as one node against the budget, whether or not it fits.
        """
        found: list[Permutation] = []
        if any(not c for c in self.candidates):
            return found
        n = self.n
        mapping = [-1] * n
        used = [False] * n
        nxt = [0] * n
        depth = 0
        while depth >= 0:
            if depth == n:
                found.append(Permutation(tuple(v + 1 for v in mapping)))
                if not find_all:
                    return found
                depth -= 1
                used[mapping[self.order[depth]]] = False
                continue
            i = self.order[depth]
            cands = self.candidates[i]
            while nxt[depth] < len(cands):
                v = cands[nxt[depth]]
                nxt[depth] += 1
                if used[v]:
                    continue
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExceeded(self.budget)
                if self._fits(i, v, mapping, depth):
                    mapping[i] = v
                    used[v] = True
                    depth += 1
                    if depth < n:
                        nxt[depth] = 0
                    break
            else:  # candidates exhausted: backtrack
                depth -= 1
                if depth >= 0:
                    used[mapping[self.order[depth]]] = False
        return found

    def _fits(self, i: int, v: int, mapping: list[int], depth: int) -> bool:
        """Whether i -> v agrees with the assignments of the first depth vertices."""
        g_rows, h_rows = self.g_rows, self.h_rows
        gv, hi = g_rows[v], h_rows[i]
        for j in self.order[:depth]:
            w = mapping[j]
            if gv[w] != hi[j] or g_rows[w][v] != h_rows[j][i]:
                return False
        return True


def find_isomorphism(g: LabeledGraph, h: LabeledGraph) -> Optional[Permutation]:
    """A permutation p with apply_permutation(h, p) == g, or None.

    Order mismatch returns None immediately. A search that would exceed
    the node budget raises BudgetExceeded rather than guessing, and a
    witness that fails the direct matrix comparison raises RuntimeError.
    """
    if g.order != h.order:
        return None
    found = _Search(g, h, node_budget()).run(find_all=False)
    if not found:
        return None
    p = found[0]
    if apply_permutation(h, p) != g:
        raise RuntimeError("oracle witness does not map h onto g")
    return p


def automorphism_group(g: LabeledGraph) -> list[Permutation]:
    """Every automorphism of g, ordered lexicographically by image tuples."""
    found = _Search(g, g, node_budget()).run(find_all=True)
    return sorted(found, key=lambda p: p.images)


def orbit_partition(g: LabeledGraph) -> Partition:
    """Orbits of the automorphism group of g."""
    n = g.order
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in automorphism_group(g):
        for u in range(1, n + 1):
            a, b = find(u), find(p.apply(u))
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for u in range(1, n + 1):
        groups.setdefault(find(u), []).append(u)
    return Partition.from_cells(groups.values())
