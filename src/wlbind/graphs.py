"""Labeled graphs as dense color matrices, plus permutations and partitions.

A graph of order n holds one n x n matrix of non-negative integer color
ids: a read-only, C-contiguous int64 numpy array, copied from its input
once at construction and validated with array operations. The matrix is
the graph's only representation: a pure-Python check that loops over
entries reads a local `matrix.tolist()`. Color 0 is reserved for the
blank label (non-edges, and the diagonal of simple graphs); it is never
handed out as a fresh color by any refinement step. Vertices are 1-based
everywhere in the public API.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

import numpy as np

BLANK = 0  # the reserved non-edge / blank color
EDGE = 1   # the single edge color used by simple graphs

_INT64_MAX = np.iinfo(np.int64).max


def _color_matrix(data: Any) -> np.ndarray:
    """A read-only C-contiguous int64 copy of a square non-negative matrix.

    The dtype is checked before any cast, so a float, complex or object
    entry raises instead of being truncated.
    """
    try:
        a = np.asarray(data)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"matrix is ragged or not numeric: {exc}") from None
    if a.size == 0:
        raise ValueError("graph must have order >= 1")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    if a.dtype.kind not in "biu":
        raise ValueError(
            f"colors must be integers that fit int64, got a matrix of dtype {a.dtype}"
        )
    if a.dtype.kind == "u" and a.max() > _INT64_MAX:
        raise ValueError(f"color {a.max()} does not fit int64")
    m = np.array(a, dtype=np.int64, order="C")
    if m.min() < 0:
        raise ValueError(f"colors must be non-negative integers, got {m.min()}")
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Dense n x n matrix of colors: one read-only int64 array.

    Two graphs are equal when they have the same class and equal matrices;
    the hash agrees with that.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _color_matrix(self.matrix))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "LabeledGraph":
        return cls([list(r) for r in rows])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.matrix.tobytes())

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def cell(self, u: int, v: int) -> int:
        """Color of entry (u, v), 1-based."""
        return int(self.matrix[u - 1, v - 1])

    def dim(self) -> int:
        """Number of distinct colors appearing in the matrix."""
        return int(np.unique(self.matrix).size)

    def colors(self) -> frozenset[int]:
        return frozenset(np.unique(self.matrix).tolist())


class SimpleGraph(LabeledGraph):
    """Symmetric {0, 1} matrix with a zero diagonal (edge color 1)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.matrix
        loops = np.flatnonzero(m.diagonal() != BLANK)
        if loops.size:
            raise ValueError(f"simple graph has a non-blank diagonal at vertex {loops[0] + 1}")
        if m.max() > EDGE:
            i, j = np.argwhere(m > EDGE)[0]
            raise ValueError(
                f"simple graph entry ({i + 1},{j + 1}) = {m[i, j]}, expected 0 or 1"
            )
        if not np.array_equal(m, m.T):
            i, j = np.argwhere(m != m.T)[0]
            raise ValueError(f"simple graph is not symmetric at ({i + 1},{j + 1})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build from 1-based endpoint pairs; rejects loops and out-of-range vertices."""
        ends = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            ends.append((u - 1, v - 1))
        m = np.zeros((n, n), dtype=np.int64)
        if ends:
            i, j = np.array(ends).T
            m[i, j] = EDGE
            m[j, i] = EDGE
        return cls(m)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) with u < v, 1-based."""
        return [
            (i + 1, j + 1) for i, j in np.argwhere(np.triu(self.matrix, 1) == EDGE).tolist()
        ]

    def degree(self, u: int) -> int:
        return int(np.count_nonzero(self.matrix[u - 1] == EDGE))

    def neighbors(self, u: int) -> list[int]:
        return (np.flatnonzero(self.matrix[u - 1] == EDGE) + 1).tolist()


@dataclass(frozen=True)
class Permutation:
    """Bijection on [n]; images[i-1] is the image of vertex i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, u: int, v: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[u - 1], images[v - 1] = v, u
        return cls(tuple(images))

    @property
    def order(self) -> int:
        return len(self.images)

    def apply(self, u: int) -> int:
        return self.images[u - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, im in enumerate(self.images):
            inv[im - 1] = i + 1
        return Permutation(tuple(inv))

    def then(self, other: "Permutation") -> "Permutation":
        """Composition applying self first, then other."""
        if other.order != self.order:
            raise ValueError("cannot compose permutations of different orders")
        return Permutation(tuple(other.apply(im) for im in self.images))


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of [n]; cells sorted internally and ordered by smallest member."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(len(c) == 0 for c in self.cells):
            raise ValueError("empty cell")
        normalized = tuple(sorted((tuple(sorted(c)) for c in self.cells), key=lambda c: c[0]))
        object.__setattr__(self, "cells", normalized)
        flat = [v for c in normalized for v in c]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError(f"cells do not cover [n] exactly once: {self.cells}")

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(c) for c in cells))

    @classmethod
    def unit(cls, n: int) -> "Partition":
        return cls((tuple(range(1, n + 1)),))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(1, n + 1)))

    @property
    def order(self) -> int:
        return sum(len(c) for c in self.cells)

    def cell_of(self, u: int) -> tuple[int, ...]:
        for c in self.cells:
            if u in c:
                return c
        raise ValueError(f"vertex {u} not in partition")

    def refines(self, coarser: "Partition") -> bool:
        """True when every cell of self lies inside one cell of coarser."""
        lookup = {}
        for idx, c in enumerate(coarser.cells):
            for v in c:
                lookup[v] = idx
        return all(len({lookup[v] for v in c}) == 1 for c in self.cells)


def apply_permutation(g: LabeledGraph, p: Permutation) -> LabeledGraph:
    """Relabel vertices: entry (u, v) moves to (u^p, v^p)."""
    n = g.order
    if p.order != n:
        raise ValueError(f"permutation of order {p.order} applied to graph of order {n}")
    im = np.array(p.images) - 1
    m = np.empty_like(g.matrix)
    m[im[:, None], im] = g.matrix
    return (SimpleGraph if isinstance(g, SimpleGraph) else LabeledGraph)(m)


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Block-diagonal union of two equal-order simple graphs.

    Vertices of g keep their names [1, n]; vertices of h become [n+1, 2n].
    """
    if g.order != h.order:
        raise ValueError(f"disjoint_union needs equal orders, got {g.order} and {h.order}")
    n = g.order
    m = np.zeros((2 * n, 2 * n), dtype=np.int64)
    m[:n, :n] = g.matrix
    m[n:, n:] = h.matrix
    return SimpleGraph(m)


def is_connected(g: SimpleGraph) -> bool:
    adj = g.matrix == EDGE
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())
