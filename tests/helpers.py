"""Shared graphs and independent checking utilities for the test suite."""
from __future__ import annotations

import itertools
from functools import lru_cache

from wlbind import BLANK, EDGE, LabeledGraph, Permutation, SimpleGraph, apply_permutation
from wlbind.harness import enumerate_graphs


def k(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(1, i) for i in range(2, n + 1)])


def empty(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [])


def petersen() -> SimpleGraph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i, (i + 1) % 5 + 6) for i in range(6, 11)]
    return SimpleGraph.from_edges(10, outer + inner + [(i, i + 5) for i in range(1, 6)])


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph.from_edges(a + b, [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)])


def hypercube(d: int) -> SimpleGraph:
    n = 1 << d
    return SimpleGraph.from_edges(n, [(u + 1, (u ^ 1 << k) + 1) for u in range(n) for k in range(d) if u < u ^ 1 << k])


# an order-8 graph whose only nontrivial automorphism is an involution
AUT2_EDGES = [
    (1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5),
    (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (5, 8), (6, 8), (7, 8),
]


# the 3-regular order-10 graph the refinement walkthrough is built around
ORDER10_EDGES = [
    (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 4), (3, 9), (4, 5), (4, 8),
    (5, 10), (6, 8), (6, 9), (7, 9), (7, 10), (8, 10),
]


def order10_graph() -> SimpleGraph:
    return SimpleGraph.from_edges(10, ORDER10_EDGES)


def mask_to_graph(n: int, mask: int) -> SimpleGraph:
    """Decode an upper-triangle bitmask (lexicographic pair order) to a graph."""
    slots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SimpleGraph.from_edges(n, [p for t, p in enumerate(slots) if mask >> t & 1])


def all_graphs(n: int):
    """Every labeled simple graph of order n (not deduplicated)."""
    e = n * (n - 1) // 2
    return (mask_to_graph(n, mask) for mask in range(1 << e))


def brute_force_has_iso(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Ground truth by trying all n! relabelings directly."""
    if g.order != h.order:
        return False
    for images in itertools.permutations(range(1, g.order + 1)):
        if apply_permutation(h, Permutation(images)) == g:
            return True
    return False


def brute_force_aut(g: LabeledGraph) -> list[Permutation]:
    out = []
    for images in itertools.permutations(range(1, g.order + 1)):
        p = Permutation(images)
        if apply_permutation(g, p) == g:
            out.append(p)
    return out


@lru_cache(maxsize=None)
def connected_classes(n: int) -> tuple[SimpleGraph, ...]:
    return tuple(enumerate_graphs(n, connected_only=True))


def assert_stable_laws(g: LabeledGraph) -> None:
    """The structural laws every stable graph must satisfy."""
    n = g.order
    diag = {g.cell(i, i) for i in range(1, n + 1)}
    off = {g.cell(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    assert not diag & off, "diagonal colors leak off the diagonal"

    # one color connects one pair of cells only
    ends: dict[int, tuple[int, int]] = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            c = g.cell(u, v)
            key = (g.cell(u, u), g.cell(v, v))
            assert ends.setdefault(c, key) == key, "color spans two cell pairs"

    # transpose colors are a bijective function of forward colors
    conv: dict[int, int] = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            c, ct = g.cell(u, v), g.cell(v, u)
            assert conv.setdefault(c, ct) == ct, "transpose color not functional"
    assert len(set(conv.values())) == len(conv), "transpose color map not injective"

    # equal vertex colors exactly when row and column multisets both match
    m = g.matrix.tolist()
    sigs = {
        u: (tuple(sorted(m[u - 1])), tuple(sorted(m[k][u - 1] for k in range(n))))
        for u in range(1, n + 1)
    }
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            assert (g.cell(u, u) == g.cell(v, v)) == (sigs[u] == sigs[v])


# Double-loop references for the array-backed constructors. Each returns
# the matrix as a list of row lists, plus what else the original returns.


def ref_disjoint_union(g: SimpleGraph, h: SimpleGraph) -> list[list[int]]:
    n = g.order
    gm, hm = g.matrix.tolist(), h.matrix.tolist()
    m = [[BLANK] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            m[i][j] = gm[i][j]
            m[n + i][n + j] = hm[i][j]
    return m


def ref_bind(g: SimpleGraph) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
    """Binding matrix and pair index: binders after the basic vertices, pairs
    in lexicographic order."""
    n = g.order
    n1 = n * (n + 1) // 2
    gm = g.matrix.tolist()
    m = [[BLANK] * n1 for _ in range(n1)]
    for i in range(n):
        for j in range(n):
            m[i][j] = gm[i][j]
    pair_index = {}
    p = n + 1
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            pair_index[(u, v)] = p
            for w in (u, v):
                m[w - 1][p - 1] = EDGE
                m[p - 1][w - 1] = EDGE
            p += 1
    return m, pair_index


def ref_apply_permutation(g: LabeledGraph, p: Permutation) -> list[list[int]]:
    n = g.order
    gm = g.matrix.tolist()
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m[p.images[i] - 1][p.images[j] - 1] = gm[i][j]
    return m


def ref_phi_graph(b, x) -> list[list[int]]:
    """Stable colors on the diagonal and on binding edges, blank elsewhere."""
    n = b.basic_count
    bm, xm = b.graph.matrix.tolist(), x.graph.matrix.tolist()
    rows = []
    for i in range(b.order):
        row = []
        for j in range(b.order):
            if i != j and bm[i][j] == BLANK:
                row.append(BLANK)
            elif i < n and j < n and bm[i][j] == EDGE:
                row.append(BLANK)
            else:
                row.append(xm[i][j])
        rows.append(row)
    return rows


def ref_individualize(x, u: int) -> list[list[int]]:
    rows = x.graph.matrix.tolist()
    fresh = max(max(r) for r in rows) + 1
    rows[u - 1][u - 1] = fresh
    return rows


def ref_restrict(x, keep) -> list[list[int]]:
    xm = x.graph.matrix.tolist()
    vertices = sorted(v for i in set(keep) for v in x.cells.cells[i])
    return [[xm[u - 1][v - 1] for v in vertices] for u in vertices]


def ref_cells(g: LabeledGraph) -> tuple[tuple[int, ...], ...]:
    """Vertices grouped by diagonal color, ordered by smallest member."""
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(g.matrix.tolist()):
        groups.setdefault(row[i], []).append(i + 1)
    return tuple(sorted(tuple(c) for c in groups.values()))


# A bit-by-bit graph6 codec for simple graphs of order < 258048.


def ref_encode_graph6(g: SimpleGraph) -> bytes:
    n = g.order
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out += bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    m = g.matrix.tolist()
    bits = [1 if m[i][j] == EDGE else 0 for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        out.append(v + 63)
    return bytes(out)


def ref_decode_graph6(data: bytes) -> list[list[int]]:
    """Adjacency rows of a well-formed graph6 record without header."""
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    else:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    bits = []
    for b in data[pos:]:
        bits.extend(((b - 63) >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    m = [[0] * n for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                m[i][j] = m[j][i] = EDGE
            k += 1
    return m
