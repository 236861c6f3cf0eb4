"""Matrix-form Weisfeiler-Lehman refinement and the stable-graph toolkit.

The refinement loop recolors vertices into fresh diagonal classes, then
repeatedly replaces every entry (i, j) by a fresh color determined by the
multiset of ordered color pairs {(g_ik, g_kj) : k in [n]} until the number
of distinct colors stops growing. Alongside the loop live the operations
that make stable graphs useful: embedding/equivalence tests, cell and
block partitions, individualization, restriction to cell subsets, the
similarity test, and the equatable-block probe.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _refine
from .graphs import LabeledGraph, Partition

# Signature: sorted run-length-encoded multiset of ordered color pairs,
# (((left, right), count), ...)
Signature = tuple[tuple[tuple[int, int], int], ...]

# identifies how fresh colors are ordered, for report provenance
CANONICALIZATION = "bilinear-hash-order-v5"


@dataclass(frozen=True)
class SignatureMatrix:
    """n x n matrix of pair-multiset signatures (the walk-collection matrix)."""

    entries: tuple[tuple[Signature, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def entry(self, u: int, v: int) -> Signature:
        return self.entries[u - 1][v - 1]


@dataclass(frozen=True)
class StabilizationTrace:
    """The dimension after recoloring and after each round, and how the
    fixpoint was confirmed.

    dims[0] is the dimension right after the diagonal recoloring; above
    order 1, the last dimension is the final confirming round's and
    repeats the one before it. rounds is read off dims, so the two cannot
    disagree. certified is
    true when the fixpoint was confirmed by entry orbits of verified
    automorphisms, in which case the confirming round is counted but not
    run. generators is the number of verified generators the last
    certificate or exact check used. checked_entries counts the entries
    whose exact signature the fixpoint checks compared: 0 when certified
    or at a discrete fixpoint, and at most one member of each entry orbit
    of the verified generators.
    """

    dims: tuple[int, ...]
    checked_entries: int = 0
    certified: bool = False
    generators: int = 0

    @property
    def rounds(self) -> int:
        """Refinement rounds, including the final confirming one."""
        return len(self.dims) - 1


@dataclass(frozen=True)
class StableGraph:
    """A refinement fixpoint: canonical colours from stabilize, its own if certified.

    Its cells are read off the graph, not stored beside it, so a copy with
    another graph (dataclasses.replace) has that graph's cells.
    """

    graph: LabeledGraph
    trace: StabilizationTrace

    @property
    def order(self) -> int:
        return self.graph.order

    @cached_property
    def cells(self) -> Partition:
        """The diagonal colour classes, computed on first use and kept."""
        return _classes(self.graph.matrix.diagonal())

    def dim(self) -> int:
        """Distinct colors of the graph: the trace's last dimension, not a rescan."""
        return int(self.trace.dims[-1])


def recognize_vertices(g: LabeledGraph) -> LabeledGraph:
    """Move diagonal colors into a fresh class disjoint from all others.

    Off-diagonal entries are untouched; two diagonal entries receive equal
    fresh colors exactly when they were equal before.
    """
    n = g.order
    m = g.matrix.tolist()
    base = max(map(max, m)) + 1
    diag_vals = sorted({m[i][i] for i in range(n)})
    fresh = {v: base + r for r, v in enumerate(diag_vals)}
    for i in range(n):
        m[i][i] = fresh[m[i][i]]
    return LabeledGraph(m)


def diamond(g: LabeledGraph) -> SignatureMatrix:
    """The pair-multiset product: entry (i, j) collects all walks (i, k, j)."""
    n = g.order
    rows = g.matrix.tolist()
    out = []
    for i in range(n):
        ri = rows[i]
        row = []
        for j in range(n):
            counts = Counter((ri[k], rows[k][j]) for k in range(n))
            row.append(tuple(sorted(counts.items())))
        out.append(tuple(row))
    return SignatureMatrix(tuple(out))


def evs(m: SignatureMatrix) -> LabeledGraph:
    """Equivalent variable substitution: equal signatures get equal fresh colors.

    Colors are 1 + the lexicographic rank of the signature among all distinct
    signatures in the matrix, so the result is deterministic and invariant
    under vertex relabeling. Color 0 stays reserved for the blank label.
    """
    distinct = sorted({sig for row in m.entries for sig in row})
    rank = {sig: r + 1 for r, sig in enumerate(distinct)}
    return LabeledGraph(tuple(tuple(rank[sig] for sig in row) for row in m.entries))


def _to_array(g: LabeledGraph) -> np.ndarray:
    """The graph's own read-only matrix: every engine step writes to fresh arrays."""
    return g.matrix


def _from_array(m: np.ndarray) -> LabeledGraph:
    return LabeledGraph(m)


def stabilize(g: LabeledGraph) -> StableGraph:
    """Run the refinement to its fixpoint and certify the result.

    Stops at the first round whose dimension matches the previous one.
    Rounds group entries by hash; when a round adds no class, the matrix's
    own classes are checked exactly, and a collision the check finds is
    split (_refine._split_failing) and counted as that round's refinement,
    so the fixpoint is the exact one. Before each round, a partition that
    is discrete, or whose classes are the entry orbits of a verified swap
    automorphism sigma, is certified instead: the exact round cannot
    separate two entries of one orbit (an automorphism maps one to the
    other and keeps their signatures), so it would repeat the dimension.
    That confirming round is counted (rounds and dims are those of a run
    that executes it) but not run, and no check runs. certify_stable
    applies the same certificate and check to a matrix that should already
    be a fixpoint, without a round. Internal colors are assigned
    canonically from matrix content, so the output is bitwise invariant
    under vertex relabeling: stabilizing a permuted graph yields the
    permuted stabilization. Orders above the pair hash's exactness bound are
    rejected before anything is allocated.
    """
    n = g.order
    _refine.check_order(n)
    m, dim = _refine.recognize(_to_array(g))
    dims = [dim]
    checked = 0
    certified = False
    generators = 0
    if n > 1:
        while True:
            certificate = _refine.orbit_certificate(m, dim)
            if certificate is not None:
                certified, generators = True, certificate
                dims.append(dim)
                break
            labels, count = _refine.refine_once(m)
            if count == dim:  # hash fixpoint: confirm it exactly
                bad, seen, generators = _refine._verify_streaming(m, dim)
                checked += seen
                if bad is not None:
                    labels, count = _refine._split_failing(m, dim, bad)
            dims.append(count)
            if count == dim:
                break
            if len(dims) - 1 > n * n:
                raise RuntimeError(
                    f"refinement failed to stabilize within {n * n} rounds; "
                    "this is a contract violation in the engine"
                )
            m, dim = labels, count

    final = _from_array(m + 1)
    trace = StabilizationTrace(
        dims=tuple(dims), checked_entries=checked, certified=certified, generators=generators
    )
    return StableGraph(graph=final, trace=trace)


def _classes(colors: np.ndarray) -> Partition:
    """Positions 1..n of a color vector grouped by equal color."""
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors.tolist(), 1):
        groups.setdefault(c, []).append(v)
    return Partition.from_cells(groups.values())


def is_stable(g: LabeledGraph) -> bool:
    """Whether certify_stable accepts g: its diagonal colours are its own and
    each of its colour classes holds one pair signature.

    An order above the pair hash's exactness bound still raises.
    """
    _refine.check_order(g.order)
    try:
        certify_stable(g)
    except ValueError:
        return False
    return True


def certify_stable(g: LabeledGraph) -> StableGraph:
    """Wrap g, keeping its colours, as a StableGraph if it is a refinement fixpoint.

    No colour may sit both on and off the diagonal, so recognizing the
    diagonal keeps g's classes; then the recognized matrix is certified by
    entry orbits (_refine.orbit_certificate), or else its own classes are
    checked exactly, and g is accepted when every class holds one pair
    signature. With the diagonal recognized, a colour is read back from its
    signature (for i != j, the only walk (i, k, j) whose second colour is
    diagonal is k = j), so this is the fixpoint test stabilize applies, and
    no round is run: the hash is a function of the signature, so a round
    splits a class only where the check finds two signatures. The cells are
    g's diagonal classes, and the trace is the one stabilize(g) records: one
    confirming round (none at order 1). The check stops at its first failing
    class, which is named, not split.
    """
    n = g.order
    _refine.check_order(n)
    m, dim = _refine.recognize(_to_array(g))
    if dim != g.dim():  # recognize splits exactly the colours on and off it
        raise ValueError("diagonal colors leak into off-diagonal entries")
    dims, checked, certified, generators = [dim], 0, False, 0
    if n > 1:
        dims.append(dim)
        certificate = _refine.orbit_certificate(m, dim)
        if certificate is not None:
            certified, generators = True, certificate
        else:
            bad, checked, generators = _refine._verify_streaming(m, dim, first=True)
            if bad is not None:
                raise ValueError("graph is not a refinement fixpoint")
    trace = StabilizationTrace(
        dims=tuple(dims), checked_entries=checked, certified=certified, generators=generators
    )
    return StableGraph(graph=g, trace=trace)


def embeds(a: LabeledGraph, b: LabeledGraph) -> bool:
    """True when color equality in b forces color equality in a."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    seen: dict[int, int] = {}
    for ra, rb in zip(a.matrix.tolist(), b.matrix.tolist()):
        for ca, cb in zip(ra, rb):
            if seen.setdefault(cb, ca) != ca:
                return False
    return True


def equivalent(a: LabeledGraph, b: LabeledGraph) -> bool:
    return embeds(a, b) and embeds(b, a)


def cell_partition(x: StableGraph) -> Partition:
    """Vertices grouped by diagonal color."""
    return x.cells


def block_partition(x: StableGraph, u: int) -> Partition:
    """Vertices grouped by their connection color to u; {u} is its own block."""
    n = x.order
    if not 1 <= u <= n:
        raise ValueError(f"vertex {u} out of range for order {n}")
    return _classes(x.graph.matrix[u - 1])


def individualize(x: StableGraph, u: int) -> LabeledGraph:
    """Copy of the stable graph with a brand-new color on vertex u."""
    n = x.order
    if not 1 <= u <= n:
        raise ValueError(f"vertex {u} out of range for order {n}")
    m = x.graph.matrix.copy()
    top = int(m.max())
    if top == np.iinfo(np.int64).max:
        raise ValueError(f"no fresh color fits int64: the graph already uses {top}")
    m[u - 1, u - 1] = top + 1
    return LabeledGraph(m)


def restrict_to_cells(x: StableGraph, keep: Iterable[int]) -> StableGraph:
    """Induced subgraph on a union of cells, in x's colours, if certify_stable accepts it.

    keep holds 0-based indices into x.cells.cells. The kept vertices are
    renumbered 1..m in ascending original order. The submatrix is tested,
    not stabilized: certify_stable runs no refinement round.
    """
    idxs = sorted(set(keep))
    ncells = len(x.cells.cells)
    if not idxs:
        raise ValueError("must keep at least one cell")
    for i in idxs:
        if not 0 <= i < ncells:
            raise ValueError(f"cell index {i} out of range (have {ncells} cells)")
    vertices = np.array(sorted(v - 1 for i in idxs for v in x.cells.cells[i]))
    return certify_stable(LabeledGraph(x.graph.matrix[vertices[:, None], vertices]))


def _row_col_multisets(g: LabeledGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per index: the sorted colors of its row and of its column."""
    m = g.matrix.tolist()
    return [(tuple(sorted(row)), tuple(sorted(col))) for row, col in zip(m, zip(*m))]


def similar(x: StableGraph, y: StableGraph) -> bool:
    """Similarity of stable graphs: matched row/column color multisets at
    every index, plus cross-graph agreement between colors and signatures."""
    if x.order != y.order:
        raise ValueError(f"order mismatch: {x.order} vs {y.order}")
    if _row_col_multisets(x.graph) != _row_col_multisets(y.graph):
        return False
    # each color names one signature inside a stable graph; the graphs agree
    # exactly when those namings coincide
    def naming(g: LabeledGraph) -> dict[int, Signature]:
        out: dict[int, Signature] = {}
        for row, sig_row in zip(g.matrix.tolist(), diamond(g).entries):
            for c, s in zip(row, sig_row):
                if out.setdefault(c, s) != s:
                    raise ValueError("input is not stable: one color, two signatures")
        return out

    return naming(x.graph) == naming(y.graph)


def is_equatable(x: StableGraph, cell_a: int, cell_b: int) -> bool:
    """Block-regularity probe for the block of x between two cells.

    Every row of the block must carry the same color multiset, and every
    column likewise (0-based cell indices).
    """
    ncells = len(x.cells.cells)
    for c in (cell_a, cell_b):
        if not 0 <= c < ncells:
            raise ValueError(f"cell index {c} out of range (have {ncells} cells)")
    alpha = x.cells.cells[cell_a]
    beta = x.cells.cells[cell_b]
    m = x.graph.matrix.tolist()
    rows = {tuple(sorted(m[u - 1][v - 1] for v in beta)) for u in alpha}
    if len(rows) != 1:
        return False
    cols = {tuple(sorted(m[u - 1][v - 1] for u in alpha)) for v in beta}
    return len(cols) == 1
