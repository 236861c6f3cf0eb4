import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlbind import (
    LabeledGraph,
    Partition,
    Permutation,
    SimpleGraph,
    apply_permutation,
    bind,
    disjoint_union,
    individualize,
    is_connected,
    phi_graph,
    restrict_to_cells,
    stabilize,
)
from wlbind.harness import random_connected_graph

from helpers import (
    all_graphs,
    k,
    mask_to_graph,
    path,
    ref_apply_permutation,
    ref_bind,
    ref_cells,
    ref_disjoint_union,
    ref_individualize,
    ref_phi_graph,
    ref_restrict,
    star,
)


@st.composite
def simple_graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    e = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << e) - 1))
    return mask_to_graph(n, mask)


@st.composite
def graph_with_permutation(draw, min_n: int = 1, max_n: int = 8):
    g = draw(simple_graphs(min_n, max_n))
    images = draw(st.permutations(list(range(1, g.order + 1))))
    return g, Permutation(tuple(images))


def test_labeled_graph_rejects_bad_matrices():
    with pytest.raises(ValueError):
        LabeledGraph(((0, 1), (1,)))
    with pytest.raises(ValueError):
        LabeledGraph.from_rows([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        LabeledGraph(())


def test_simple_graph_rejects_nonsimple():
    with pytest.raises(ValueError):
        SimpleGraph(((1, 0), (0, 0)))  # non-blank diagonal
    with pytest.raises(ValueError):
        SimpleGraph(((0, 1), (0, 0)))  # asymmetric
    with pytest.raises(ValueError):
        SimpleGraph(((0, 2), (2, 0)))  # foreign edge color
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 4)])


def test_dim_counts_distinct_colors():
    assert k(3).dim() == 2
    assert LabeledGraph.from_rows([[5, 5], [5, 5]]).dim() == 1
    assert mask_to_graph(1, 0).dim() == 1


def test_permutation_validation_and_algebra():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    p = Permutation((2, 3, 1))
    assert p.inverse().images == (3, 1, 2)
    assert p.then(p.inverse()).images == Permutation.identity(3).images
    assert Permutation.transposition(3, 1, 3).images == (3, 2, 1)


def test_apply_permutation_identity_and_symmetry():
    g = k(2)
    assert apply_permutation(g, Permutation.identity(2)) == g
    assert apply_permutation(g, Permutation((2, 1))) == g


def test_apply_permutation_path_symmetry():
    p3 = path(3)
    assert apply_permutation(p3, Permutation((3, 2, 1))) == p3
    # moving the middle changes the matrix
    assert apply_permutation(p3, Permutation((2, 1, 3))) != p3


def test_apply_permutation_moves_entries():
    g = star(4)
    q = Permutation((4, 1, 2, 3))
    h = apply_permutation(g, q)
    for u in range(1, 5):
        for v in range(1, 5):
            assert h.cell(q.apply(u), q.apply(v)) == g.cell(u, v)


def test_apply_permutation_order_mismatch():
    with pytest.raises(ValueError):
        apply_permutation(k(3), Permutation.identity(2))


@given(graph_with_permutation())
def test_permutation_roundtrip_and_dim(gp):
    g, p = gp
    moved = apply_permutation(g, p)
    assert apply_permutation(moved, p.inverse()) == g
    assert moved.dim() == g.dim()


def test_partition_normalizes_and_validates():
    p = Partition.from_cells([[3, 1], [2]])
    assert p.cells == ((1, 3), (2,))
    with pytest.raises(ValueError):
        Partition.from_cells([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition.from_cells([[1], [3]])
    assert Partition.discrete(3).refines(Partition.unit(3))
    assert not Partition.unit(3).refines(Partition.discrete(3))
    for cells in [((1,), ()), ((), (1,)), ((),)]:
        with pytest.raises(ValueError, match="empty cell"):
            Partition(cells)


def test_disjoint_union_small_cases():
    u = disjoint_union(k(2), k(2))
    assert u.order == 4
    assert u.edges() == [(1, 2), (3, 4)]

    v = disjoint_union(k(3), path(3))
    assert v.order == 6
    assert v.edges() == [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6)]


def test_disjoint_union_rejects_unequal_orders():
    with pytest.raises(ValueError):
        disjoint_union(k(2), k(3))


@given(simple_graphs(2, 6), simple_graphs(2, 6))
def test_disjoint_union_block_structure(g, h):
    if g.order != h.order:
        with pytest.raises(ValueError):
            disjoint_union(g, h)
        return
    n = g.order
    u = disjoint_union(g, h)
    assert len(u.edges()) == len(g.edges()) + len(h.edges())
    for i in range(1, n + 1):
        for j in range(n + 1, 2 * n + 1):
            assert u.cell(i, j) == 0


def test_is_connected():
    assert is_connected(k(4))
    assert is_connected(mask_to_graph(1, 0))
    assert not is_connected(SimpleGraph.from_edges(4, [(1, 2), (3, 4)]))
    assert not is_connected(SimpleGraph.from_edges(2, []))


def test_exhaustive_order3_census():
    graphs = list(all_graphs(3))
    assert len(graphs) == 8
    assert sum(1 for g in graphs if is_connected(g)) == 4  # P3 x3 labelings + K3


# value semantics of the array-backed graphs


def test_matrix_is_read_only():
    g = k(3)
    with pytest.raises(ValueError):
        g.matrix[0, 1] = 0


def test_graph_copies_its_input():
    a = np.array([[0, 1], [1, 0]])
    g = SimpleGraph(a)
    a[0, 1] = 0
    assert g.cell(1, 2) == 1
    f = LabeledGraph(np.asfortranarray([[0, 2], [3, 1]]))
    assert f.matrix.flags.c_contiguous and f.matrix.tolist() == [[0, 2], [3, 1]]


def test_equality_and_hash_agree():
    a = LabeledGraph(((0, 2), (3, 1)))
    b = LabeledGraph(np.array([[0, 2], [3, 1]], dtype=np.uint8))
    c = LabeledGraph(((0, 2), (3, 2)))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_simple_and_labeled_graphs_never_equal():
    assert SimpleGraph(((0, 1), (1, 0))) != LabeledGraph(((0, 1), (1, 0)))


@pytest.mark.parametrize("bad", [
    [[0, 1.5], [1.5, 0]],  # a float is rejected, not truncated
    np.array([[0, 1], [1, 0]], dtype=object),
    [[0, 2**63], [2**63, 0]],
    np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64),
    [[0, 1j], [1j, 0]],
    ((0, 1), (1,)),
    (),
    [[]],
    [[0, 1, 0], [1, 0, 1]],
])
def test_bad_input_raises_value_error(bad):
    with pytest.raises(ValueError):
        LabeledGraph(bad)


def test_rows_round_trip_to_python_ints():
    rows = [[0, 2, 7], [2, 0, 1], [7, 1, 5]]
    g = LabeledGraph(rows)
    assert g.matrix.tolist() == rows
    assert all(type(c) is int for r in g.matrix.tolist() for c in r)
    assert LabeledGraph(g.matrix.tolist()) == g


# the array constructors against their double-loop references


def _check_against_loops(g: SimpleGraph, h: SimpleGraph, p: Permutation) -> None:
    assert disjoint_union(g, h).matrix.tolist() == ref_disjoint_union(g, h)
    assert apply_permutation(g, p).matrix.tolist() == ref_apply_permutation(g, p)
    if g.order < 2:
        return
    b = bind(g)
    rows, pair_index = ref_bind(g)
    assert b.graph.matrix.tolist() == rows and b.pair_index == pair_index
    x = stabilize(b.graph)
    assert x.cells.cells == ref_cells(x.graph)
    assert phi_graph(b, x).matrix.tolist() == ref_phi_graph(b, x)
    assert individualize(x, g.order).matrix.tolist() == ref_individualize(x, g.order)
    keep = range(0, len(x.cells.cells), 2)
    assert restrict_to_cells(x, keep).graph.matrix.tolist() == ref_restrict(x, keep)


def test_constructors_match_loops_on_every_small_graph():
    for n in range(1, 6):
        reverse = Permutation(tuple(range(n, 0, -1)))
        graphs = list(all_graphs(n))
        for g, h in zip(graphs, reversed(graphs)):
            _check_against_loops(g, h, reverse)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_constructors_match_loops_on_drawn_graphs(data):
    g = data.draw(simple_graphs(1, 12))
    h = data.draw(simple_graphs(g.order, g.order))
    p = Permutation(tuple(data.draw(st.permutations(list(range(1, g.order + 1))))))
    _check_against_loops(g, h, p)


def test_constructors_match_loops_on_unions():
    rng = random.Random(6)
    for n in range(6, 11):
        g = random_connected_graph(n, rng)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        planted = apply_permutation(g, Permutation(tuple(images)))
        for h in (planted, random_connected_graph(n, rng)):
            u = disjoint_union(g, h)
            _check_against_loops(u, disjoint_union(h, g), Permutation.identity(2 * n))
