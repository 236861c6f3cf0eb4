import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wlbind import (
    BASIC,
    BINDING,
    MIXED,
    Permutation,
    apply_permutation,
    bind,
    binding_vertex,
    classify_cells,
    equivalent,
    extend_automorphism,
    find_isomorphism,
    phi_graph,
    stabilize,
)
from wlbind.graphs import EDGE

from helpers import (
    brute_force_aut,
    brute_force_has_iso,
    connected_classes,
    empty,
    k,
    mask_to_graph,
    path,
)


def test_bind_k3_layout():
    b = bind(k(3))
    expected = [
        [0, 1, 1, 1, 1, 0],
        [1, 0, 1, 1, 0, 1],
        [1, 1, 0, 0, 1, 1],
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
    ]
    assert b.graph.matrix.tolist() == expected


def test_bind_empty2_layout():
    b = bind(empty(2))
    assert b.graph.matrix.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


def test_bind_rejects_tiny():
    with pytest.raises(ValueError):
        bind(mask_to_graph(1, 0))


def test_bind_rejects_binding_orders_past_hash_bound():
    assert bind(path(127)).order == 8128  # 127 * 128 / 2: the largest that fits
    with pytest.raises(ValueError, match="8256.*8192"):
        bind(path(128))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.data())
def test_bind_structure(n, data):
    e = n * (n - 1) // 2
    g = mask_to_graph(n, data.draw(st.integers(0, (1 << e) - 1)))
    b = bind(g)
    n1 = n * (n + 1) // 2
    assert b.order == n1
    assert b.basic_graph() == g
    degree_two = [v for v in range(1, n1 + 1) if b.graph.degree(v) == 2 and v > n]
    assert len(degree_two) == n * (n - 1) // 2
    for u in range(1, n + 1):
        assert b.graph.degree(u) == g.degree(u) + (n - 1)
    # every binding vertex touches exactly its own pair
    for (u, v), p in b.pair_index.items():
        assert b.graph.neighbors(p) == [u, v]
        assert b.pair_of(p) == (u, v)
    assert sorted(b.pair_index.values()) == list(range(n + 1, n1 + 1))


def test_binding_vertex_lookup():
    b = bind(k(3))
    assert binding_vertex(b, 1, 2) == 4
    assert binding_vertex(b, 2, 1) == 4
    assert binding_vertex(b, 1, 3) == 5
    assert binding_vertex(b, 2, 3) == 6
    with pytest.raises(ValueError):
        binding_vertex(b, 2, 2)
    with pytest.raises(ValueError):
        binding_vertex(b, 1, 4)


def test_phi_graph_k3():
    b = bind(k(3))
    x = stabilize(b.graph)
    phi = phi_graph(b, x)
    m = x.graph
    assert phi.cell(1, 2) == 0                      # basic edge blanked
    assert phi.cell(1, 4) == m.cell(1, 4) != 0      # binding edge kept
    assert phi.cell(4, 6) == 0                      # non-edge stays blank
    for i in range(1, 7):
        assert phi.cell(i, i) == m.cell(i, i)
    # no basic-edge colors survive anywhere
    basic_edge_colors = {
        m.cell(u, v)
        for u in range(1, 4)
        for v in range(1, 4)
        if u != v and b.graph.cell(u, v) == EDGE
    }
    assert not basic_edge_colors & phi.colors()


def test_phi_graph_stabilizes_to_same_refinement():
    for g in connected_classes(3) + connected_classes(4):
        b = bind(g)
        x = stabilize(b.graph)
        assert equivalent(stabilize(phi_graph(b, x)).graph, x.graph)


def test_phi_graph_order_mismatch():
    with pytest.raises(ValueError):
        phi_graph(bind(k(3)), stabilize(k(3)))


def test_extend_identity():
    b = bind(k(3))
    tau = extend_automorphism(b, Permutation.identity(3))
    assert tau.images == tuple(range(1, 7))


def test_extend_k3_swap():
    b = bind(k(3))
    tau = extend_automorphism(b, Permutation((2, 1, 3)))
    assert tau.apply(4) == 4          # binder of {1,2} is fixed
    assert tau.apply(5) == 6          # {1,3} -> {2,3}
    assert tau.apply(6) == 5


def test_extend_rejects_non_automorphism():
    b = bind(path(3))
    with pytest.raises(ValueError):
        extend_automorphism(b, Permutation((2, 1, 3)))  # swaps a leaf with the center's mate


def test_extension_lands_in_binding_aut():
    from wlbind import automorphism_group

    for n in (3, 4):
        for g in connected_classes(n):
            b = bind(g)
            lifted_auts = {p.images for p in automorphism_group(b.graph)}
            for s in brute_force_aut(g):
                tau = extend_automorphism(b, s)
                # membership by direct matrix check, then against the search
                assert apply_permutation(b.graph, tau) == b.graph
                assert tau.images in lifted_auts
                for (u, v), p in b.pair_index.items():  # the per-pair definition
                    assert tau.apply(p) == binding_vertex(b, s.apply(u), s.apply(v))


def test_bind_commutes_with_relabeling_up_to_iso():
    for g in connected_classes(4):
        for images in itertools.permutations(range(1, 5)):
            s = Permutation(images)
            moved = bind(apply_permutation(g, s))
            assert find_isomorphism(bind(g).graph, moved.graph) is not None
            break  # one non-trivial relabeling per graph keeps this quick


def test_classify_cells_examples():
    b = bind(k(3))
    assert classify_cells(b, stabilize(b.graph).cells) == [BASIC, BINDING]
    b0 = bind(empty(3))
    assert classify_cells(b0, stabilize(b0.graph).cells) == [MIXED]
    b1 = bind(k(2))
    assert classify_cells(b1, stabilize(b1.graph).cells) == [MIXED]


def test_binding_iso_reduces_to_basic_iso_small():
    # order <= 4: binding graphs isomorphic exactly when basic graphs are
    for n in (2, 3):
        classes = connected_classes(n)
        for g, h in itertools.combinations_with_replacement(classes, 2):
            basic = brute_force_has_iso(g, h)
            bound = find_isomorphism(bind(g).graph, bind(h).graph) is not None
            assert basic == bound
