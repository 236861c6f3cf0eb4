import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wlbind import (
    BASIC,
    BINDING,
    MIXED,
    Permutation,
    apply_permutation,
    automorphism_group,
    bind,
    binding_vertex,
    classify_cells,
    disjoint_union,
    equivalent,
    extend_automorphism,
    find_isomorphism,
    orbit_partition,
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
    random_partition,
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
    pairs = b.pairs()
    assert pairs == sorted((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    for p, (u, v) in enumerate(pairs, n + 1):
        assert b.graph.neighbors(p) == [u, v]
        assert b.pair_of(p) == (u, v)
        assert binding_vertex(b, u, v) == binding_vertex(b, v, u) == p
    for p in (n, n1 + 1):
        with pytest.raises(ValueError):
            b.pair_of(p)


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
    for n in (3, 4):
        for g in connected_classes(n):
            b = bind(g)
            lifted_auts = {p.images for p in automorphism_group(b.graph)}
            for s in brute_force_aut(g):
                tau = extend_automorphism(b, s)
                # membership by direct matrix check, then against the search
                assert apply_permutation(b.graph, tau) == b.graph
                assert tau.images in lifted_auts
                for p, (u, v) in enumerate(b.pairs(), n + 1):  # the per-pair definition
                    assert tau.apply(p) == binding_vertex(b, s.apply(u), s.apply(v))


def _orbits_of(n: int, group) -> set[frozenset[int]]:
    """The orbits on 1..n of the group generated by the permutations in group."""
    orbits = {v: frozenset({v}) for v in range(1, n + 1)}
    for s in group:
        for v in range(1, n + 1):
            merged = orbits[v] | orbits[s.apply(v)]
            for w in merged:
                orbits[w] = merged
    return set(orbits.values())


def test_lifted_orbits_are_the_binding_graph_orbits():
    # the lifting lemma: for a connected basic graph of order >= 3 the lifts
    # of its automorphisms reach every orbit of the binding graph
    for n in (3, 4, 5, 6):
        for g in connected_classes(n):
            b = bind(g)
            lifted = _orbits_of(b.order, [extend_automorphism(b, s) for s in automorphism_group(g)])
            assert lifted == {frozenset(c) for c in orbit_partition(b.graph).cells}
    # K2 binds to a triangle, whose rotations move the binder onto a basic vertex
    b = bind(k(2))
    lifted = _orbits_of(3, [extend_automorphism(b, s) for s in automorphism_group(k(2))])
    assert lifted == {frozenset({1, 2}), frozenset({3})}
    assert orbit_partition(b.graph).cells == ((1, 2, 3),)


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


def test_classify_cells_matches_a_scan_of_every_member():
    b = bind(disjoint_union(k(3), k(3)))  # order 21, basic count 6
    n = b.basic_count
    rng = random.Random(5)
    for p in (random_partition(b.order, rng) for _ in range(300)):
        basic = [any(v <= n for v in c) for c in p.cells]
        binding = [any(v > n for v in c) for c in p.cells]
        expected = [
            MIXED if lo and hi else BASIC if lo else BINDING for lo, hi in zip(basic, binding)
        ]
        assert classify_cells(b, p) == expected


def test_binding_iso_reduces_to_basic_iso_small():
    # order <= 4: binding graphs isomorphic exactly when basic graphs are
    for n in (2, 3):
        classes = connected_classes(n)
        for g, h in itertools.combinations_with_replacement(classes, 2):
            basic = brute_force_has_iso(g, h)
            bound = find_isomorphism(bind(g).graph, bind(h).graph) is not None
            assert basic == bound
