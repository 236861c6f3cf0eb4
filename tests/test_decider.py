import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from wlbind import (
    Permutation,
    SimpleGraph,
    apply_permutation,
    bind,
    decide_iso,
    disjoint_union,
    find_isomorphism,
    shared_basic_cells,
    stabilize,
)
from wlbind.harness import random_connected_graph

from helpers import connected_classes, cycle, k, mask_to_graph, path, random_partition, star


def test_identical_inputs_are_isomorphic():
    v = decide_iso(k(3), k(3))
    assert v.isomorphic
    assert v.decision == "isomorphic"
    assert v.shared_basic_cells
    assert v.stable_dim > 0 and v.rounds > 0


def test_c4_vs_star_non_isomorphic():
    v = decide_iso(cycle(4), star(4))
    assert not v.isomorphic
    assert v.shared_basic_cells == ()


def test_p3_vs_k3_non_isomorphic():
    assert not decide_iso(path(3), k(3)).isomorphic


def test_unequal_orders_shortcut():
    v = decide_iso(k(3), k(4))
    assert not v.isomorphic
    assert v.reason is not None and "order" in v.reason
    assert v.shared_basic_cells == ()


def test_rejects_disconnected_and_tiny():
    disconnected = SimpleGraph.from_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        decide_iso(disconnected, cycle(4))
    with pytest.raises(ValueError):
        decide_iso(mask_to_graph(1, 0), mask_to_graph(1, 0))


def test_rejects_orders_past_hash_bound_before_building(monkeypatch):
    from wlbind import decider

    def must_not_build(*args):
        raise AssertionError("the binding graph was built")

    monkeypatch.setattr(decider, "disjoint_union", must_not_build)
    monkeypatch.setattr(decider, "bind", must_not_build)
    with pytest.raises(ValueError, match="8256.*8192"):
        decide_iso(path(64), path(64))


def test_verdict_invariant_and_symmetry():
    for g, h in itertools.combinations_with_replacement(connected_classes(4), 2):
        a = decide_iso(g, h)
        b = decide_iso(h, g)
        assert a.isomorphic == b.isomorphic
        assert a.isomorphic == bool(a.shared_basic_cells)
        assert a.stable_dim == b.stable_dim


def test_relabeling_invariance():
    g = cycle(6)
    h = path(6)
    base = decide_iso(g, h).isomorphic
    for images in [(2, 3, 4, 5, 6, 1), (6, 5, 4, 3, 2, 1)]:
        p = Permutation(images)
        assert decide_iso(apply_permutation(g, p), h).isomorphic == base
        assert decide_iso(g, apply_permutation(h, p)).isomorphic == base


def test_agreement_with_oracle_small():
    for n in (2, 3, 4):
        for g, h in itertools.combinations_with_replacement(connected_classes(n), 2):
            assert decide_iso(g, h).isomorphic == (find_isomorphism(g, h) is not None)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.data())
def test_planted_isomorphism_is_found(n, seed, data):
    import random

    g = random_connected_graph(n, random.Random(seed))
    p = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    assert decide_iso(g, apply_permutation(g, p)).isomorphic


def test_verdict_is_read_off_its_shared_cells():
    v = decide_iso(k(3), k(3))
    assert v.isomorphic and not replace(v, shared_basic_cells=()).isomorphic


def test_shared_cells_straddle_both_halves():
    v = decide_iso(cycle(5), cycle(5))
    n = 5
    for cell in v.shared_basic_cells:
        assert any(u <= n for u in cell) and any(n < u <= 2 * n for u in cell)
        assert all(u <= 2 * n for u in cell)


def test_shared_basic_cells_direct():
    b = bind(disjoint_union(k(3), k(3)))
    x = stabilize(b.graph)
    shared = shared_basic_cells(b, x.cells)
    assert shared and all(max(c) <= 6 for c in shared)

    b2 = bind(disjoint_union(cycle(4), star(4)))
    x2 = stabilize(b2.graph)
    assert shared_basic_cells(b2, x2.cells) == []


def test_shared_basic_cells_matches_a_scan_of_every_member():
    rng = random.Random(9)
    for n in (2, 3, 4):
        b = bind(disjoint_union(k(n), k(n)))  # basic count 2n
        for p in (random_partition(b.order, rng) for _ in range(300)):
            expected = [
                c for c in p.cells
                if max(c) <= 2 * n and any(v <= n for v in c) and any(n < v <= 2 * n for v in c)
            ]
            assert shared_basic_cells(b, p) == expected


def test_shared_basic_cells_rejects_an_odd_basic_count():
    """An odd basic count has no two halves: b binds no union of two graphs."""
    b = bind(path(3))
    x = stabilize(b.graph)
    with pytest.raises(ValueError, match="basic count 3 is odd"):
        shared_basic_cells(b, x.cells)


# two strongly regular (16,6,2,2) graphs: the rook's graph of the 4x4 grid and
# its exceptional cousin; classic non-isomorphic twins for refinement methods
ROOK16 = b"O~`HW}GPHDaNaGPCcPWaN"
SHRI16 = b"OlfJHsHBGK_\\oHWKeBK_\\"


def test_strongly_regular_pair_is_separated():
    from wlbind import parse_graph6, stabilize as stab

    rook = parse_graph6(ROOK16)
    shri = parse_graph6(SHRI16)
    assert {rook.degree(v) for v in range(1, 17)} == {6} == {shri.degree(v) for v in range(1, 17)}
    # refining the plain graphs is hopeless: both collapse to one cell
    assert stab(rook).dim() == 3 and stab(shri).dim() == 3
    # the bound union still separates them
    assert not decide_iso(rook, shri).isomorphic
