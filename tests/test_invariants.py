"""Corpus-scale invariants that go beyond the per-module unit tests."""
import itertools
import random

import pytest

from wlbind import (
    Permutation,
    apply_permutation,
    automorphism_group,
    bind,
    block_partition,
    equivalent,
    find_isomorphism,
    individualize,
    orbit_partition,
    restrict_to_cells,
    stabilize,
)
from wlbind.harness import _subset_family, run_agreement, run_lemma_suite, run_orbit_check

from helpers import connected_classes


def all_subsets(c):
    for r in range(1, c + 1):
        yield from itertools.combinations(range(c), r)


def test_trace_dims_strictly_increase_then_repeat():
    for n in range(2, 6):
        for g in connected_classes(n):
            dims = stabilize(g).trace.dims
            body, last = dims[:-1], dims[-1]
            assert all(a < b for a, b in zip(body, body[1:]))
            assert last == body[-1]
            assert len(dims) - 1 <= n * n


def test_individualization_matches_block_partition_order6():
    for g in connected_classes(6):
        x = stabilize(g)
        for u in range(1, 7):
            assert stabilize(individualize(x, u)).cells == block_partition(x, u)


def test_cell_restrictions_stay_stable_order6():
    for g in connected_classes(6):
        x = stabilize(g)
        for keep in all_subsets(len(x.cells.cells)):
            restrict_to_cells(x, keep)  # raises if any restriction is not a fixpoint


def test_aut_preservation_order6():
    for g in connected_classes(6):
        raw = {p.images for p in automorphism_group(g)}
        colored = {p.images for p in automorphism_group(stabilize(g).graph)}
        assert raw == colored


def test_orbits_refine_cells_order6():
    for g in connected_classes(6):
        assert orbit_partition(g).refines(stabilize(g).cells)


def test_bind_canonical_under_all_relabelings():
    # the binding construction commutes with every relabeling, up to isomorphism
    for n in (3, 4):
        for g in connected_classes(n):
            base = bind(g).graph
            for images in itertools.permutations(range(1, n + 1)):
                moved = bind(apply_permutation(g, Permutation(images))).graph
                assert find_isomorphism(base, moved) is not None
    rng = random.Random(31)
    for g in connected_classes(5):
        base = bind(g).graph
        for _ in range(12):
            images = tuple(rng.sample(range(1, 6), 5))
            moved = bind(apply_permutation(g, Permutation(images))).graph
            assert find_isomorphism(base, moved) is not None


def test_oracle_symmetry_order5():
    classes = connected_classes(5)
    for g, h in itertools.combinations(classes, 2):
        assert (find_isomorphism(g, h) is None) == (find_isomorphism(h, g) is None)


def test_sweep_preconditions():
    with pytest.raises(ValueError):
        run_agreement(8)  # the first order past the enumeration cap
    with pytest.raises(ValueError):
        run_orbit_check(1)
    with pytest.raises(ValueError):
        run_lemma_suite(9)


def test_restricted_graphs_keep_idempotence():
    x = stabilize(bind(connected_classes(4)[2]).graph)
    for keep in _subset_family(len(x.cells.cells)):
        sub = restrict_to_cells(x, keep)
        assert equivalent(stabilize(sub.graph).graph, sub.graph)
