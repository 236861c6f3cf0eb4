import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlbind import (
    BudgetExceeded,
    LabeledGraph,
    Permutation,
    apply_permutation,
    automorphism_group,
    bind,
    find_isomorphism,
    orbit_partition,
    stabilize,
)
from wlbind import oracle
from wlbind.cli import main as cli_main
from wlbind.oracle import _Search, node_budget

from helpers import (
    brute_force_aut,
    brute_force_has_iso,
    connected_classes,
    cycle,
    k,
    mask_to_graph,
    path,
    star,
)


def test_find_isomorphism_identical_inputs():
    p = find_isomorphism(k(3), k(3))
    assert p is not None
    assert apply_permutation(k(3), p) == k(3)


def test_find_isomorphism_c4_vs_star_absent():
    assert not brute_force_has_iso(cycle(4), star(4))  # independent 4! check
    assert find_isomorphism(cycle(4), star(4)) is None


def test_find_isomorphism_order_mismatch_absent():
    assert find_isomorphism(k(2), k(3)) is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_find_isomorphism_planted_witness(data):
    n = data.draw(st.integers(2, 8))
    e = n * (n - 1) // 2
    g = mask_to_graph(n, data.draw(st.integers(0, (1 << e) - 1)))
    q = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    h = apply_permutation(g, q)
    p = find_isomorphism(g, h)
    assert p is not None
    assert apply_permutation(h, p) == g


def test_find_isomorphism_symmetric_over_small_classes():
    classes = connected_classes(4)
    for g, h in itertools.combinations(classes, 2):
        assert (find_isomorphism(g, h) is None) == (find_isomorphism(h, g) is None)


def test_find_isomorphism_agrees_with_direct_search():
    for n in (3, 4):
        classes = connected_classes(n)
        for g, h in itertools.combinations_with_replacement(classes, 2):
            assert (find_isomorphism(g, h) is not None) == brute_force_has_iso(g, h)


def test_automorphism_group_counts():
    assert len(automorphism_group(k(3))) == 6
    assert len(automorphism_group(path(3))) == 2
    assert len(automorphism_group(cycle(4))) == 8
    assert len(automorphism_group(star(4))) == 6


def test_automorphism_group_matches_direct_enumeration():
    for g in connected_classes(4):
        ours = {p.images for p in automorphism_group(g)}
        direct = {p.images for p in brute_force_aut(g)}
        assert ours == direct


def test_automorphism_group_laws():
    for g in (path(4), cycle(5), k(4)):
        group = automorphism_group(g)
        images = {p.images for p in group}
        assert Permutation.identity(g.order).images in images
        for p in group:
            assert p.inverse().images in images
        for p, q in itertools.product(group, repeat=2):
            assert p.then(q).images in images


def test_automorphism_group_respects_labels():
    # the stable coloring pins down the same automorphisms as the raw graph
    for g in connected_classes(4):
        raw = {p.images for p in automorphism_group(g)}
        colored = {p.images for p in automorphism_group(stabilize(g).graph)}
        assert raw == colored


def test_orbit_partition_examples():
    assert orbit_partition(path(3)).cells == ((1, 3), (2,))
    assert orbit_partition(k(3)).cells == ((1, 2, 3),)
    assert orbit_partition(path(4)).cells == ((1, 4), (2, 3))


def test_orbit_partition_of_binding_graph():
    b = bind(path(3))
    orbits = orbit_partition(b.graph)
    assert orbits.cell_of(1) == (1, 3)
    assert orbits.cell_of(2) == (2,)
    # binder of the two leaves is fixed; the two leaf-center binders swap
    assert orbits.cell_of(binding_vertex_of(b, 1, 3)) == (binding_vertex_of(b, 1, 3),)


def binding_vertex_of(b, u, v):
    from wlbind import binding_vertex

    return binding_vertex(b, u, v)


def test_orbits_refine_stable_cells():
    for n in (3, 4, 5):
        for g in connected_classes(n):
            assert orbit_partition(g).refines(stabilize(g).cells)


def test_budget_exhaustion_raises(monkeypatch):
    g = cycle(9)
    h = apply_permutation(g, Permutation((2, 3, 4, 5, 6, 7, 8, 9, 1)))
    monkeypatch.setenv("WLBIND_ORACLE_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        find_isomorphism(g, h)
    monkeypatch.setenv("WLBIND_ORACLE_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        automorphism_group(g)


def test_find_isomorphism_rejects_a_wrong_witness(monkeypatch):
    # the witness check is an explicit raise, so it also runs under python -O
    monkeypatch.setattr(_Search, "run", lambda self, find_all: [Permutation((2, 1, 3))])
    with pytest.raises(RuntimeError, match="does not map h onto g"):
        find_isomorphism(path(3), path(3))


def test_oracle_imports_only_graph_types():
    # the referee must not reach the engine it referees, directly or through binding
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert {m for m in modules if m.startswith((".", "wlbind"))} == {".graphs"}


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("WLBIND_ORACLE_BUDGET", "123")
    assert node_budget() == 123
    monkeypatch.setenv("WLBIND_ORACLE_BUDGET", " 5 ")
    assert node_budget() == 5
    monkeypatch.delenv("WLBIND_ORACLE_BUDGET")
    assert node_budget() == 10_000_000


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_budget_env_rejects_non_positive_integers(monkeypatch, capsys, tmp_path, raw):
    monkeypatch.setenv("WLBIND_ORACLE_BUDGET", raw)
    with pytest.raises(ValueError, match="WLBIND_ORACLE_BUDGET must be a positive integer"):
        node_budget()
    with pytest.raises(ValueError, match="WLBIND_ORACLE_BUDGET"):
        find_isomorphism(k(3), k(3))
    out = tmp_path / "agreement.json"
    assert cli_main(["harness", "agreement", "--max-n", "3", "--out", str(out)]) == 2
    assert "error: WLBIND_ORACLE_BUDGET must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def _recursive_search(
    s: _Search, g: LabeledGraph, h: LabeledGraph, find_all: bool
) -> tuple[list[tuple[int, ...]], int]:
    """The search for g and h as plain recursion: found image tuples and nodes visited."""
    if any(not c for c in s.candidates):
        return [], 0
    gm, hm = g.matrix.tolist(), h.matrix.tolist()
    found, mapping, used, nodes = [], [-1] * s.n, [False] * s.n, 0

    def extend(depth):
        nonlocal nodes
        if depth == s.n:
            found.append(tuple(v + 1 for v in mapping))
            return not find_all
        i = s.order[depth]
        for v in s.candidates[i]:
            if used[v]:
                continue
            nodes += 1
            if any(gm[v][mapping[j]] != hm[i][j]
                   or gm[mapping[j]][v] != hm[j][i] for j in s.order[:depth]):
                continue
            mapping[i], used[v] = v, True
            if extend(depth + 1):
                return True
            mapping[i], used[v] = -1, False
        return False

    extend(0)
    return found, nodes


def test_search_visits_nodes_in_recursive_order():
    for n in range(1, 6):
        for g in connected_classes(n):
            for b in ([bind(g).graph] if n >= 2 else []) + [g]:
                h = apply_permutation(b, Permutation(tuple(range(b.order, 0, -1))))
                for find_all in (False, True):
                    s = _Search(b, h, 10**9)
                    found = [p.images for p in s.run(find_all)]
                    assert (found, s.nodes) == _recursive_search(_Search(b, h, 10**9), b, h, find_all)


def test_oracle_handles_order_beyond_recursion_limit():
    rng = np.random.default_rng(1500)
    n = 1500
    m = rng.integers(0, 4, size=(n, n))
    m[np.arange(n), np.arange(n)] = 10 + np.arange(n)  # distinct vertex colors
    h = LabeledGraph(m)
    images = list(range(1, n + 1))
    random.Random(1500).shuffle(images)
    planted = Permutation(tuple(images))
    g = apply_permutation(h, planted)
    assert find_isomorphism(g, h) == planted
    assert automorphism_group(g) == [Permutation.identity(n)]
