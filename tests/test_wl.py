import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlbind import _refine, wl
from wlbind import (
    LabeledGraph,
    Permutation,
    StableGraph,
    apply_permutation,
    bind,
    block_partition,
    cell_partition,
    certify_stable,
    decide_iso,
    diamond,
    disjoint_union,
    embeds,
    equivalent,
    evs,
    individualize,
    is_equatable,
    is_stable,
    recognize_vertices,
    restrict_to_cells,
    similar,
    stabilize,
)

from wlbind.graphs import SimpleGraph
from wlbind.harness import random_connected_graph

from helpers import (
    AUT2_EDGES,
    assert_stable_laws,
    brute_force_aut,
    complete_bipartite,
    connected_classes,
    cycle,
    empty,
    hypercube,
    k,
    mask_to_graph,
    order10_graph,
    path,
    petersen,
)


def refinement_chain(g):
    """The round-by-round refinement via the public single-step operations."""
    chain = [recognize_vertices(g)]
    while True:
        nxt = evs(diamond(chain[-1]))
        chain.append(nxt)
        if nxt.dim() == chain[-2].dim():
            return chain


# --- recoloring ---------------------------------------------------------


def test_recognize_vertices_order10():
    g1 = recognize_vertices(order10_graph())
    assert g1.dim() == 3
    diag = {g1.cell(i, i) for i in range(1, 11)}
    off = {g1.cell(i, j) for i in range(1, 11) for j in range(1, 11) if i != j}
    assert len(diag) == 1 and not diag & off


def test_recognize_vertices_k1():
    g = recognize_vertices(mask_to_graph(1, 0))
    assert g.dim() == 1


def test_recognize_vertices_preserves_diagonal_pattern():
    g = LabeledGraph.from_rows([[3, 1, 0], [1, 3, 1], [0, 1, 5]])
    out = recognize_vertices(g)
    assert out.cell(1, 1) == out.cell(2, 2) != out.cell(3, 3)
    assert out.dim() == g.dim()  # already vertex-recognizing, so no collapse
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert out.cell(i, j) == g.cell(i, j)


# --- diamond and substitution -------------------------------------------


def test_diamond_vertex_recognized_k2():
    g = LabeledGraph.from_rows([[2, 1], [1, 2]])
    m = diamond(g)
    assert m.entry(1, 1) == (((1, 1), 1), ((2, 2), 1))
    assert m.entry(1, 2) == (((1, 2), 1), ((2, 1), 1))
    assert m.entry(2, 2) == m.entry(1, 1)


def test_diamond_diagonal_contains_self_pair():
    for g in connected_classes(4):
        m = diamond(recognize_vertices(g))
        for i in range(1, 5):
            c = g.cell(i, i)
            pairs = dict(m.entry(i, i))
            rec = recognize_vertices(g)
            assert pairs.get((rec.cell(i, i), rec.cell(i, i)), 0) >= 1


def test_evs_constant_matrix():
    m = diamond(LabeledGraph.from_rows([[1, 1], [1, 1]]))
    out = evs(m)
    assert out.dim() == 1


def test_evs_k2_pattern():
    g = LabeledGraph.from_rows([[2, 1], [1, 2]])
    out = evs(diamond(g))
    assert out.cell(1, 1) == out.cell(2, 2)
    assert out.cell(1, 2) == out.cell(2, 1)
    assert out.cell(1, 1) != out.cell(1, 2)
    assert min(out.colors()) >= 1  # 0 stays reserved


def test_chain_dims_order10():
    chain = refinement_chain(order10_graph())
    assert [g.dim() for g in chain] == [3, 5, 17, 20, 20]


# --- stabilization ------------------------------------------------------


def test_stabilize_order10():
    x = stabilize(order10_graph())
    assert list(x.trace.dims) == [3, 5, 17, 20, 20]
    assert x.trace.rounds == 4
    assert x.dim() == 20
    assert x.cells.cells == ((1, 6), (2, 5, 8, 9), (3, 4, 7, 10))


def test_stabilize_c5_is_immediately_stable():
    x = stabilize(cycle(5))
    assert x.trace.rounds == 1
    assert list(x.trace.dims) == [3, 3]
    assert x.cells.cells == ((1, 2, 3, 4, 5),)


def test_stabilize_k1():
    x = stabilize(mask_to_graph(1, 0))
    assert x.dim() == 1
    assert x.trace.rounds == 0
    assert x.cells.cells == ((1,),)


def test_stabilize_matches_public_chain():
    for g in (order10_graph(), path(4), cycle(6), k(4), bind(path(3)).graph):
        chain = refinement_chain(g)
        x = stabilize(g)
        assert equivalent(x.graph, chain[-1])
        assert [h.dim() for h in chain] == list(x.trace.dims)


def test_refinement_chain_embeds_and_recognizes():
    for g in list(connected_classes(4)) + [order10_graph()]:
        chain = refinement_chain(g)
        n = g.order
        for prev, nxt in zip(chain, chain[1:]):
            assert embeds(prev, nxt)
        for h in chain:
            diag = {h.cell(i, i) for i in range(1, n + 1)}
            off = {h.cell(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
            assert not diag & off


def test_stabilize_idempotent():
    for g in (k(3), path(4), order10_graph()):
        x = stabilize(g)
        again = stabilize(x.graph)
        assert equivalent(again.graph, x.graph)
        assert again.cells == x.cells


def test_stable_fixpoint_law():
    x = stabilize(order10_graph())
    assert equivalent(x.graph, evs(diamond(x.graph)))
    assert is_stable(x.graph)
    assert not is_stable(path(3))


def test_is_stable_compares_the_partitions_not_their_sizes():
    # two colours and two signatures, but different classes: the signatures
    # split the diagonal from the rest, the colours the anti-diagonal
    assert not is_stable(LabeledGraph([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))


def test_stable_laws_small_corpus():
    for n in range(2, 5):
        for g in connected_classes(n):
            assert_stable_laws(stabilize(g).graph)
    assert_stable_laws(stabilize(order10_graph()).graph)


# --- embedding / equivalence --------------------------------------------


def test_embeds_reflexive_and_strict():
    g = order10_graph()
    assert embeds(g, g)
    x = stabilize(g)
    assert embeds(g, x.graph)       # refinement: stable equality forces original equality
    assert not embeds(x.graph, g)   # dim 20 vs dim 2
    assert equivalent(g, g)
    assert not equivalent(g, x.graph)


def test_embeds_order_mismatch():
    with pytest.raises(ValueError):
        embeds(k(2), k(3))
    with pytest.raises(ValueError):
        equivalent(k(2), k(3))


def test_chain_neighbors_not_equivalent():
    chain = refinement_chain(order10_graph())
    assert not equivalent(chain[0], chain[1])  # dims 3 vs 5


# --- equivariance --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stabilize_equivariant_bitwise(data):
    n = data.draw(st.integers(2, 8))
    e = n * (n - 1) // 2
    g = mask_to_graph(n, data.draw(st.integers(0, (1 << e) - 1)))
    p = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    left = stabilize(apply_permutation(g, p)).graph
    right = apply_permutation(stabilize(g).graph, p)
    assert left == right


# --- hash collisions ----------------------------------------------------


def _planted(g, rng):
    images = list(range(1, g.order + 1))
    rng.shuffle(images)
    return apply_permutation(g, Permutation(tuple(images)))


def _collision_cases():
    rng = random.Random(20230521)
    cases = {
        "gnp10": random_connected_graph(10, rng),
        "gnp40": random_connected_graph(40, rng),
        "binding171": bind(
            disjoint_union(random_connected_graph(9, rng), random_connected_graph(9, rng))
        ).graph,
    }
    for n in range(6, 10):
        g = random_connected_graph(n, rng)
        cases[f"random{n}"] = bind(disjoint_union(g, random_connected_graph(n, rng))).graph
        cases[f"planted{n}"] = bind(disjoint_union(g, _planted(g, rng))).graph
    return cases


@pytest.mark.parametrize("case", list(_collision_cases()))
def test_stabilize_exact_under_forced_collisions(case, monkeypatch):
    """With every hash equal, only the exact check separates classes, so
    each round is the exact refinement; the hashed run must match it cell
    for cell, dim for dim and round for round."""
    g = _collision_cases()[case]
    hashed = stabilize(g)
    monkeypatch.setattr(_refine, "_pair_hash", lambda m: np.zeros(m.shape, dtype=np.uint64))
    collided = stabilize(g)
    assert collided.cells == hashed.cells
    assert collided.trace.dims == hashed.trace.dims
    assert collided.trace.rounds == hashed.trace.rounds
    assert is_stable(collided.graph)
    assert len(hashed.trace.dims) > 2  # a fixpoint needing refinement, not the first round


@pytest.mark.parametrize("n", [6, 7, 8])
def test_partial_collisions_keep_fixpoint_and_verdict(n, monkeypatch):
    """A hash reduced to its low bit collides in most rounds; the rounds may
    differ, but the fixpoint and the verdict may not."""
    rng = random.Random(n)
    g = random_connected_graph(n, rng)
    pairs = [(g, _planted(g, rng)), (g, random_connected_graph(n, rng))]
    unions = [bind(disjoint_union(a, b)).graph for a, b in pairs]
    exact = [stabilize(u) for u in unions]
    verdicts = [decide_iso(a, b) for a, b in pairs]
    full_hash = _refine._pair_hash
    monkeypatch.setattr(_refine, "_pair_hash", lambda m: full_hash(m) & np.uint64(1))
    for u, x in zip(unions, exact):
        y = stabilize(u)
        assert y.trace.dims != x.trace.dims  # the collisions did change the rounds
        assert y.cells == x.cells
        assert y.dim() == x.dim()
    for (a, b), v in zip(pairs, verdicts):
        w = decide_iso(a, b)
        assert (w.isomorphic, w.stable_dim, w.shared_basic_cells) == (
            v.isomorphic,
            v.stable_dim,
            v.shared_basic_cells,
        )
    assert verdicts[0].isomorphic


# --- hash and grouping kernels -------------------------------------------


def _recognize_reference(m):
    """recognize by numpy's unique, as the engine computed it before."""
    n = m.shape[0]
    off_vals = np.unique(m[~np.eye(n, dtype=bool)]) if n > 1 else np.empty(0, dtype=m.dtype)
    out = np.searchsorted(off_vals, m).astype(np.int64)
    d_uniq, d_inv = np.unique(m.diagonal(), return_inverse=True)
    out[np.arange(n), np.arange(n)] = off_vals.shape[0] + d_inv
    return out, int(off_vals.shape[0] + d_uniq.shape[0])


@pytest.mark.parametrize("seed", range(6))
def test_recognize_matches_unique_reference(seed):
    rng = np.random.default_rng(seed)
    top = np.iinfo(np.int64).max
    for n in (1, 2, 3, 7, 30):
        cases = [
            rng.integers(0, 5, (n, n)),
            rng.integers(0, 2**62, (n, n)),
            np.full((n, n), seed),  # all colors equal
            top - rng.integers(0, 3, (n, n)),  # colors next to the int64 maximum
        ]
        for m in cases:
            out, dim = _refine.recognize(m)
            ref, ref_dim = _recognize_reference(m)
            assert dim == ref_dim and np.array_equal(out, ref) and out.dtype == np.int64


def test_pair_hash_order_bound():
    for dim in (10, 5000):  # the table drawn at import, then one drawn per call
        w = np.stack([_refine._weights(dim, row)[:dim] for row in range(4)])
        assert w.max() < 2**20 and w.min() >= 0 and np.array_equal(w, np.floor(w))
        assert np.array_equal(w[:, :10], _refine._WEIGHTS[:, :10])
    # every product sum of the largest allowed order stays an exact float64 integer
    assert _refine.MAX_ORDER * (2**20 - 1) ** 2 < 2**53
    view = np.broadcast_to(np.int64(0), (_refine.MAX_ORDER + 1, _refine.MAX_ORDER + 1))
    with pytest.raises(ValueError, match=str(_refine.MAX_ORDER)):
        _refine._pair_hash(view)  # a view: raising must come before any allocation


def _reference_partition(major, minor):
    groups = {}
    for i, pair in enumerate(zip(major.tolist(), minor.tolist())):
        groups.setdefault(pair, []).append(i)
    return sorted(groups.values())


def _partition_of(labels, count):
    assert labels.min() == 0 and labels.max() == count - 1
    assert np.bincount(labels, minlength=count).all()  # dense: every label used
    groups = {}
    for i, c in enumerate(labels.tolist()):
        groups.setdefault(c, []).append(i)
    return sorted(groups.values())


@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_lexsort_partition(seed):
    rng = np.random.default_rng(seed)
    size = 3000
    major = rng.integers(0, 40, size)
    minor = rng.integers(0, 2**38, size, dtype=np.uint64, endpoint=False)
    minor[rng.integers(0, size, size // 2)] = minor[:size // 2]  # repeated pairs
    # the largest values the key holds; 1 and 2 differ from 0 in the top bit
    # of major or of minor alone, and 3 repeats 0
    major[:4] = [2**26 - 1, 2**25 - 1, 2**26 - 1, 2**26 - 1]
    minor[:4] = [2**38 - 1, 2**38 - 1, 2**37 - 1, 2**38 - 1]
    labels, count = _refine._rank(major, minor)
    assert _partition_of(labels, count) == _reference_partition(major, minor)
    assert len({labels[0], labels[1], labels[2]}) == 3 and labels[0] == labels[3]
    _assert_reference_labels(major, minor, labels, count)


def _packed_key(major, minor):
    """_rank's key: minor << b | major, b the bit length of max(major)."""
    bits = np.uint64(int(major.max()).bit_length())
    return minor.astype(np.uint64) << bits | major.astype(np.uint64)


def _reference_rank(major, minor):
    """_rank by np.unique: dense ascending ranks of the packed key."""
    distinct, labels = np.unique(_packed_key(major, minor), return_inverse=True)
    return labels.astype(np.int64), distinct.size


def _assert_reference_labels(major, minor, labels, count):
    want, want_count = _reference_rank(major, minor)
    assert labels.dtype == np.int64 and count == want_count
    assert np.array_equal(labels, want)


def _rank_inputs(name):
    """(major, minor) for one named shape of _rank's input."""
    rng = np.random.default_rng(sum(map(ord, name)))
    size = 90_000
    if name == "size-1":
        return np.array([5]), np.array([2**40], dtype=np.uint64)
    if name == "size-2":
        return np.array([3, 1]), np.array([7, 7], dtype=np.uint64)
    if name == "tiny-clashing":  # few distinct keys, all sharing their top bits
        return rng.integers(0, 8, 37), rng.integers(0, 4, 37, dtype=np.uint64)
    if name == "skewed":  # one class holds 71% of the entries, as in a first round
        major = rng.integers(0, 300, size)
        minor = rng.integers(0, 2**63, size, dtype=np.uint64)
        major[:64_000], minor[:64_000] = 17, minor[0]
        return rng.permutation(major), minor
    if name == "small-minors":  # every key shares its top bits with many others
        return rng.integers(0, 3000, size), rng.integers(0, 2**20, size, dtype=np.uint64)
    if name == "shared-minors":  # equal minors under different majors
        major = rng.integers(0, 2**26, size)
        minor = rng.integers(0, 2**63, 50, dtype=np.uint64)[rng.integers(0, 50, size)]
        return major, minor
    if name == "one-run":  # every key below the index bits: the whole array is one run
        return rng.integers(0, 2**17, size)[::-1].copy(), np.zeros(size, dtype=np.uint64)
    if name == "random-2^22":  # keys that share their top 42 bits occur
        size = 1 << 22
        return rng.integers(0, 2**26, size), rng.integers(0, 2**63, size, dtype=np.uint64)
    raise ValueError(name)


_RANK_SHAPES = [
    "size-1", "size-2", "tiny-clashing", "skewed", "small-minors", "shared-minors", "one-run",
    "random-2^22",
]


@pytest.mark.parametrize("name", _RANK_SHAPES)
def test_rank_labels_equal_the_unique_reference(name):
    major, minor = _rank_inputs(name)
    labels, count = _refine._rank(major, minor)
    _assert_reference_labels(major, minor, labels, count)


@pytest.mark.parametrize("name", _RANK_SHAPES)
def test_sort_carrying_index_gives_a_sorting_order(name):
    """The in-place sort that _rank uses, at every size."""
    major, minor = _rank_inputs(name)
    key = _packed_key(major, minor)
    ordered = key.copy()
    order = _refine._sort_carrying_index(ordered)
    assert np.array_equal(ordered, np.sort(key))
    assert np.array_equal(key[order], ordered)
    assert np.array_equal(np.sort(order), np.arange(key.size))


def test_random_keys_share_top_bits():
    """The 2^22 random keys hold runs that the index bits overwrite in the
    same top bits, so the run repair is exercised."""
    major, minor = _rank_inputs("random-2^22")
    key = np.sort(_packed_key(major, minor))
    top = key >> np.uint64(22)
    assert ((top[1:] == top[:-1]) & (key[1:] != key[:-1])).any()


@pytest.mark.parametrize("name", ["random-2^22", "one-run"])
def test_rank_peak_memory(name):
    """_rank's transient peak stays at 25 bytes per entry, as an argsort's
    does, also when the whole array must be sorted again."""
    major, minor = _rank_inputs(name)
    if major.size < 1 << 22:
        major = np.resize(major, 1 << 22)
        minor = np.resize(minor, 1 << 22)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _refine._rank(major, minor)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 25 * major.size + (64 << 10)  # and a few small arrays


@pytest.mark.parametrize("n", [10, 12])
def test_stabilize_is_bytewise_equal_with_the_reference_rank(n, monkeypatch):
    rng = random.Random(n)
    g = random_connected_graph(n, rng)
    graphs = [
        bind(disjoint_union(g, random_connected_graph(n, rng))).graph,
        bind(disjoint_union(g, _planted(g, rng))).graph,
    ]
    fast = [stabilize(x) for x in graphs]
    monkeypatch.setattr(_refine, "_rank", _reference_rank)
    for x, want in zip(graphs, fast):
        got = stabilize(x)
        assert got.graph.matrix.tobytes() == want.graph.matrix.tobytes()
        assert got.cells == want.cells and got.trace == want.trace


@pytest.mark.parametrize("seed", range(3))
def test_split_numbers_cells_as_rank_does(seed):
    """The witness search's splits number cells in _rank's order, on keys
    where most pair codes span several cells."""
    rng = np.random.default_rng(seed)
    n = 2500
    m = rng.integers(0, 3, (n, n))
    cells = rng.integers(0, 40, n)
    for v in (0, 7, n - 1):
        row, col = m[v] + 1, m[:, v] + 1
        row[v] = col[v] = 0
        code = _refine._mix64((row * 4 + col).astype(np.uint64))
        want, _ = _reference_rank(cells, code)
        assert np.array_equal(_refine._split(cells, m, v), want)


def test_rank_keeps_majors_apart_on_a_shared_minor():
    """Pairs that differ in major and share a minor are the strongest
    collision a packed key allows; they must stay in different classes."""
    rng = np.random.default_rng(7)
    size = 500
    major = rng.integers(0, 10, size)
    minor = rng.integers(0, 2**38, size, dtype=np.uint64, endpoint=False)
    p, q = 3, int(np.flatnonzero(major != major[3])[0])
    minor[q] = minor[p]
    minor[size // 2:] = minor[0]  # half of all entries share one minor
    labels, count = _refine._rank(major, minor)
    assert labels[p] != labels[q]
    assert _partition_of(labels, count) == _reference_partition(major, minor)


def test_rank_reads_more_hash_bits_below_fewer_colors():
    """The key keeps the low 64 - b bits of minor, b the bit length of the
    largest major: with majors below 8, minors that differ only in bit 60
    stay apart, and bits above 64 - b are dropped."""
    major = np.array([5, 5, 5, 7])
    minor = np.array([1, 1 + 2**60, 1 + 2**61, 1 + 2**61], dtype=np.uint64)
    labels, count = _refine._rank(major, minor)
    assert count == 3 and labels[0] == labels[2] != labels[1] != labels[3]


# --- the fixpoint check and its automorphism witness ----------------------

# the vertex swap (0 1)(2 3) that a diagonal of the form [a, a, b, b] names
_SIGMA = np.array([1, 0, 3, 2])
# sigma-invariant: every off-diagonal entry 2, diagonal classes {0, 1} and {2, 3}
_SYMMETRIC = np.array([[0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 1, 2], [2, 2, 2, 1]])


def _labels_from(classes, n):
    """(n, n) labels dense from 0 for a list of flat-index classes; every
    other entry is a class of its own."""
    ids = np.arange(n * n) + len(classes)
    for c, members in enumerate(classes):
        ids[members] = c
    return np.unique(ids, return_inverse=True)[1].reshape(n, n)


def _exact_refinement(m, labels):
    """Reference: entries grouped by (label, multiset of pair colors)."""
    n = m.shape[0]
    rows = m.tolist()
    groups = {}
    for i in range(n):
        for j in range(n):
            sig = tuple(sorted((rows[i][k], rows[k][j]) for k in range(n)))
            groups.setdefault((int(labels[i, j]), sig), []).append(i * n + j)
    return sorted(groups.values())


def _verify(m, labels):
    count = int(labels.max()) + 1
    out, total, checked, _ = _refine._verify_streaming(m, int(m.max()) + 1, labels, count)
    return _partition_of(out.ravel(), total), checked


def test_verify_checks_the_matrix_is_swap_invariant():
    """Each class is one sigma-orbit, so a pruned check would compare nothing;
    m is not sigma-invariant, so some orbit mixes signatures and must split."""
    m = np.array([[0, 3, 3, 2], [2, 0, 2, 2], [2, 3, 1, 3], [3, 3, 3, 1]])
    assert np.array_equal(_refine._swap_witness(m), _SIGMA)
    assert not np.array_equal(m[_SIGMA][:, _SIGMA], m)
    orbits = {}
    for e in range(16):
        i, j = divmod(e, 4)
        orbits.setdefault(min(e, _SIGMA[i] * 4 + _SIGMA[j]), []).append(e)
    labels = _labels_from(list(orbits.values()), 4)
    assert np.array_equal(labels[_SIGMA][:, _SIGMA], labels)
    expected = _exact_refinement(m, labels)
    assert len(expected) > len(orbits)
    assert _verify(m, labels)[0] == expected


def test_verify_checks_the_partition_is_swap_invariant():
    """m is sigma-invariant, but the class {(0,1), (3,2)} is not: its one
    member with e <= sigma(e) is (0,1), so a pruned check would miss (3,2)."""
    m = _SYMMETRIC
    assert np.array_equal(m[_SIGMA][:, _SIGMA], m)
    labels = _labels_from([[0 * 4 + 1, 3 * 4 + 2]], 4)
    assert not np.array_equal(labels[_SIGMA][:, _SIGMA], labels)
    partition, checked = _verify(m, labels)
    assert partition == _exact_refinement(m, labels) == [[e] for e in range(16)]
    assert checked == 2  # no witness: the one shared class is compared in full


def test_verify_splits_a_mismatched_pair_among_swap_pairs():
    """The sigma-pairs {(0,2), (1,3)} and {(0,3), (1,2)} share a signature;
    the pair {(2,3), (3,2)} is planted in their class with another. The
    check compares one member of each pair and splits the class exactly."""
    m = _SYMMETRIC
    exact = _exact_refinement(m, np.zeros((4, 4), dtype=np.int64))
    assert [2, 3, 6, 7] in exact and [11, 14] in exact
    merged = [c for c in exact if c not in ([2, 3, 6, 7], [11, 14])]
    labels = _labels_from(merged + [[2, 3, 6, 7, 11, 14]], 4)
    assert np.array_equal(labels[_SIGMA][:, _SIGMA], labels)
    partition, checked = _verify(m, labels)
    assert partition == exact
    # (0,2), (0,3), (2,3) of the merged class and (2,0), (2,1) of its
    # transpose; every other class holds one pair
    assert checked == 5


def _witness_cases(n):
    rng = random.Random(n)
    g = random_connected_graph(n, rng)
    return {"planted": (g, _planted(g, rng)), "random": (g, random_connected_graph(n, rng))}


# graphs with automorphisms: their planted unions have diagonal classes of
# four or more vertices, where only the search proposes generators
_SYMMETRIC_GRAPHS = {
    "petersen": petersen,
    "C12": lambda: cycle(12),
    "K33": lambda: complete_bipartite(3, 3),
    "cube": lambda: hypercube(3),
    "aut2": lambda: SimpleGraph.from_edges(8, AUT2_EDGES),
}


def _no_witness(monkeypatch):
    """Switch off every source of candidate generators."""
    monkeypatch.setattr(_refine, "_swap_witness", lambda m: None)
    monkeypatch.setattr(_refine, "_search_witness", lambda m, budget, keep: [])


@pytest.mark.parametrize("case", [*range(6, 13), *_SYMMETRIC_GRAPHS])
def test_witness_pruning_changes_nothing(case, monkeypatch):
    """With no witness, only discrete fixpoints are certified and every
    shared class is compared in full; graphs, binding graphs, traces,
    stability and verdicts must be the same."""
    if isinstance(case, int):
        pairs = _witness_cases(case)
    else:
        g = _SYMMETRIC_GRAPHS[case]()
        pairs = {"planted": (g, _planted(g, random.Random(case)))}
        # these checks are small; let the search run on every one of them
        monkeypatch.setattr(_refine, "_SEARCH_GATE", 0)
    graphs = [disjoint_union(g, h) for g, h in pairs.values()]
    graphs += [bind(u).graph for u in graphs]

    def run():
        stable = [stabilize(u) for u in graphs]
        verdicts = [decide_iso(g, h) for g, h in pairs.values()]
        return (
            [(x.graph, x.cells, x.trace.dims, x.trace.rounds, is_stable(x.graph)) for x in stable],
            [(v.isomorphic, v.shared_basic_cells, v.stable_dim, v.rounds) for v in verdicts],
            [x.trace.checked_entries for x in stable],
        )

    pruned, pruned_verdicts, pruned_checked = run()
    _no_witness(monkeypatch)
    full, full_verdicts, full_checked = run()
    assert pruned == full and pruned_verdicts == full_verdicts
    assert all(a <= b for a, b in zip(pruned_checked, full_checked))
    assert pruned_verdicts[0][0] and all(not v[0] for v in pruned_verdicts[1:])
    if case == "aut2":
        assert len(brute_force_aut(pairs["planted"][0])) == 2
    if isinstance(case, str):  # the planted binding graph: the search pruned its check
        assert pruned_checked[-1] < full_checked[-1]


def _reference_orbits(perms, points, move):
    """Smallest member of each point's orbit, by search over the generators."""
    label = {}
    for x in points:
        if x in label:
            continue
        orbit, stack = {x}, [x]
        while stack:
            y = stack.pop()
            for p in perms:
                z = move(p, y)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        for y in orbit:
            label[y] = min(orbit)
    return [label[x] for x in points]


@pytest.mark.parametrize("seed", range(4))
def test_orbit_labels_match_reference(seed):
    rng = np.random.default_rng(seed)
    n = 9
    # seed random permutations (none for seed 0) and one transposition
    perms = [rng.permutation(n) for _ in range(seed)] + [np.array([1, 0, *range(2, n)])]
    vertices = _refine._orbit_labels(perms, n)
    assert vertices.tolist() == _reference_orbits(perms, range(n), lambda p, x: int(p[x]))
    entries = _refine._orbit_labels(perms, n, entries=True)

    def move(p, e):
        i, j = divmod(e, n)
        return int(p[i]) * n + int(p[j])

    assert entries.tolist() == _reference_orbits(perms, range(n * n), move)


def test_orbit_labels_of_a_long_cycle():
    """A 12-cycle in vertex order and its reverse: labels lowered both ways."""
    n = 12
    for cyc in (np.roll(np.arange(n), 1), np.roll(np.arange(n), -1)):
        assert _refine._orbit_labels([cyc], n).tolist() == [0] * n
        entries = _refine._orbit_labels([cyc], n, entries=True)
        assert entries.tolist() == [(j - i) % n for i in range(n) for j in range(n)]


def test_search_candidates_are_verified(monkeypatch):
    """The search offers the transposition (0 1) inside the diagonal class
    {0, 1}, and each class is one of its entry orbits; m is not invariant
    under it, so it must be dropped and the whole check run, which splits."""
    m = np.array([[0, 3, 3, 2], [2, 0, 2, 2], [2, 3, 1, 3], [3, 3, 3, 1]])
    tau = np.array([1, 0, 2, 3])
    assert not _refine._preserves(tau, m)
    monkeypatch.setattr(_refine, "_SEARCH_GATE", 0)  # the search runs however small the check
    monkeypatch.setattr(_refine, "_swap_witness", lambda m: None)
    monkeypatch.setattr(_refine, "_search_witness", lambda m, budget, keep: [tau])
    orbits = {}
    for e in range(16):
        i, j = divmod(e, 4)
        orbits.setdefault(min(e, tau[i] * 4 + tau[j]), []).append(e)
    labels = _labels_from(list(orbits.values()), 4)
    expected = _exact_refinement(m, labels)
    assert len(expected) > len(orbits)
    assert _verify(m, labels)[0] == expected


def test_wrong_search_candidates_change_nothing(monkeypatch):
    """A search that also proposes a transposition inside a shared class
    must have it dropped. The hash is forced to collide, so only the exact
    check separates classes, and the result must be the hashed run's."""
    g = petersen()
    union = bind(disjoint_union(g, _planted(g, random.Random(3)))).graph
    hashed = stabilize(union)
    search = _refine._search_witness
    offered = []

    def with_transposition(m, budget, keep):
        diag = m.diagonal()
        u, v = np.flatnonzero(diag == np.bincount(diag).argmax())[:2]
        tau = np.arange(m.shape[0])
        tau[[u, v]] = v, u
        offered.append(_refine._preserves(tau, m))
        return [tau] + search(m, budget, keep)

    monkeypatch.setattr(_refine, "_search_witness", with_transposition)
    monkeypatch.setattr(_refine, "_pair_hash", lambda m: np.zeros(m.shape, dtype=np.uint64))
    collided = stabilize(union)
    assert False in offered  # some transposition was not an automorphism
    assert collided.cells == hashed.cells
    assert collided.trace.dims == hashed.trace.dims
    assert collided.trace.rounds == hashed.trace.rounds
    assert is_stable(collided.graph)


def test_certificate_needs_an_invariant_matrix():
    """The diagonal names sigma = (0 1)(2 3), whose 8 entry orbits are as many
    as m's 8 classes; but m[0,2] != m[1,3], so m is not sigma-invariant, and
    one exact round does split the diagonal class {(0,0), (1,1)}."""
    m = np.array([[0, 2, 4, 5], [2, 0, 4, 5], [6, 7, 1, 3], [7, 6, 3, 1]])
    assert np.array_equal(_refine._swap_witness(m), _SIGMA)
    assert not _refine._preserves(_SIGMA, m)
    assert _refine.orbit_certificate(m, 8) is None
    x = stabilize(LabeledGraph(m))
    assert x.trace.dims[0] == 8 < x.trace.dims[1]
    assert x.trace.generators == 0  # certified only once discrete


def test_orbit_certificate_skips_the_confirming_round(monkeypatch):
    """A planted union's fixpoint is certified and its confirming round is
    counted, not run; without the certificate that round runs and repeats
    the dimension."""
    rng = random.Random(4)
    g = random_connected_graph(8, rng)
    union = bind(disjoint_union(g, _planted(g, rng))).graph
    rounds = []
    refine_once = _refine.refine_once

    def counted(m, dim):
        rounds.append(dim)
        return refine_once(m, dim)

    monkeypatch.setattr(_refine, "refine_once", counted)
    x = stabilize(union)
    assert x.trace.certified and x.trace.generators == 1 and x.trace.checked_entries == 0
    assert len(rounds) == x.trace.rounds - 1 and x.trace.dims[-1] == x.trace.dims[-2]
    rounds.clear()
    _no_witness(monkeypatch)
    y = stabilize(union)
    assert not y.trace.certified and len(rounds) == y.trace.rounds
    assert (y.graph, y.trace.dims, y.trace.rounds) == (x.graph, x.trace.dims, x.trace.rounds)


def test_symmetric_fixpoint_checks_nothing():
    """C20 against a relabelling: every class of the stable binding graph
    (order 820) is one entry orbit of the generators the search finds."""
    g = cycle(20)
    x = stabilize(bind(disjoint_union(g, _planted(g, random.Random(20)))).graph)
    assert x.order == 820
    assert not x.trace.certified and x.trace.generators > 1
    assert x.trace.checked_entries == 0


def test_checked_entries_show_the_pruning():
    """A planted union of an asymmetric graph checks almost nothing at its
    fixpoint; a non-isomorphic union with a discrete fixpoint checks nothing."""
    rng = random.Random(4)
    g = random_connected_graph(8, rng)
    planted, other = _planted(g, rng), random_connected_graph(8, rng)
    assert len(brute_force_aut(g)) == 1  # so the stable cells are sigma-pairs
    x = stabilize(bind(disjoint_union(g, planted)).graph)
    assert x.dim() < x.order**2  # not discrete: there is a check to prune
    assert x.trace.checked_entries < 0.05 * x.order**2
    y = stabilize(bind(disjoint_union(g, other)).graph)
    assert y.dim() == y.order**2 and y.trace.checked_entries == 0


@pytest.mark.parametrize("seed", range(5))
def test_check_grouping_matches_a_stable_sort(seed):
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, 40, size=900)
    check = np.flatnonzero(rng.random(900) < 0.6)
    expected = check[np.argsort(flat[check], kind="stable")]
    assert np.array_equal(_refine._group_by_class(check, flat), expected)


@pytest.mark.skipif(_refine._glibc() is None, reason="the allocator policy is set on glibc only")
def test_a_warm_stabilization_takes_few_page_faults():
    """Freed round temporaries stay in the heap: a repeat of one order-300
    stabilization reuses them instead of faulting fresh pages in (about
    2,300 minor faults under glibc's default trimming)."""
    resource = pytest.importorskip("resource")
    rng = random.Random(12)
    b = bind(disjoint_union(random_connected_graph(12, rng), random_connected_graph(12, rng)))
    assert b.graph.order == 300
    stabilize(b.graph)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stabilize(b.graph)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_allocator_policy_needs_mallopt():
    libc = types.SimpleNamespace()
    assert _refine._keep_freed_memory(libc) is False
    assert vars(libc) == {}
    assert _refine._keep_freed_memory(None) is False


def test_allocator_policy_stops_at_a_refused_setting():
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0

    assert _refine._keep_freed_memory(types.SimpleNamespace(mallopt=mallopt)) is False
    assert calls == [(_refine._M_MMAP_THRESHOLD, _refine._MMAP_THRESHOLD)]


def test_orders_past_the_cap_are_rejected_before_conversion(monkeypatch):
    def must_not_convert(g):
        raise AssertionError("the graph was converted to an array")

    monkeypatch.setattr(_refine, "MAX_ORDER", 9)
    monkeypatch.setattr(wl, "_to_array", must_not_convert)
    for fn in (stabilize, is_stable):
        with pytest.raises(ValueError, match="order 10 exceeds 9"):
            fn(order10_graph())


# --- partitions on stable graphs ----------------------------------------


def test_cell_partition_binding_examples():
    assert cell_partition(stabilize(bind(k(3)).graph)).cells == ((1, 2, 3), (4, 5, 6))
    assert cell_partition(stabilize(bind(empty(2)).graph)).cells == ((1, 2), (3,))
    assert cell_partition(stabilize(bind(empty(3)).graph)).cells == ((1, 2, 3, 4, 5, 6),)


def test_block_partition_order10():
    x = stabilize(order10_graph())
    assert block_partition(x, 1).cells == ((1,), (2, 5), (3, 4, 7, 10), (6,), (8, 9))
    for u in range(1, 11):
        assert block_partition(x, u).refines(x.cells) or True  # refinement checked below
        assert block_partition(x, u).cell_of(u) == (u,)


def test_block_partition_k3_binding():
    x = stabilize(bind(k(3)).graph)
    assert block_partition(x, 1).cells == ((1,), (2, 3), (4, 5), (6,))


def test_block_partition_refines_cells():
    for g in connected_classes(4):
        x = stabilize(g)
        for u in range(1, g.order + 1):
            assert block_partition(x, u).refines(x.cells)


def test_block_partition_out_of_range():
    with pytest.raises(ValueError):
        block_partition(stabilize(k(3)), 4)


# --- individualization ----------------------------------------------------


def test_individualize_adds_one_color():
    x = stabilize(order10_graph())
    g = individualize(x, 3)
    assert g.dim() == x.dim() + 1
    assert g.cell(3, 3) not in x.graph.colors()


def test_individualize_singleton_cell_changes_nothing():
    x = stabilize(path(3))  # middle vertex is a singleton cell
    assert x.cells.cell_of(2) == (2,)
    assert equivalent(stabilize(individualize(x, 2)).graph, x.graph)


def test_individualization_gives_block_partition():
    for g in list(connected_classes(4)) + [order10_graph()]:
        x = stabilize(g)
        for u in range(1, g.order + 1):
            assert stabilize(individualize(x, u)).cells == block_partition(x, u)


def test_individualize_out_of_range():
    with pytest.raises(ValueError):
        individualize(stabilize(k(3)), 0)


# --- restriction ----------------------------------------------------------


def test_restrict_h0_binding_basic_cell():
    x = stabilize(bind(empty(2)).graph)
    assert x.cells.cells == ((1, 2), (3,))
    sub = restrict_to_cells(x, [0])
    assert sub.order == 2
    m = sub.graph
    assert m.cell(1, 1) == m.cell(2, 2) != m.cell(1, 2) == m.cell(2, 1)


def test_restrict_k3_binding_cell():
    x = stabilize(bind(k(3)).graph)
    sub = restrict_to_cells(x, [1])
    assert sub.order == 3
    assert is_stable(sub.graph)


def test_restrict_keep_all_is_equivalent():
    x = stabilize(order10_graph())
    sub = restrict_to_cells(x, range(len(x.cells.cells)))
    assert equivalent(sub.graph, x.graph)


def test_restrict_validation():
    x = stabilize(k(3))
    with pytest.raises(ValueError):
        restrict_to_cells(x, [])
    with pytest.raises(ValueError):
        restrict_to_cells(x, [5])


def test_certify_rejects_unstable():
    with pytest.raises(ValueError):
        certify_stable(path(3))


def test_certify_rejects_diagonal_color_leak():
    g = LabeledGraph([[0, 0], [0, 0]])
    assert is_stable(g)
    with pytest.raises(ValueError, match="diagonal colors leak"):
        certify_stable(g)


# fixpoints of non-symmetric colour matrices that are not transpose-closed:
# one colour can sit on pairs whose transposes carry different colours
NON_SYMMETRIC_FIXPOINT_SOURCES = (
    [[0, 0, 1, 1], [0, 0, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
    [[0, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 1, 1, 0], [1, 0, 0, 0, 1], [1, 0, 0, 0, 1], [1, 0, 0, 1, 1], [0, 1, 0, 1, 0]],
)


@pytest.mark.parametrize("rows", NON_SYMMETRIC_FIXPOINT_SOURCES)
def test_certify_accepts_non_symmetric_fixpoints(rows):
    x = stabilize(LabeledGraph(rows))
    y = certify_stable(x.graph)
    assert y.graph == x.graph and y.cells == x.cells and y.dim() == x.dim()
    sub = restrict_to_cells(x, range(len(x.cells.cells)))
    assert sub.graph == x.graph and sub.cells == x.cells


def test_certify_agrees_with_is_stable_once_the_diagonal_is_recognized():
    rng = np.random.default_rng(7)
    corpus = [h for n in range(2, 6) for g in connected_classes(n) for h in (g, bind(g).graph)]
    corpus += [LabeledGraph(rng.integers(0, 3, size=(n, n))) for n in range(2, 8) for _ in range(50)]
    accepted = 0
    for h in corpus:
        g = recognize_vertices(h)
        try:
            certify_stable(g)
        except ValueError as e:
            assert "refinement fixpoint" in str(e)
            assert not is_stable(g)
        else:
            accepted += 1
            assert is_stable(g)
    assert 0 < accepted < len(corpus)


# --- similarity and equatable blocks --------------------------------------


def test_similar_reflexive():
    x = stabilize(bind(k(3)).graph)
    assert similar(x, x)


def test_similar_same_cell_transposition():
    x = stabilize(order10_graph())
    same_cell = Permutation.transposition(10, 2, 5)   # both in cell {2,5,8,9}
    y = certify_stable(apply_permutation(x.graph, same_cell))
    assert similar(x, y)


def test_not_similar_cross_cell_transposition():
    x = stabilize(order10_graph())
    cross = Permutation.transposition(10, 1, 2)  # cells {1,6} vs {2,5,8,9}
    y = certify_stable(apply_permutation(x.graph, cross))
    assert not similar(x, y)


def test_similar_order_mismatch():
    with pytest.raises(ValueError):
        similar(stabilize(k(2)), stabilize(k(3)))


def test_similarity_survives_individualizing_first_vertex():
    x = stabilize(order10_graph())
    y = certify_stable(apply_permutation(x.graph, Permutation.transposition(10, 2, 5)))
    assert similar(x, y)
    assert similar(stabilize(individualize(x, 1)), stabilize(individualize(y, 1)))


def test_equatable_blocks_everywhere():
    for g in (k(3), path(4), order10_graph()):
        x = stabilize(g)
        c = len(x.cells.cells)
        for a in range(c):
            for b in range(c):
                assert is_equatable(x, a, b)


def test_equatable_negative_control():
    x = stabilize(bind(k(3)).graph)
    rows = x.graph.matrix.tolist()
    rows[3][0] = rows[3][2]  # overwrite one entry, skewing a block-row multiset
    corrupted = StableGraph(
        graph=LabeledGraph.from_rows(rows), cells=x.cells, trace=x.trace
    )
    results = [
        is_equatable(corrupted, a, b)
        for a in range(len(x.cells.cells))
        for b in range(len(x.cells.cells))
    ]
    assert not all(results)


def test_equatable_bad_cell_index():
    with pytest.raises(ValueError):
        is_equatable(stabilize(k(3)), 0, 9)
