"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to watch the lines appear;
without -s they still show up for any failing criterion.
"""
import itertools
import math
import random
import time

from wlbind import (
    Permutation,
    apply_permutation,
    automorphism_group,
    bind,
    block_partition,
    classify_cells,
    diamond,
    embeds,
    encode_graph6,
    equivalent,
    evs,
    find_isomorphism,
    individualize,
    parse_graph6,
    phi_graph,
    recognize_vertices,
    restrict_to_cells,
    stabilize,
)
from wlbind.binding import MIXED
from wlbind.harness import (
    _check_edge_color_separation,
    _check_pair_label_equivalences,
    _subset_family,
    bench_scaling,
    emit_report,
    random_connected_graph,
    run_agreement,
    run_orbit_check,
    verify_counterexample,
)

from helpers import (
    all_graphs,
    assert_stable_laws,
    connected_classes,
    empty,
    k,
    order10_graph,
    path,
)


def report(criterion: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {criterion} ({name}) failed"


def test_criterion_1_order10_regression():
    t0 = time.perf_counter()
    x = stabilize(order10_graph())
    elapsed = time.perf_counter() - t0
    ok = (
        list(x.trace.dims) == [3, 5, 17, 20, 20]
        and x.trace.rounds == 4
        and x.dim() == 20
        and x.cells.cells == ((1, 6), (2, 5, 8, 9), (3, 4, 7, 10))
        and block_partition(x, 1).cells == ((1,), (2, 5), (3, 4, 7, 10), (6,), (8, 9))
        and elapsed < 1.0
    )
    report(1, "order-10 refinement regression", ok)


def test_criterion_2_small_binding_regressions():
    from wlbind import SimpleGraph

    one_edge = SimpleGraph.from_edges(3, [(1, 2)])
    two_edges = SimpleGraph.from_edges(3, [(1, 3), (2, 3)])
    expected = [
        (empty(2), 5, ((1, 2), (3,))),
        (k(2), 2, ((1, 2, 3),)),
        (empty(3), 4, ((1, 2, 3, 4, 5, 6),)),
        (one_edge, 20, ((1, 2), (3,), (4,), (5, 6))),
        (two_edges, 20, ((1, 2), (3,), (4,), (5, 6))),
        (k(3), 8, ((1, 2, 3), (4, 5, 6))),
    ]
    t0 = time.perf_counter()
    ok = True
    stables = {}
    for g, dim, cells in expected:
        x = stabilize(bind(g).graph)
        stables[g] = x
        ok = ok and x.dim() == dim and x.cells.cells == cells
    # the two dim-20 graphs stabilize to positionally equivalent matrices
    ok = ok and equivalent(stables[one_edge].graph, stables[two_edges].graph)
    ok = ok and (time.perf_counter() - t0) < 1.0
    report(2, "order-2/3 binding regressions", ok)


def _engine_law_corpus():
    graphs = [g for n in range(2, 6) for g in connected_classes(n)]
    rng = random.Random(20260808)
    graphs.extend(random_connected_graph(rng.randint(2, 10), rng) for _ in range(200))
    return graphs


def _refinement_chain(g):
    chain = [recognize_vertices(g)]
    while True:
        nxt = evs(diamond(chain[-1]))
        chain.append(nxt)
        if nxt.dim() == chain[-2].dim():
            return chain


def test_criterion_3_engine_law_suite():
    rng = random.Random(97)
    failures = []
    for idx, g in enumerate(_engine_law_corpus()):
        n = g.order
        x = stabilize(g)
        try:
            # per-round recognizability and the refinement chain
            chain = _refinement_chain(g)
            for h in chain:
                diag = {h.cell(i, i) for i in range(1, n + 1)}
                off = {h.cell(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
                assert not diag & off
            for prev, nxt in zip(chain, chain[1:]):
                assert embeds(prev, nxt)
            assert equivalent(chain[-1], x.graph)
            # stable-graph laws
            assert_stable_laws(x.graph)
            # canonical equivariance, bitwise
            p = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            assert stabilize(apply_permutation(g, p)).graph == apply_permutation(x.graph, p)
            # idempotence
            assert equivalent(stabilize(x.graph).graph, x.graph)
            # refinement preserves the automorphism group
            raw = {q.images for q in automorphism_group(g)}
            colored = {q.images for q in automorphism_group(x.graph)}
            assert raw == colored
        except AssertionError:
            failures.append(idx)
    report(3, "engine-law suite (exhaustive n<=5 + 200 random n<=10)", not failures)


def test_criterion_4_structural_suite():
    t0 = time.perf_counter()
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    by_n = {n: connected_classes(n) for n in range(2, 6)}
    for n, graphs in by_n.items():
        for gi, g in enumerate(graphs):
            b = bind(g)
            plain = stabilize(g)
            x = stabilize(b.graph)
            tag = f"n{n}:{gi}"

            for y in (plain, x):
                for u in range(1, y.order + 1):
                    check(
                        f"individualization {tag}",
                        stabilize(individualize(y, u)).cells == block_partition(y, u),
                    )
            for keep in _subset_family(len(plain.cells.cells)):
                try:
                    restrict_to_cells(plain, keep)
                except ValueError:
                    check(f"restriction {tag}", False)
            for keep in _subset_family(len(x.cells.cells)):
                try:
                    restrict_to_cells(x, keep)
                except ValueError:
                    check(f"restriction-binding {tag}", False)
            if n > 2:
                check(f"phi {tag}", equivalent(stabilize(phi_graph(b, x)).graph, x.graph))
                check(f"pair-labels {tag}", _check_pair_label_equivalences(b, x))
            check(f"edge-separation {tag}", _check_edge_color_separation(b, x))
            if n > 3:
                check(f"mixed-cells {tag}", MIXED not in classify_cells(b, x.cells))
            if n in (4, 5):
                check(
                    f"aut-lift-bijection {tag}",
                    len(automorphism_group(b.graph)) == len(automorphism_group(g)),
                )

    # isomorphism transfers through binding, both directions (oracle on both sides)
    for n, graphs in by_n.items():
        bound = [bind(g).graph for g in graphs]
        for i, j in itertools.combinations_with_replacement(range(len(graphs)), 2):
            basic_iso = find_isomorphism(graphs[i], graphs[j]) is not None
            bound_iso = find_isomorphism(bound[i], bound[j]) is not None
            check(f"binding-iso-complete n{n}:{i}-{j}", basic_iso == bound_iso)

    # no mixed cells across the full order-6 corpus (binding order 21)
    for gi, g in enumerate(connected_classes(6)):
        b = bind(g)
        check(f"mixed-cells n6:{gi}", MIXED not in classify_cells(b, stabilize(b.graph).cells))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    if failures:
        print("structural failures:", failures[:20])
    report(4, f"structural-invariant suite ({elapsed:.0f}s)", ok)


def test_criterion_5_claim_experiments(tmp_path):
    t0 = time.perf_counter()
    agreement = run_agreement(6)
    orbit = run_orbit_check(6)
    emit_report(agreement, tmp_path / "agreement-n6.json")
    emit_report(orbit, tmp_path / "orbit-check-n6.json")

    problems = []
    for rep, name in ((agreement, "agreement"), (orbit, "orbit-check")):
        agree = sum(1 for c in rep["cases"] if c.get("agree") is True)
        disagree = sum(1 for c in rep["cases"] if c.get("agree") is False)
        skipped = sum(1 for c in rep["cases"] if c.get("agree") is None)
        if skipped != 0:
            problems.append(f"{name}: {skipped} skipped")
        if agree + disagree + skipped != len(rep["cases"]):
            problems.append(f"{name}: unclassified cases")
        bad = [r for r in rep["counterexamples"] if not verify_counterexample(r)]
        if bad:
            problems.append(f"{name}: {len(bad)} non-replaying counterexamples")
        print(
            f"  {name}: {len(rep['cases'])} cases, {agree} agree, "
            f"{disagree} disagree, {skipped} skipped"
        )

    # soundness half: whenever the oracle finds a witness the procedure must say iso
    unsound = [
        c for c in agreement["cases"] if c["oracle"] == "iso" and c["gi"] != "iso"
    ]
    if unsound:
        problems.append(f"soundness violations: {[c['id'] for c in unsound]}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 7200
    if problems:
        print("claim-experiment problems:", problems)
    report(5, f"claim-level experiments at n<=6 ({elapsed:.0f}s)", ok)


def test_criterion_6_scaling_bench(tmp_path):
    rep = bench_scaling([8, 12, 16], samples=2, seed=1)
    emit_report(rep, tmp_path / "bench.json")
    n16 = [c["ms"] for c in rep["cases"] if c["n"] == 16]
    slope = rep["timing"]["loglog_slope"]
    print(f"  bench: n=16 times {[f'{m:.0f}ms' for m in n16]}, log-log slope {slope}")
    ok = (
        len(rep["cases"]) == 12  # 3 sizes x 2 samples x (random, planted) pairs
        and all(m < 60_000 for m in n16)
        and math.isfinite(slope)
    )
    report(6, "scaling bench (8,12,16; n=16 under 60 s)", ok)


def test_criterion_7_graph6_roundtrip_exhaustive():
    ok = True
    for n in range(1, 6):
        for g in all_graphs(n):
            ok = ok and parse_graph6(encode_graph6(g)) == g
    report(7, "graph6 round-trip on every graph with n<=5", ok)
