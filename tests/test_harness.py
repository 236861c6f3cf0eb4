import itertools
import json
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from wlbind import (
    LabeledGraph,
    StableGraph,
    bind,
    binding_vertex,
    cli,
    encode_graph6,
    harness,
    is_connected,
    parse_graph6,
    stabilize,
)
from wlbind.cli import main as cli_main
from wlbind.harness import (
    _check_edge_color_separation,
    _check_pair_label_equivalences,
    bench_scaling,
    claim_checks,
    emit_report,
    enumerate_graphs,
    load_report,
    random_connected_graph,
    report_to_json,
    run_agreement,
    run_lemma_suite,
    run_orbit_check,
    verify_counterexample,
)

from helpers import all_graphs, brute_force_has_iso, k, mask_to_graph, path

TOP_KEYS = [
    "experiment",
    "engine_version",
    "canonicalization",
    "seed",
    "corpus",
    "cases",
    "counterexamples",
    "timing",
]


def case_counts(report):
    agree = sum(1 for c in report["cases"] if c.get("agree") is True)
    disagree = sum(1 for c in report["cases"] if c.get("agree") is False)
    skipped = sum(1 for c in report["cases"] if c.get("agree") is None)
    return agree, disagree, skipped


# --- corpus ---------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_graphs(1)) == 1
    assert len(enumerate_graphs(2)) == 1
    assert len(enumerate_graphs(3)) == 2
    assert len(enumerate_graphs(4)) == 6
    assert len(enumerate_graphs(5)) == 21
    assert len(enumerate_graphs(6)) == 112
    assert len(enumerate_graphs(4, connected_only=False)) == 11


def _min_mask_classes(n, connected_only):
    """The brute-force listing: each labeled graph's minimum edge bitmask over
    all n! relabelings, one graph per distinct minimum, in ascending order."""
    slots = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    minima = set()
    for g in all_graphs(n):
        a = g.matrix.tolist()
        minima.add(min(
            sum(1 << t for t, (i, j) in enumerate(slots) if a[p[i]][p[j]])
            for p in perms
        ))
    graphs = [mask_to_graph(n, mask) for mask in sorted(minima)]
    return [g for g in graphs if not connected_only or is_connected(g)]


@pytest.mark.parametrize("connected_only", [True, False])
def test_enumerate_matches_brute_force_minimum_masks(connected_only):
    for n in range(1, 6):
        expected = _min_mask_classes(n, connected_only)
        got = enumerate_graphs(n, connected_only=connected_only)
        assert [g.matrix.tolist() for g in got] == [g.matrix.tolist() for g in expected]


def test_enumerate_order_seven():
    """OEIS A001349 and A000088: 853 connected graphs of order 7, 1044 in all."""
    started = time.perf_counter()
    assert len(enumerate_graphs(7)) == 853
    assert len(enumerate_graphs(7, connected_only=False)) == 1044
    assert time.perf_counter() - started < 1.0


def test_enumerate_rejects_large():
    with pytest.raises(ValueError):
        enumerate_graphs(8)


def test_enumerate_matches_pairwise_oracle_dedupe():
    for n in (3, 4):
        classes = enumerate_graphs(n, connected_only=False)
        # no two representatives are isomorphic
        for g, h in itertools.combinations(classes, 2):
            assert not brute_force_has_iso(g, h)
        # every labeled graph is isomorphic to exactly one representative
        for g in all_graphs(n):
            hits = sum(1 for rep in classes if brute_force_has_iso(g, rep))
            assert hits == 1


def test_enumerate_deterministic():
    a = enumerate_graphs(5)
    b = enumerate_graphs(5)
    assert [g.matrix.tolist() for g in a] == [g.matrix.tolist() for g in b]


def test_random_connected_graph_seeded():
    g1 = random_connected_graph(8, random.Random(5))
    g2 = random_connected_graph(8, random.Random(5))
    assert g1 == g2
    assert g1.order == 8 and is_connected(g1)


# --- experiments ----------------------------------------------------------


def test_agreement_max3():
    r = run_agreement(3)
    assert len(r["cases"]) == 4  # one self-pair at n=2, three pairs at n=3
    agree, disagree, skipped = case_counts(r)
    assert (agree, disagree, skipped) == (4, 0, 0)
    assert r["counterexamples"] == []
    for c in r["cases"]:
        i, j = c["id"].split(":")[1].split("-")
        if i == j:
            assert c["gi"] == "iso" and c["oracle"] == "iso"


def test_agreement_counts_balance():
    r = run_agreement(4)
    agree, disagree, skipped = case_counts(r)
    assert agree + disagree + skipped == len(r["cases"])
    assert skipped == 0 and disagree == 0


def test_agreement_skip_on_budget(monkeypatch):
    # pairs ruled out by the profile filter cost no search nodes, so only the
    # pairs needing actual search become skipped
    monkeypatch.setenv("WLBIND_ORACLE_BUDGET", "1")
    r = run_agreement(4)
    agree, disagree, skipped = case_counts(r)
    assert skipped > 0
    assert agree + disagree + skipped == len(r["cases"])
    for c in r["cases"]:
        assert (c["oracle"] == "skipped") == (c["agree"] is None)
        if c["oracle"] == "skipped":
            assert "skip_reason" in c
        if c["id"].split(":")[1].split("-")[0] == c["id"].split(":")[1].split("-")[1]:
            assert c["gi"] == "iso"  # self-pairs always decide isomorphic


def test_orbit_check_max3():
    r = run_orbit_check(3)
    assert len(r["cases"]) == 3
    agree, disagree, skipped = case_counts(r)
    assert (agree, disagree, skipped) == (3, 0, 0)
    assert all(c["cells_are_orbit_unions"] for c in r["cases"])


def test_lemma_suite_max3():
    r = run_lemma_suite(3)
    agree, disagree, skipped = case_counts(r)
    assert disagree == 0 and skipped == 0
    claims = {c["claim"] for c in r["cases"]}
    assert "individualization-block-partition" in claims
    assert "phi-graph-equivalence" in claims
    assert "no-mixed-cells" not in claims  # needs order > 3


def test_lemma_suite_includes_mixed_check_at_4():
    r = run_lemma_suite(4)
    claims = {c["claim"] for c in r["cases"]}
    assert "no-mixed-cells" in claims
    _, disagree, skipped = case_counts(r)
    assert disagree == 0 and skipped == 0


def test_claim_checks_all_pass_on_path4():
    checks = claim_checks(path(4))
    assert all(fn() for fn in checks.values())


def _rewritten(x: StableGraph, entries: dict[tuple[int, int], int]) -> StableGraph:
    """x with each 1-based entry (u, v) set to the color given for it."""
    m = x.graph.matrix.copy()
    for (u, v), c in entries.items():
        m[u - 1, v - 1] = c
    return StableGraph(graph=LabeledGraph(m), trace=x.trace)


def test_binding_color_checks_fail_on_rewritten_colors():
    b = bind(path(4))
    x = stabilize(b.graph)
    assert _check_edge_color_separation(b, x) and _check_pair_label_equivalences(b, x)
    m = x.graph.matrix
    p12, p13 = binding_vertex(b, 1, 2), binding_vertex(b, 1, 3)
    fresh = int(m.max()) + 1
    # an edge pair's binding edge takes a non-edge pair's binding-edge color
    assert not _check_edge_color_separation(b, _rewritten(x, {(p12, 1): m[p13 - 1, 0]}))
    # a basic edge takes a binding-edge color
    assert not _check_edge_color_separation(b, _rewritten(x, {(1, 2): m[p12 - 1, 0]}))
    # {1, 2} and {3, 4} agree everywhere but on one binding edge, or on the binder
    assert not _check_pair_label_equivalences(b, _rewritten(x, {(1, p12): fresh}))
    assert not _check_pair_label_equivalences(b, _rewritten(x, {(p12, p12): fresh}))


# --- reports ---------------------------------------------------------------


def test_report_schema_and_roundtrip(tmp_path):
    r = run_agreement(3)
    assert list(r.keys()) == TOP_KEYS
    assert r["corpus"]["per_n"] == {"2": 1, "3": 2}
    assert set(r["cases"][0].keys()) >= {"id", "graphs", "gi", "oracle", "agree"}
    assert "total_ms" in r["timing"] and "per_case_median_ms" in r["timing"]

    path_ = tmp_path / "r.json"
    emit_report(r, path_)
    loaded = load_report(path_)
    assert report_to_json(loaded) == path_.read_text(encoding="utf-8")
    assert loaded["cases"] == r["cases"]


def test_report_cases_are_line_oriented(tmp_path):
    r = run_agreement(3)
    text = report_to_json(r)
    case_lines = [ln for ln in text.splitlines() if '"id"' in ln]
    assert len(case_lines) == len(r["cases"])
    for ln in case_lines:
        json.loads(ln.rstrip(","))


def test_reports_deterministic_modulo_timing():
    a = run_agreement(3)
    b = run_agreement(3)
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_emit_report_bad_path():
    with pytest.raises(OSError) as e:
        emit_report(run_agreement(3), "/nonexistent-dir/x.json")
    assert "/nonexistent-dir/x.json" in str(e.value)


def test_verify_counterexample_rejects_fabrications():
    g6 = encode_graph6(k(3)).decode()
    fake_agreement = {
        "kind": "agreement",
        "graphs": [g6, g6],
        "gi": "noniso",  # reality says iso
        "oracle": "iso",
        "witness": [1, 2, 3],
    }
    assert not verify_counterexample(fake_agreement)
    fake_orbit = {
        "kind": "orbit",
        "graphs": [g6],
        "wl_cells": [[1], [2], [3], [4], [5], [6]],
        "oracle_orbits": [[1, 2, 3], [4, 5, 6]],
    }
    assert not verify_counterexample(fake_orbit)
    with pytest.raises(ValueError):
        verify_counterexample({"kind": "nonsense", "graphs": [g6]})
    with pytest.raises(ValueError, match="bogus"):
        verify_counterexample({"kind": "lemma", "graphs": [g6], "claim": "bogus"})
    with pytest.raises(ValueError, match="order 3"):  # claimed only for order > 3
        verify_counterexample({"kind": "lemma", "graphs": [g6], "claim": "no-mixed-cells"})
    # a truncated or hand-edited record names what it lacks
    for record, missing in [
        ({"kind": "agreement", "graphs": [g6, g6]}, "'gi'"),
        ({"kind": "agreement", "graphs": [g6, g6], "gi": "iso", "oracle": "iso"}, "'witness'"),
        ({"kind": "lemma", "graphs": [g6]}, "'claim'"),
        ({"kind": "orbit", "graphs": [g6]}, "'wl_cells'"),
        ({"kind": "orbit", "graphs": [g6], "wl_cells": [[1]]}, "'oracle_orbits'"),
        ({"kind": "lemma", "claim": "bogus"}, "'graphs'"),
        ({"kind": "lemma", "graphs": [g6, g6], "claim": "bogus"}, "needs 1 graph"),
        ({**fake_agreement, "graphs": [g6]}, "needs 2 graph"),
        ({"graphs": [g6]}, "kind None"),
    ]:
        with pytest.raises(ValueError, match=missing):
            verify_counterexample(record)


# --- positive controls: an engine that lies must leave a replayable record ---


def _replays_only_under_patch(monkeypatch, records):
    assert records and all(verify_counterexample(r) for r in records)
    monkeypatch.undo()
    assert not any(verify_counterexample(r) for r in records)


def test_agreement_records_a_flipped_verdict(monkeypatch):
    decide = harness.decide_iso

    def flipped_on_distinct_pair(g, h):
        """The verdict with its shared basic cells emptied, or faked as one
        cell holding vertex 1 of G and of H."""
        verdict = decide(g, h)
        if g == h:
            return verdict
        shared = () if verdict.isomorphic else ((1, g.order + 1),)
        return replace(verdict, shared_basic_cells=shared)

    monkeypatch.setattr(harness, "decide_iso", flipped_on_distinct_pair)
    r = run_agreement(3)  # P3 against K3 is the only pair of distinct graphs
    assert case_counts(r) == (3, 1, 0)
    (record,) = r["counterexamples"]
    assert record["kind"] == "agreement" and record["id"] == "n3:0-1"
    assert (record["gi"], record["oracle"], record["witness"]) == ("iso", "noniso", None)
    _replays_only_under_patch(monkeypatch, [record])


def test_orbit_check_records_wrong_cells(monkeypatch):
    stable = harness.stabilize
    target = bind(k(3)).graph

    def discrete_on_target(g):
        """x with a fresh color on each diagonal entry of the target: discrete cells."""
        x = stable(g)
        if g != target:
            return x
        m = x.graph.matrix.copy()
        np.fill_diagonal(m, m.max() + 1 + np.arange(g.order))
        return StableGraph(graph=LabeledGraph(m), trace=x.trace)

    monkeypatch.setattr(harness, "stabilize", discrete_on_target)
    r = run_orbit_check(3)
    assert case_counts(r) == (2, 1, 0)
    (record,) = r["counterexamples"]
    assert record["kind"] == "orbit" and record["graphs"] == [encode_graph6(k(3)).decode()]
    assert record["wl_cells"] == [[v] for v in range(1, 7)]
    assert record["oracle_orbits"] == [[1, 2, 3], [4, 5, 6]]
    _replays_only_under_patch(monkeypatch, [record])


def test_lemma_suite_records_a_failed_claim(monkeypatch):
    monkeypatch.setattr(harness, "_check_phi", lambda b, x: False)
    r = run_lemma_suite(3)
    failed = [c for c in r["cases"] if c["agree"] is False]
    assert {c["claim"] for c in failed} == {"phi-graph-equivalence"}
    assert len(failed) == 2  # both graphs of order 3; order 2 has no phi claim
    assert [rec["id"] for rec in r["counterexamples"]] == [c["id"] for c in failed]
    for record in r["counterexamples"]:
        assert record["kind"] == "lemma" and record["claim"] == "phi-graph-equivalence"
    _replays_only_under_patch(monkeypatch, r["counterexamples"])


# --- bench -----------------------------------------------------------------


def test_bench_smoke():
    r = bench_scaling([4, 5], samples=2, seed=3)
    assert len(r["cases"]) == 8  # a random and a planted pair per sample
    assert all("ms" in c and c["binding_order"] == c["n"] * (2 * c["n"] + 1) for c in r["cases"])
    assert "loglog_slope" in r["timing"]
    planted = [c for c in r["cases"] if c["id"].endswith(":planted")]
    assert len(planted) == 4 and all(c["gi"] == "iso" for c in planted)
    medians = r["timing"]["verdict_median_ms"]
    assert set(medians["iso"]) == {"4", "5"}
    assert all(m > 0 for per_size in medians.values() for m in per_size.values())
    assert all(isinstance(c["minor_faults"], int) and c["minor_faults"] >= 0 for c in r["cases"])
    assert r["timing"]["peak_rss_mb"] > 0


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_single_size_bench_writes_strict_json(tmp_path):
    out = tmp_path / "r.json"
    assert cli_main(["bench", "--sizes", "4", "--samples", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert report["timing"]["loglog_slope"] is None


def test_bench_deterministic_verdicts():
    a = bench_scaling([4, 5], samples=2, seed=9)
    b = bench_scaling([4, 5], samples=2, seed=9)
    assert [c["gi"] for c in a["cases"]] == [c["gi"] for c in b["cases"]]
    assert [c["graphs"] for c in a["cases"]] == [c["graphs"] for c in b["cases"]]


def test_bench_validation():
    with pytest.raises(ValueError):
        bench_scaling([], 1)
    with pytest.raises(ValueError):
        bench_scaling([5, 4], 1)
    with pytest.raises(ValueError):
        bench_scaling([4, 4], 1)
    with pytest.raises(ValueError):
        bench_scaling([4, 30], 1)
    with pytest.raises(ValueError):
        bench_scaling([4], 0)


# --- CLI --------------------------------------------------------------------


def write_g6(tmp_path, name, g):
    f = tmp_path / name
    f.write_text(encode_graph6(g).decode() + "\n")
    return str(f)


def test_cli_stabilize_and_bind(tmp_path, capsys):
    f = write_g6(tmp_path, "k3.g6", k(3))
    assert cli_main(["stabilize", f, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "dim: 2" in out and "cells: 1,2,3" in out and "rounds:" in out
    assert "checked entries: 9 of 9" in out  # two classes, each compared in full
    assert "certified: no" in out and "generators: 0" in out

    # the ends of P3 swap: their orbits are the classes after one round
    f = write_g6(tmp_path, "p3.g6", path(3))
    assert cli_main(["stabilize", f, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "rounds: 2" in out and "dims: [3, 5, 5]" in out
    assert "checked entries: 0 of 9" in out
    assert "certified: yes" in out and "generators: 1" in out

    assert cli_main(["bind", f]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_graph6(out).order == 6

    big = write_g6(tmp_path, "p128.g6", path(128))  # binding order 8256: over the cap
    assert cli_main(["bind", big]) == 2
    assert "8256" in capsys.readouterr().err

    adj = tmp_path / "p3.adj"
    adj.write_text("3\n1 2\n2 3\n")
    assert cli_main(["stabilize", str(adj), "--format", "adj"]) == 0


def test_cli_iso_exit_codes(tmp_path, capsys, monkeypatch):
    a = write_g6(tmp_path, "a.g6", k(3))
    b = write_g6(tmp_path, "b.g6", path(3))
    assert cli_main(["iso", a, a, "--oracle"]) == 0
    assert "isomorphic" in capsys.readouterr().out
    assert cli_main(["iso", a, b]) == 1
    assert cli_main(["iso", a, str(tmp_path / "missing.g6")]) == 2
    big = write_g6(tmp_path, "p64.g6", path(64))  # binding order 8256: over the cap
    capsys.readouterr()
    assert cli_main(["iso", big, big]) == 2
    assert "error: inputs of order 64" in capsys.readouterr().err

    def out_of_memory(g, h):
        raise MemoryError()

    # an unexpected error must not exit 1, which reads as "non-isomorphic"
    monkeypatch.setattr(cli, "decide_iso", out_of_memory)
    capsys.readouterr()
    assert cli_main(["iso", a, a]) == 2
    assert "error: MemoryError" in capsys.readouterr().err


def test_cli_orbits(tmp_path, capsys):
    f = write_g6(tmp_path, "p3.g6", path(3))
    assert cli_main(["orbits", f]) == 0
    out = capsys.readouterr().out
    assert "wl cells" in out and "1,3" in out
    assert cli_main(["orbits", f, "--oracle"]) == 0
    assert "oracle orbits" in capsys.readouterr().out


def test_cli_harness_and_bench(tmp_path, capsys):
    out = tmp_path / "agree.json"
    assert cli_main(["harness", "agreement", "--max-n", "3", "--out", str(out)]) == 0
    report = load_report(out)
    assert report["experiment"] == "agreement" and len(report["cases"]) == 4

    bout = tmp_path / "bench.json"
    assert cli_main(["bench", "--sizes", "4,5", "--samples", "1", "--seed", "2", "--out", str(bout)]) == 0
    assert load_report(bout)["experiment"] == "bench"

    assert cli_main(["harness", "orbit-check", "--max-n", "2", "--out", str(tmp_path / "o.json")]) == 0
    assert cli_main(["harness", "lemmas", "--max-n", "2", "--out", str(tmp_path / "l.json")]) == 0
