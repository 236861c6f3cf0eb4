"""Command-line front end.

Subcommands: stabilize, bind, iso, orbits, harness {agreement, orbit-check,
lemmas}, bench. The iso exit code is 0 for isomorphic, 1 for non-isomorphic,
2 for any error (including an exhausted oracle budget). harness exits 0 when
no case disagrees, 1 when one does (its counterexample is in the report),
and 2 for any error. Every other subcommand exits 0, or 2 for an error.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from . import harness
from .binding import bind as make_binding
from .codecs import emit_adjlist, encode_graph6, parse_adjlist, parse_graph6
from .decider import decide_iso
from .graphs import SimpleGraph
from .oracle import find_isomorphism, orbit_partition
from .wl import stabilize


def _read_graph(path: str, fmt: str) -> SimpleGraph:
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "graph6":
        return parse_graph6(text)
    return parse_adjlist(text)


def _print_partition(cells) -> str:
    return " | ".join(",".join(str(v) for v in c) for c in cells.cells)


def _cmd_stabilize(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    x = stabilize(g)
    width = len(str(x.dim()))
    for row in x.graph.matrix.tolist():
        print(" ".join(f"{c:{width}d}" for c in row))
    print(f"dim: {x.dim()}")
    print(f"cells: {_print_partition(x.cells)}")
    if args.trace:
        print(f"rounds: {x.trace.rounds}")
        print(f"dims: {list(x.trace.dims)}")
        print(f"checked entries: {x.trace.checked_entries} of {x.order * x.order}")
        print(f"certified: {'yes' if x.trace.certified else 'no'}")
        print(f"generators: {x.trace.generators}")
    return 0


def _cmd_bind(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    b = make_binding(g)
    if args.out_format == "adj":
        sys.stdout.write(emit_adjlist(b.graph))
    else:
        print(encode_graph6(b.graph).decode("ascii"))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    g = _read_graph(args.file_a, args.format)
    h = _read_graph(args.file_b, args.format)
    verdict = decide_iso(g, h)
    print(f"gi: {verdict.decision}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    if verdict.shared_basic_cells:
        shared = " | ".join(",".join(map(str, c)) for c in verdict.shared_basic_cells)
        print(f"shared basic cells: {shared}")
    print(f"stable dim: {verdict.stable_dim}  rounds: {verdict.rounds}  ms: {verdict.timing_ms:.1f}")
    if args.oracle:
        witness = find_isomorphism(g, h)
        oracle = "isomorphic" if witness is not None else "non-isomorphic"
        print(f"oracle: {oracle}")
        if witness is not None:
            print(f"witness: {list(witness.images)}")
        if (witness is not None) != verdict.isomorphic:
            print("DISAGREEMENT between procedure and oracle", file=sys.stderr)
    return 0 if verdict.isomorphic else 1


def _cmd_orbits(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    if args.oracle:
        cells = orbit_partition(g)
        label = "oracle orbits"
    else:
        cells = stabilize(g).cells
        label = "wl cells"
    print(f"{label}: {_print_partition(cells)}")
    return 0


def _cmd_harness(args: argparse.Namespace) -> int:
    runner = {
        "agreement": harness.run_agreement,
        "orbit-check": harness.run_orbit_check,
        "lemmas": harness.run_lemma_suite,
    }[args.experiment]
    report = runner(args.max_n)
    harness.emit_report(report, args.out)
    agree = sum(1 for c in report["cases"] if c.get("agree") is True)
    disagree = sum(1 for c in report["cases"] if c.get("agree") is False)
    skipped = sum(1 for c in report["cases"] if c.get("agree") is None)
    print(
        f"{args.experiment}: {len(report['cases'])} cases "
        f"({agree} agree, {disagree} disagree, {skipped} skipped) -> {args.out}"
    )
    return 0 if disagree == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    report = harness.bench_scaling(sizes, args.samples, args.seed)
    harness.emit_report(report, args.out)
    print(
        f"bench sizes={sizes} samples={args.samples} seed={args.seed} "
        f"slope={report['timing']['loglog_slope']} -> {args.out}"
    )
    for gi, per_size in report["timing"]["verdict_median_ms"].items():
        print(f"  median ms, {gi}: {per_size}")
    faults = statistics.median(c["minor_faults"] for c in report["cases"])
    print(f"  median minor faults per case: {faults:g}; peak RSS {report['timing']['peak_rss_mb']} MB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wlbind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stabilize", help="print the stable matrix, dims, and cells")
    p.add_argument("file")
    p.add_argument("--format", choices=("graph6", "adj"), default="graph6")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_stabilize)

    p = sub.add_parser("bind", help="emit the binding graph")
    p.add_argument("file")
    p.add_argument("--format", choices=("graph6", "adj"), default="graph6")
    p.add_argument("--out-format", choices=("graph6", "adj"), default="graph6")
    p.set_defaults(fn=_cmd_bind)

    p = sub.add_parser("iso", help="decide isomorphism (exit 0 iso, 1 noniso, 2 error)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--format", choices=("graph6", "adj"), default="graph6")
    p.add_argument("--oracle", action="store_true", help="also run the brute-force referee")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("orbits", help="print the WL cell partition or oracle orbits")
    p.add_argument("file")
    p.add_argument("--format", choices=("graph6", "adj"), default="graph6")
    p.add_argument("--oracle", action="store_true", help="brute-force orbits instead of WL cells")
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("harness", help="run a claim-verification experiment")
    p.add_argument("experiment", choices=("agreement", "orbit-check", "lemmas"))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_harness)

    p = sub.add_parser("bench", help="time both verdicts of the decision procedure across sizes")
    p.add_argument("--sizes", required=True, help="comma-separated, strictly ascending orders")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # any failure exits 2: exit 1 means "non-isomorphic" to iso
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
