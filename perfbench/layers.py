"""Traced-run report: per-layer metrics of every workload, side by side.

    python3 perfbench/layers.py [--workloads a,b]

For each workload it makes one untraced and one traced run with seed 1 and
prints every per-layer metric per operation, the untraced and
traced op_ms_p50 with the tracing overhead between them, and how far the
span self times fall short of the traced operation time (they should sum
to it). The span files stay in perfbench/out/; the table is also written
to perfbench/out/layers.json.
"""
from __future__ import annotations

import argparse
import json
import sys

from steady import HERE, ROOT, run_once

SEED = 1


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    names = args.workloads.split(",")

    table: dict[str, dict[str, float]] = {}
    for w in names:
        plain = json.loads(run_once(spec, w, SEED, trace=0)[-1])["metrics"]
        lines = run_once(spec, w, SEED, trace=1)
        row = json.loads(next(line for line in lines if line.startswith("layers: "))[len("layers: "):])
        row["untraced.op_ms_p50"] = plain["op_ms_p50"]["value"]
        row["trace.overhead_pct"] = 100.0 * (row["traced.op_ms_p50"] / row["untraced.op_ms_p50"] - 1.0)
        self_sum = sum(v for k, v in row.items() if k.endswith(".self_ms"))
        row["self_ms.sum_minus_op_ms"] = self_sum - row["op.ms"]
        table[w] = row

    rows = list(dict.fromkeys(k for w in names for k in table[w]))
    print(f"{'metric (per operation)':44}" + "".join(f"{w:>16}" for w in names))
    for k in rows:
        cells = "".join(f"{table[w][k]:16.4f}" if k in table[w] else f"{'-':>16}" for w in names)
        print(f"{k:44}{cells}")
    out = HERE / "out" / "layers.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": SEED, "metrics": table}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
