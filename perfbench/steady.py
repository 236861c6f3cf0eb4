"""Steadiness check: two sets of ten untraced runs of the same code.

    python3 perfbench/steady.py

Every run gets its own seed (seeds 1-10 in the first set, 11-20 in the
second) and the workloads of BENCHMARK.json are interleaved run by run, so
slow drift in machine load falls on all of them alike. For each workload
and end-to-end metric it prints each set's median, quartiles and spread
(quartile distance over the median), and how far the second set's median
lies from the first's, in either direction. All values go to
perfbench/out/steady.json. Exits 1 when a spread or that distance exceeds
the metric's bound in BENCHMARK.json, the share of failed operations
differs between the sets, or a run reports an incorrect result.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
RUNS = 10  # per set
SETS = 2
FIRST_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> list[str]:
    """The stdout lines of one run; the last is its JSON result."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    raw: dict = {w: [[] for _ in range(SETS)] for w in names}
    out_path = HERE / "out" / "steady.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    for s in range(SETS):
        for r in range(RUNS):
            seed = FIRST_SEED + s * RUNS + r
            for w in names:
                res = json.loads(run_once(spec, w, seed)[-1])
                res["seed"] = seed
                raw[w][s].append(res)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics),
                    flush=True)
                out_path.write_text(json.dumps({"runs": raw}, indent=1), encoding="utf-8")

    ok = True
    report: dict = {}
    print(f"\n{'workload':14} {'metric':12} {'bound':>6} " + " ".join(
        f"{'set' + str(s + 1) + ' median [q1, q3] spread':>40}" for s in range(SETS))
        + "  set 2 vs 1  verdict")
    for w in names:
        runs = raw[w]
        fail_shares = [sum(x["failed"] for x in rs) / sum(x["attempted"] for x in rs) for rs in runs]
        correct = all(x["correct"] for rs in runs for x in rs)
        same_share = len(set(fail_shares)) == 1
        ok &= correct and same_share
        report[w] = {"failed_share": fail_shares, "correct": correct, "metrics": {}}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([x["metrics"][name]["value"] for x in rs]) for rs in runs]
            base = sets[0]["median"]
            drift = (sets[1]["median"] - base) / base
            agree = abs(drift) <= bound and all(st["spread"] <= bound for st in sets)
            ok &= agree
            report[w]["metrics"][name] = {"sets": sets, "drift": drift, "agree": agree}
            cells = " ".join(
                f"{st['median']:>12.5g} [{st['q1']:.5g}, {st['q3']:.5g}] {st['spread'] * 100:5.2f}%"
                for st in sets)
            print(f"{w:14} {name:12} {bound:6.2f} {cells}  {drift * 100:+7.2f}%  "
                  f"{'agree' if agree else 'DISAGREE'}")
        print(f"{w:14} failed share per set {fail_shares} correct={correct} "
              f"{'same' if same_share else 'DIFFERENT'}")
    out_path.write_text(json.dumps({"runs": raw, "summary": report}, indent=1), encoding="utf-8")
    print(f"\n{'all sets agree' if ok else 'sets DISAGREE'}; values in {out_path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
