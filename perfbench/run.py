"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 50 --trace 0

A run makes whole passes over the workload's input list; their number
depends only on --seconds (see workloads.Workload), so every run with the
same seed and seconds performs the same operations in the same order.
With --trace 0 the metrics are the end-to-end ones: operation latency
median and tail and throughput, all three from each input's fastest time
over the passes, set-up time and peak RSS. With --trace 1 the
run records spans around the calls into the program's modules and prints
per-operation layer metrics instead; the spans go to
perfbench/out/spans-<workload>.tsv. The program is imported from src/ of
the checkout this file sits in; nothing is installed.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # each part of set-up is timed this often; the medians are reported
# the imports of this file, timed in a fresh interpreter
IMPORT_PROBE = """\
import time
t = time.perf_counter()
import argparse, json, math, resource, statistics, subprocess, sys, traceback, pathlib
sys.path[:0] = [{here!r}, {src!r}]
import workloads
print(time.perf_counter() - t)
"""
ALLOC_OPS = 3  # operations replayed under tracemalloc in a traced run
TAIL_SAMPLES = 10  # operations that must lie beyond the tail percentile
TAIL_MIN_OPS = 40  # a workload with fewer inputs has no tail metric


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(wl, items, passes, tracer):
    """`passes` whole passes over items, in their order.

    Returns the wall times of each pass's operations, one list per pass,
    and the numbers of operations that raised and that returned a wrong
    result. Checks run outside the timed region.
    """
    pass_times: list[list[float]] = []
    errors = wrong = 0
    op_id = 0
    for _ in range(passes):
        times: list[float] = []
        for item in items:
            if tracer is not None:
                tracer.begin_op(op_id)
            t = time.perf_counter()
            try:
                out = wl.op(item)
                raised = False
            except Exception:  # one failed operation must not end the run
                traceback.print_exc()
                raised = True
            times.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.end_op()
            op_id += 1
            if raised:
                errors += 1
            elif not wl.check(item, out):
                wrong += 1
        pass_times.append(times)
    return pass_times, errors, wrong


def tail_percentile(ops: int) -> int | None:
    """The highest whole percentile with at least TAIL_SAMPLES operations
    beyond it, or None below TAIL_MIN_OPS operations, where it would be no
    tail. The workloads in BENCHMARK.json have 64 or more inputs, so it is
    at least the 84th there."""
    return math.floor(100 - 100 * TAIL_SAMPLES / ops) if ops >= TAIL_MIN_OPS else None


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "wlbind" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T0

    # set-up: the imports (this process's and those of fresh interpreters),
    # then input generation and decoding and one untimed warm-up operation
    probe = IMPORT_PROBE.format(here=str(HERE), src=str(SRC))
    import_runs = [imports_s] + [
        float(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS - 1)
    ]
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        items, inputs_ok = wl.make_inputs(args.seed)
        wl.op(items[0])
        setup_runs.append(time.perf_counter() - t)
    setup_s = statistics.median(import_runs) + statistics.median(setup_runs)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    passes = wl.passes(args.seconds)
    pass_times, errors, wrong = measure(wl, items, passes, tracer)
    ops = passes * len(items)
    # the timing metrics come from each input's fastest time over the passes:
    # every pass makes the same operations, and the host's speed drifts
    best = [min(ts) for ts in zip(*pass_times)]
    p50_ms = statistics.median(best) * 1000.0
    tail_pct = tail_percentile(len(best))

    print(f"workload={wl.name} seed={args.seed} passes={passes} inputs={len(items)} ops={ops} "
          f"errors={errors} wrong={wrong} tail={f'p{tail_pct}' if tail_pct else '-'} "
          f"pass_s={','.join(f'{sum(t):.2f}' for t in pass_times)}")
    if tracer is None:
        metrics = {"op_ms_p50": (p50_ms, "ms")}
        if tail_pct is not None:
            tail_s = statistics.quantiles(best, n=100, method="inclusive")[tail_pct - 1]
            metrics["op_ms_tail"] = (tail_s * 1000.0, "ms")
        metrics.update({
            "ops_per_s": (len(best) / sum(best), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
    else:
        tracer.uninstall()
        spans_path = OUT / f"spans-{wl.name}.tsv"
        tracer.write(spans_path)
        alloc = tracing.stabilize_alloc_peak_mb(items[:ALLOC_OPS], wl.op)
        print(f"spans={len(tracer.start)} file={spans_path.relative_to(HERE.parent)} "
              f"absent={','.join(tracer.absent) or '-'}")
        layers = tracer.per_op_metrics()
        layers["traced.op_ms_p50"] = p50_ms
        if alloc is not None:
            layers["wl.stabilize.alloc_peak_mb"] = alloc
        # the JSON result keeps the metrics BENCHMARK.json lists; this line has them all
        print("layers: " + json.dumps(layers))
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]
                   if m["name"] in layers}
    result = {
        "correct": inputs_ok and wrong == 0,
        "attempted": ops,
        "failed": errors + wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
