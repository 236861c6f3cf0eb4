"""Smoke tests of the benchmark runs, traced and untraced: each must finish
cleanly and end with its strict-JSON result line, since the benchmark reads
only that line."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite JSON constant {name}")


def _run(workload: str, trace: int, seed: int = 1) -> tuple[list[str], dict]:
    """The output lines of a one-second run and its result, which must pass."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    return lines, result


def _check_traced_run(workload: str, seed: int = 1) -> None:
    lines, result = _run(workload, trace=1, seed=seed)
    assert any(line.endswith(" absent=-") for line in lines)  # every traced target exists
    assert result["metrics"]


@pytest.mark.parametrize("workload", ["decide", "lemmas-n6"])
def test_untraced_benchmark_run_ends_with_the_end_to_end_metrics(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _, result = _run(workload, trace=0)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_traced_decide_benchmark_run_ends_with_its_result(seed):
    _check_traced_run("decide", seed)  # both verdicts, as the benchmark traces them


def test_traced_benchmark_run_ends_with_its_result():
    _check_traced_run("decide-iso")


def test_traced_noniso_benchmark_run_ends_with_its_result():
    _check_traced_run("decide-noniso")


def test_traced_lemma_benchmark_run_ends_with_its_result():
    _check_traced_run("lemmas-n6")  # the workload that calls harness.claim_checks
