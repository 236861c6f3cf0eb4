"""Smoke test of the traced benchmark run: it must finish cleanly and end
with its strict-JSON result line, since the benchmark reads only that line."""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite JSON constant {name}")


def _check_traced_run(workload: str) -> None:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    assert any(line.endswith(" absent=-") for line in lines)  # every traced target exists
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


def test_traced_benchmark_run_ends_with_its_result():
    _check_traced_run("decide-iso")


def test_traced_noniso_benchmark_run_ends_with_its_result():
    _check_traced_run("decide-noniso")


def test_traced_lemma_benchmark_run_ends_with_its_result():
    _check_traced_run("lemmas-n6")  # the workload that calls harness.claim_checks
