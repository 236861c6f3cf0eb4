"""Smoke test of the traced benchmark run: it must finish cleanly and end
with its JSON result line, since the benchmark reads only that line."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_ends_with_its_result():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-iso",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    assert any(line.endswith(" absent=-") for line in lines)  # every traced target exists
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
