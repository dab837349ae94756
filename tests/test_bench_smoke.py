"""The benchmark in `perfbench/` runs each of its workloads against this
package and checks every output.  A tiny run of each here makes a change
that breaks the benchmark or its checker fail the test suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ("oracle-crosscheck", "operator-suites",
                                      "cli-requests"))
def test_tiny_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr
