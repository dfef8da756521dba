"""The benchmark's correctness gate runs as part of the test suite.

Each workload of ``fitbench/run.py`` runs at its reduced ``--smoke`` sizes
for one second, so a fit that the gate rejects fails here before it fails a
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_the_correctness_gate(workload):
    res = subprocess.run(
        [sys.executable, "fitbench/run.py", "--workload", workload,
         "--smoke", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, res.stderr
