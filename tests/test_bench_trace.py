"""The traced benchmark runs end to end on every workload.

``perfbench/run.py --trace 1`` installs ``perfbench/spans.py``, which rebinds
zkamp's public functions to timing wrappers and probes each view distance
through ``RecordedView.blocks``.  A change to those names or to the view
form would otherwise break the traced figures without any test failing.
One round of each workload runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_round(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    proc = subprocess.run(
        argv + ["--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
