"""Smoke test of the benchmark: every workload once at 10^3 rows, untraced
and traced, checking the result schema, the metric names BENCHMARK.json
declares and the correctness gate.

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke",
                           "--workload", workload],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 2, proc.stdout


def test_declared_metrics_are_well_formed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
