"""Smoke test of the benchmark: every workload at a tiny trial count.

    python3 -m pytest benchmarks/test_smoke.py

Each run must pass its correctness gates and report exactly the metrics that
BENCHMARK.json declares for its mode, with the declared units.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_correct_with_declared_metrics(workload, trace, kind):
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_missing_package_source_exits_without_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for f in (ROOT / "benchmarks").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "closure-p0.5-n64",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert '"correct"' not in out.stdout
