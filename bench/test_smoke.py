"""Smoke test of the benchmark: tiny runs of every workload in both modes.

Each run must pass its own correctness checks and print, as its last line,
exactly the metric names and units BENCHMARK.json lists for its mode.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_checks_outputs_and_names(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == listed
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if not trace:
        assert all(value > 0 for value in values)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "amplify-k16", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
