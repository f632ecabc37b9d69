"""Smoke test: every workload at toy size emits every named metric.

Run from the repository root with `python -m pytest bench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result, declared):
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = last_json(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, BENCHMARK["end_to_end"])
    record = json.loads((ROOT / "bench" / "results" / f"{workload}-seed3-trace0.json").read_text())
    assert record["error_rate"] == 0
    for key in ("nproc", "python", "platform", "commit", "seed", "input"):
        assert key in record
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (last_json(run_bench(workload, 1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert_metrics(result, BENCHMARK["per_layer"])
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
