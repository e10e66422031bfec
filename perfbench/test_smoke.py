"""Smoke run of the benchmark at its smallest sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with `--tiny`; the result
line must say correct, carry exactly the metrics BENCHMARK.json names, and a
second run with the same seed must reproduce every command's fingerprint
(run.py reports a mismatch as a failure).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_correct_and_repeats(workload):
    for _ in range(2):   # the second run checks the first run's fingerprints
        result = run(workload, 0)
        assert result["correct"], result
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload):
    result = run(workload, 1)
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.self_ms"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_missing_program_fails_without_result():
    # a directory with the benchmark's own files and no src/harrop
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-lists",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
