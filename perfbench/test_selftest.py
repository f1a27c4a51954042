"""Reduced-size self-test of the benchmark.

Runs every workload once, untraced and traced, on a tiny grid and pool
(``--tiny``), and asserts that each run prints every metric named in
``BENCHMARK.json`` with its unit and runs each of its output checks.  Also
asserts that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SWEEP_CHECKS = {"exit_code", "artifacts_present", "results_rows", "accuracies"}
CHECKS = {
    "flagship_sweep": SWEEP_CHECKS | {"crescent"},
    "fullbatch_widepool": SWEEP_CHECKS | {"analyze_curvature", "agreement_verdict",
                                          "theory_consistent"},
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_match():
    assert {w["name"] for w in BENCH["workloads"]} == set(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_tiny_run_emits_every_metric_and_runs_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    ran = dict(re.fullmatch(r"check (\w+): (pass|FAIL) \(.*\)", line).groups()
               for line in lines if line.startswith("check "))
    assert set(ran) == CHECKS[workload]
    # The tiny grid is too small to bend into a crescent; every other check holds.
    assert {name for name, verdict in ran.items() if verdict == "FAIL"} <= {"crescent"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "flagship_sweep", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
