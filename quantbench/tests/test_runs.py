"""End-to-end checks of run.py; each starts real workload processes."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR

ROOT = BENCH_DIR.parent


def run(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def is_count(metric):
    return metric["unit"] in ("count", "B")


@pytest.mark.parametrize("workload", ["scalar_tests", "monte_carlo"])
def test_counts_repeat_exactly_between_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    counts = {k for k, m in first.items() if is_count(m)}
    assert "qdensity.kernel_terms" in counts and "quantiles.sorted_bytes" in counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "quantbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=tmp_path / "quantbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
