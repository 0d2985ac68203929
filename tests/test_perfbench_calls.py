"""The benchmark's calls into the package still run: each workload of
perfbench/run.py, from a copy of the source tree, at tiny scale and one
operation, exits 0 and reports its checks correct."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """src/, perfbench/ and BENCHMARK.json, copied without run leftovers."""
    tree = tmp_path_factory.mktemp("tree")
    skip = shutil.ignore_patterns("__pycache__", "work", "results", ".benchmarks")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=skip)
    shutil.copyfile(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


@pytest.mark.parametrize("workload", ["stage1-2d", "stage2-3d", "eval-3d"])
def test_workload_runs_correct(tree, workload):
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "0",
                           "--scale", "tiny"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
