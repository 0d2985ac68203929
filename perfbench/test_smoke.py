"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced. Run with ``python3 -m pytest perfbench/test_smoke.py``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Exact per-layer counts at batch size 32; they change only when the model
# path records a different number of tape entries or preprocesses more often.
EXACT = {
    ("stage1-2d", "diffmath.tape_records_per_step"): 241.0,
    ("stage2-3d", "diffmath.tape_records_per_step"): 1233.0,
    ("eval-3d", "diffmath.tape_records_per_step"): 0.0,
    ("stage1-2d", "datapipe.preprocess_per_volume"): 1.0,
    ("stage2-3d", "datapipe.preprocess_per_volume"): 1.0,
    ("eval-3d", "datapipe.preprocess_per_volume"): 4.0,
}


def run_benchmark(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for (w, name), value in EXACT.items():
        if w == workload and trace:
            assert result["metrics"][name]["value"] == value, name


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stage1-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
