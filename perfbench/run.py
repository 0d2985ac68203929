"""Run one volalign benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stage2-3d --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines before it give the environment
and every metric by name and unit. Results also go to
perfbench/results/<workload>.trace<0|1>.json, and a traced run writes its
spans to perfbench/results/<workload>.spans.npz.
"""

import os

# Pin BLAS threads before numpy is imported. The model's matrices are small,
# so one thread is as fast as two and steadier on a shared host.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("stage1-2d", "stage2-3d", "eval-3d")


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "volalign" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no volalign source tree to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    import workloads

    units = metric_units(bool(args.trace))
    env = environment(args)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(res.metrics) != set(units):
        print(f"error: measured metrics differ from {SPEC.name}: "
              f"{sorted(set(res.metrics) ^ set(units))}", file=sys.stderr)
        return 3
    metrics = {k: {"value": v, "unit": units[k]} for k, v in res.metrics.items()}
    if args.trace:
        n = spans.save_spans(res.tracers, results / f"{args.workload}.spans.npz")
        res.extra["spans_written"] = n
    report = {"env": env, "attempted": res.attempted, "failed": res.failed,
              "metrics": metrics, **res.extra}
    (results / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for k, v in sorted(res.extra.items()):
        print(f"{k} = {json.dumps(v)}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
