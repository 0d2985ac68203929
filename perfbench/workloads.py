"""The benchmark's workloads: input preparation, the measuring loop and the
output checks.

Every workload is a closed loop with one caller: an operation starts only
after the previous one has finished. An operation is what one user command
does:

- stage1-2d: load the manifest and run ``train_stage1`` on a 2D pattern
  corpus, writing epoch checkpoints (the encoder and diffmath path; no
  slice pooling).
- stage2-3d: load the manifest and a stage-1 checkpoint and run
  ``train_stage2`` on 8-slice volumes (the adapter and tape path; the
  encoder only runs frozen during set-up).
- eval-3d: run ``run_ablation`` over the 3D test split with the three
  trained checkpoints in its work directory, so it loads them and trains
  nothing: four (checkpoint, pool) rows, forward only. The embedding table
  of the last row is then exported to CSV and read back.

Inputs are made from the seed in a child process before timing starts, so
the measuring process never runs that training and its peak RSS is its own.
Each operation works on a fresh copy of its inputs, so a cache keyed by path
cannot turn a later operation into a hit that a user running one command
per process would never see.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from volalign import datapipe as dp
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.datapipe import SynthSpec

from spans import Tracer, patched

WORKLOADS = ("stage1-2d", "stage2-3d", "eval-3d")


@dataclass(frozen=True)
class Scale:
    per_class: int
    stage1_epochs: int
    stage2_epochs: int


FULL = Scale(per_class=200, stage1_epochs=10, stage2_epochs=10)
# Small enough for the smoke test; keeps batch size 32, so tape counts match FULL.
TINY = Scale(per_class=25, stage1_epochs=3, stage2_epochs=5)
SCALES = {"full": FULL, "tiny": TINY}

STAGE1_LR = 1e-3
STAGE2_LR = 2e-3
PROBE_FOLDS = 5
SEED_3D_OFFSET = 1_000_000  # the 3D corpus uses another seed than the 2D one
ABLATION_ROWS = len(ek.ABLATION_CONFIGS)


def make_config(epochs: int, lr0: float, seed: int) -> TrainConfig:
    """The acceptance geometry; patience = epochs, so every run is full length."""
    return TrainConfig(d_model=64, heads=4, d_hidden=128, d_text=64, vocab=4096,
                       patch_size=8, image_size=16, s_max=8, batch_size=32,
                       dropout_rate=0.5, tau=0.07, lr0=lr0, lr_min=1e-6,
                       weight_decay=1e-4, epochs=epochs, patience=epochs,
                       seed=seed).validate()


def _split(entries, name):
    return [e for e in entries if e.split == name]


# ---------------------------------------------------------------------------
# input preparation (runs in a child process)


def prepare(workload: str, seed: int, scale: Scale, out: Path) -> None:
    """Write the inputs one operation reads to out/inputs."""
    inputs, build = out / "inputs", out / "build"
    inputs.mkdir(parents=True)
    corpus2d = inputs / "corpus2d" if workload == "stage1-2d" else build / "corpus2d"
    e2d = dp.synth_dataset(SynthSpec(family="pattern", kind="2d", classes=4,
                                     per_class=scale.per_class, slices=1,
                                     height=16, width=16), seed, corpus2d)
    if workload == "stage1-2d":
        return
    corpus3d = inputs / "corpus3d" if workload == "stage2-3d" else build / "corpus3d"
    # stored at 32 x 32, so preprocessing really resizes to the 16 x 16 input
    e3d = dp.synth_dataset(SynthSpec(family="pattern", kind="3d", classes=4,
                                     per_class=scale.per_class, slices=8,
                                     height=32, width=32),
                           seed + SEED_3D_OFFSET, corpus3d)
    stage1 = tr.train_stage1(make_config(scale.stage1_epochs, STAGE1_LR, seed),
                             _split(e2d, "train"), _split(e2d, "val"), corpus2d)
    tr.save_checkpoint(stage1, inputs / "stage1.ckpt")
    if workload == "stage2-3d":
        return
    cfg2 = make_config(scale.stage2_epochs, STAGE2_LR, seed)
    for name, base in (("stage2_vanilla.ckpt", tr.make_initial_checkpoint(cfg2)),
                       ("stage2_finetuned.ckpt", stage1)):
        ckpt = tr.train_stage2(cfg2, _split(e3d, "train"), _split(e3d, "val"),
                               corpus3d, base)
        tr.save_checkpoint(ckpt, inputs / name)
    # the eval split alone: test volumes, their manifest and the class captions
    test = _split(e3d, "test")
    (inputs / "test3d" / "samples").mkdir(parents=True)
    for e in test:
        shutil.copyfile(corpus3d / e.path, inputs / "test3d" / e.path)
    dp.save_manifest(test, inputs / "test3d" / "manifest.json")
    shutil.copyfile(corpus3d / "captions.json", inputs / "test3d" / "captions.json")


_PREPARE = ("import sys; sys.path[:0] = sys.argv[1:3]; import pathlib, workloads; "
            "workloads.prepare(sys.argv[3], int(sys.argv[4]), workloads.SCALES[sys.argv[5]], "
            "pathlib.Path(sys.argv[6]))")


def prepare_in_child(workload: str, seed: int, scale: str, out: Path) -> None:
    """Run prepare() in a fresh interpreter and wait for it to end."""
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, "-c", _PREPARE, str(here.parent / "src"), str(here),
                    workload, str(seed), scale, str(out)], check=True, timeout=170)


# ---------------------------------------------------------------------------
# timing hooks of the untraced run


class StepClock:
    """Timestamps at each Adam.step exit; the only hook in an untraced run."""

    def __init__(self):
        self.stamps: list[float] = []

    def installed(self):
        step = tr.Adam.step
        stamps = self.stamps

        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out

        return patched(tr.Adam, "step", timed_step)


@dataclass
class OpRecord:
    wall: float
    setup: float
    steps: list[float]   # optimiser steps (training) or eval rows, in seconds
    items: int           # samples trained or volumes embedded
    item_seconds: float  # time those items took
    checks: dict[str, bool]
    quality: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# operations


def _read_loss_csv(path: Path) -> list[dict[str, float]]:
    lines = path.read_text().strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, map(float, ln.split(",")))) for ln in lines[1:]]


def _training_op(workload: str, seed: int, scale: Scale, op_dir: Path,
                 clock: StepClock) -> tuple[OpRecord, object]:
    stage2 = workload == "stage2-3d"
    cfg = (make_config(scale.stage2_epochs, STAGE2_LR, seed) if stage2
           else make_config(scale.stage1_epochs, STAGE1_LR, seed))
    corpus = op_dir / ("corpus3d" if stage2 else "corpus2d")
    run_dir = op_dir / "run"
    first = len(clock.stamps)
    t0 = time.perf_counter()
    entries = dp.load_manifest(corpus / "manifest.json")
    train, val = _split(entries, "train"), _split(entries, "val")
    if stage2:
        stage1 = tr.load_checkpoint(op_dir / "stage1.ckpt")
        ckpt = tr.train_stage2(cfg, train, val, corpus, stage1, out_dir=run_dir)
    else:
        ckpt = tr.train_stage1(cfg, train, val, corpus, out_dir=run_dir)
    t1 = time.perf_counter()

    stamps = clock.stamps[first:]
    per_epoch = len(train) // cfg.batch_size
    # the first step of an epoch follows validation and checkpoint writes
    steps = [stamps[i] - stamps[i - 1] for i in range(1, len(stamps)) if i % per_epoch]
    # set-up ends where the first optimiser step begins
    setup = stamps[0] - t0 - statistics.median(steps)
    history = _read_loss_csv(run_dir / "loss.csv")
    losses = [h[k] for h in history for k in ("train_loss", "val_loss")]
    checks = {
        "all_steps_ran": len(stamps) == cfg.epochs * per_epoch,
        "losses_finite": all(math.isfinite(x) for x in losses),
        "val_loss_below_epoch0": history[-1]["val_loss"] < history[0]["val_loss"],
    }
    quality = {"final_val_loss": history[-1]["val_loss"],
               "epoch0_val_loss": history[0]["val_loss"]}
    record = OpRecord(wall=t1 - t0, setup=setup, steps=steps,
                      items=len(stamps) * cfg.batch_size, item_seconds=t1 - t0 - setup,
                      checks=checks, quality=quality)
    return record, ckpt


def _permuted_copy(src: Path, dst: Path) -> None:
    """Copy a VOL1 sample with its slices in reverse order."""
    blob = src.read_bytes()
    n, h, w = struct.unpack_from("<III", blob, 4)
    size = 4 * h * w
    slices = [blob[16 + i * size:16 + (i + 1) * size] for i in range(n)]
    dst.write_bytes(blob[:16] + b"".join(reversed(slices)))


def _gap_permutation_check(ckpt, entry, root: Path, scratch: Path) -> bool:
    """GAP embeddings of a volume and of its slice-reversed copy are bitwise equal."""
    (scratch / "samples").mkdir(parents=True, exist_ok=True)
    shutil.copyfile(root / entry.path, scratch / "samples" / "a.vol")
    _permuted_copy(root / entry.path, scratch / "samples" / "b.vol")
    pair = [dataclasses.replace(entry, id="a", path="samples/a.vol"),
            dataclasses.replace(entry, id="b", path="samples/b.vol")]
    table = ek.extract_embeddings(ckpt, pair, scratch, "gap")
    return table.rows[0].vec.tobytes() == table.rows[1].vec.tobytes()


def _eval_op(seed: int, scale: Scale, op_dir: Path) -> OpRecord:
    """One ``run_ablation`` call, then the CSV round trip of its last table.

    Set-up ends and each row begins at an ``extract_embeddings`` entry; the
    last row ends after the CSV round trip, which belongs to it.
    """
    root = op_dir / "test3d"
    calls: list[tuple[float, float, object]] = []  # (entry, exit, table)
    extract = ek.extract_embeddings

    def timed_extract(*args, **kwargs):
        t = time.perf_counter()
        table = extract(*args, **kwargs)
        calls.append((t, time.perf_counter(), table))
        return table

    t0 = time.perf_counter()
    entries = dp.load_manifest(root / "manifest.json")
    data = ek.AblationData(root2d=None, entries2d=None, root3d=root, entries3d=entries,
                           captions3d=dp.load_captions(root / "captions.json"))
    cfg = make_config(scale.stage2_epochs, STAGE2_LR, seed)
    with patched(ek, "extract_embeddings", timed_extract):
        report = ek.run_ablation(data, cfg, workdir=op_dir)
    if len(calls) != ABLATION_ROWS:
        raise RuntimeError(f"run_ablation called extract_embeddings {len(calls)} times, "
                           f"expected one call per row ({ABLATION_ROWS})")
    table = calls[-1][2]
    ek.export_embeddings_csv(table, op_dir / "embeddings.csv")
    back = ek.read_embeddings_csv(op_dir / "embeddings.csv")
    t1 = time.perf_counter()

    starts = [c[0] for c in calls] + [t1]
    checks = {
        "csv_round_trip": (
            [(r.id, r.label) for r in back.rows] == [(r.id, r.label) for r in table.rows]
            and back.matrix().tobytes() == table.matrix().tobytes()),
        "scores_in_range": all(0.0 <= x <= 1.0 for r in report.rows
                               for x in (r.probe_accuracy, r.match_precision)),
    }
    # probe and match of the last row: fine-tuned encoder + trained adapter
    last = report.rows[-1]
    return OpRecord(wall=t1 - t0, setup=starts[0] - t0,
                    steps=[b - a for a, b in zip(starts, starts[1:])],
                    items=len(entries) * ABLATION_ROWS,
                    item_seconds=sum(c[1] - c[0] for c in calls), checks=checks,
                    quality={"probe_acc": last.probe_accuracy, "match_p1": last.match_precision})


def _evaluate_trained(ckpt, workload: str, seed: int, inputs: Path) -> dict[str, float]:
    """Probe and match of a freshly trained checkpoint on its test split."""
    corpus = inputs / ("corpus3d" if workload == "stage2-3d" else "corpus2d")
    test = _split(dp.load_manifest(corpus / "manifest.json"), "test")
    mode = "attention" if workload == "stage2-3d" else "gap"
    table = ek.extract_embeddings(ckpt, test, corpus, mode)
    probe = ek.linear_probe_cv(table, k=PROBE_FOLDS, seed=seed)
    match = ek.top1_match(table, dp.load_captions(corpus / "captions.json"), ckpt.text)
    return {"probe_acc": probe.accuracy_mean, "match_p1": match.precision}


# ---------------------------------------------------------------------------
# the measuring loop


def _percentile(values: list[float], q: int) -> float:
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _step_p90(workload: str, plain: list[OpRecord]) -> float:
    """p90 step time in seconds. On eval-3d the four row kinds differ in
    cost, so each kind gets its own p90 and the result is their mean: a
    change to any one kind moves it by that kind's share."""
    if workload != "eval-3d":
        return _percentile([s for r in plain for s in r.steps], 90)
    return statistics.fmean(_percentile([r.steps[i] for r in plain], 90)
                            for i in range(ABLATION_ROWS))


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, float]
    extra: dict
    tracers: list[Tracer]


def run(workload: str, seed: int, seconds: float, trace: bool, scale_name: str,
        work: Path) -> RunResult:
    """Prepare inputs, then run operations until `seconds` have passed.

    With trace, operations alternate between untraced and traced; per-layer
    metrics are the mean over traced operations and trace.overhead_pct
    compares the median wall times of the two kinds.
    """
    scale = SCALES[scale_name]
    t_prep = time.perf_counter()
    prepare_in_child(workload, seed, scale_name, work)
    prep_s = time.perf_counter() - t_prep
    inputs = work / "inputs"

    clock = StepClock()
    records: list[tuple[OpRecord, bool]] = []
    tracers: list[Tracer] = []
    attempted = failed = 0
    failures: list[str] = []
    last_ckpt = None  # of a training workload, evaluated after timing
    deadline = time.perf_counter() + seconds
    with clock.installed():
        while (time.perf_counter() < deadline or not records
               or (trace and len(records) < 2)):
            k = attempted
            traced = trace and k % 2 == 1
            op_dir = work / f"op{k}"
            shutil.copytree(inputs, op_dir)
            tracer = Tracer() if traced else None
            attempted += 1
            try:
                with tracer.installed() if traced else contextlib.nullcontext():
                    if workload == "eval-3d":
                        rec = _eval_op(seed, scale, op_dir)
                    else:
                        rec, last_ckpt = _training_op(workload, seed, scale, op_dir, clock)
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                failures.append(traceback.format_exc())
                traceback.print_exc(file=sys.stderr)
                if attempted >= 3 and not records:
                    break
                continue
            finally:
                shutil.rmtree(op_dir, ignore_errors=True)
            bad = [name for name, ok in rec.checks.items() if not ok]
            if bad:
                failed += 1
                failures.append(f"op {k}: failed checks {bad}")
            records.append((rec, traced))
            if tracer is not None:
                tracers.append(tracer)
    if not records:
        raise RuntimeError("no operation completed:\n" + "\n".join(failures))

    quality = dict(records[-1][0].quality)
    if workload == "eval-3d":  # untimed; the inputs are the same for every operation
        test = dp.load_manifest(inputs / "test3d" / "manifest.json")
        if not _gap_permutation_check(tr.load_checkpoint(inputs / "stage1.ckpt"), test[0],
                                      inputs / "test3d", work / "perm"):
            failed += 1
            failures.append("failed check gap_permutation_invariant")
    else:
        quality.update(_evaluate_trained(last_ckpt, workload, seed, inputs))

    plain = [r for r, traced in records if not traced]
    steps = [s for r in plain for s in r.steps]
    # Only statistics that stay steady on a host whose speed switches between
    # two states are gated: a low percentile of set-up (the fast state) and a
    # high one of steps (the slow state). Whole-operation times and the step
    # median mix the states and are reported without a bound (see README.md).
    metrics = {
        "setup_s": _percentile([r.setup for r in plain], 10),
        "step_ms.p90": _step_p90(workload, plain) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "match_p1": quality["match_p1"],
    }
    unbounded = {
        "wall_s": statistics.median(r.wall for r in plain),
        "step_ms.p50": statistics.median(steps) * 1e3,
        "eval_vps" if workload == "eval-3d" else "train_sps":
            statistics.median(r.items / r.item_seconds for r in plain),
    }
    if trace:
        traced_wall = statistics.median(r.wall for r, traced in records if traced)
        layer = {}
        for t in tracers:
            for key, value in t.metrics().items():
                layer[key] = layer.get(key, 0.0) + value / len(tracers)
        layer["trace.overhead_pct"] = (traced_wall / unbounded["wall_s"] - 1.0) * 100.0
        metrics = layer
    extra = {
        "ops": len(records), "traced_ops": len(tracers), "step_samples": len(steps),
        "prepare_s": prep_s, "error_rate": failed / attempted, "unbounded": unbounded,
        "quality": quality, "failures": failures[:5],
    }
    return RunResult(attempted, failed, metrics, extra, tracers)

