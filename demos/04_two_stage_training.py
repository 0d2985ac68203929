#!/usr/bin/env python3
"""The two-stage protocol on a miniature corpus: stage 1 fine-tunes the 2D
encoder against frozen captions, stage 2 freezes the encoders and trains only
the slice pooling adapter. Runs in a few seconds."""

import tempfile
from pathlib import Path

import numpy as np

from volalign import datapipe as dp
from volalign import trainer as tr
from volalign.config import TrainConfig

CFG = dict(d_model=16, d_hidden=16, d_text=16, vocab=256, patch_size=4,
           image_size=8, heads=2, s_max=4, batch_size=8, dropout_rate=0.2,
           lr0=1e-3, patience=50, seed=0)


def main(work: Path):
    print(f"working under {work}")

    print("\n== synthesize corpora ==")
    e2d = dp.synth_dataset(dp.SynthSpec(family="pattern", classes=2, per_class=20,
                                        height=8, width=8, kind="2d"),
                           seed=1, out_dir=work / "2d")
    e3d = dp.synth_dataset(dp.SynthSpec(family="order-coded", classes=2, per_class=20,
                                        slices=4, height=8, width=8),
                           seed=2, out_dir=work / "3d")
    print(f"2d corpus: {len(e2d)} samples, 3d corpus: {len(e3d)} samples")
    sp2 = lambda n: [e for e in e2d if e.split == n]
    sp3 = lambda n: [e for e in e3d if e.split == n]

    print("\n== stage 1: fine-tune the image encoder ==")
    cfg1 = TrainConfig(epochs=10, **CFG)
    stage1 = tr.train_stage1(cfg1, sp2("train"), sp2("val"), work / "2d",
                             out_dir=work / "stage1")
    for h in stage1.history[::3]:
        print(f"  epoch {h['epoch']:>2}: lr {h['lr']:.2e}  train {h['train_loss']:.4f}"
              f"  val {h['val_loss']:.4f}")
    print(f"best epoch: {stage1.best_epoch}, val loss {stage1.best_val_loss:.4f}")

    print("\n== stage 2: train the adapter, encoders frozen ==")
    cfg2 = TrainConfig(epochs=20, **CFG)
    stage2 = tr.train_stage2(cfg2, sp3("train"), sp3("val"), work / "3d", stage1,
                             out_dir=work / "stage2")
    for h in stage2.history[::5]:
        print(f"  epoch {h['epoch']:>2}: train {h['train_loss']:.4f}  val {h['val_loss']:.4f}")

    frozen = np.array_equal(stage2.image["patch_proj"].value, stage1.image["patch_proj"].value)
    moved = not np.array_equal(stage2.adapter["pe_table"].value, stage1.adapter["pe_table"].value)
    print(f"image encoder untouched by stage 2: {frozen}")
    print(f"position table learned something:   {moved}")

    print("\n== checkpoints are bitwise-stable ==")
    p = work / "roundtrip.ckpt"
    tr.save_checkpoint(stage2, p)
    again = work / "again.ckpt"
    tr.save_checkpoint(tr.load_checkpoint(p), again)
    print("save -> load -> save identical:", p.read_bytes() == again.read_bytes())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="volalign_demo4_") as tmp:
        main(Path(tmp))
