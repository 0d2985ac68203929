#!/usr/bin/env python3
"""The downstream protocol end to end: extract frozen embeddings, linear-probe
them with stratified 5-fold cross-validation, match images to captions by
cosine similarity, and run the four-configuration ablation.

Uses a pattern-family corpus (classes are geometric markers on one random
slice), which converges in seconds. The order-coded experiment, where any
order-invariant pooling is provably stuck at chance, runs at full size in
tests/test_acceptance.py."""

import tempfile
from pathlib import Path

from volalign import datapipe as dp
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.config import TrainConfig


def main(work: Path):
    cfg = TrainConfig(d_model=32, d_hidden=32, d_text=16, vocab=512, patch_size=4,
                      image_size=8, heads=4, s_max=4, epochs=60, batch_size=8,
                      dropout_rate=0.2, lr0=2e-3, patience=60, seed=0)

    print("== corpora ==")
    e2d = dp.synth_dataset(dp.SynthSpec(family="pattern", classes=2, per_class=30,
                                        height=8, width=8, kind="2d"),
                           seed=1, out_dir=work / "2d")
    e3d = dp.synth_dataset(dp.SynthSpec(family="pattern", classes=2, per_class=30,
                                        slices=4, height=8, width=8),
                           seed=2, out_dir=work / "3d")
    caps = dp.load_captions(work / "3d" / "captions.json", vocab=cfg.vocab)
    print(f"captions: {[c.text for c in caps]}")

    print("\n== train both stages ==")
    sp2 = lambda n: [e for e in e2d if e.split == n]
    sp3 = lambda n: [e for e in e3d if e.split == n]
    stage1 = tr.train_stage1(cfg, sp2("train"), sp2("val"), work / "2d")
    stage2 = tr.train_stage2(cfg, sp3("train"), sp3("val"), work / "3d", stage1)
    print(f"stage-2 train loss: {stage2.history[0]['train_loss']:.3f} -> "
          f"{stage2.history[-1]['train_loss']:.3f}")

    test = sp3("test")
    print("\n== linear probe on frozen features (5-fold, stratified) ==")
    for mode in ("gap", "attention"):
        table = ek.extract_embeddings(stage2, test, work / "3d", mode)
        probe = ek.linear_probe_cv(table, k=5, seed=0)
        print(f"  {mode:>9}: accuracy {probe.accuracy_mean:.3f} +/- {probe.accuracy_std:.3f}"
              f"   macro-F1 {probe.f1_mean:.3f}")

    print("\n== top-1 image-text matching ==")
    table = ek.extract_embeddings(stage2, test, work / "3d", "attention")
    match = ek.top1_match(table, caps, stage2.text)
    print(match.to_text())

    print("== four-configuration ablation ==")
    data = ek.AblationData(root2d=work / "2d", entries2d=e2d,
                           root3d=work / "3d", entries3d=e3d, captions3d=caps)
    report = ek.run_ablation(data, cfg, workdir=work / "ablation")
    print(report.to_text())

    print("== export for external projection (t-SNE, UMAP, ...) ==")
    ek.export_embeddings_csv(table, work / "embeddings.csv")
    head = (work / "embeddings.csv").read_text().splitlines()
    print(f"{head[0][:72]}...")
    print(f"wrote {len(head) - 1} rows to {work / 'embeddings.csv'}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="volalign_demo5_") as tmp:
        main(Path(tmp))
