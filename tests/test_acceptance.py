"""Acceptance suite: one test per criterion, on synthetic corpora sized so the
whole module runs in a few minutes. Training fixtures are shared between
criteria; each criterion asserts its own runtime budget from the measured
durations of exactly the steps its pipeline needs.
"""

import json
import math
import time

import numpy as np
import pytest

from volalign import contrastive as ct
from volalign import datapipe as dp
from volalign import diffmath as dm
from volalign import encoders as enc
from volalign import evalkit as ek
from volalign import slice_pool as sp
from volalign import trainer as tr
from volalign.cli import main as cli_main
from volalign.config import TrainConfig
from volalign.datapipe import SynthSpec

DURATIONS: dict[str, float] = {}


def timed(key, fn):
    t0 = time.perf_counter()
    out = fn()
    DURATIONS[key] = time.perf_counter() - t0
    return out


def acc_cfg(epochs, lr0, seed=7):
    return TrainConfig(d_model=64, heads=4, d_hidden=128, d_text=64, vocab=4096,
                       patch_size=8, image_size=16, s_max=8, epochs=epochs,
                       batch_size=32, dropout_rate=0.5, lr0=lr0, lr_min=1e-6,
                       weight_decay=1e-4, tau=0.07, patience=epochs, seed=seed)


def by_split(entries, name):
    return [e for e in entries if e.split == name]


# ---------------------------------------------------------------------------
# shared corpora and training runs


@pytest.fixture(scope="module")
def ord_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_ord")
    spec = SynthSpec(family="order-coded", classes=2, per_class=200, slices=8,
                     height=16, width=16)
    entries = timed("synth_ord", lambda: dp.synth_dataset(spec, seed=101, out_dir=root))
    return root, entries


@pytest.fixture(scope="module")
def pat_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_pat")
    spec = SynthSpec(family="pattern", classes=4, per_class=200, slices=8,
                     height=16, width=16)
    entries = timed("synth_pat", lambda: dp.synth_dataset(spec, seed=202, out_dir=root))
    return root, entries


@pytest.fixture(scope="module")
def pat2d_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_pat2d")
    spec = SynthSpec(family="pattern", classes=4, per_class=200, slices=1,
                     height=16, width=16, kind="2d")
    entries = timed("synth_pat2d", lambda: dp.synth_dataset(spec, seed=303, out_dir=root))
    return root, entries


@pytest.fixture(scope="module")
def stage1(pat2d_corpus):
    root, entries = pat2d_corpus
    cfg = acc_cfg(epochs=60, lr0=1e-3)
    return timed("stage1", lambda: tr.train_stage1(
        cfg, by_split(entries, "train"), by_split(entries, "val"), root))


@pytest.fixture(scope="module")
def ord_adapter_vanilla(ord_corpus):
    """Stage 2 from the seed-initialized encoder on the order-coded corpus."""
    root, entries = ord_corpus
    cfg = acc_cfg(epochs=300, lr0=2e-3)
    init = tr.make_initial_checkpoint(cfg)
    return timed("stage2_ord_vanilla", lambda: tr.train_stage2(
        cfg, by_split(entries, "train"), by_split(entries, "val"), root, init))


@pytest.fixture(scope="module")
def ord_adapter_tuned(ord_corpus, stage1):
    root, entries = ord_corpus
    cfg = acc_cfg(epochs=300, lr0=2e-3)
    return timed("stage2_ord_tuned", lambda: tr.train_stage2(
        cfg, by_split(entries, "train"), by_split(entries, "val"), root, stage1))


@pytest.fixture(scope="module")
def pat_adapter_vanilla(pat_corpus):
    root, entries = pat_corpus
    cfg = acc_cfg(epochs=150, lr0=2e-3)
    init = tr.make_initial_checkpoint(cfg)
    return timed("stage2_pat_vanilla", lambda: tr.train_stage2(
        cfg, by_split(entries, "train"), by_split(entries, "val"), root, init))


@pytest.fixture(scope="module")
def pat_adapter_tuned(pat_corpus, stage1):
    root, entries = pat_corpus
    cfg = acc_cfg(epochs=150, lr0=2e-3)
    return timed("stage2_pat_tuned", lambda: tr.train_stage2(
        cfg, by_split(entries, "train"), by_split(entries, "val"), root, stage1))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_oracle():
    """Full composite (encoder -> attention pool -> similarity -> loss) passes
    the central-difference check at tol 1e-4 on a 4-sample, 6-slice batch."""
    t0 = time.perf_counter()
    cfg = TrainConfig(d_model=16, heads=2, d_hidden=24, d_text=16, vocab=256,
                      patch_size=8, image_size=16, s_max=8, dropout_rate=0.5)
    image = tr.init_group(cfg, "image", seed=11)
    adapter = tr.init_group(cfg, "adapter", seed=11)
    data_rng = dm.make_rng(12, "acc1:data")
    voxels = np.stack([data_rng.normal(size=(6, 16, 16)) for _ in range(4)])  # [4, 6, 16, 16]
    txt = data_rng.normal(size=(4, 16))

    def composite(tape):
        drop = dm.make_rng(99, "acc1:drop")
        stack = enc.encode_image2d(voxels, image, dropout_rate=cfg.dropout_rate, rng=drop,
                                   tape=tape)
        img = sp.attention_pool(stack, adapter, cfg.heads, dropout_rate=cfg.dropout_rate,
                                rng=drop, tape=tape)
        return ct.batch_loss(img, txt, cfg.tau, cfg.symmetric, tape)

    params = list(image.values()) + list(adapter.values())
    report = dm.grad_check(composite, params, h=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - t0
    assert report.passed, repr(report)
    assert report.max_rel_err < 1e-4
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"


def test_criterion_2_analytic_loss_values():
    for n in (2, 4, 8):
        loss = ct.info_nce(np.full((n, n), 1.23)).item()
        assert abs(loss - math.log(n)) < 1e-9
    logits = np.array([[10.0, 0.0], [0.0, 10.0]])
    loss = ct.info_nce(logits).item()
    assert abs(loss - math.log(1.0 + math.exp(-10.0))) < 1e-9


def test_criterion_3_order_sensitivity(ord_corpus, ord_adapter_vanilla):
    """GAP pooling is provably chance on the order-coded corpus; a trained
    attention adapter separates the classes."""
    root, entries = ord_corpus
    best = ord_adapter_vanilla
    test = by_split(entries, "test")

    def evaluate():
        gap_table = ek.extract_embeddings(best, test, root, "gap")
        att_table = ek.extract_embeddings(best, test, root, "attention")
        return (ek.linear_probe_cv(gap_table, k=5, seed=0),
                ek.linear_probe_cv(att_table, k=5, seed=0))

    probe_gap, probe_att = timed("eval_ord", evaluate)
    assert probe_gap.accuracy_mean <= 0.55
    assert probe_att.accuracy_mean >= 0.90
    runtime = sum(DURATIONS[k] for k in ("synth_ord", "stage2_ord_vanilla", "eval_ord"))
    assert runtime < 300.0, f"order-sensitivity pipeline took {runtime:.0f}s"


def test_criterion_4_alignment_convergence(pat_corpus, stage1, pat_adapter_tuned):
    """Stage-2 training pushes train InfoNCE below ln N - 0.5 and reaches
    held-out top-1 matching >= 0.90; the untrained adapter stays <= 0.40."""
    root, entries = pat_corpus
    best = pat_adapter_tuned
    test = by_split(entries, "test")
    caps = dp.load_captions(root / "captions.json")

    final_train = best.history[-1]["train_loss"]
    assert final_train < math.log(32) - 0.5

    def evaluate():
        trained = ek.top1_match(ek.extract_embeddings(best, test, root, "attention"),
                                caps, best.text)
        untrained = ek.top1_match(ek.extract_embeddings(stage1, test, root, "attention"),
                                  caps, stage1.text)
        return trained, untrained

    trained, untrained = timed("eval_pat", evaluate)
    assert trained.precision >= 0.90
    assert untrained.precision <= 0.40
    runtime = sum(DURATIONS[k] for k in ("synth_pat", "synth_pat2d", "stage1",
                                         "stage2_pat_tuned", "eval_pat"))
    assert runtime < 600.0, f"alignment pipeline took {runtime:.0f}s"


def test_criterion_5_ablation_ordering(ord_corpus, pat_corpus, stage1,
                                       ord_adapter_vanilla, ord_adapter_tuned,
                                       pat_adapter_vanilla, pat_adapter_tuned):
    """Fine-tuned encoder + trained adapter scores at least as well as every
    other configuration on matching precision, combined across both corpora."""
    cfg = acc_cfg(epochs=1, lr0=1e-3)
    init = tr.make_initial_checkpoint(cfg)
    combined = {}
    for name, ckpts, mode in [
        ("a", (init, init), "gap"),
        ("b", (ord_adapter_vanilla, pat_adapter_vanilla), "attention"),
        ("c", (stage1, stage1), "gap"),
        ("d", (ord_adapter_tuned, pat_adapter_tuned), "attention"),
    ]:
        precisions = []
        for (root, entries), ckpt in zip((ord_corpus, pat_corpus), ckpts):
            caps = dp.load_captions(root / "captions.json")
            table = ek.extract_embeddings(ckpt, by_split(entries, "test"), root, mode)
            precisions.append(ek.top1_match(table, caps, ckpt.text).precision)
        combined[name] = float(np.mean(precisions))

    assert combined["d"] >= combined["a"]
    assert combined["d"] >= combined["b"]
    assert combined["d"] >= combined["c"]


def test_criterion_6_permutation_invariances(ord_adapter_tuned):
    r = dm.make_rng(61, "perms")
    # GAP: bitwise invariant under any row permutation
    mat = r.normal(size=(8, 64))
    base = sp.gap_pool(mat)
    for _ in range(10):
        perm = r.permutation(8)
        out = sp.gap_pool(mat[perm])
        assert np.array_equal(out, base)

    # attention with zero positional table: invariant within 1e-9
    cfg = acc_cfg(epochs=1, lr0=1e-3)
    adapter = tr.init_group(cfg, "adapter", seed=62)
    adapter["pe_table"].value[...] = 0.0
    a = sp.attention_pool(mat, adapter, cfg.heads)
    perm = r.permutation(8)
    b = sp.attention_pool(mat[perm], adapter, cfg.heads)
    assert np.abs(a - b).max() < 1e-9

    # trained (nonzero) positional table: order-sensitive beyond 1e-6
    trained = ord_adapter_tuned.adapter
    assert np.abs(trained["pe_table"].value).max() > 0.0
    heads = ord_adapter_tuned.config.heads
    a = sp.attention_pool(mat, trained, heads)
    b = sp.attention_pool(mat[perm], trained, heads)
    assert np.abs(a - b).max() > 1e-6


def test_criterion_7_determinism_and_checkpoints(tmp_path):
    """Identical train3d runs give byte-identical checkpoints; a resumed run
    reproduces the uninterrupted loss trajectory."""
    ws = tmp_path
    cfg = dict(d_model=8, d_hidden=8, d_text=8, vocab=64, patch_size=4,
               image_size=8, heads=2, s_max=8, epochs=6, batch_size=4,
               dropout_rate=0.5, lr0=1e-3, patience=10, seed=3)
    (ws / "cfg.json").write_text(json.dumps(cfg))

    def run(args):
        assert cli_main([str(a) for a in args]) == 0

    run(["synth", "--family", "pattern", "--kind", "2d", "--classes", 2,
         "--per-class", 10, "--size", 8, "--seed", 5, "--out", ws / "d2"])
    run(["synth", "--family", "order-coded", "--classes", 2, "--per-class", 10,
         "--slices", 4, "--size", 8, "--seed", 6, "--out", ws / "d3"])
    run(["train2d", "--config", ws / "cfg.json", "--data", ws / "d2",
         "--out", ws / "s1"])

    for out in ("runA", "runB"):
        run(["train3d", "--config", ws / "cfg.json", "--data", ws / "d3",
             "--from", ws / "s1" / "stage1.ckpt", "--out", ws / out])
    for name in ("stage2.ckpt", "epoch_0006.ckpt"):
        assert ((ws / "runA" / name).read_bytes()
                == (ws / "runB" / name).read_bytes()), name

    (ws / "resumed").mkdir()
    for e in (1, 2, 3):  # what a run stopped after epoch 3 leaves behind
        name = f"epoch_{e:04d}.ckpt"
        (ws / "resumed" / name).write_bytes((ws / "runA" / name).read_bytes())
    run(["train3d", "--config", ws / "cfg.json", "--data", ws / "d3",
         "--from", ws / "s1" / "stage1.ckpt", "--resume",
         "--out", ws / "resumed"])
    full = tr.load_checkpoint(ws / "runA" / "epoch_0006.ckpt")
    res = tr.load_checkpoint(ws / "resumed" / "epoch_0006.ckpt")
    assert len(full.history) == len(res.history) == 6
    for hf, hr in zip(full.history, res.history):
        assert abs(hf["train_loss"] - hr["train_loss"]) < 1e-12
        assert abs(hf["val_loss"] - hr["val_loss"]) < 1e-12
    assert ((ws / "runA" / "epoch_0006.ckpt").read_bytes()
            == (ws / "resumed" / "epoch_0006.ckpt").read_bytes())


def test_criterion_8_probe_harness_sanity():
    # hand-constructed separable embeddings
    vecs = [[10.0, 0.0, 0.0, 0.0]] * 30 + [[-10.0, 0.0, 0.0, 0.0]] * 30
    rows = [ek.EmbeddingRow(id=f"s{i}", label=int(i >= 30), vec=np.array(v))
            for i, v in enumerate(vecs)]
    report = ek.linear_probe_cv(ek.EmbeddingTable(rows), k=5, seed=0)
    assert all(a >= 0.99 for a in report.fold_accuracy)

    # label-shuffled balanced binary data sits at chance
    r = dm.make_rng(81, "chance")
    x = r.normal(size=(200, 16))
    labels = np.array([0, 1] * 100)[r.permutation(200)]
    rows = [ek.EmbeddingRow(id=f"r{i}", label=int(l), vec=v)
            for i, (v, l) in enumerate(zip(x, labels))]
    report = ek.linear_probe_cv(ek.EmbeddingTable(rows), k=5, seed=0)
    assert abs(report.accuracy_mean - 0.5) <= 0.1


def test_criterion_9_scheduler_and_preprocessing_exactness():
    cfg = TrainConfig()  # defaults: lr0 = 1e-4
    assert tr.cosine_lr(0, cfg) == 1e-4

    r = dm.make_rng(91, "zs")
    z = dp.zscore(r.normal(3.0, 5.0, size=(33, 17)))
    assert abs(z.mean()) < 1e-10
    assert abs(z.std() - 1.0) < 1e-10

    img = r.normal(size=(24, 31))
    out = dp.resize_bilinear(img, 24, 31)
    assert np.abs(out - img).max() < 1e-12
