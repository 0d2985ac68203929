import hashlib
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volalign import datapipe as dp
from volalign import encoders as enc
from volalign import evalkit as ek
from volalign import slice_pool as sp
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.diffmath import make_rng
from volalign.errors import (AmbiguityError, CompatibilityError, DependencyError,
                             DimensionError, EvaluationError, InputError, StratificationError)


def small_cfg(**kw):
    base = dict(d_model=8, d_hidden=8, d_text=8, vocab=64, patch_size=4,
                image_size=8, heads=2, s_max=8, epochs=2, batch_size=4,
                dropout_rate=0.2, lr0=1e-3, patience=10, seed=3)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def ordered3d(tmp_path_factory):
    root = tmp_path_factory.mktemp("ord3d")
    spec = dp.SynthSpec(family="order-coded", classes=2, per_class=25, slices=4,
                        height=8, width=8)
    entries = dp.synth_dataset(spec, seed=31, out_dir=root)
    return root, entries


@pytest.fixture(scope="module")
def pattern2d(tmp_path_factory):
    root = tmp_path_factory.mktemp("pat2d")
    spec = dp.SynthSpec(family="pattern", classes=2, per_class=10, height=8,
                        width=8, kind="2d")
    entries = dp.synth_dataset(spec, seed=32, out_dir=root)
    return root, entries


def table_from(vecs, labels):
    rows = [ek.EmbeddingRow(id=f"s{i}", label=int(l), vec=np.asarray(v, dtype=float))
            for i, (v, l) in enumerate(zip(vecs, labels))]
    return ek.EmbeddingTable(rows)


class TestExtract:
    def test_duplicate_sample_identical_rows(self, ordered3d):
        root, entries = ordered3d
        ckpt = tr.make_initial_checkpoint(small_cfg())
        twin = [entries[0], dp.ManifestEntry(id="twin", path=entries[0].path,
                                             kind="3d", body_region="Brain",
                                             modality="MRI", condition=None,
                                             label=entries[0].label, split="test")]
        table = ek.extract_embeddings(ckpt, twin, root, "gap")
        assert np.array_equal(table.rows[0].vec, table.rows[1].vec)

    def test_gap_identical_across_order_coded_pair_attention_differs(self, ordered3d):
        root, entries = ordered3d
        ckpt = tr.make_initial_checkpoint(small_cfg())
        pair = [next(e for e in entries if e.label == 0),
                next(e for e in entries if e.label == 1)]
        gap = ek.extract_embeddings(ckpt, pair, root, "gap")
        att = ek.extract_embeddings(ckpt, pair, root, "attention")
        assert np.array_equal(gap.rows[0].vec, gap.rows[1].vec)
        assert not np.array_equal(att.rows[0].vec, att.rows[1].vec)

    def test_deterministic_across_runs(self, ordered3d):
        root, entries = ordered3d
        ckpt = tr.make_initial_checkpoint(small_cfg())
        sub = entries[:6]
        t1 = ek.extract_embeddings(ckpt, sub, root, "attention")
        t2 = ek.extract_embeddings(ckpt, sub, root, "attention")
        assert np.array_equal(t1.matrix(), t2.matrix())

    def test_csv_round_trip(self, tmp_path):
        r = make_rng(0, "csv")
        table = table_from(r.normal(size=(7, 5)), [0, 1, 0, 1, 0, 1, 0])
        ek.export_embeddings_csv(table, tmp_path / "e.csv")
        back = ek.read_embeddings_csv(tmp_path / "e.csv")
        assert [x.id for x in back.rows] == [x.id for x in table.rows]
        assert np.abs(back.matrix() - table.matrix()).max() < 1e-9

    @pytest.mark.parametrize("bad_id", ["a,1", "a\nb", "a\rb"])
    def test_csv_refuses_id_it_cannot_read_back(self, tmp_path, bad_id):
        rows = [ek.EmbeddingRow(id="ok", label=0, vec=np.zeros(2)),
                ek.EmbeddingRow(id=bad_id, label=1, vec=np.ones(2))]
        with pytest.raises(InputError, match="embedding ids"):
            ek.export_embeddings_csv(ek.EmbeddingTable(rows), tmp_path / "e.csv")
        assert list(tmp_path.iterdir()) == []  # refused before writing

    def test_bad_pool_mode(self, ordered3d):
        root, entries = ordered3d
        ckpt = tr.make_initial_checkpoint(small_cfg())
        with pytest.raises(InputError):
            ek.extract_embeddings(ckpt, entries[:2], root, "max")

    # 64 slices per batch: 9 volumes of 8 slices and 30 of 3 fill more than one
    @settings(max_examples=25, deadline=None)
    @example(counts=[8] * 9 + [3] * 30, seed=0)
    @given(counts=st.lists(st.integers(1, 20), min_size=1, max_size=30),
           seed=st.integers(0, 2**16))
    def test_batched_rows_equal_per_volume_encode_and_pool(self, counts, seed):
        cfg = small_cfg(s_max=20)
        ckpt = tr.make_initial_checkpoint(cfg)
        rng = make_rng(seed, "volumes")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "samples").mkdir()
            entries = []
            for i, n in enumerate(counts):
                dp.save_volume(rng.normal(size=(n, 12, 12)),
                               root / "samples" / f"{i}.vol")
                entries.append(dp.ManifestEntry(id=f"v{i}", path=f"samples/{i}.vol", kind="3d",
                                                body_region="Brain", modality="MRI",
                                                condition=None, label=i % 2, split="test"))
            for mode in sp.POOL_MODES:
                table = ek.extract_embeddings(ckpt, entries, root, mode)
                assert [r.id for r in table.rows] == [e.id for e in entries]
                for e, row in zip(entries, table.rows):
                    vol = dp.preprocess_volume(dp.load_volume(root / e.path), 8, 8)
                    stack = enc.encode_image2d(vol, ckpt.image)
                    alone = (sp.gap_pool(stack) if mode == "gap"
                             else sp.attention_pool(stack, ckpt.adapter, cfg.heads))
                    assert row.vec.tobytes() == alone.tobytes()


class TestLinearProbe:
    def test_separable_by_margin(self):
        vecs = [[10.0, 0.0, 0.0]] * 25 + [[-10.0, 0.0, 0.0]] * 25
        table = table_from(vecs, [0] * 25 + [1] * 25)
        report = ek.linear_probe_cv(table, k=5, seed=0)
        assert report.fold_accuracy == [1.0] * 5
        assert report.fold_macro_f1 == [1.0] * 5

    def test_shuffled_labels_near_chance(self):
        r = make_rng(5, "chance")
        vecs = r.normal(size=(200, 16))
        labels = np.array([0, 1] * 100)
        labels = labels[r.permutation(200)]
        report = ek.linear_probe_cv(table_from(vecs, labels), k=5, seed=0)
        assert abs(report.accuracy_mean - 0.5) <= 0.1

    def test_same_seed_same_report(self):
        r = make_rng(6, "rep")
        table = table_from(r.normal(size=(30, 4)), [0, 1, 2] * 10)
        a = ek.linear_probe_cv(table, k=5, seed=9)
        b = ek.linear_probe_cv(table, k=5, seed=9)
        assert a.fold_accuracy == b.fold_accuracy
        assert a.fold_macro_f1 == b.fold_macro_f1

    def test_folds_partition_data(self):
        # identical embeddings: every fold sees the same constant features, so
        # per-fold accuracy equals the fold's class balance (0.5 when balanced)
        table = table_from([[1.0, 2.0]] * 20, [0, 1] * 10)
        report = ek.linear_probe_cv(table, k=5, seed=0)
        assert report.fold_accuracy == [0.5] * 5

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            ek.linear_probe_cv(table_from(np.eye(6), [0] * 6))

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_folds_rejected(self, k):
        table = table_from(np.eye(8), [0] * 4 + [1] * 4)
        with pytest.raises(EvaluationError, match=f"k={k}"):
            ek.linear_probe_cv(table, k=k)

    def test_small_class_rejected(self):
        with pytest.raises(StratificationError):
            ek.linear_probe_cv(table_from(np.eye(8), [0] * 4 + [1] * 4), k=5)

    def test_macro_f1_equals_accuracy_on_symmetric_binary_confusion(self):
        y_true = np.array([0] * 10 + [1] * 10)
        y_pred = y_true.copy()
        y_pred[0] = 1
        y_pred[10] = 0
        acc = float((y_true == y_pred).mean())
        assert ek._macro_f1(y_true, y_pred, 2) == acc


def train_logistic_2d(x, y, n_classes):
    """The probe recipe on one fold alone: the bitwise reference."""
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    w = np.zeros((xa.shape[1], n_classes))
    onehot = np.eye(n_classes)[y]
    n = x.shape[0]
    for _ in range(ek.PROBE_ITERATIONS):
        z = xa @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w -= ek.PROBE_STEP * (xa.T @ (p - onehot)) / n
    return w


def probe_fold_by_fold(table, k, seed):
    """linear_probe_cv with one probe trained per fold, one fold at a time."""
    labels = table.labels()
    classes = np.unique(labels)
    y = np.searchsorted(classes, labels)
    x = table.matrix()
    rng = make_rng(seed, "probe:folds")
    fold_of = np.empty(len(table), dtype=int)
    for c in range(len(classes)):
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            fold_of[idx] = pos % k
    accs, f1s = [], []
    for f in range(k):
        test = fold_of == f
        w = train_logistic_2d(x[~test], y[~test], len(classes))
        pred = (np.hstack([x[test], np.ones((test.sum(), 1))]) @ w).argmax(axis=1)
        accs.append(float((pred == y[test]).mean()))
        f1s.append(ek._macro_f1(y[test], pred, len(classes)))
    return ek.ProbeReport(fold_accuracy=accs, fold_macro_f1=f1s)


def clustered_table(seed, sizes, d, scale):
    r = make_rng(seed, "probe:table")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    x = scale * (r.normal(size=(len(labels), d)) + r.normal(size=(len(sizes), d))[labels])
    return table_from(x, labels)


# sha256 of linear_probe_cv(...).to_csv() for the table in test_golden_report,
# computed with the fold-by-fold probe.
GOLDEN_PROBE_CSV = "90fca2a0ae4e5810417f89ef38eea501afbcc432cc1a6e2e987ed5255411e258"


class TestStackedProbe:
    @settings(max_examples=25, deadline=None)
    @given(g=st.integers(1, 5), n=st.integers(2, 40), d=st.integers(1, 64),
           c=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.01, 1.0, 30.0]))
    def test_stack_equals_each_problem_alone_bitwise(self, g, n, d, c, seed, scale):
        self.check_stack(g, n, d, c, seed, scale)

    # The row sum adds class columns left to right below 8 classes and keeps
    # numpy's reduction from 8 on; both branches run on every test pass.
    @pytest.mark.parametrize("c", [7, 8])
    def test_both_row_sum_branches(self, c):
        self.check_stack(3, 24, 6, c, seed=c, scale=1.0)

    @staticmethod
    def check_stack(g, n, d, c, seed, scale):
        r = make_rng(seed, "probe:stack")
        x = scale * r.normal(size=(g, n, d))
        y = r.integers(0, c, size=(g, n))
        xa = np.concatenate([x, np.ones((g, n, 1))], axis=2)
        w = ek._train_logistic(xa, np.eye(c)[y])
        assert w.shape == (g, d + 1, c)
        for i in range(g):
            assert w[i].tobytes() == train_logistic_2d(x[i], y[i], c).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 5), d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.integers(0, 8), min_size=2, max_size=9),
           scale=st.sampled_from([0.1, 1.0, 10.0]))
    def test_probe_equals_fold_by_fold_oracle(self, k, d, seed, extra, scale):
        # class sizes k + extra: unequal, so the folds' training sizes differ
        # and several stacks run
        table = clustered_table(seed, [k + e for e in extra], d, scale)
        got = ek.linear_probe_cv(table, k=k, seed=seed)
        assert got.to_csv() == probe_fold_by_fold(table, k, seed).to_csv()

    def test_golden_report(self):
        table = clustered_table(11, [15, 12, 10, 9], 3, 1.0)
        csv = ek.linear_probe_cv(table, k=5, seed=4).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_PROBE_CSV


@pytest.fixture(scope="module")
def pattern4(tmp_path_factory):
    root = tmp_path_factory.mktemp("pat4")
    spec = dp.SynthSpec(family="pattern", classes=4, per_class=5, height=8,
                        width=8, kind="2d")
    return root, dp.synth_dataset(spec, seed=33, out_dir=root)


class TestTop1Match:
    def text_params(self):
        return tr.init_group(small_cfg(), "text", seed=3)

    @pytest.mark.parametrize("vocab", [64, 4096, 8192, 65536])
    def test_training_text_vectors_match_their_captions(self, pattern4, vocab):
        """Training and matching tokenize under the text table's own row count."""
        root, entries = pattern4
        firsts = [next(e for e in entries if e.label == c) for c in range(4)]
        tp = tr.init_group(small_cfg(vocab=vocab), "text", seed=3)
        table = table_from(tr._text_vectors(firsts, tp), [e.label for e in firsts])
        report = ek.top1_match(table, dp.load_captions(root / "captions.json"), tp)
        assert report.precision == 1.0

    def test_perfect_when_images_equal_captions(self):
        tp = self.text_params()
        caps = ["Brain MRI with Sequence A", "Brain MRI with Sequence B"]
        vecs = [enc.encode_text(c, tp) for c in caps]
        table = table_from(vecs * 3, [0, 1] * 3)
        report = ek.top1_match(table, caps, tp)
        assert report.precision == 1.0
        assert report.confusion.sum() == 6

    def test_random_embeddings_near_chance(self):
        tp = self.text_params()
        caps = ["Chest CT", "Brain MRI", "Knee X-ray", "Liver US"]
        r = make_rng(7, "match")
        n = 400
        table = table_from(r.normal(size=(n, 8)), [i % 4 for i in range(n)])
        report = ek.top1_match(table, caps, tp)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(report.precision - 0.25) <= 3 * sigma + 1e-9

    def test_zero_embedding_ties_to_class_zero(self):
        tp = self.text_params()
        caps = ["Chest CT", "Brain MRI"]
        table = table_from([[0.0] * 8], [1])
        report = ek.top1_match(table, caps, tp)
        assert report.confusion[1, 0] == 1
        assert report.precision == 0.0

    def test_empty_table_is_an_evaluation_error(self):
        tp = self.text_params()
        with pytest.raises(EvaluationError, match="empty"):
            ek.top1_match(ek.EmbeddingTable([]), ["Chest CT", "Brain MRI"], tp)

    def test_duplicate_tokenized_captions_rejected(self):
        tp = self.text_params()
        caps = ["Brain MRI", "MRI Brain"]  # same bag of words
        with pytest.raises(AmbiguityError):
            ek.top1_match(table_from([[1.0] * 8], [0]), caps, tp)

    def test_scale_invariance(self):
        tp = self.text_params()
        caps = ["Chest CT", "Brain MRI"]
        r = make_rng(8, "scl")
        vecs = r.normal(size=(10, 8))
        labels = [i % 2 for i in range(10)]
        a = ek.top1_match(table_from(vecs, labels), caps, tp)
        b = ek.top1_match(table_from(vecs * 7.3, labels), caps, tp)
        assert a.precision == b.precision
        assert np.array_equal(a.confusion, b.confusion)


class TestAblation:
    def test_four_rows_and_gap_at_chance_on_order_coded(self, ordered3d, pattern2d, tmp_path):
        root3, entries3 = ordered3d
        root2, entries2 = pattern2d
        caps = dp.load_captions(root3 / "captions.json")
        data = ek.AblationData(root2d=root2, entries2d=entries2,
                               root3d=root3, entries3d=entries3, captions3d=caps)
        report = ek.run_ablation(data, small_cfg(epochs=2), tmp_path)
        assert [r.config for r in report.rows] == list(ek.ABLATION_CONFIGS)
        # order-invariant pooling sees identical embeddings: chance-level probe
        assert report.rows[0].probe_accuracy <= 0.55
        assert report.rows[2].probe_accuracy <= 0.55

    def test_dependency_error_without_stage1_source(self, ordered3d, tmp_path):
        root3, entries3 = ordered3d
        caps = dp.load_captions(root3 / "captions.json")
        data = ek.AblationData(root2d=None, entries2d=None, root3d=root3,
                               entries3d=entries3, captions3d=caps)
        with pytest.raises(DependencyError, match="train"):
            ek.run_ablation(data, small_cfg(), tmp_path)

    def test_workdir_caches_checkpoints(self, ordered3d, pattern2d, tmp_path):
        root3, entries3 = ordered3d
        root2, entries2 = pattern2d
        caps = dp.load_captions(root3 / "captions.json")
        data = ek.AblationData(root2d=root2, entries2d=entries2,
                               root3d=root3, entries3d=entries3, captions3d=caps)
        cfg = small_cfg(epochs=2)
        r1 = ek.run_ablation(data, cfg, workdir=tmp_path)
        assert (tmp_path / "stage1.ckpt").is_file()
        assert (tmp_path / "stage2_vanilla.ckpt").is_file()
        r2 = ek.run_ablation(data, cfg, workdir=tmp_path)  # loads from cache
        for a, b in zip(r1.rows, r2.rows):
            assert a == b


@pytest.fixture(scope="module")
def trained(ordered3d, pattern2d, tmp_path_factory):
    """A work directory holding the three trained checkpoints."""
    root3, entries3 = ordered3d
    root2, entries2 = pattern2d
    data = ek.AblationData(root2d=root2, entries2d=entries2, root3d=root3,
                           entries3d=entries3,
                           captions3d=dp.load_captions(root3 / "captions.json"))
    workdir = tmp_path_factory.mktemp("ablate")
    ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir)
    return data, workdir


# sha256 of run_ablation(...).to_csv() on the trained fixture's work directory,
# computed with the serial loop of one probe per row. Its four rows read
# alike, so TestProbeChild checks the order of the rows' probes.
GOLDEN_ABLATION_CSV = "e80c1e9273665963c9beb5d3eb4edfe3a98b0c26acce7b0b4618fb30b01b79ee"


class TestAblationPreprocessesOnce:
    def test_golden_report(self, trained, forked):
        data, workdir = trained
        csv = ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_ABLATION_CSV

    def test_same_report_as_uncached_rows_and_one_load_per_volume(self, trained, monkeypatch,
                                                                  call_log, forked):
        data, workdir = trained
        cfg = small_cfg(epochs=2)
        tables = []
        load, extract = dp.load_volume, ek.extract_embeddings

        def counting_load(path):
            call_log.append(path)
            return load(path)

        def keeping_extract(*args, **kwargs):
            tables.append(extract(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(dp, "load_volume", counting_load)
        monkeypatch.setattr(ek, "extract_embeddings", keeping_extract)
        report = ek.run_ablation(data, cfg, workdir=workdir)
        monkeypatch.undo()

        test3d = [e for e in data.entries3d if e.split == "test"]
        assert sorted(call_log.values()) == sorted(str(data.root3d / e.path) for e in test3d)
        ckpts = [tr.make_initial_checkpoint(cfg)] + [
            tr.load_checkpoint(workdir / name)
            for name in ("stage2_vanilla.ckpt", "stage1.ckpt", "stage2_finetuned.ckpt")]
        modes = ("gap", "attention", "gap", "attention")
        rows = []
        for name, ckpt, mode, cached in zip(ek.ABLATION_CONFIGS, ckpts, modes, tables):
            table = ek.extract_embeddings(ckpt, test3d, data.root3d, mode)
            assert table.matrix().tobytes() == cached.matrix().tobytes()
            probe = ek.linear_probe_cv(table, k=5, seed=cfg.seed)
            match = ek.top1_match(table, data.captions3d, ckpt.text)
            rows.append(ek.AblationRow(name, probe.accuracy_mean, probe.f1_mean,
                                       match.precision))
        assert report == ek.AblationReport(rows)

    def test_uncached_ablation_loads_each_sample_once(self, trained, tmp_path, monkeypatch,
                                                      call_log, forked):
        data, _ = trained
        cfg = small_cfg(epochs=2)
        load = dp.load_volume

        def counting_load(path):
            call_log.append(path)
            return load(path)

        monkeypatch.setattr(dp, "load_volume", counting_load)
        ek.run_ablation(data, cfg, workdir=tmp_path)
        monkeypatch.undo()

        train2d = [e for e in data.entries2d if e.split != "test"]
        expected = ([str(data.root2d / e.path) for e in train2d]
                    + [str(data.root3d / e.path) for e in data.entries3d])
        assert sorted(call_log.values()) == sorted(expected)

        train3d, val3d, _ = ek._splits(data.entries3d)
        stage1 = tr.load_checkpoint(tmp_path / "stage1.ckpt")
        for name, base in (("stage2_vanilla.ckpt", tr.make_initial_checkpoint(cfg)),
                           ("stage2_finetuned.ckpt", stage1)):
            alone = tr.train_stage2(cfg, train3d, val3d, data.root3d, base)
            tr.save_checkpoint(alone, tmp_path / "alone.ckpt")
            assert (tmp_path / "alone.ckpt").read_bytes() == (tmp_path / name).read_bytes()

    @staticmethod
    def count_encoded_slices(monkeypatch, call_log) -> None:
        """Log the slice count of each encode_image2d call, in any process."""
        encode = enc.encode_image2d

        def counting_encode(image, *args, **kwargs):
            call_log.append(math.prod(np.shape(image)[:-2]))
            return encode(image, *args, **kwargs)

        monkeypatch.setattr(enc, "encode_image2d", counting_encode)

    def test_each_test_volume_encoded_once_per_distinct_encoder(self, trained, monkeypatch,
                                                                call_log, forked):
        data, workdir = trained
        cfg = small_cfg(epochs=2)
        groups = [ek._group_sha256(tr.load_checkpoint(workdir / name).image)
                  for name in ("stage2_vanilla.ckpt", "stage1.ckpt", "stage2_finetuned.ckpt")]
        assert groups[0] == ek._group_sha256(tr.make_initial_checkpoint(cfg).image)
        assert groups[1] == groups[2] != groups[0]
        self.count_encoded_slices(monkeypatch, call_log)
        ek.run_ablation(data, cfg, workdir=workdir)
        counts = call_log.values()
        test3d = [e for e in data.entries3d if e.split == "test"]
        slices = sum(len(dp.load_volume(data.root3d / e.path)) for e in test3d)
        assert sum(counts) == 2 * slices
        assert max(counts) <= dp.SLICE_BATCH

    def test_changed_image_group_gets_its_own_encoding(self, trained, monkeypatch, call_log,
                                                       forked):
        data, workdir = trained
        vanilla = tr.load_checkpoint(workdir / "stage2_vanilla.ckpt")
        changed = tr.load_checkpoint(workdir / "stage2_vanilla.ckpt")
        changed.image["out_proj"].value[0, 0] += 1e-9
        test3d = [e for e in data.entries3d if e.split == "test"]
        self.count_encoded_slices(monkeypatch, call_log)
        encoded: dict = {}  # the memo that run_ablation shares across its rows
        tables = [ek.extract_embeddings(ckpt, test3d, data.root3d, "attention", encoded=encoded)
                  for ckpt in (vanilla, changed, vanilla)]
        monkeypatch.undo()
        counts = call_log.values()

        slices = sum(len(dp.load_volume(data.root3d / e.path)) for e in test3d)
        assert sum(counts) == 2 * slices
        uncached = ek.extract_embeddings(changed, test3d, data.root3d, "attention")
        assert tables[1].matrix().tobytes() == uncached.matrix().tobytes()
        assert tables[2].matrix().tobytes() == tables[0].matrix().tobytes()

    @pytest.mark.parametrize("same_encoder", [True, False], ids=["reused", "retrained"])
    def test_cached_adapter_reused_only_on_its_own_encoder(self, trained, tmp_path,
                                                          monkeypatch, same_encoder):
        data, workdir = trained
        cfg = small_cfg(epochs=2)
        work = tmp_path / "work"
        shutil.copytree(workdir, work)
        cached = (work / "stage2_finetuned.ckpt").read_bytes()
        base = tr.load_checkpoint(work / "stage1.ckpt")
        if not same_encoder:  # another stage-1 encoder, as `ablate --from` may pass
            base.image["out_proj"].value[0, 0] += 1e-9
        bases = []
        train = tr.train_stage2
        monkeypatch.setattr(tr, "train_stage2",
                            lambda *args, **kwargs: bases.append(args[4]) or train(*args, **kwargs))
        ek.run_ablation(data, cfg, workdir=work, stage1_ckpt=base)
        monkeypatch.undo()

        after = tr.load_checkpoint(work / "stage2_finetuned.ckpt")
        for name, p in after.image.items():
            assert np.array_equal(p.value, base.image[name].value), name
        if same_encoder:
            assert bases == []
            assert (work / "stage2_finetuned.ckpt").read_bytes() == cached
        else:
            assert bases == [base]  # the vanilla adapter's cache still holds
            train3d, val3d, _ = ek._splits(data.entries3d)
            tr.save_checkpoint(tr.train_stage2(cfg, train3d, val3d, data.root3d, base),
                               tmp_path / "alone.ckpt")
            assert ((tmp_path / "alone.ckpt").read_bytes()
                    == (work / "stage2_finetuned.ckpt").read_bytes())

    def test_sample_paths_are_not_parsed_per_sample(self, ordered3d, monkeypatch):
        # pathlib interns each component it parses; a parse per sample
        # interns all 50 sample names on every call
        root, entries = ordered3d
        ckpt = tr.make_initial_checkpoint(small_cfg(image_size=8, patch_size=4))
        interned = []
        intern = sys.intern
        monkeypatch.setattr(sys, "intern", lambda s: interned.append(s) or intern(s))
        ek.extract_embeddings(ckpt, entries, root, "gap")
        assert len(entries) == 50
        assert not any(s.endswith(".vol") for s in interned)

    def test_cache_is_keyed_by_image_size(self, ordered3d):
        root, entries = ordered3d
        volumes = {}
        for size in (8, 4):
            ckpt = tr.make_initial_checkpoint(small_cfg(image_size=size, patch_size=4))
            ek.extract_embeddings(ckpt, entries[:2], root, "gap", volumes=volumes)
        assert sorted(volumes) == sorted((str(root / e.path), size)
                                         for e in entries[:2] for size in (8, 4))
        assert {v.shape[-1] for (_, size), v in volumes.items() if size == 4} == {4}

    @pytest.mark.parametrize("mismatched", ["stage2_vanilla.ckpt", "stage2_finetuned.ckpt"])
    def test_cached_stage2_geometry_is_checked(self, tmp_path, mismatched):
        cfg = small_cfg(d_model=16, image_size=16)
        tr.save_checkpoint(tr.make_initial_checkpoint(cfg), tmp_path / "stage1.ckpt")
        for name in ("stage2_vanilla.ckpt", "stage2_finetuned.ckpt"):
            geometry = small_cfg(d_model=32, image_size=32) if name == mismatched else cfg
            tr.save_checkpoint(tr.make_initial_checkpoint(geometry), tmp_path / name)
        data = ek.AblationData(root2d=None, entries2d=None, root3d=tmp_path, entries3d=[],
                               captions3d=[])
        with pytest.raises(CompatibilityError, match="d_model"):
            ek.run_ablation(data, cfg, workdir=tmp_path)


class TestAblationPreprocessesOnceOnOneCpu(TestAblationPreprocessesOnce):
    """TestAblationPreprocessesOnce with one usable CPU, where nothing forks."""

    @pytest.fixture
    def forked(self, one_cpu):
        return one_cpu


class TestProbeChild:
    """run_ablation probes rows 1-2 in one forked child and rows 3-4 itself."""

    @pytest.fixture
    def forks(self, fork_log, two_cpus):
        """fork_log, with two usable CPUs on any host; after the test none
        of its pids is a child of this process. The trained corpus is below
        encoders.FORK_MIN_SAMPLES, so the probe child is the only fork of an
        ablation on it."""
        yield fork_log
        for pid in fork_log.values():
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @staticmethod
    def patch_probe(monkeypatch, child=None, parent=None):
        """linear_probe_cv that runs `child` in the forked child and `parent`
        in this process, when given, before probing."""
        probe, me = ek.linear_probe_cv, os.getpid()

        def patched(table, **kwargs):
            hook = parent if os.getpid() == me else child
            if hook is not None:
                hook()
            return probe(table, **kwargs)

        monkeypatch.setattr(ek, "linear_probe_cv", patched)

    @staticmethod
    def raiser(exc):
        def hook():
            raise exc
        return hook

    def test_same_reports_as_one_probe_after_another(self, forks):
        tables = [clustered_table(seed, [10, 7, 8], 5, 1.0) for seed in range(4)]
        serial = [ek.linear_probe_cv(t, k=5, seed=2).to_csv() for t in tables]
        assert len(set(serial)) == 4
        assert [r.to_csv() for r in ek._probe_tables(tables, 2)] == serial
        assert len(forks.values()) == 1

    def test_typed_error_in_the_child(self, trained, forks, monkeypatch):
        data, workdir = trained
        self.patch_probe(monkeypatch, child=self.raiser(DimensionError("child side")))
        with pytest.raises(DimensionError, match="child side"):
            ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir)
        assert len(forks.values()) == 1

    def test_child_without_a_result(self, trained, forks, monkeypatch):
        data, workdir = trained
        self.patch_probe(monkeypatch, child=lambda: os._exit(3))
        with pytest.raises(EvaluationError, match="sent no result.*status 3"):
            ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir)
        assert len(forks.values()) == 1

    @pytest.mark.parametrize("exc", [DimensionError("parent side"), RuntimeError("parent side")],
                             ids=["typed", "untyped"])
    def test_failure_in_this_process(self, trained, forks, monkeypatch, exc):
        data, workdir = trained
        self.patch_probe(monkeypatch, parent=self.raiser(exc))
        with pytest.raises(type(exc), match="parent side"):
            ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir)
        assert len(forks.values()) == 1

    def test_both_sides_fail_with_the_lowest_rows_error(self, trained, forks, monkeypatch):
        data, workdir = trained
        self.patch_probe(monkeypatch, child=self.raiser(DimensionError("child side")),
                         parent=self.raiser(EvaluationError("parent side")))
        with pytest.raises(DimensionError, match="child side"):
            ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir)

    @pytest.mark.parametrize("platform", ["one-cpu", "no-fork"])
    def test_serial_without_a_second_cpu_or_fork(self, trained, forks, monkeypatch, platform):
        data, workdir = trained
        if platform == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "fork")
        csv = ek.run_ablation(data, small_cfg(epochs=2), workdir=workdir).to_csv()
        assert forks.values() == []
        assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_ABLATION_CSV
