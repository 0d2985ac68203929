
import dataclasses
import errno
import hashlib
import json
import re
import shutil
import struct

import numpy as np
import pytest

from volalign import cli
from volalign import datapipe as dp
from volalign import encoders as enc
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.errors import (CheckpointError, CompatibilityError,
                             ConfigurationError, DependencyError, InputError, WriteError)


def small_cfg(**kw):
    base = dict(d_model=8, d_hidden=8, d_text=8, vocab=64, patch_size=4,
                image_size=8, heads=2, s_max=8, epochs=3, batch_size=4,
                dropout_rate=0.2, lr0=1e-3, lr_min=1e-6, patience=10, seed=3)
    base.update(kw)
    return TrainConfig(**base)


# sha256 of every param: section payload of make_initial_checkpoint(small_cfg()),
# in file order. Pins the initial values and the registry order.
GOLDEN_INIT = [
    ("text.embed_table", "a738df3c92c6a75d507ecb176afc7d071da4467592bfc2532104ba7b2c86cc29"),
    ("text.proj", "5a41977586f5559230eaa98f2d0f379afcfa6887938764d94f6f6593d984847f"),
    ("image.patch_proj", "15751db625c1b642e4f1e231987e1e59e541e84c4d1cf7c9da84ceb124f284ff"),
    ("image.mlp_hidden", "ec9c0c90ae3cb49694161255313307f04d310fd78c94b4fce1a0e945dbccecda"),
    ("image.out_proj", "be772a80616466d2366fdcc60cf7eca9dd7ed9b7936826d508b9cc7eb7191947"),
    ("adapter.pe_table", "ec0c1c969f7bfad0cb940f65efc642a28e733f7ba9afbf2a59d36e7acd849c0f"),
    ("adapter.wq", "9b269c3bcf05fbc606dbfcbd1d1c18b6c535edfa0bb147f8e53cc8bcee923583"),
    ("adapter.wk", "72a40f45b7e6871c4ea9aa628f2ac268db35e91764a4b0f6b875c576f84f6331"),
    ("adapter.wv", "e2cfcc49c29ff203005c9cd1846e58294d6f402c7a983191a28e1c59dac379dc"),
    ("adapter.wo", "89f7ec5f02c309b01c73440d75af28c83050e0954d436474d21e1fc7560ce89d"),
]


HISTORY_RECORD = {"epoch": 0, "lr": 1e-3, "train_loss": 1.5, "val_loss": 1.25}


def write_raw(path, sections: dict[bytes, bytes]) -> None:
    """Write sections in the checkpoint container, names given as raw bytes."""
    out = [b"RCKP", struct.pack("<I", tr.CHECKPOINT_VERSION)]
    for name, payload in sections.items():
        out += [struct.pack("<I", len(name)), name, struct.pack("<Q", len(payload)), payload]
    path.write_bytes(b"".join(out))


def craft(ckpt, tmp_path, edit):
    """Save ckpt, pass its sections (raw names) through edit, write the result."""
    good = tmp_path / "good.ckpt"
    tr.save_checkpoint(ckpt, good)
    blob = good.read_bytes()
    sections = {k.encode(): blob[s] for k, s in tr._read_sections(blob, good).items()}
    write_raw(tmp_path / "same.ckpt", sections)
    assert (tmp_path / "same.ckpt").read_bytes() == good.read_bytes()
    write_raw(tmp_path / "bad.ckpt", edit(sections))
    return tmp_path / "bad.ckpt"


def edit_meta(change):
    def edit(sections):
        meta = change(json.loads(sections[b"meta"]))
        return {**sections, b"meta": json.dumps(meta).encode()}
    return edit


def without(key: bytes):
    return lambda sections: {k: v for k, v in sections.items() if k != key}


def with_tensor(key: bytes, shape):
    return lambda sections: {**sections, key: b"".join(tr._tensor_parts(np.zeros(shape)))}


def chain(*edits):
    def edit(sections):
        for e in edits:
            sections = e(sections)
        return sections
    return edit


@pytest.fixture(scope="module")
def corpus2d(tmp_path_factory):
    root = tmp_path_factory.mktemp("c2d")
    spec = dp.SynthSpec(family="pattern", classes=2, per_class=10, height=8,
                        width=8, kind="2d")
    entries = dp.synth_dataset(spec, seed=21, out_dir=root)
    return root, entries


@pytest.fixture(scope="module")
def corpus3d(tmp_path_factory):
    root = tmp_path_factory.mktemp("c3d")
    spec = dp.SynthSpec(family="order-coded", classes=2, per_class=10, slices=4,
                        height=8, width=8)
    entries = dp.synth_dataset(spec, seed=22, out_dir=root)
    return root, entries


def split(entries, name):
    return [e for e in entries if e.split == name]


@pytest.fixture(scope="module")
def stage1(corpus2d):
    root, entries = corpus2d
    cfg = small_cfg(epochs=2)
    return tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)


class TestCosineLr:
    def test_start_is_exactly_lr0(self):
        cfg = small_cfg(epochs=10, lr0=1e-4)
        assert tr.cosine_lr(0, cfg) == 1e-4

    def test_end_is_lr_min(self):
        cfg = small_cfg(epochs=10, lr0=1e-4, lr_min=1e-6)
        assert tr.cosine_lr(10, cfg) == 1e-6

    def test_midpoint(self):
        cfg = small_cfg(epochs=10, lr0=1e-4, lr_min=1e-6)
        assert abs(tr.cosine_lr(5, cfg) - (1e-4 + 1e-6) / 2) < 1e-18

    def test_non_increasing(self):
        cfg = small_cfg(epochs=17)
        seq = [tr.cosine_lr(t, cfg) for t in range(18)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_out_of_range(self):
        cfg = small_cfg(epochs=5)
        with pytest.raises(InputError):
            tr.cosine_lr(6, cfg)


class TestAdam:
    def test_quadratic_descent(self):
        from volalign.diffmath import Param
        p = Param(np.array([5.0, -3.0]), name="w")
        opt = tr.Adam.zeros([p])
        for _ in range(2000):
            p.zero_grad()
            p.grad[...] = 2.0 * p.value  # d/dw of w^2
            opt.step([p], 0.01, 0.0)
        assert np.abs(p.value).max() < 1e-3

    def test_state_round_trip(self):
        from volalign.diffmath import Param
        p = Param(np.array([1.0]), name="w")
        opt = tr.Adam.zeros([p])
        p.grad[...] = 0.5
        opt.step([p], 0.1, 0.0)
        opt2 = opt.copy()
        assert opt2.step_count == 1
        assert np.array_equal(opt2.moments["w"][0], opt.moments["w"][0])
        assert not np.shares_memory(opt2.moments["w"][0], opt.moments["w"][0])


class TestCheckpointIO:
    def test_save_load_save_identical_bytes(self, tmp_path):
        ckpt = tr.make_initial_checkpoint(small_cfg())
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        tr.save_checkpoint(ckpt, a)
        tr.save_checkpoint(tr.load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("a", [np.array(2.5), np.arange(6.0).reshape(2, 3).T,
                                   np.arange(4.0).astype(">f8"), np.arange(3, dtype=np.int32)],
                             ids=["0-d", "transposed", "big-endian", "int32"])
    def test_tensor_parts_bytes(self, a):
        head = struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
        assert b"".join(tr._tensor_parts(a)) == head + a.astype("<f8").tobytes(order="C")

    def test_save_copies_no_tensor(self, tmp_path):
        import tracemalloc
        ckpt = tr.make_initial_checkpoint(small_cfg(d_text=64, vocab=4096))  # 2 MiB text table
        tracemalloc.start()
        try:
            tr.save_checkpoint(ckpt, tmp_path / "c.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "c.ckpt").stat().st_size / 10

    def test_params_survive_round_trip(self, tmp_path):
        ckpt = tr.make_initial_checkpoint(small_cfg())
        tr.save_checkpoint(ckpt, tmp_path / "c.ckpt")
        back = tr.load_checkpoint(tmp_path / "c.ckpt")
        for p, q in zip(ckpt.model_params(), back.model_params()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value)

    def test_truncated_file_rejected(self, tmp_path):
        ckpt = tr.make_initial_checkpoint(small_cfg())
        path = tmp_path / "c.ckpt"
        tr.save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        (tmp_path / "t.ckpt").write_bytes(blob[:len(blob) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            tr.load_checkpoint(tmp_path / "t.ckpt")

    # 2: per-head adapter tables; 3: epoch, best and rng_state stored in meta
    @pytest.mark.parametrize("version", [2, 3, 99])
    def test_unknown_version_rejected(self, tmp_path, version):
        ckpt = tr.make_initial_checkpoint(small_cfg())
        path = tmp_path / "c.ckpt"
        tr.save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[4] = version
        (tmp_path / "v.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unknown checkpoint version {version}$"):
            tr.load_checkpoint(tmp_path / "v.ckpt")

    def test_empty_or_missing_file_rejected(self, tmp_path):
        (tmp_path / "e.ckpt").write_bytes(b"")
        for name in ("e.ckpt", "missing.ckpt"):
            with pytest.raises(CheckpointError, match="cannot read checkpoint"):
                tr.load_checkpoint(tmp_path / name)

    @pytest.mark.parametrize("section, value", [
        ("param:adapter.wo", np.nan), ("param:text.embed_table", np.inf),
        ("adam.m:image.patch_proj", -np.inf), ("adam.v:image.patch_proj", np.nan),
    ])
    def test_non_finite_tensor_rejected(self, tmp_path, section, value):
        ckpt = tr.make_initial_checkpoint(small_cfg())
        shape = ckpt.image["patch_proj"].value.shape
        ckpt.optimizer = tr.Adam(1, {"image.patch_proj": (np.zeros(shape), np.zeros(shape))})
        kind, name = section.split(":")
        if kind == "param":
            group, short = name.split(".")
            ckpt.groups()[group][short].value.flat[3] = value
        else:
            ckpt.optimizer.moments[name][kind == "adam.v"].flat[3] = value
        tr.save_checkpoint(ckpt, tmp_path / "c.ckpt")
        with pytest.raises(CheckpointError, match=rf"section {section} has non-finite values"):
            tr.load_checkpoint(tmp_path / "c.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.ckpt").write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            tr.load_checkpoint(tmp_path / "m.ckpt")

    def test_initial_values_golden(self, tmp_path):
        path = tmp_path / "c.ckpt"
        tr.save_checkpoint(tr.make_initial_checkpoint(small_cfg()), path)
        blob = path.read_bytes()
        got = [(k[len("param:"):], hashlib.sha256(blob[s]).hexdigest())
               for k, s in tr._read_sections(blob, path).items() if k.startswith("param:")]
        assert got == GOLDEN_INIT

    @pytest.mark.parametrize("edit", [
        edit_meta(lambda m: {k: v for k, v in m.items() if k != "config"}),
        edit_meta(lambda m: {k: v for k, v in m.items() if k != "optimizer_step"}),
        edit_meta(lambda m: [m]),
        lambda sections: {**sections, b"\xff\xfe": b""},
    ], ids=["meta-without-config", "meta-without-optimizer-step", "meta-not-object",
            "non-utf8-section-name"])
    def test_malformed_file_is_checkpoint_error(self, tmp_path, stage1, edit):
        with pytest.raises(CheckpointError):
            tr.load_checkpoint(craft(stage1, tmp_path, edit))

    def test_duplicate_section_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        tr.save_checkpoint(tr.make_initial_checkpoint(small_cfg()), path)
        name, payload = b"param:image.patch_proj", b"".join(tr._tensor_parts(np.ones((16, 8))))
        with open(path, "ab") as fh:  # a second, well-formed section of the same name
            fh.write(struct.pack("<I", len(name)) + name + struct.pack("<Q", len(payload))
                     + payload)
        with pytest.raises(CheckpointError, match="duplicate section 'param:image.patch_proj'"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("stage", 3, "stage must be 1 or 2"),
        ("stage", True, "stage must be 1 or 2"),
        # a record's epoch must be its index: an integer, numbered from 0
        ("history", [dict(HISTORY_RECORD, epoch="0")], "history must be a list of objects"),
        ("history", [dict(HISTORY_RECORD, epoch=-1)], "history must be a list of objects"),
        ("history", [dict(HISTORY_RECORD, epoch=0.0)], "history must be a list of objects"),
        ("history", [dict(HISTORY_RECORD, epoch=1)], "history must be a list of objects"),
        ("optimizer_step", 2.5, "optimizer_step must be an integer >= 0 or null"),
        ("history", [HISTORY_RECORD, HISTORY_RECORD], "history must be a list of objects"),
        ("history", [HISTORY_RECORD, dict(HISTORY_RECORD, epoch=2)],
         "history must be a list of objects"),
        ("history", {}, "history must be a list of objects"),
        ("history", [[1.0]], "history must be a list of objects"),
        ("history", [{"epoch": 0}], "history must be a list of objects"),
        ("history", [dict(HISTORY_RECORD, epoch=False)], "history must be a list of objects"),
    ])
    def test_meta_field_of_wrong_type_rejected(self, tmp_path, key, value, message):
        path = craft(tr.make_initial_checkpoint(small_cfg()), tmp_path,
                     edit_meta(lambda m: {**m, key: value}))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: meta {message}")):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["epoch", "best_epoch", "best_val_loss", "rng_state"])
    def test_meta_key_of_format_3_rejected(self, tmp_path, key):
        """A stored copy of what history determines is refused, not ignored."""
        path = craft(tr.make_initial_checkpoint(small_cfg()), tmp_path,
                     edit_meta(lambda m: {**m, key: None}))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: meta section has unexpected keys ['{key}']")):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (with_tensor(b"param:adapter.pe_table", (3, 5)), "shape"),
        (with_tensor(b"adam.m:image.patch_proj", (3, 5)), "shape"),
        (without(b"param:image.out_proj"), "missing parameter"),
        (with_tensor(b"param:adapter.h0.wq", (8, 4)), "unexpected"),  # a format-2 name
        (with_tensor(b"adam.m:text.proj", (8, 8)), "unexpected sections"),
        # moments of exactly the group the file's stage trains
        (chain(with_tensor(b"adam.m:adapter.wq", (8, 8)),
               with_tensor(b"adam.v:adapter.wq", (8, 8))), "unexpected sections"),
        (chain(without(b"adam.m:image.patch_proj"), without(b"adam.v:image.patch_proj")),
         "missing sections"),
        (edit_meta(lambda m: {**m, "stage": 2}), "missing sections"),
    ], ids=["param-shape", "adam-shape", "param-missing", "param-extra", "adam-frozen",
            "adam-untrained-group", "adam-trained-param-missing", "adam-of-other-stage"])
    def test_layout_mismatch_refused_at_load(self, tmp_path, stage1, edit, message):
        with pytest.raises(CheckpointError, match=message):
            tr.load_checkpoint(craft(stage1, tmp_path, edit))


class _DiskFullAfter:
    """A file whose writes fail with ENOSPC once `budget` bytes are written."""

    def __init__(self, fh, budget):
        self.fh, self.budget, self.written = fh, budget, 0

    def write(self, data):
        room = self.budget - self.written
        self.written += self.fh.write(data[:max(room, 0)])
        if len(data) > room:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestCrashSafeWrites:
    def fail_after(self, monkeypatch, budget):
        files = []

        def disk_full_open(path, mode="r"):
            files.append(_DiskFullAfter(open(path, mode), budget))
            return files[-1]

        monkeypatch.setattr(dp, "open", disk_full_open, raising=False)
        return files

    def writer(self, kind):
        """(file names, write(value, path), earlier value, new value) of one
        file-writing function; path is the first of the file names."""
        if kind == "checkpoint":
            return (["epoch_0002.ckpt"], tr.save_checkpoint,
                    tr.make_initial_checkpoint(small_cfg()),
                    tr.make_initial_checkpoint(small_cfg(seed=4)))
        if kind == "loss_csv":
            row = {"epoch": 0, "lr": 1e-3, "train_loss": 1.5, "val_loss": 1.25}
            return ["loss.csv"], tr._write_loss_csv, [row], [row, dict(row, epoch=1, val_loss=1.0)]
        if kind == "run_config":
            def write(extra, path):
                cli._write_run_config(path.parent, "probe", small_cfg(), extra)
            return ["run_config.json"], write, {"seed": 1}, {"seed": 2}
        if kind == "report":
            def write(report, path):
                cli._write_report(path.parent, "probe_report", report)
            return (["probe_report.csv", "probe_report.txt"], write,
                    ek.ProbeReport([0.5, 0.75], [0.5, 0.7]),
                    ek.ProbeReport([1.0, 0.25], [1.0, 0.2]))
        if kind == "manifest":
            entry = dp.ManifestEntry(id="a", path="samples/a.vol", kind="3d",
                                     body_region="Chest", modality="CT", condition=None,
                                     label=0, split="train")
            return (["manifest.json"], dp.save_manifest, [entry],
                    [entry, dataclasses.replace(entry, id="b", label=1)])
        if kind == "volume":
            return (["a.vol"], dp.save_volume, np.zeros((1, 2, 2)),
                    np.ones((2, 3, 3)))
        if kind == "captions":
            record = {"label": 0, "body_region": "Chest", "modality": "CT",
                      "condition": None, "text": "Chest CT"}
            return (["captions.json"], dp.save_captions, [record],
                    [record, dict(record, label=1, text="Chest CT with disk marker")])
        row = ek.EmbeddingRow(id="a", label=0, vec=np.array([0.5, -1.25]))
        return (["embeddings.csv"], ek.export_embeddings_csv, ek.EmbeddingTable([row]),
                ek.EmbeddingTable([row, ek.EmbeddingRow(id="b", label=1, vec=np.ones(2))]))

    @pytest.mark.parametrize("kind", ["checkpoint", "loss_csv", "run_config", "report",
                                      "embeddings_csv", "manifest", "captions", "volume"])
    @pytest.mark.parametrize("earlier", [True, False], ids=["over-earlier", "fresh"])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, kind, earlier):
        names, write, old, new = self.writer(kind)
        path = tmp_path / names[0]
        if earlier:
            write(old, path)
        before = _contents(tmp_path)
        assert sorted(before) == (names if earlier else [])
        files = self.fail_after(monkeypatch, budget=20)
        with pytest.raises(WriteError, match=f"cannot write {re.escape(str(path))}: .*No space"):
            write(new, path)
        assert files and files[0].written == 20  # the write failed part-way
        monkeypatch.undo()
        assert _contents(tmp_path) == before  # earlier bytes kept, no .tmp left
        write(new, path)  # the next write succeeds
        assert sorted(_contents(tmp_path)) == names


def _contents(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _digests(directory) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


class TestDerivedProgress:
    """Epoch count and best epoch follow from the history alone."""

    @pytest.mark.parametrize("val_losses, best", [
        ([], None), ([2.0], 0), ([3.0, 2.0, 2.0, 1.5, 1.5, 4.0], 3), ([1.0, 1.0], 0),
    ])
    def test_epoch_and_best_follow_history(self, val_losses, best):
        ckpt = tr.make_initial_checkpoint(small_cfg())
        ckpt.history = [dict(HISTORY_RECORD, epoch=e, val_loss=v)
                        for e, v in enumerate(val_losses)]
        assert ckpt.epoch == len(val_losses)
        assert ckpt.best_epoch == best
        assert ckpt.best_val_loss == (None if best is None else val_losses[best])


@pytest.mark.parametrize("stage", [1, 2])
def test_one_validation_sample_refused_before_any_step(corpus2d, corpus3d, stage1,
                                                       monkeypatch, stage):
    steps = []
    step = tr.Adam.step
    monkeypatch.setattr(tr.Adam, "step",
                        lambda self, params, lr, wd: steps.append(lr) or step(self, params, lr, wd))
    root, entries = corpus2d if stage == 1 else corpus3d
    args = (small_cfg(), split(entries, "train"), split(entries, "val")[:1], root)
    with pytest.raises(ConfigurationError, match="validation set needs at least 2 samples"):
        if stage == 1:
            tr.train_stage1(*args)
        else:
            tr.train_stage2(*args, stage1)
    assert steps == []


class TestStage1(object):
    def test_loss_decreases(self, corpus2d):
        root, entries = corpus2d
        cfg = small_cfg(epochs=5)
        ckpt = tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)
        hist = ckpt.history
        assert len(hist) >= 2
        assert hist[-1]["train_loss"] < hist[0]["train_loss"]

    def test_zero_epochs_returns_initialization(self, corpus2d):
        root, entries = corpus2d
        cfg = small_cfg(epochs=0)
        ckpt = tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)
        init = tr.make_initial_checkpoint(cfg)
        assert ckpt.epoch == 0
        assert ckpt.history == []
        for p, q in zip(ckpt.model_params(), init.model_params()):
            assert np.array_equal(p.value, q.value)

    def test_same_seed_bitwise_identical_checkpoints(self, corpus2d, tmp_path):
        root, entries = corpus2d
        cfg = small_cfg(epochs=2)
        tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root,
                        out_dir=tmp_path / "r1")
        tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root,
                        out_dir=tmp_path / "r2")
        a = (tmp_path / "r1" / "stage1.ckpt").read_bytes()
        b = (tmp_path / "r2" / "stage1.ckpt").read_bytes()
        assert a == b

    def test_text_encoder_frozen_bitwise(self, corpus2d):
        root, entries = corpus2d
        cfg = small_cfg(epochs=2)
        init = tr.make_initial_checkpoint(cfg)
        ckpt = tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)
        assert np.array_equal(ckpt.text["embed_table"].value, init.text["embed_table"].value)
        assert np.array_equal(ckpt.text["proj"].value, init.text["proj"].value)

    def test_image_params_do_change(self, corpus2d):
        root, entries = corpus2d
        cfg = small_cfg(epochs=2)
        init = tr.make_initial_checkpoint(cfg)
        ckpt = tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)
        assert not np.array_equal(ckpt.image["patch_proj"].value, init.image["patch_proj"].value)
        # and the adapter is untouched in stage 1
        assert np.array_equal(ckpt.adapter["pe_table"].value, init.adapter["pe_table"].value)

    def test_rejects_3d_entries(self, corpus3d):
        root, entries = corpus3d
        cfg = small_cfg()
        with pytest.raises(InputError, match="kind"):
            tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)

    def test_too_few_samples(self, corpus2d):
        root, entries = corpus2d
        cfg = small_cfg(batch_size=64)
        with pytest.raises(ConfigurationError, match="fewer than batch size"):
            tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)

    def test_cut_fresh_run_leaves_no_file_of_the_run_before(self, corpus2d, tmp_path,
                                                            monkeypatch):
        root, entries = corpus2d
        args = (split(entries, "train"), split(entries, "val"), root)
        out = tmp_path / "a"
        tr.train_stage1(small_cfg(epochs=3, seed=4), *args, out_dir=out)
        assert (out / "stage1.ckpt").is_file()
        save = tr.save_checkpoint

        def cut_at_epoch_2(ckpt, path):
            if path.name == "epoch_0002.ckpt":
                raise KeyboardInterrupt
            save(ckpt, path)

        monkeypatch.setattr(tr, "save_checkpoint", cut_at_epoch_2)
        with pytest.raises(KeyboardInterrupt):
            tr.train_stage1(small_cfg(epochs=3, seed=3), *args, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == ["epoch_0001.ckpt", "loss.csv"]
        assert len((out / "loss.csv").read_text().splitlines()) == 1 + 1
        assert tr.load_checkpoint(out / "epoch_0001.ckpt").config.seed == 3


class TestStage2(object):
    def test_encoders_bitwise_preserved(self, corpus3d, stage1):
        root, entries = corpus3d
        cfg = small_cfg(epochs=3)
        ckpt = tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                               root, stage1)
        for name in ("patch_proj", "mlp_hidden", "out_proj"):
            assert np.array_equal(ckpt.image[name].value, stage1.image[name].value)
        assert np.array_equal(ckpt.text["embed_table"].value, stage1.text["embed_table"].value)
        assert not np.array_equal(ckpt.adapter["pe_table"].value, stage1.adapter["pe_table"].value)

    def test_patience_stops_constant_model_after_two_epochs(self, corpus3d, stage1):
        root, entries = corpus3d
        # lr so small that float64 parameters cannot change: no improvement is possible
        cfg = small_cfg(epochs=10, lr0=1e-30, lr_min=0.0, weight_decay=0.0,
                        patience=1)
        ckpt = tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                               root, stage1)
        assert len(ckpt.history) <= 2  # best checkpoint is from epoch 0
        assert ckpt.best_epoch == 0

    def test_items_equal_encode_image2d_bitwise(self, corpus3d, stage1):
        root, entries = corpus3d  # 20 volumes of 4 slices: more than one 64-slice batch
        cfg = small_cfg()
        items = tr._stage2_items(entries, root, cfg, stage1.text, stage1.image)
        assert len(items) == len(entries)
        for e, item in zip(entries, items):
            vol = dp.preprocess_volume(dp.load_volume(root / e.path), cfg.image_size,
                                       cfg.image_size)
            stack = enc.encode_image2d(vol, stage1.image)
            assert item.inputs.tobytes() == stack.tobytes()

    def test_set_up_holds_embedding_rows_not_the_preprocessed_split(self, tmp_path):
        import tracemalloc
        # 16 x 16 slices against 8-wide embeddings: a held split is 32x its rows
        spec = dp.SynthSpec(family="pattern", classes=2, per_class=100, slices=8,
                            height=16, width=16)
        entries = dp.synth_dataset(spec, seed=23, out_dir=tmp_path)
        cfg = small_cfg(image_size=16)
        ckpt = tr.make_initial_checkpoint(cfg)
        tr._stage2_items(entries[:8], tmp_path, cfg, ckpt.text, ckpt.image)  # warm caches

        def peak(subset):
            tracemalloc.start()
            try:
                items = tr._stage2_items(subset, tmp_path, cfg, ckpt.text, ckpt.image)
                return tracemalloc.get_traced_memory()[1], sum(i.inputs.nbytes for i in items)
            finally:
                tracemalloc.stop()

        small, small_rows = peak(entries[:40])
        large, large_rows = peak(entries)
        split = 160 * 8 * 16 * 16 * 8  # the extra volumes, preprocessed
        slack = 64 * 1024 + 1024 * 160  # fixed, and per extra volume (paths, items)
        assert large - small < (large_rows - small_rows) + slack < split / 4

    def test_checkpoints_record_the_stage2_config(self, corpus3d, stage1, tmp_path):
        root, entries = corpus3d
        cfg = small_cfg(epochs=3, lr0=5e-3, seed=9, dropout_rate=0.1)
        assert (stage1.config.epochs, stage1.config.lr0, stage1.config.seed,
                stage1.config.dropout_rate) == (2, 1e-3, 3, 0.2)
        tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"), root, stage1,
                        out_dir=tmp_path)
        paths = sorted(tmp_path.glob("*.ckpt"))
        assert [p.name for p in paths] == ["epoch_0001.ckpt", "epoch_0002.ckpt",
                                           "epoch_0003.ckpt", "stage2.ckpt"]
        for path in paths:
            assert tr.load_checkpoint(path).config == cfg, path.name

    def test_geometry_mismatch(self, corpus3d, stage1):
        root, entries = corpus3d
        cfg = small_cfg(d_model=4, heads=2)
        with pytest.raises(CompatibilityError, match="d_model"):
            tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                            root, stage1)

    def test_fresh_run_without_stage1_is_dependency_error(self, corpus3d, tmp_path):
        root, entries = corpus3d
        with pytest.raises(DependencyError, match="stage-1 checkpoint") as exc:
            tr.train_stage2(small_cfg(), split(entries, "train"), split(entries, "val"),
                            root, None, out_dir=tmp_path / "run")
        assert exc.value.exit_code == 4
        assert not (tmp_path / "run").exists()

    def test_rejects_2d_entries(self, corpus2d, stage1):
        root, entries = corpus2d
        cfg = small_cfg()
        with pytest.raises(InputError, match="kind"):
            tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                            root, stage1)


def training_state(cfg, stage):
    """A checkpoint as a stage holds it in training: moments for the group the
    stage trains, and a gradient buffer on every parameter."""
    ckpt = dataclasses.replace(tr.make_initial_checkpoint(cfg), stage=stage)
    trained = list(ckpt.groups()[tr.TRAINS[stage]].values())
    ckpt.optimizer = tr.Adam.zeros(trained)
    for p in ckpt.model_params():
        p.grad[...] = 1.0
    ckpt.optimizer.step(trained, 1e-3, 0.0)
    return ckpt


def group_pairs(ckpt, snap, groups):
    """(source, snapshot) param pairs of the named groups."""
    return [(p, snap.groups()[g][k]) for g in groups for k, p in ckpt.groups()[g].items()]


# stage -> (the group it trains, the groups it freezes)
STAGE_GROUPS = {1: ("image", ("text", "adapter")), 2: ("adapter", ("text", "image"))}


class TestSnapshot:
    def test_frozen_tensors_shared_read_only(self):
        for stage, (_, frozen) in STAGE_GROUPS.items():
            ckpt = training_state(small_cfg(), stage)
            snap = tr.snapshot_checkpoint(ckpt)
            for p, q in group_pairs(ckpt, snap, frozen):
                assert np.shares_memory(p.value, q.value), (stage, p.name)
                for a in (p.value, q.value):
                    with pytest.raises(ValueError, match="read-only"):
                        a[(0,) * a.ndim] = 1.0

    def test_trainables_and_moments_are_copies_without_gradients(self):
        for stage, (trained, _) in STAGE_GROUPS.items():
            ckpt = training_state(small_cfg(), stage)
            snap = tr.snapshot_checkpoint(ckpt)
            assert all(q._grad is None for q in snap.model_params())
            for p, q in group_pairs(ckpt, snap, [trained]):
                assert q.value.flags.writeable
                assert not np.shares_memory(p.value, q.value), (stage, p.name)
                assert np.array_equal(p.value, q.value)
            assert snap.optimizer.step_count == ckpt.optimizer.step_count == 1
            assert (snap.optimizer.moments.keys() == ckpt.optimizer.moments.keys()
                    == {p.name for p in ckpt.groups()[trained].values()})
            for name, moments in ckpt.optimizer.moments.items():
                for a, b in zip(moments, snap.optimizer.moments[name]):
                    assert not np.shares_memory(a, b), name
                    assert np.array_equal(a, b)

    def test_fresh_stage2_copies_only_the_adapter(self, corpus3d, stage1, monkeypatch):
        copied = []
        copy = tr.Adam.copy
        monkeypatch.setattr(tr.Adam, "copy",
                            lambda self: copied.append(self) or copy(self))
        root, entries = corpus3d
        ckpt = tr.train_stage2(small_cfg(epochs=0), split(entries, "train"),
                               split(entries, "val"), root, stage1)
        assert stage1.optimizer is not None
        assert all(state is not stage1.optimizer for state in copied)
        for p, q in group_pairs(stage1, ckpt, ["text", "image"]):
            assert np.shares_memory(p.value, q.value), p.name
        for p, q in group_pairs(stage1, ckpt, ["adapter"]):
            assert not np.shares_memory(p.value, q.value), p.name

    @pytest.mark.parametrize("stage", [1, 2])
    def test_frozen_groups_get_no_gradient_in_training(self, stage, corpus2d, corpus3d,
                                                       stage1, monkeypatch):
        live = []
        snapshot = tr.snapshot_checkpoint
        monkeypatch.setattr(tr, "snapshot_checkpoint",
                            lambda ckpt: live.append(ckpt) or snapshot(ckpt))
        cfg = small_cfg(epochs=1)
        if stage == 1:
            root, entries = corpus2d
            tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root)
        else:
            root, entries = corpus3d
            tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"), root, stage1)
        epoch_end = live[-1]  # the training state, snapshotted after its epoch
        assert epoch_end.epoch == 1
        trained = "image" if stage == 1 else "adapter"
        for group, params in epoch_end.groups().items():
            for p in params.values():
                assert (p._grad is not None) == (group == trained), p.name

    def test_snapshot_allocates_less_than_twice_its_trainable_state(self):
        import tracemalloc
        # the acceptance geometry: the frozen text table alone is 4096 x 64 (2 MiB)
        ckpt = training_state(small_cfg(d_model=64, heads=4, d_hidden=128, d_text=64,
                                        vocab=4096, patch_size=8, image_size=16), 2)
        trainable = sum(3 * p.value.nbytes for p in ckpt.adapter.values())
        assert ckpt.text["embed_table"].value.nbytes > 4 * trainable
        tracemalloc.start()
        try:
            snap = tr.snapshot_checkpoint(ckpt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert snap.epoch == ckpt.epoch
        assert peak < 2 * trainable


class TestResume(object):
    def test_resume_matches_straight_through(self, corpus3d, corpus2d, tmp_path):
        root2, entries2 = corpus2d
        cfg1 = small_cfg(epochs=1)
        stage1 = tr.train_stage1(cfg1, split(entries2, "train"), split(entries2, "val"), root2)

        root, entries = corpus3d
        cfg = small_cfg(epochs=6, patience=10)
        full_dir = tmp_path / "full"
        full = tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                               root, stage1, out_dir=full_dir)
        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        for e in (1, 2, 3):  # what a run stopped after epoch 3 leaves behind
            shutil.copy(full_dir / f"epoch_{e:04d}.ckpt", resumed_dir)
        resumed = tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                                  root, stage1, out_dir=resumed_dir, resume=True)

        full_hist = tr.load_checkpoint(full_dir / "epoch_0006.ckpt").history
        res_hist = tr.load_checkpoint(resumed_dir / "epoch_0006.ckpt").history
        assert [h["epoch"] for h in res_hist] == [h["epoch"] for h in full_hist] == list(range(6))
        for fh, rh in zip(full_hist, res_hist):
            assert abs(rh["train_loss"] - fh["train_loss"]) < 1e-12
            assert abs(rh["val_loss"] - fh["val_loss"]) < 1e-12
        assert ((full_dir / "epoch_0006.ckpt").read_bytes()
                == (resumed_dir / "epoch_0006.ckpt").read_bytes())
        assert full.best_val_loss == resumed.best_val_loss

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("other_seed", [False, True], ids=["same_seed", "other_seed"])
    def test_resume_from_each_epoch_writes_the_same_files(self, corpus2d, corpus3d, stage1,
                                                           tmp_path, stage, other_seed):
        """The epoch streams key on the checkpoint's seed, not the resuming
        config's, so a resume under another seed still reproduces the run."""
        cfg = small_cfg(epochs=3, patience=10)
        root, entries = corpus2d if stage == 1 else corpus3d

        def train(c, out_dir, resume=False):
            args = (c, split(entries, "train"), split(entries, "val"), root)
            if stage == 1:
                return tr.train_stage1(*args, out_dir=out_dir, resume=resume)
            return tr.train_stage2(*args, stage1, out_dir=out_dir, resume=resume)

        train(cfg, tmp_path / "run")
        run = _digests(tmp_path / "run")
        assert sorted(run) == ["epoch_0001.ckpt", "epoch_0002.ckpt", "epoch_0003.ckpt",
                               "loss.csv", f"stage{stage}.ckpt"]
        resume_cfg = dataclasses.replace(cfg, seed=cfg.seed + 100) if other_seed else cfg
        for k in range(1, cfg.epochs):
            out = tmp_path / f"from_{k}"
            out.mkdir()
            for e in range(1, k + 1):  # what an interrupted run leaves behind
                shutil.copy(tmp_path / "run" / f"epoch_{e:04d}.ckpt", out)
            train(resume_cfg, out, resume=True)
            assert _digests(out) == run, k

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("change", [dict(epochs=5), dict(lr0=2e-3),
                                        dict(epochs=5, lr0=2e-3, seed=4)],
                             ids=["epochs", "lr0", "epochs-lr0-seed"])
    def test_resume_under_another_config_is_refused(self, corpus2d, corpus3d, stage1,
                                                    tmp_path, stage, change):
        """The run goes on under the checkpoint's config, so a resume that
        asks for another schedule is refused before any epoch runs."""
        cfg = small_cfg(epochs=2, patience=10)
        root, entries = corpus2d if stage == 1 else corpus3d

        def train(c, out_dir, resume=False):
            args = (c, split(entries, "train"), split(entries, "val"), root)
            if stage == 1:
                return tr.train_stage1(*args, out_dir=out_dir, resume=resume)
            return tr.train_stage2(*args, stage1, out_dir=out_dir, resume=resume)

        train(cfg, tmp_path / "run")
        out = tmp_path / "resumed"
        out.mkdir()
        shutil.copy(tmp_path / "run" / "epoch_0001.ckpt", out)
        with pytest.raises(CompatibilityError, match="checkpoint config differs") as exc:
            train(dataclasses.replace(cfg, **change), out, resume=True)
        named = {k for k in change if k != "seed"}
        assert all(f"'{k}'" in str(exc.value) for k in named)
        assert "'seed'" not in str(exc.value)
        assert sorted(p.name for p in out.iterdir()) == ["epoch_0001.ckpt"]

    @pytest.mark.parametrize("stage", [1, 2])
    def test_resume_from_the_other_stage_is_refused(self, corpus2d, corpus3d, stage1, stage,
                                                    tmp_path):
        root, entries = corpus2d if stage == 1 else corpus3d
        other = dataclasses.replace(stage1, stage=3 - stage, optimizer=None)
        tr.save_checkpoint(other, tmp_path / "epoch_0001.ckpt")
        args = (stage1.config, split(entries, "train"), split(entries, "val"), root)
        with pytest.raises(CompatibilityError, match=f"cannot resume stage {stage} from a "
                                                     f"stage-{3 - stage} checkpoint"):
            if stage == 1:
                tr.train_stage1(*args, out_dir=tmp_path, resume=True)
            else:
                tr.train_stage2(*args, stage1, out_dir=tmp_path, resume=True)

    def test_best_checkpoint_dominates_all_epochs(self, corpus3d, corpus2d):
        root2, entries2 = corpus2d
        stage1 = tr.train_stage1(small_cfg(epochs=1), split(entries2, "train"),
                                 split(entries2, "val"), root2)
        root, entries = corpus3d
        cfg = small_cfg(epochs=5, patience=10)
        best = tr.train_stage2(cfg, split(entries, "train"), split(entries, "val"),
                               root, stage1)
        vals = [h["val_loss"] for h in best.history]
        assert best.best_val_loss == min(vals)


class TestResumeFinishedRun:
    """A run resumed from its last epoch checkpoint, stopped early or not,
    runs no epoch and rewrites its best checkpoint and loss.csv unchanged."""

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("early", [True, False], ids=["stopped_early", "all_epochs"])
    @pytest.mark.parametrize("lose_loss_csv", [False, True])
    def test_same_files(self, corpus2d, corpus3d, stage1, tmp_path, stage, early,
                        lose_loss_csv):
        cfg = small_cfg(epochs=30, patience=1, dropout_rate=0.5, seed=0) if early \
            else small_cfg(epochs=3, patience=10)
        root, entries = corpus2d if stage == 1 else corpus3d

        def train(out_dir, resume=False):
            args = (cfg, split(entries, "train"), split(entries, "val"), root)
            if stage == 1:
                return tr.train_stage1(*args, out_dir=out_dir, resume=resume)
            return tr.train_stage2(*args, stage1, out_dir=out_dir, resume=resume)

        train(tmp_path / "run")
        epochs = sorted((tmp_path / "run").glob("epoch_*.ckpt"))
        assert (len(epochs) < cfg.epochs) == early
        shutil.copytree(tmp_path / "run", tmp_path / "resumed")
        if lose_loss_csv:  # as a kill in its last write would
            (tmp_path / "resumed" / "loss.csv").unlink()
        train(tmp_path / "resumed", resume=True)

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        for name in (f"stage{stage}.ckpt", "loss.csv"):
            assert sha256(tmp_path / "resumed" / name) == sha256(tmp_path / "run" / name)
        assert (sorted(p.name for p in (tmp_path / "resumed").iterdir())
                == sorted(p.name for p in (tmp_path / "run").iterdir()))


class TestResumePoint:
    """A resume continues the run in out_dir from its newest epoch checkpoint."""

    @pytest.mark.parametrize("stage", [1, 2])
    def test_resume_without_out_dir_is_configuration_error(self, corpus2d, corpus3d, stage1,
                                                           stage):
        root, entries = corpus2d if stage == 1 else corpus3d
        args = (small_cfg(), split(entries, "train"), split(entries, "val"), root)
        with pytest.raises(ConfigurationError, match="out_dir"):
            if stage == 1:
                tr.train_stage1(*args, resume=True)
            else:
                tr.train_stage2(*args, stage1, resume=True)

    def test_newest_is_by_epoch_number(self, tmp_path):
        newest = tmp_path / "epoch_10000.ckpt"
        tr.save_checkpoint(tr.make_initial_checkpoint(small_cfg()), newest)
        (tmp_path / "epoch_9999.ckpt").write_bytes(b"last in lexical order, never loaded")
        tr.save_checkpoint(tr.resume_checkpoint(tmp_path, small_cfg(), 1), tmp_path / "back")
        assert (tmp_path / "back").read_bytes() == newest.read_bytes()

    def test_resume_ignores_a_cut_write(self, corpus2d, tmp_path):
        """A kill inside datapipe._write_atomic leaves epoch_0004.ckpt.tmp; the
        resume continues from epoch 3 and writes epoch 4 over it."""
        root, entries = corpus2d
        cfg = small_cfg(epochs=5, patience=10)

        def train(out_dir, resume=False):
            return tr.train_stage1(cfg, split(entries, "train"), split(entries, "val"), root,
                                   out_dir=out_dir, resume=resume)

        train(tmp_path / "run")
        out = tmp_path / "resumed"
        out.mkdir()
        for e in (1, 2, 3):
            shutil.copy(tmp_path / "run" / f"epoch_{e:04d}.ckpt", out)
        cut = (tmp_path / "run" / "epoch_0004.ckpt").read_bytes()
        (out / "epoch_0004.ckpt.tmp").write_bytes(cut[:len(cut) // 2])
        train(out, resume=True)
        assert not list(out.glob("*.tmp"))
        assert _digests(out) == _digests(tmp_path / "run")
