"""Typed failures: malformed loader input, config values of the wrong
type, an invalid temperature, a bad sample inside a split, and a training
run that overflows."""

import dataclasses
import json
import re
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volalign import datapipe as dp
from volalign import diffmath as dm
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.cli import main
from volalign.config import TrainConfig
from volalign.errors import (CheckpointError, ConfigurationError, FormatError, InputError,
                             LoadError, NonFiniteError, VolalignError)

CSV_HEADER = "id,label,e0,e1\n"


@pytest.mark.parametrize("loader, content", [
    ("captions", [1]),
    ("captions", ["label text"]),
    ("captions", [{"label": "x", "text": "a"}]),
    ("captions", [{"label": 0, "text": 5}]),
    ("captions", [{"label": 0, "text": "chest ct"},  # a duplicate label
                  {"label": 1, "text": "chest ct with disk marker"},
                  {"label": 0, "text": "brain mri"}]),
    ("embeddings", CSV_HEADER + "a,0,1.0,zero\n"),
    ("embeddings", CSV_HEADER + "a,first,1.0,2.0\n"),
    ("embeddings", CSV_HEADER + "a\n"),
    ("embeddings", CSV_HEADER + "a,0,1.0,2.0\nb,0,1.0,2.0,3.0\n"),  # a value too many
    ("embeddings", CSV_HEADER + "a,0\n"),  # no values
    ("embeddings", CSV_HEADER + "a,0,nan,inf\n"),
])
def test_malformed_loader_input_is_load_error(tmp_path, loader, content):
    if loader == "captions":
        path = tmp_path / "captions.json"
        path.write_text(json.dumps(content))
        with pytest.raises(LoadError):
            dp.load_captions(path)
    else:
        path = tmp_path / "embeddings.csv"
        path.write_text(content)
        # the bad row is the last line, and the error names it
        with pytest.raises(LoadError, match=f"line {content.count(chr(10))}:"):
            ek.read_embeddings_csv(path)


@st.composite
def vol1_blobs(draw):
    """VOL1 files with small or huge dimensions, payloads of the right length
    or one value off, any float32 values, and optionally cut short."""
    dims = [draw(st.integers(0, 3) | st.integers(0, 2**32 - 1)) for _ in range(3)]
    count = dims[0] * dims[1] * dims[2]
    count = count + draw(st.sampled_from([0, 0, -1, 1])) if count < 64 else 0
    values = draw(st.lists(st.floats(width=32), min_size=max(count, 0), max_size=max(count, 0)))
    blob = b"VOL1" + struct.pack("<III", *dims) + struct.pack(f"<{len(values)}f", *values)
    return blob[:draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=40) | vol1_blobs())
def test_any_bytes_load_as_volume_or_typed_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.vol"
        path.write_bytes(blob)
        try:
            vol = dp.load_volume(path)
        except VolalignError:
            return
    assert vol.shape == struct.unpack_from("<III", blob, 4)
    assert np.isfinite(vol).all()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
# Loadable or edge-case values per field; MANIFEST_RECORDS then replaces or
# deletes up to three fields (or adds an unknown one), so one bad field at a
# time is common.
FIELD_VALUES = {
    "id": st.sampled_from(["a", "b"]),
    "path": st.sampled_from(["samples/a.vol", "samples/none.vol", "samples", "", "x" * 300,
                             "a\x00b"]),
    "kind": st.sampled_from(["2d", "3d"]),
    "body_region": st.sampled_from(["Chest", "", " "]),
    "modality": st.sampled_from(["CT", "-"]),
    "condition": st.sampled_from([None, "Nodule", ""]),
    "label": st.sampled_from([0, 1]),
    "split": st.sampled_from(["train", "test"]),
}
DELETE = object()


def _edited(record, edits):
    for key, value in edits.items():
        if value is DELETE:
            record.pop(key, None)
        else:
            record[key] = value
    return record


MANIFEST_RECORDS = st.builds(
    _edited, st.fixed_dictionaries(FIELD_VALUES),
    st.dictionaries(st.sampled_from([*FIELD_VALUES, "extra"]), JSON_VALUES | st.just(DELETE),
                    max_size=3))


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "samples").mkdir()
    dp.save_volume(np.zeros((1, 8, 8)), root / "samples" / "a.vol")
    return root


@settings(max_examples=300, deadline=None)
@given(records=st.lists(MANIFEST_RECORDS | JSON_VALUES, max_size=3))
def test_any_manifest_records_load_or_raise_load_error(sample_dir, records):
    path = sample_dir / "manifest.json"
    path.write_text(json.dumps(records))
    try:
        entries = dp.load_manifest(path)
    except LoadError:
        return
    for e in entries:  # a loaded entry yields a caption or a typed error
        try:
            dp.tokenize(dp.build_caption(e))
        except VolalignError:
            pass


LOADERS = {"captions": dp.load_captions, "embeddings": ek.read_embeddings_csv}
CSV_CELLS = st.sampled_from(["a", "b", "0", "1", "-1", "2.5", "nan", "inf", "1e999", "", " ",
                             "\u00e9"])
CSV_TEXTS = st.lists(st.lists(CSV_CELLS, max_size=5).map(",".join), max_size=4).map(
    lambda rows: "\n".join(["id,label,e0,e1", *rows]))
CAPTION_TEXTS = st.lists(
    st.fixed_dictionaries({"label": st.integers(-1, 3) | JSON_VALUES,
                           "text": st.sampled_from(["Chest CT", "-", ""]) | JSON_VALUES})
    | JSON_VALUES, max_size=3).map(json.dumps)
# raw bytes, a non-UTF-8 or well-formed prefix with raw bytes after it, or text
# that is close to a loadable file
PREFIXES = st.sampled_from([b"\xff", CSV_HEADER.encode(), b'[{"label": 0, "text": "'])
LOADER_BYTES = (st.binary(max_size=40)
                | st.builds(bytes.__add__, PREFIXES, st.binary(max_size=20))
                | (CSV_TEXTS | CAPTION_TEXTS).map(str.encode))


@settings(max_examples=300, deadline=None)
@given(loader=st.sampled_from(sorted(LOADERS)), blob=LOADER_BYTES)
def test_any_bytes_load_or_raise_typed_error(loader, blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_bytes(blob)
        try:
            LOADERS[loader](path)
        except VolalignError:
            pass


@pytest.mark.parametrize("loader, error", [
    (dp.load_captions, LoadError),
    (ek.read_embeddings_csv, LoadError),
    (TrainConfig.from_json, ConfigurationError),
], ids=["captions", "embeddings", "config"])
def test_non_utf8_file_is_typed_error(tmp_path, loader, error):
    path = tmp_path / "file"
    path.write_bytes(b"\xff" + CSV_HEADER.encode())
    with pytest.raises(error, match="cannot read"):
        loader(path)


@pytest.mark.parametrize("field, value, message", [
    ("epochs", "3", "epochs must be an integer"),
    ("batch_size", True, "batch_size must be an integer"),
    ("patch_size", 8.0, "patch_size must be an integer"),
    ("heads", None, "heads must be an integer"),
    ("lr0", "1e-3", "lr0 must be a finite real number"),
    ("tau", False, "tau must be a finite real number"),
    ("weight_decay", float("nan"), "weight_decay must be a finite real number"),
    ("lr0", float("inf"), "lr0 must be a finite real number"),
    ("lr0", 10**400, "lr0 must be a finite real number"),
    ("symmetric", 1, "symmetric must be a boolean"),
    ("symmetric", "true", "symmetric must be a boolean"),
    ("patch_size", 0, "dimensions must be positive"),  # before patch_size divides image_size
    ("image_size", 0, "dimensions must be positive"),
    ("tau", 0.0, "tau must be positive"),
    ("tau", -1.0, "tau must be positive"),
])
def test_config_value_of_wrong_type_or_size_is_configuration_error(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        TrainConfig.from_dict({field: value})


def test_integer_is_a_real_number():
    assert TrainConfig.from_dict({"lr0": 1, "tau": 2}).lr0 == 1


def test_config_is_validated_by_replace_and_immutable():
    cfg = TrainConfig(d_model=8)
    with pytest.raises(ConfigurationError, match=r"heads \(3\) must divide d_model \(8\)"):
        dataclasses.replace(cfg, heads=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.heads = 3
    assert cfg.heads == 4


CONFIG_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
# near-valid values, nan and infinities, and any JSON value
CONFIG_VALUES = (st.sampled_from([0, 1, 2, 4, 8, -1, 1.0, 8.0, 0.5, True, False, "8"])
                 | st.floats() | JSON_VALUES)


@pytest.fixture(scope="module")
def checkpoint_sections(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
    tr.save_checkpoint(tr.make_initial_checkpoint(small_cfg()), path)
    blob = path.read_bytes()
    return {k: blob[s] for k, s in tr._read_sections(blob, path).items()}


def checkpoint_bytes(sections: dict[str, bytes]) -> bytes:
    out = [b"RCKP", struct.pack("<I", tr.CHECKPOINT_VERSION)]
    for name, payload in sections.items():
        nb = name.encode()
        out += [struct.pack("<I", len(nb)), nb, struct.pack("<Q", len(payload)), payload]
    return b"".join(out)


META_FIELDS = ["stage", "history", "optimizer_step"]
HISTORY_RECORD = {"epoch": 0, "lr": 1e-3, "train_loss": 1.5, "val_loss": 1.25}
# near-valid values of each meta field's type, and any JSON value
META_VALUES = (st.sampled_from([0, 1, 2, 3, -1, 1.0, True, None, "1", [], {}, [{}],
                                [HISTORY_RECORD], [dict(HISTORY_RECORD, lr="x")]])
               | st.floats() | JSON_VALUES)


def loaded_meta(ckpt) -> dict:
    """The meta fields of a loaded checkpoint, as save_checkpoint writes them."""
    return {"stage": ckpt.stage, "history": ckpt.history,
            "optimizer_step": ckpt.optimizer.step if ckpt.optimizer else None}


@settings(max_examples=300, deadline=None)
@example(edits={"d_model": "8"}, meta_edits={})
@example(edits={}, meta_edits={"history": [dict(HISTORY_RECORD, epoch=1)]})
@given(edits=st.dictionaries(st.sampled_from(CONFIG_FIELDS), CONFIG_VALUES, max_size=3),
       meta_edits=st.dictionaries(st.sampled_from(META_FIELDS), META_VALUES, max_size=3))
def test_any_meta_config_loads_or_raises_checkpoint_error(checkpoint_sections, edits,
                                                          meta_edits):
    meta = json.loads(checkpoint_sections["meta"])
    meta["config"].update(edits)
    meta.update(meta_edits)
    sections = {**checkpoint_sections, "meta": json.dumps(meta).encode()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        path.write_bytes(checkpoint_bytes(sections))
        try:
            ckpt = tr.load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)
            return
    assert (json.dumps(ckpt.config.to_dict(), sort_keys=True)
            == json.dumps(meta["config"], sort_keys=True))
    assert json.dumps(loaded_meta(ckpt)) == json.dumps({k: meta[k] for k in loaded_meta(ckpt)})
    assert ckpt.epoch == len(ckpt.history) and ckpt.stage in (1, 2)


def small_cfg(**kw):
    base = dict(d_model=8, d_hidden=8, d_text=8, vocab=64, patch_size=4, image_size=8,
                heads=2, s_max=8, epochs=3, batch_size=4, dropout_rate=0.2, lr0=1e-3,
                lr_min=1e-6, patience=10, seed=3)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus2d(tmp_path_factory):
    root = tmp_path_factory.mktemp("g2d")
    spec = dp.SynthSpec(family="pattern", classes=2, per_class=10, height=8,
                        width=8, kind="2d")
    return root, dp.synth_dataset(spec, seed=21, out_dir=root)


def train(cfg, corpus):
    root, entries = corpus
    return tr.train_stage1(cfg, [e for e in entries if e.split == "train"],
                           [e for e in entries if e.split == "val"], root)


class TestResumeGuard:
    def test_cli_resume_from_string_epoch_is_checkpoint_error(self, corpus2d, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        path = tmp_path / "run" / "epoch_0001.ckpt"
        tr.save_checkpoint(tr.make_initial_checkpoint(small_cfg()), path)
        blob = path.read_bytes()
        sections = {k: blob[s] for k, s in tr._read_sections(blob, path).items()}
        meta = json.loads(sections["meta"])
        meta["history"] = [dict(HISTORY_RECORD, epoch="0")]
        path.write_bytes(checkpoint_bytes({**sections, "meta": json.dumps(meta).encode()}))
        (tmp_path / "cfg.json").write_text(json.dumps(small_cfg().to_dict()))
        code = main(["train2d", "--config", str(tmp_path / "cfg.json"),
                     "--data", str(corpus2d[0]), "--out", str(tmp_path / "run"),
                     "--resume"])
        assert code == CheckpointError.exit_code == 5
        assert (f"error:checkpoint: {path}: meta history must be a list of objects numbered "
                "by epoch 0, 1, ...") in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["epoch_0001.ckpt"]


class TestBadSampleInSplit:
    """A split is loaded in batches, but a bad sample still fails by name."""

    @pytest.fixture
    def copy2d(self, corpus2d, tmp_path):
        root, entries = corpus2d
        shutil.copytree(root, tmp_path / "c2d")
        return tmp_path / "c2d", entries

    def test_2d_entry_with_two_slices_is_input_error(self, copy2d):
        root, entries = copy2d
        bad = [e for e in entries if e.split == "train"][5]
        dp.save_volume(np.ones((2, 8, 8)), root / bad.path)
        with pytest.raises(InputError, match=f"entry '{bad.id}' is 2d but its sample has 2"):
            train(small_cfg(), (root, entries))

    def test_truncated_sample_is_format_error_in_training(self, copy2d):
        root, entries = copy2d
        bad = root / [e for e in entries if e.split == "train"][5].path
        bad.write_bytes(bad.read_bytes()[:-4])
        with pytest.raises(FormatError, match=re.escape(f"{bad}: payload is")):
            train(small_cfg(), (root, entries))

    def test_truncated_sample_is_format_error_in_extraction(self, copy2d):
        root, entries = copy2d
        bad = root / entries[len(entries) // 2].path
        bad.write_bytes(bad.read_bytes()[:-4])
        ckpt = tr.make_initial_checkpoint(small_cfg())
        with pytest.raises(FormatError, match=re.escape(f"{bad}: payload is")):
            ek.extract_embeddings(ckpt, entries, root, "gap")


class TestNonFiniteGuard:
    def test_overflowing_learning_rate_stops_the_run(self, corpus2d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow notes
            with pytest.raises(NonFiniteError, match=r"epoch 0, batch 1: non-finite training loss"):
                train(small_cfg(lr0=1e300), corpus2d)

    def test_non_finite_gradient_names_the_parameter(self, corpus2d, monkeypatch):
        backward = dm.Tape.backward

        def poisoned(tape, loss):
            backward(tape, loss)
            for _out, inputs, _rule in tape._records:
                for x in inputs:
                    if isinstance(x, dm.Param) and x.name == "image.mlp_hidden":
                        x.grad[0, 0] = np.inf

        monkeypatch.setattr(dm.Tape, "backward", poisoned)
        with pytest.raises(NonFiniteError,
                           match=r"epoch 0, batch 0: non-finite gradient of image.mlp_hidden"):
            train(small_cfg(), corpus2d)

    def test_cli_exit_code_and_category(self, corpus2d, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(small_cfg(lr0=1e300).to_dict()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["train2d", "--config", str(tmp_path / "cfg.json"),
                         "--data", str(corpus2d[0]), "--out", str(tmp_path / "run")])
        assert code == NonFiniteError.exit_code == 7
        assert "error:nonfinite: epoch 0, batch 1" in capsys.readouterr().err
