"""Typed failures: malformed loader input, an invalid temperature, and a
training run that overflows."""

import json
import warnings

import numpy as np
import pytest

from volalign import contrastive as ct
from volalign import datapipe as dp
from volalign import diffmath as dm
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.cli import EXIT_NONFINITE, main
from volalign.config import TrainConfig
from volalign.errors import ConfigurationError, LoadError, NonFiniteError

CSV_HEADER = "id,label,e0,e1\n"


@pytest.mark.parametrize("loader, content", [
    ("captions", [1]),
    ("captions", ["label text"]),
    ("captions", [{"label": "x", "text": "a"}]),
    ("captions", [{"label": 0, "text": 5}]),
    ("embeddings", CSV_HEADER + "a,0,1.0,zero\n"),
    ("embeddings", CSV_HEADER + "a,first,1.0,2.0\n"),
    ("embeddings", CSV_HEADER + "a\n"),
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
        with pytest.raises(LoadError):
            ek.read_embeddings_csv(path)


def test_loss_config_checks_tau_once_at_construction():
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError):
            ct.LossConfig(tau=tau)
    assert ct.LossConfig(tau=0.5).tau == 0.5


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
                        x.grad.data[0, 0] = np.inf

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
        assert code == EXIT_NONFINITE == 7
        assert "error:nonfinite: epoch 0, batch 1" in capsys.readouterr().err
