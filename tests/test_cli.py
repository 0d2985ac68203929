import argparse
import hashlib
import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from volalign import cli
from volalign import datapipe as dp
from volalign import errors
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.cli import main
from volalign.config import TrainConfig
from volalign.errors import CheckpointError, CompatibilityError, DependencyError


def run(argv):
    return main([str(a) for a in argv])


def digests(directory) -> dict[str, str]:
    """sha256 of each file in directory but run_config.json, which records paths."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir() if p.name != "run_config.json"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpora plus a small config file, built through the CLI itself."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = dict(d_model=8, d_hidden=8, d_text=8, vocab=64, patch_size=4,
               image_size=8, heads=2, s_max=8, epochs=2, batch_size=4,
               dropout_rate=0.2, lr0=1e-3, patience=10, seed=3)
    (ws / "cfg.json").write_text(json.dumps(cfg))
    assert run(["synth", "--family", "pattern", "--kind", "2d", "--classes", 2,
                "--per-class", 10, "--size", 8, "--seed", 11,
                "--out", ws / "data" / "2d"]) == 0
    assert run(["synth", "--family", "order-coded", "--classes", 2,
                "--per-class", 25, "--slices", 4, "--size", 8, "--seed", 12,
                "--out", ws / "data" / "3d"]) == 0
    return ws


@pytest.fixture(scope="module")
def trained(workspace):
    ws = workspace
    assert run(["train2d", "--config", ws / "cfg.json", "--data", ws / "data" / "2d",
                "--out", ws / "run1"]) == 0
    assert run(["train3d", "--config", ws / "cfg.json", "--data", ws / "data" / "3d",
                "--from", ws / "run1" / "stage1.ckpt", "--out", ws / "run2"]) == 0
    return ws


@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    """A 2D corpus, a config and run `a` under it: 8 epochs, whose best
    (epoch_0003.ckpt) comes before epoch 4."""
    ws = tmp_path_factory.mktemp("repro")
    cfg = dict(d_model=16, d_hidden=16, d_text=16, vocab=64, patch_size=4, image_size=8,
               heads=2, s_max=8, batch_size=4, epochs=8, patience=8, lr0=1.0,
               dropout_rate=0.5, seed=3)
    (ws / "cfg.json").write_text(json.dumps(cfg))
    assert run(["synth", "--family", "pattern", "--kind", "2d", "--classes", 3,
                "--per-class", 10, "--size", 8, "--seed", 3, "--out", ws / "d"]) == 0
    assert run(["train2d", "--config", ws / "cfg.json", "--data", ws / "d",
                "--out", ws / "a"]) == 0
    return ws


def killed_after(run_dir: Path, epochs, into: Path) -> None:
    """into as a run that was killed leaves it, holding these epochs of run_dir."""
    into.mkdir()
    for e in epochs:
        shutil.copy(run_dir / f"epoch_{e:04d}.ckpt", into)


class TestSynth:
    def test_outputs_exist(self, workspace):
        d = workspace / "data" / "3d"
        assert (d / "manifest.json").is_file()
        assert (d / "captions.json").is_file()
        assert (d / "run_config.json").is_file()
        assert (d / "samples" / "c0_0000.vol").is_file()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        args = ["synth", "--family", "pattern", "--kind", "2d", "--classes", 2,
                "--per-class", 5, "--size", 8, "--seed", 4, "--out", tmp_path / "s"]
        assert run(args) == 0
        before = {p: p.read_bytes() for p in (tmp_path / "s").rglob("*") if p.is_file()}
        assert run(args) == 0
        after = {p: p.read_bytes() for p in (tmp_path / "s").rglob("*") if p.is_file()}
        assert before == after

    @pytest.mark.parametrize("noise", ["-0.5", "nan"])
    def test_bad_noise_is_config_error(self, tmp_path, noise):
        assert run(["synth", "--family", "pattern", "--noise", noise,
                    "--out", tmp_path / "s"]) == 3
        assert not (tmp_path / "s").exists()


class TestTraining:
    def test_train2d_outputs(self, trained):
        out = trained / "run1"
        assert (out / "stage1.ckpt").is_file()
        assert (out / "loss.csv").is_file()
        assert (out / "epoch_0001.ckpt").is_file()
        rc = json.loads((out / "run_config.json").read_text())
        assert rc["version"] and rc["config"]["d_model"] == 8

    def test_train3d_outputs(self, trained):
        out = trained / "run2"
        assert (out / "stage2.ckpt").is_file()
        lines = (out / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_loss"
        assert len(lines) >= 2

    def test_train3d_missing_stage1_is_dependency_error(self, workspace, capsys):
        code = run(["train3d", "--config", workspace / "cfg.json",
                    "--data", workspace / "data" / "3d",
                    "--from", workspace / "nope.ckpt", "--out", workspace / "x"])
        assert code == 4
        assert "error:dependency:" in capsys.readouterr().err

    def test_fresh_train3d_without_from_is_dependency_error(self, workspace, capsys):
        code = run(["train3d", "--config", workspace / "cfg.json",
                    "--data", workspace / "data" / "3d", "--out", workspace / "x"])
        assert code == 4
        assert "error:dependency:" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, workspace, capsys):
        code = run(["train2d", "--config", workspace / "cfg.json", "--batch-size", 1,
                    "--data", workspace / "data" / "2d", "--out", workspace / "y"])
        assert code == 3
        assert "error:config:" in capsys.readouterr().err

    def test_resume_under_another_config_is_compatibility_error(self, trained, tmp_path,
                                                                capsys):
        killed_after(trained / "run1", [1], tmp_path / "r")
        code = run(["train2d", "--config", trained / "cfg.json", "--epochs", 5,
                    "--data", trained / "data" / "2d", "--out", tmp_path / "r", "--resume"])
        assert code == CompatibilityError.exit_code == 6
        assert ("error:compat: checkpoint config differs from the resuming one: "
                "{'epochs': (2, 5)}") in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "r").glob("epoch_*.ckpt")] == ["epoch_0001.ckpt"]

    def test_refused_resume_leaves_out_dir_unchanged(self, trained, tmp_path):
        out = tmp_path / "r"
        shutil.copytree(trained / "run1", out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = run(["train2d", "--config", trained / "cfg.json", "--epochs", 9,
                    "--data", trained / "data" / "2d", "--out", out, "--resume"])
        assert code == 6
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_continues_its_own_directory(self, repro, tmp_path):
        # the best epoch (3) lies before the resume point (epoch 4), so the
        # best checkpoint is read back from the run's directory
        killed_after(repro / "a", [1, 2, 3, 4], tmp_path / "b")
        assert run(["train2d", "--config", repro / "cfg.json", "--data", repro / "d",
                    "--out", tmp_path / "b", "--resume"]) == 0
        best = (tmp_path / "b" / "stage1.ckpt").read_bytes()
        assert best == (tmp_path / "b" / "epoch_0003.ckpt").read_bytes()
        assert digests(tmp_path / "b") == digests(repro / "a")

    def test_resume_without_the_best_epoch_is_checkpoint_error(self, repro, tmp_path):
        killed_after(repro / "a", [1, 2, 4], tmp_path / "b")
        entries = dp.load_manifest(repro / "d" / "manifest.json")
        train = [e for e in entries if e.split == "train"]
        val = [e for e in entries if e.split == "val"]
        cfg = TrainConfig.from_json(repro / "cfg.json")
        with pytest.raises(CheckpointError, match="epoch_0003.ckpt"):
            tr.train_stage1(cfg, train, val, repro / "d", out_dir=tmp_path / "b", resume=True)
        assert not (tmp_path / "b" / "stage1.ckpt").exists()

    def test_resume_without_an_epoch_checkpoint_is_dependency_error(self, workspace, tmp_path,
                                                                    capsys):
        code = run(["train2d", "--config", workspace / "cfg.json",
                    "--data", workspace / "data" / "2d", "--out", tmp_path / "r", "--resume"])
        assert code == DependencyError.exit_code == 4
        err = capsys.readouterr().err
        assert f"error:dependency: no epoch checkpoint in {tmp_path / 'r'}" in err
        assert not (tmp_path / "r").exists()

    def test_train2d_resume_of_a_train3d_run_is_compatibility_error(self, trained, tmp_path,
                                                                    capsys):
        shutil.copytree(trained / "run2", tmp_path / "r")
        before = digests(tmp_path / "r")
        code = run(["train2d", "--config", trained / "cfg.json",
                    "--data", trained / "data" / "2d", "--out", tmp_path / "r", "--resume"])
        assert code == CompatibilityError.exit_code == 6
        assert ("error:compat: cannot resume stage 1 from a stage-2 checkpoint"
                in capsys.readouterr().err)
        assert digests(tmp_path / "r") == before

    def test_fresh_run_deletes_the_epochs_of_an_earlier_run(self, repro, tmp_path):
        base = ["train2d", "--config", repro / "cfg.json", "--data", repro / "d",
                "--epochs", 12, "--patience", 2]
        out = tmp_path / "a"
        assert run([*base, "--seed", 4, "--out", out]) == 0  # runs all 12 epochs
        assert len(list(out.glob("epoch_*.ckpt"))) == 12
        assert run([*base, "--seed", 3, "--out", out]) == 0  # stops early, after epoch 5
        assert len((out / "loss.csv").read_text().splitlines()) == 1 + 5
        assert (sorted(p.name for p in out.glob("epoch_*.ckpt"))
                == [f"epoch_{e:04d}.ckpt" for e in range(1, 6)])
        # the resume finds the finished seed-3 run, not seed 4's epochs 6-12
        assert run([*base, "--seed", 4, "--out", out, "--resume"]) == 0
        assert run([*base, "--seed", 3, "--out", tmp_path / "clean"]) == 0
        assert digests(out) == digests(tmp_path / "clean")

    def test_train3d_into_the_stage1_directory_keeps_its_checkpoint(self, trained, tmp_path):
        shutil.copyfile(trained / "run1" / "stage1.ckpt", tmp_path / "stage1.ckpt")
        assert run(["train3d", "--config", trained / "cfg.json",
                    "--data", trained / "data" / "3d", "--from", tmp_path / "stage1.ckpt",
                    "--out", tmp_path]) == 0
        assert ((tmp_path / "stage1.ckpt").read_bytes()
                == (trained / "run1" / "stage1.ckpt").read_bytes())
        assert (tmp_path / "stage2.ckpt").is_file()

    def test_train3d_resume_needs_no_stage1(self, trained, tmp_path):
        for out in ("with", "without"):  # each holds the run's epoch-1 checkpoint
            (tmp_path / out).mkdir()
            shutil.copyfile(trained / "run2" / "epoch_0001.ckpt",
                            tmp_path / out / "epoch_0001.ckpt")
        base = ["train3d", "--config", trained / "cfg.json", "--data", trained / "data" / "3d"]
        assert run([*base, "--from", trained / "run1" / "stage1.ckpt", "--out", tmp_path / "with",
                    "--resume"]) == 0
        assert run([*base, "--out", tmp_path / "without", "--resume"]) == 0
        names = sorted(p.name for p in (tmp_path / "with").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "without").iterdir())
        for name in names:
            if name != "run_config.json":
                assert ((tmp_path / "with" / name).read_bytes()
                        == (tmp_path / "without" / name).read_bytes()), name
        rc = json.loads((tmp_path / "without" / "run_config.json").read_text())
        assert rc["from"] is None

    def test_bad_manifest_exit_code(self, workspace, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{not json")
        code = run(["train2d", "--config", workspace / "cfg.json",
                    "--data", tmp_path, "--out", tmp_path / "o"])
        assert code == 5
        assert "error:load:" in capsys.readouterr().err


class TestEvalCommands:
    def test_probe_both_pools(self, trained, tmp_path):
        for pool in ("gap", "attn"):
            out = tmp_path / f"probe_{pool}"
            assert run(["probe", "--ckpt", trained / "run2" / "stage2.ckpt",
                        "--data", trained / "data" / "3d", "--pool", pool,
                        "--seed", 0, "--out", out]) == 0
            assert (out / "probe_report.csv").is_file()
            assert (out / "probe_report.txt").is_file()

    def test_probe_rerun_byte_identical(self, trained, tmp_path):
        out = tmp_path / "probe"
        args = ["probe", "--ckpt", trained / "run2" / "stage2.ckpt",
                "--data", trained / "data" / "3d", "--pool", "attn",
                "--seed", 0, "--out", out]
        assert run(args) == 0
        first = (out / "probe_report.csv").read_bytes()
        assert run(args) == 0
        assert (out / "probe_report.csv").read_bytes() == first

    def test_probe_one_fold_is_evaluation_error(self, trained, tmp_path, capsys):
        code = run(["probe", "--ckpt", trained / "run2" / "stage2.ckpt",
                    "--data", trained / "data" / "3d", "--folds", 1,
                    "--out", tmp_path / "probe"])
        assert code == 6
        assert "error:evaluation:" in capsys.readouterr().err

    def test_probe_refuses_non_finite_checkpoint(self, trained, tmp_path, capsys):
        ckpt = tr.load_checkpoint(trained / "run2" / "stage2.ckpt")
        ckpt.adapter["wo"].value[0, 0] = float("nan")
        tr.save_checkpoint(ckpt, tmp_path / "nan.ckpt")
        code = run(["probe", "--ckpt", tmp_path / "nan.ckpt", "--data", trained / "data" / "3d",
                    "--out", tmp_path / "probe"])
        assert code == CheckpointError.exit_code == 5
        assert "section param:adapter.wo has non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "probe").exists()

    def test_probe_refuses_format_3_checkpoint(self, trained, tmp_path, capsys):
        blob = bytearray((trained / "run2" / "stage2.ckpt").read_bytes())
        blob[4:8] = struct.pack("<I", 3)
        (tmp_path / "v3.ckpt").write_bytes(bytes(blob))
        code = run(["probe", "--ckpt", tmp_path / "v3.ckpt", "--data", trained / "data" / "3d",
                    "--out", tmp_path / "probe"])
        assert code == CheckpointError.exit_code == 5
        assert "unknown checkpoint version 3" in capsys.readouterr().err
        assert not (tmp_path / "probe").exists()

    def test_probe_refuses_moments_of_the_group_its_stage_freezes(self, trained, tmp_path,
                                                                  capsys):
        ckpt = tr.load_checkpoint(trained / "run1" / "stage1.ckpt")
        ckpt.stage = 2  # a stage-2 file whose moments are the image group's
        tr.save_checkpoint(ckpt, tmp_path / "s2.ckpt")
        code = run(["probe", "--ckpt", tmp_path / "s2.ckpt", "--data", trained / "data" / "3d",
                    "--out", tmp_path / "probe"])
        assert code == CheckpointError.exit_code == 5
        assert "missing sections ['adam.m:adapter.pe_table'" in capsys.readouterr().err
        assert not (tmp_path / "probe").exists()

    def test_match(self, trained, tmp_path):
        out = tmp_path / "match"
        assert run(["match", "--ckpt", trained / "run2" / "stage2.ckpt",
                    "--data", trained / "data" / "3d",
                    "--captions", trained / "data" / "3d" / "captions.json",
                    "--out", out]) == 0
        txt = (out / "match_report.txt").read_text()
        assert "top-1 precision" in txt

    def test_export_csv_header(self, trained, tmp_path):
        out = tmp_path / "exp"
        assert run(["export", "--ckpt", trained / "run2" / "stage2.ckpt",
                    "--data", trained / "data" / "3d", "--pool", "gap",
                    "--split", "test", "--out", out]) == 0
        header = (out / "embeddings.csv").read_text().splitlines()[0]
        assert header == "id,label," + ",".join(f"e{i}" for i in range(8))

    def test_ablate(self, trained, tmp_path):
        out = tmp_path / "abl"
        assert run(["ablate", "--config", trained / "cfg.json",
                    "--data", trained / "data", "--out", out]) == 0
        lines = (out / "ablation_report.csv").read_text().splitlines()
        assert len(lines) == 5  # header + four configurations
        assert (out / "work" / "stage1.ckpt").is_file()
        assert json.loads((out / "run_config.json").read_text())["from"] is None

    def test_ablate_records_its_stage1_checkpoint(self, trained, tmp_path):
        out = tmp_path / "abl"
        ckpt = trained / "run1" / "stage1.ckpt"
        assert run(["ablate", "--config", trained / "cfg.json", "--data", trained / "data",
                    "--from", ckpt, "--out", out]) == 0
        assert json.loads((out / "run_config.json").read_text())["from"] == str(ckpt)
        assert not (out / "work" / "stage1.ckpt").exists()

    def test_ablate_missing_stage1_is_dependency_error(self, workspace, tmp_path, capsys):
        code = run(["ablate", "--config", workspace / "cfg.json", "--data", workspace / "data",
                    "--from", workspace / "nope.ckpt", "--out", tmp_path / "abl"])
        assert code == DependencyError.exit_code == 4
        assert (f"error:dependency: stage-1 checkpoint not found: {workspace / 'nope.ckpt'}; "
                "run train2d first and pass it as --from") in capsys.readouterr().err

    def test_ablate_exits_with_the_code_of_an_error_in_the_probe_child(
            self, trained, tmp_path, capsys, monkeypatch, fork_log, two_cpus):
        probe, me = ek.linear_probe_cv, os.getpid()

        def failing_in_the_child(table, **kwargs):
            if os.getpid() != me:
                raise errors.DimensionError("raised in the probe child")
            return probe(table, **kwargs)

        monkeypatch.setattr(ek, "linear_probe_cv", failing_in_the_child)
        code = run(["ablate", "--config", trained / "cfg.json", "--data", trained / "data",
                    "--out", tmp_path / "abl"])
        assert code == errors.DimensionError.exit_code == 8
        assert "error:dimension: raised in the probe child" in capsys.readouterr().err
        forks = fork_log.values()  # the corpus is below FORK_MIN_SAMPLES: the probe child
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_installed_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "volalign.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "volalign" in proc.stdout

    def test_every_config_flag_reaches_the_config(self):
        # one valid value per config flag, each other than its default
        values = dict(seed=7, epochs=3, batch_size=8, lr0=0.002, lr_min=0.0001,
                      weight_decay=0.01, dropout_rate=0.25, tau=0.5, heads=2,
                      d_model=16, d_hidden=24, patch_size=4, image_size=16, s_max=12,
                      patience=2)
        p = argparse.ArgumentParser()
        cli._add_config_flags(p)
        flags = {a.dest: a.option_strings[0] for a in p._actions
                 if a.dest not in ("help", "config")}
        assert flags.keys() == values.keys()
        args = p.parse_args([str(x) for k, v in values.items() for x in (flags[k], v)])
        cfg = cli._load_config(args)
        for k, v in values.items():
            assert v != getattr(TrainConfig(), k), k
            assert getattr(cfg, k) == v, k


def readme_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, from README's exit-code sentence."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Exit codes: (.*?)\.\n", readme, re.S).group(1)
    codes = {}
    for code, names in re.findall(r"`(\d+)` [^`(]*\(([^)]*)\)", sentence):
        for name in re.findall(r"`(\w+)`", names):
            codes[name] = int(code)
    return codes


def readme_meta_keys() -> list[str]:
    """The meta keys that README's Checkpoint bullet lists, in its order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = re.search(r"with exactly the keys (.*?)\. ", readme, re.S).group(1)
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", listing))


def test_readme_lists_the_meta_keys_the_writer_writes(tmp_path):
    path = tmp_path / "c.ckpt"
    cfg = TrainConfig(d_model=8, d_hidden=8, d_text=8, vocab=64, heads=2)
    tr.save_checkpoint(tr.make_initial_checkpoint(cfg), path)
    blob = path.read_bytes()
    meta = json.loads(blob[tr._read_sections(blob, path)["meta"]])
    assert sorted(readme_meta_keys()) == sorted(meta)


class TestExitCodes:
    ERRORS = [c for _, c in inspect.getmembers(errors, inspect.isclass)
              if issubclass(c, errors.VolalignError)]

    def test_every_error_class_is_in_the_readme(self):
        codes = readme_exit_codes()
        assert "VolalignError" in codes
        for cls in self.ERRORS:
            # a subclass without a code of its own exits with its base's code
            listed = next(c for c in cls.__mro__ if c.__name__ in codes)
            assert cls.exit_code == codes[listed.__name__], cls.__name__
            if "exit_code" in vars(cls):
                assert cls.__name__ in codes, cls.__name__
        # 0 (success) and 2 (usage, from argparse) belong to no error class
        assert {c.exit_code for c in self.ERRORS} == set(codes.values()) == {1, *range(3, 10)}

    @pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
    def test_main_exits_with_the_class_code(self, cls, monkeypatch, capsys):
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_synth", fail)
        assert main(["synth", "--family", "pattern", "--out", "unused"]) == cls.exit_code
        assert capsys.readouterr().err == f"error:{cls.category}: boom\n"

    def test_untyped_exception_exits_1(self, monkeypatch, capsys):
        def fail(args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "cmd_synth", fail)
        assert main(["synth", "--family", "pattern", "--out", "unused"]) == cli.EXIT_UNEXPECTED == 1
        assert capsys.readouterr().err.startswith("error:internal:")
