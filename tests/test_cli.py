import json
import subprocess
import sys

import pytest

from volalign.cli import main


def run(argv):
    return main([str(a) for a in argv])


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

    def test_invalid_config_exit_code(self, workspace, capsys):
        code = run(["train2d", "--config", workspace / "cfg.json", "--batch-size", 1,
                    "--data", workspace / "data" / "2d", "--out", workspace / "y"])
        assert code == 3
        assert "error:config:" in capsys.readouterr().err

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
