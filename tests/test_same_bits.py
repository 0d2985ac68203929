"""Every output of a small CLI pipeline, pinned by sha256.

One workspace runs both trainings (each also resumed from epoch 1, in a
directory that holds a copy of that epoch's checkpoint), both exports, the
probe, the match and an uncached ablation through cli.main, and the test
compares the sha256 of every file they write with PINS. Only
run_config.json is left out, because it records paths. A change that moves
these bits by accident fails here; one that moves them on purpose updates
PINS and names each changed file in CHANGES.md.

The pins hold for numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64, and only
with OpenBLAS's SkylakeX kernel and numpy's AVX-512 dispatch. Another kernel
(OPENBLAS_CORETYPE=Haswell, say), another SIMD level or another BLAS rounds
the training sums differently and fails here, although its own runs still
agree with each other. Print fresh pins with

    PYTHONPATH=src python tests/test_same_bits.py
"""

import contextlib
import csv
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from volalign.cli import main

CONFIG = dict(d_model=16, d_hidden=16, d_text=16, vocab=64, patch_size=4, image_size=8,
              heads=2, s_max=8, epochs=10, batch_size=4, dropout_rate=0.5, lr0=0.03,
              patience=10, seed=3)


def run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"volalign {' '.join(map(str, argv))} exited {code}")


def killed_after_epoch_1(run_dir: Path, into: Path) -> None:
    """into as a run that stopped after epoch 1 leaves it."""
    into.mkdir(parents=True)
    shutil.copy(run_dir / "epoch_0001.ckpt", into)


def build_workspace(ws: Path) -> None:
    """Corpora in ws/data, every output in ws/out."""
    data, out = ws / "data", ws / "out"
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    corpus = ["--family", "pattern", "--classes", 3, "--per-class", 25, "--size", 8]
    run("synth", *corpus, "--kind", "2d", "--seed", 5, "--out", data / "2d")
    run("synth", *corpus, "--kind", "3d", "--slices", 4, "--seed", 6, "--out", data / "3d")
    d2, d3 = data / "2d", data / "3d"
    run("train2d", "--config", cfg, "--data", d2, "--out", out / "train2d")
    killed_after_epoch_1(out / "train2d", out / "train2d_resumed")
    run("train2d", "--config", cfg, "--data", d2, "--out", out / "train2d_resumed", "--resume")
    stage1 = out / "train2d" / "stage1.ckpt"
    run("train3d", "--config", cfg, "--data", d3, "--from", stage1, "--out", out / "train3d")
    killed_after_epoch_1(out / "train3d", out / "train3d_resumed")
    run("train3d", "--config", cfg, "--data", d3, "--out", out / "train3d_resumed", "--resume")
    stage2 = out / "train3d" / "stage2.ckpt"
    run("export", "--ckpt", stage1, "--data", d3, "--pool", "gap", "--out", out / "export_gap")
    run("export", "--ckpt", stage2, "--data", d3, "--pool", "attn", "--out", out / "export_attn")
    run("probe", "--ckpt", stage2, "--data", d3, "--out", out / "probe")
    run("match", "--ckpt", stage2, "--data", d3, "--captions", d3 / "captions.json",
        "--out", out / "match")
    run("ablate", "--config", cfg, "--data", data, "--out", out / "ablate")


def digests(out: Path) -> dict[str, str]:
    """sha256 of each file under out but run_config.json, by relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run_config.json"}


PINS = {
    "ablate/ablation_report.csv":
        "9cdc0e4d907931a2941683d4f9b8450237796f48f6c332f5e48bd9a6e21bf1be",
    "ablate/ablation_report.txt":
        "3faa2e4873561a4cf5ab0a3dc5b95352fd87de24dd6bc842aba2bf2d6788f568",
    "ablate/work/stage1/epoch_0001.ckpt":
        "a3c5d9a83095d05857de9a276f86a2ce6c6674165ae91fad3a026040e9f0e641",
    "ablate/work/stage1/epoch_0002.ckpt":
        "3554ae1e8f1fbc2e7cb9d53de46e6b6a2555c0bf1d1260809a1a1ad686f0f638",
    "ablate/work/stage1/epoch_0003.ckpt":
        "064721be076e76f9a4e0d2e877e4b25f6559dc48cceb0b2248c78236947994eb",
    "ablate/work/stage1/epoch_0004.ckpt":
        "7d8e4e9735859a3af66f8ba765c8154c652b043e6a920094f2bc2ef87862026e",
    "ablate/work/stage1/epoch_0005.ckpt":
        "6efb0e29176ad0d302ab2affcdcf531f8bd38cc39b06a1ab835a6685fde8de11",
    "ablate/work/stage1/epoch_0006.ckpt":
        "3fee903cb117b09b8665551ece966b41ed9c092fc7fb7b0c56a6cdef6630880a",
    "ablate/work/stage1/epoch_0007.ckpt":
        "a8ef7919e0ee397bc5a9ffa66c9fd0629ac92b6a136898517310a186eee37711",
    "ablate/work/stage1/epoch_0008.ckpt":
        "9b38223401c8476d93fdcc613c1d40d86f611d5610ab61c5800441a4b6968ee7",
    "ablate/work/stage1/epoch_0009.ckpt":
        "b67ef21b1624fb837729260ab7e9c085704e418fcdc57bc6901c49c4784bfb65",
    "ablate/work/stage1/epoch_0010.ckpt":
        "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "ablate/work/stage1/loss.csv":
        "c7cb305d0b45ef850e215264242246569958d10a8221e6c99c1164b1b935e647",
    "ablate/work/stage1/stage1.ckpt":
        "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "ablate/work/stage1.ckpt": "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "ablate/work/stage2_finetuned/epoch_0001.ckpt":
        "5270cbdcfb228b6182f3790656fa3d142aa9cdaf4343e899382cb2c9a4af4cc3",
    "ablate/work/stage2_finetuned/epoch_0002.ckpt":
        "508a0b5bd21f39b7e262e91d1815bbe215a9c579738fe5c8698772a59ed60572",
    "ablate/work/stage2_finetuned/epoch_0003.ckpt":
        "e29f50ea6461e75ac5a27c0d984dd1b11737585a53a5b54594ef7f767cfaa05c",
    "ablate/work/stage2_finetuned/epoch_0004.ckpt":
        "3ce94ff040c9944b95c63e774f2d0f471e5b8d1a4e4720e244e5e38de6614591",
    "ablate/work/stage2_finetuned/epoch_0005.ckpt":
        "8e72d9ac90b396af15bb50401098d385243cab9c2343caef7b2b182477d1e46b",
    "ablate/work/stage2_finetuned/epoch_0006.ckpt":
        "175a2370147254afd622946733bb3172340aaa24760871c4ce63b60abfc33bbe",
    "ablate/work/stage2_finetuned/epoch_0007.ckpt":
        "19a643d9a79901f227443e0213dea1958f070b2b6a7d25aa24048d8929d7aed7",
    "ablate/work/stage2_finetuned/epoch_0008.ckpt":
        "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
    "ablate/work/stage2_finetuned/epoch_0009.ckpt":
        "f2095c8f6dc144652e7778e1e076ed60e62dc114eda78b13900c8cb2c01a7d60",
    "ablate/work/stage2_finetuned/epoch_0010.ckpt":
        "7ccd44d038d1b78764b51f11957e8e05e258a5a61abdbaf6043b419b591f6d5b",
    "ablate/work/stage2_finetuned/loss.csv":
        "d073971f62b62848db51f4311f8f3ea7ff92ec77ab6d459a6de3bd52454e91f7",
    "ablate/work/stage2_finetuned/stage2.ckpt":
        "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
    "ablate/work/stage2_finetuned.ckpt":
        "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
    "ablate/work/stage2_vanilla/epoch_0001.ckpt":
        "d8ed8bed02b30779a1bf19060061da5b43dd277350d8ccc2c62ce67ee03a2f36",
    "ablate/work/stage2_vanilla/epoch_0002.ckpt":
        "b5462dcfa02b0d56cb6791dc7db28fcb6ef0452a357a76480d04984736294bc2",
    "ablate/work/stage2_vanilla/epoch_0003.ckpt":
        "6cdd512aff4da4b731aa434109a41b0a20673d1f49f8929118f2042672f22865",
    "ablate/work/stage2_vanilla/epoch_0004.ckpt":
        "3064cb2f2cdc1d3a8b56918d4387e65cb4525e89a24ace0f8fb2dfc68db55a86",
    "ablate/work/stage2_vanilla/epoch_0005.ckpt":
        "c9a8257aed6ab1639be647d7afdbf2a557678eda19755f9082b26a588a4c241f",
    "ablate/work/stage2_vanilla/epoch_0006.ckpt":
        "81ce719ab96dcd5e52318ef11c196dbde215ab9d00e46c796df4e9cf6292e704",
    "ablate/work/stage2_vanilla/epoch_0007.ckpt":
        "8fe954038261f9a8d6e53e609a26c2121a727f7f912c86afd6b3711bcae076a2",
    "ablate/work/stage2_vanilla/epoch_0008.ckpt":
        "2e23e4c373cd43590d975776ae456e95da2e0fd617497a74f9bca302274c1bf3",
    "ablate/work/stage2_vanilla/epoch_0009.ckpt":
        "5d7d6d907f21d19e14a0b735f3c0eb1abaa872f8c3760ffd7bd822cd83306169",
    "ablate/work/stage2_vanilla/epoch_0010.ckpt":
        "ef1485f2e68fd821fcbfed8cbadf3d5da32e8f582bb91a75c98e02bef1eeaf72",
    "ablate/work/stage2_vanilla/loss.csv":
        "d43c0946492463e3b28bee1b08215b74ae457990a48c0351112ff5c507c69df3",
    "ablate/work/stage2_vanilla/stage2.ckpt":
        "c9a8257aed6ab1639be647d7afdbf2a557678eda19755f9082b26a588a4c241f",
    "ablate/work/stage2_vanilla.ckpt":
        "c9a8257aed6ab1639be647d7afdbf2a557678eda19755f9082b26a588a4c241f",
    "export_attn/embeddings.csv":
        "06ff32df869bf33f09b803008cd17e83ee54fbf04b09a78b92d9783d283bc972",
    "export_gap/embeddings.csv": "6c4c8a0ae13ae33348e6cf8a785ff07b775153b7ba935f1bafae0eb96f849a83",
    "match/match_report.csv": "e31002c13b1ffee7ded6c2aa2d2aefe4710501392f48eead0fa2571c15e9e5a6",
    "match/match_report.txt": "9a1f74a69487ccf0d204192f66916d106d91d629b755a3d41ab684fcc59b8e6c",
    "probe/probe_report.csv": "acd841c06fae4de270e9e38c882275d9eb032a91c777064da71762db0900f366",
    "probe/probe_report.txt": "c33be0f576f9ccc239ab9549e41f7c2dfb02a6ea1bf36ba4732c100daea76fb3",
    "train2d/epoch_0001.ckpt": "a3c5d9a83095d05857de9a276f86a2ce6c6674165ae91fad3a026040e9f0e641",
    "train2d/epoch_0002.ckpt": "3554ae1e8f1fbc2e7cb9d53de46e6b6a2555c0bf1d1260809a1a1ad686f0f638",
    "train2d/epoch_0003.ckpt": "064721be076e76f9a4e0d2e877e4b25f6559dc48cceb0b2248c78236947994eb",
    "train2d/epoch_0004.ckpt": "7d8e4e9735859a3af66f8ba765c8154c652b043e6a920094f2bc2ef87862026e",
    "train2d/epoch_0005.ckpt": "6efb0e29176ad0d302ab2affcdcf531f8bd38cc39b06a1ab835a6685fde8de11",
    "train2d/epoch_0006.ckpt": "3fee903cb117b09b8665551ece966b41ed9c092fc7fb7b0c56a6cdef6630880a",
    "train2d/epoch_0007.ckpt": "a8ef7919e0ee397bc5a9ffa66c9fd0629ac92b6a136898517310a186eee37711",
    "train2d/epoch_0008.ckpt": "9b38223401c8476d93fdcc613c1d40d86f611d5610ab61c5800441a4b6968ee7",
    "train2d/epoch_0009.ckpt": "b67ef21b1624fb837729260ab7e9c085704e418fcdc57bc6901c49c4784bfb65",
    "train2d/epoch_0010.ckpt": "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "train2d/loss.csv": "c7cb305d0b45ef850e215264242246569958d10a8221e6c99c1164b1b935e647",
    "train2d/stage1.ckpt": "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "train2d_resumed/epoch_0001.ckpt":
        "a3c5d9a83095d05857de9a276f86a2ce6c6674165ae91fad3a026040e9f0e641",
    "train2d_resumed/epoch_0002.ckpt":
        "3554ae1e8f1fbc2e7cb9d53de46e6b6a2555c0bf1d1260809a1a1ad686f0f638",
    "train2d_resumed/epoch_0003.ckpt":
        "064721be076e76f9a4e0d2e877e4b25f6559dc48cceb0b2248c78236947994eb",
    "train2d_resumed/epoch_0004.ckpt":
        "7d8e4e9735859a3af66f8ba765c8154c652b043e6a920094f2bc2ef87862026e",
    "train2d_resumed/epoch_0005.ckpt":
        "6efb0e29176ad0d302ab2affcdcf531f8bd38cc39b06a1ab835a6685fde8de11",
    "train2d_resumed/epoch_0006.ckpt":
        "3fee903cb117b09b8665551ece966b41ed9c092fc7fb7b0c56a6cdef6630880a",
    "train2d_resumed/epoch_0007.ckpt":
        "a8ef7919e0ee397bc5a9ffa66c9fd0629ac92b6a136898517310a186eee37711",
    "train2d_resumed/epoch_0008.ckpt":
        "9b38223401c8476d93fdcc613c1d40d86f611d5610ab61c5800441a4b6968ee7",
    "train2d_resumed/epoch_0009.ckpt":
        "b67ef21b1624fb837729260ab7e9c085704e418fcdc57bc6901c49c4784bfb65",
    "train2d_resumed/epoch_0010.ckpt":
        "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "train2d_resumed/loss.csv": "c7cb305d0b45ef850e215264242246569958d10a8221e6c99c1164b1b935e647",
    "train2d_resumed/stage1.ckpt":
        "e271d067f387575307c83f1530f7dddf8082374a60fa3b77fd51d14e8b53d3c0",
    "train3d/epoch_0001.ckpt": "5270cbdcfb228b6182f3790656fa3d142aa9cdaf4343e899382cb2c9a4af4cc3",
    "train3d/epoch_0002.ckpt": "508a0b5bd21f39b7e262e91d1815bbe215a9c579738fe5c8698772a59ed60572",
    "train3d/epoch_0003.ckpt": "e29f50ea6461e75ac5a27c0d984dd1b11737585a53a5b54594ef7f767cfaa05c",
    "train3d/epoch_0004.ckpt": "3ce94ff040c9944b95c63e774f2d0f471e5b8d1a4e4720e244e5e38de6614591",
    "train3d/epoch_0005.ckpt": "8e72d9ac90b396af15bb50401098d385243cab9c2343caef7b2b182477d1e46b",
    "train3d/epoch_0006.ckpt": "175a2370147254afd622946733bb3172340aaa24760871c4ce63b60abfc33bbe",
    "train3d/epoch_0007.ckpt": "19a643d9a79901f227443e0213dea1958f070b2b6a7d25aa24048d8929d7aed7",
    "train3d/epoch_0008.ckpt": "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
    "train3d/epoch_0009.ckpt": "f2095c8f6dc144652e7778e1e076ed60e62dc114eda78b13900c8cb2c01a7d60",
    "train3d/epoch_0010.ckpt": "7ccd44d038d1b78764b51f11957e8e05e258a5a61abdbaf6043b419b591f6d5b",
    "train3d/loss.csv": "d073971f62b62848db51f4311f8f3ea7ff92ec77ab6d459a6de3bd52454e91f7",
    "train3d/stage2.ckpt": "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
    "train3d_resumed/epoch_0001.ckpt":
        "5270cbdcfb228b6182f3790656fa3d142aa9cdaf4343e899382cb2c9a4af4cc3",
    "train3d_resumed/epoch_0002.ckpt":
        "508a0b5bd21f39b7e262e91d1815bbe215a9c579738fe5c8698772a59ed60572",
    "train3d_resumed/epoch_0003.ckpt":
        "e29f50ea6461e75ac5a27c0d984dd1b11737585a53a5b54594ef7f767cfaa05c",
    "train3d_resumed/epoch_0004.ckpt":
        "3ce94ff040c9944b95c63e774f2d0f471e5b8d1a4e4720e244e5e38de6614591",
    "train3d_resumed/epoch_0005.ckpt":
        "8e72d9ac90b396af15bb50401098d385243cab9c2343caef7b2b182477d1e46b",
    "train3d_resumed/epoch_0006.ckpt":
        "175a2370147254afd622946733bb3172340aaa24760871c4ce63b60abfc33bbe",
    "train3d_resumed/epoch_0007.ckpt":
        "19a643d9a79901f227443e0213dea1958f070b2b6a7d25aa24048d8929d7aed7",
    "train3d_resumed/epoch_0008.ckpt":
        "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
    "train3d_resumed/epoch_0009.ckpt":
        "f2095c8f6dc144652e7778e1e076ed60e62dc114eda78b13900c8cb2c01a7d60",
    "train3d_resumed/epoch_0010.ckpt":
        "7ccd44d038d1b78764b51f11957e8e05e258a5a61abdbaf6043b419b591f6d5b",
    "train3d_resumed/loss.csv": "d073971f62b62848db51f4311f8f3ea7ff92ec77ab6d459a6de3bd52454e91f7",
    "train3d_resumed/stage2.ckpt":
        "d3381a00220a74cb922285e5ddcc068151aad2fccb227dad337dd627d16b59b1",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("same_bits")
    build_workspace(ws)
    return ws


def test_every_output_has_its_pinned_digest(workspace):
    got = digests(workspace / "out")
    assert sorted(got) == sorted(PINS)
    assert {k: v for k, v in got.items() if PINS[k] != v} == {}


def test_ablation_rows_differ(workspace):
    # a report whose rows differ shows a swapped or broken row in the pin
    with open(workspace / "out" / "ablate" / "ablation_report.csv", newline="") as fh:
        rows = [tuple(r.values())[1:] for r in csv.DictReader(fh)]
    assert len(rows) == 4 and len(set(rows)) == 4


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):  # the commands' own output
            build_workspace(Path(tmp))
        print("PINS = {")
        for name, digest in digests(Path(tmp) / "out").items():
            line = f'    "{name}": "{digest}",'
            print(line if len(line) <= 100 else f'    "{name}":\n        "{digest}",')
        print("}")
