import dataclasses
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volalign import cli
from volalign import datapipe as dp
from volalign import diffmath as dm
from volalign import encoders as enc
from volalign import evalkit as ek
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.diffmath import Param
from volalign.errors import FormatError, InputError, LoadError

SMALL = TrainConfig(d_model=6, d_hidden=8, d_text=8, vocab=64, patch_size=4,
                    image_size=8, heads=2, s_max=8)


class TestTextEncoder:
    def test_seed_determinism_bitwise(self):
        a = tr.init_group(SMALL, "text", seed=5)
        b = tr.init_group(SMALL, "text", seed=5)
        assert np.array_equal(a["embed_table"].value, b["embed_table"].value)
        assert np.array_equal(a["proj"].value, b["proj"].value)

    def test_never_trainable(self):
        assert "text" in tr.GROUPS
        assert "text" not in tr.TRAINS.values()

    def test_same_ids_twice_identical(self):
        p = tr.init_group(SMALL, "text", seed=1)
        e1 = enc.encode_text("brain mri tumor", p)
        e2 = enc.encode_text("brain mri tumor", p)
        assert np.array_equal(e1, e2)

    def test_single_token_is_projected_row(self):
        p = tr.init_group(SMALL, "text", seed=1)
        out = enc.encode_text("brain", p)
        (row,) = dp.tokenize("brain", SMALL.vocab)
        expected = p["embed_table"].value[row] @ p["proj"].value
        assert np.allclose(out, expected, atol=1e-15)

    def test_permuted_ids_identical_bitwise(self):
        p = tr.init_group(SMALL, "text", seed=1)
        a = enc.encode_text("brain mri tumor mri", p)
        b = enc.encode_text("MRI tumor, brain MRI", p)
        assert np.array_equal(a, b)

    def test_empty_and_out_of_range(self):
        p = tr.init_group(SMALL, "text", seed=1)
        for text in ("", "--- !!! ---"):
            with pytest.raises(InputError):
                enc.encode_text(text, p)
        # "brain" hashes to 2771 mod 4096; the 64-row table reads row 2771 mod 64
        assert np.array_equal(enc.encode_text("brain", p),
                              p["embed_table"].value[2771 % 64] @ p["proj"].value)


class TestPatchify:
    def test_layout(self):
        img = np.arange(16.0).reshape(4, 4)
        patches = enc.patchify(img, 2)
        assert patches.shape == (4, 4)
        assert patches[0].tolist() == [0.0, 1.0, 4.0, 5.0]
        assert patches[3].tolist() == [10.0, 11.0, 14.0, 15.0]

    def test_indivisible(self):
        with pytest.raises(InputError):
            enc.patchify(np.zeros((6, 6)), 4)


class TestImageEncoder:
    def test_zero_image_zero_embedding(self):
        p = tr.init_group(SMALL, "image", seed=2)
        out = enc.encode_image2d(np.zeros((8, 8)), p)
        assert np.array_equal(out, np.zeros(6))

    def test_eval_mode_pure_function(self):
        p = tr.init_group(SMALL, "image", seed=2)
        img = dm.make_rng(0, "img").normal(size=(8, 8))
        a = enc.encode_image2d(img, p)
        b = enc.encode_image2d(img, p)
        assert np.array_equal(a, b)
        # without an rng a dropout rate changes nothing
        assert enc.encode_image2d(img, p, dropout_rate=0.5).tobytes() == a.tobytes()

    def test_gradient_passes_check(self):
        p = tr.init_group(SMALL, "image", seed=3)
        img = dm.make_rng(1, "img").normal(size=(8, 8))
        probe = Param(dm.make_rng(2, "probe").normal(size=(6, 1)), name="probe")

        def f(tape):
            emb = enc.encode_image2d(img, p, dropout_rate=0.3, rng=dm.make_rng(9, "drop"),
                                     tape=tape)
            return dm.mean_all(dm.matmul(emb, probe, tape), tape)

        report = dm.grad_check(f, list(p.values()), h=1e-5, tol=1e-4)
        assert report.passed, repr(report)


class TestEncodeSlices:
    def test_identical_slices_identical_rows(self):
        p = tr.init_group(SMALL, "image", seed=4)
        sl = dm.make_rng(3, "sl").normal(size=(8, 8))
        stack = enc.encode_image2d(np.stack([sl] * 3), p)
        assert stack.shape == (3, 6)
        assert np.array_equal(stack[0], stack[1])
        assert np.array_equal(stack[0], stack[2])

    def test_single_slice_matches_encode_image2d(self):
        p = tr.init_group(SMALL, "image", seed=4)
        sl = dm.make_rng(4, "sl").normal(size=(8, 8))
        stack = enc.encode_image2d(sl[None], p)
        direct = enc.encode_image2d(sl, p)
        assert stack.shape == (1, 6)
        assert np.array_equal(stack[0], direct)

    def test_reversed_order_reverses_rows(self):
        p = tr.init_group(SMALL, "image", seed=4)
        r = dm.make_rng(5, "sl")
        vox = r.normal(size=(4, 8, 8))
        fwd = enc.encode_image2d(vox, p)
        rev = enc.encode_image2d(vox[::-1].copy(), p)
        assert np.array_equal(rev, fwd[::-1])

    def test_capacity(self):
        p = tr.init_group(SMALL, "image", seed=4)
        vox = np.zeros((9, 8, 8))
        with pytest.raises(InputError):
            enc.encode_frozen([vox], p, s_max=8)

    def test_frozen_capacity(self):
        p = tr.init_group(SMALL, "image", seed=4)
        vols = [np.zeros((n, 8, 8)) for n in (8, 9)]
        with pytest.raises(InputError, match="slice count 9"):
            enc.encode_frozen(vols, p, s_max=8)

    def test_frozen_refuses_empty_volume(self):
        p = tr.init_group(SMALL, "image", seed=4)
        with pytest.raises(InputError, match="slice count 0"):
            enc.encode_frozen([np.zeros((0, 8, 8))], p, s_max=8)


def write_samples(root, samples) -> list:
    """Save each [n, H, W] array as a VOL1 file under root; the sample paths."""
    paths = []
    for i, vox in enumerate(samples):
        paths.append(root / f"s{i}.vol")
        dp.save_volume(vox, paths[-1])
    return paths


class TestEncodeSamples:
    """encode_samples streams files to slice embeddings: bit for bit
    encode_frozen of load_preprocessed, with one batch of samples in flight."""

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(4, 12), st.integers(4, 12)),
                          min_size=2, max_size=2, unique=True),
           samples=st.lists(st.tuples(st.booleans(), st.integers(1, 8),
                                      st.integers(0, 2**32 - 1)), min_size=1, max_size=30),
           repeats=st.lists(st.integers(0, 29), max_size=4),
           cached=st.lists(st.integers(0, 29), max_size=10),
           size=st.sampled_from([4, 8]))
    def test_equals_encode_frozen_of_load_preprocessed(self, sizes, samples, repeats,
                                                       cached, size):
        params = tr.init_group(SMALL, "image", seed=4)
        arrays = [np.random.default_rng(seed).normal(1.0, 2.0, size=(n, *sizes[second]))
                  for second, n, seed in samples]
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_samples(Path(tmp), arrays)
            paths += [paths[i % len(paths)] for i in repeats]  # duplicates
            seeded = [paths[i % len(paths)] for i in cached]
            volumes = {(p, size): v for p, v in zip(seeded, dp.load_preprocessed(seeded, size))}
            hits = dict(volumes)
            got = enc.encode_samples(paths, size, params, 8, volumes)
            want = enc.encode_frozen(dp.load_preprocessed(paths, size), params, 8)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            # every sample is in the memo now; a hit was used, not replaced
            assert sorted(volumes) == sorted(set((p, size) for p in paths))
            assert all(volumes[k] is v for k, v in hits.items())
            for p, vol in zip(paths, dp.load_preprocessed(paths, size)):
                assert volumes[p, size].tobytes() == vol.tobytes()

    def test_memo_is_keyed_by_path_and_size(self, tmp_path, monkeypatch, call_log, forked):
        params = tr.init_group(SMALL, "image", seed=4)
        paths = write_samples(tmp_path, [np.arange(12.0).reshape(1, 3, 4)] * 2)
        volumes: dict = {}
        first = enc.encode_samples(paths[:1], 8, params, 8, volumes)
        held = volumes[paths[0], 8]
        load = dp.load_volume
        monkeypatch.setattr(dp, "load_volume", lambda p: call_log.append(str(p)) or load(p))
        again = enc.encode_samples(paths + paths[:1], 8, params, 8, volumes)
        assert call_log.values() == [str(paths[1])]
        assert volumes[paths[0], 8] is held
        assert again[0].tobytes() == first[0].tobytes() == again[2].tobytes()
        assert sorted(volumes) == sorted((p, 8) for p in paths)
        enc.encode_samples(paths[:1], 4, params, 8, volumes)  # another size misses
        assert call_log.values() == [str(paths[1]), str(paths[0])]
        assert sorted(volumes) == sorted([(p, 8) for p in paths] + [(paths[0], 4)])

    @staticmethod
    def count_slices_in_flight(monkeypatch, call_log):
        """A function that gives the slices loaded since the previous
        encode_image2d call in the same process, per call so far."""
        load, encode = dp.load_volume, enc.encode_image2d

        def counting_load(path):
            vol = load(path)
            call_log.append(["load", os.getpid(), len(vol)])
            return vol

        def counting_encode(image, *args, **kwargs):
            call_log.append(["encode", os.getpid(), 0])
            return encode(image, *args, **kwargs)

        monkeypatch.setattr(dp, "load_volume", counting_load)
        monkeypatch.setattr(enc, "encode_image2d", counting_encode)

        def in_flight() -> list[int]:
            loaded: dict[int, int] = {}
            out = []
            for event, pid, n in call_log.values():
                if event == "load":
                    loaded[pid] = loaded.get(pid, 0) + n
                else:
                    out.append(loaded.pop(pid, 0))
            return out

        return in_flight

    @pytest.mark.parametrize("caller", ["stage2_items", "extract_embeddings"])
    def test_one_batch_of_samples_is_loaded_before_each_encode(self, tmp_path, monkeypatch,
                                                               call_log, forked, caller):
        rng = np.random.default_rng(11)
        counts = [1 + i % 8 for i in range(60)]  # 270 slices, about four batches
        paths = write_samples(tmp_path, [rng.normal(size=(n, 12, 10)) for n in counts])
        entries = [dp.ManifestEntry(id=p.stem, path=p.name, kind="3d", body_region="Chest",
                                    modality="CT", condition=None, label=0, split="train")
                   for p in paths]
        ckpt = tr.make_initial_checkpoint(SMALL)
        slices_in_flight = self.count_slices_in_flight(monkeypatch, call_log)
        if caller == "stage2_items":
            tr._stage2_items(entries, tmp_path, SMALL, ckpt.text, ckpt.image)
        else:
            ek.extract_embeddings(ckpt, entries, tmp_path, "gap")
        monkeypatch.undo()
        in_flight = slices_in_flight()
        if forked:  # both processes loaded and encoded
            assert len({pid for _, pid, _ in call_log.values()}) == 2
        assert sum(in_flight) == sum(counts)
        # a batch closes at the sample that brings it to SLICE_BATCH slices
        assert max(in_flight) < dp.SLICE_BATCH + max(counts)
        assert len(in_flight) >= sum(counts) // dp.SLICE_BATCH


class TestEncodeSamplesOnOneCpu(TestEncodeSamples):
    """TestEncodeSamples with one usable CPU, where encode_samples never forks."""

    # takes no CPU fixture, and hypothesis refuses a test run from two classes
    test_equals_encode_frozen_of_load_preprocessed = None

    @pytest.fixture
    def forked(self, one_cpu):
        return one_cpu


@pytest.fixture(scope="module")
def corpus526(tmp_path_factory):
    """2-slice volumes: 526 in train and val, past FORK_MIN_SAMPLES."""
    root = tmp_path_factory.mktemp("corpus526")
    spec = dp.SynthSpec(family="pattern", kind="3d", classes=2, per_class=330, slices=2,
                        height=8, width=8)
    entries = dp.synth_dataset(spec, seed=7, out_dir=root)
    assert sum(e.split != "test" for e in entries) >= enc.FORK_MIN_SAMPLES
    return root, entries


class TestTwoProcesses:
    """From FORK_MIN_SAMPLES distinct samples on, with two usable CPUs,
    encode_samples has a forked child encode the first half."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def recorded_forks(monkeypatch) -> list[int]:
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    def test_same_bits_as_one_cpu(self, corpus526, tmp_path, monkeypatch):
        root, entries = corpus526
        cfg = dataclasses.replace(SMALL, epochs=2, batch_size=32)
        stage1 = tr.make_initial_checkpoint(cfg)
        train = [e for e in entries if e.split == "train"]
        val = [e for e in entries if e.split == "val"]
        seeded = [dp._sample_path(root, e.path) for e in entries[::50]]
        results = {}
        for n in (2, 1):
            self.cpus(monkeypatch, n)
            forks = self.recorded_forks(monkeypatch)
            out = tmp_path / f"cpus{n}"
            tr.train_stage2(cfg, train, val, root, stage1, out_dir=out)
            volumes = dict(zip([(p, cfg.image_size) for p in seeded],
                               dp.load_preprocessed(seeded, cfg.image_size)))
            hits = dict(volumes)
            table = ek.extract_embeddings(stage1, entries, root, "gap", volumes=volumes)
            assert all(volumes[k] is v for k, v in hits.items())
            assert len(forks) == (2 if n == 2 else 0)  # one per set-up, one per extraction
            results[n] = ({p.name: p.read_bytes() for p in sorted(out.glob("*.ckpt"))},
                          table.matrix().tobytes(),
                          {k: v.tobytes() for k, v in volumes.items()})
            monkeypatch.undo()
        assert len(results[2][0]) == 3  # two epochs and the best
        assert results[2] == results[1]

    def test_the_cut_off_counts_distinct_samples(self, corpus526, monkeypatch):
        root, entries = corpus526
        paths = [dp._sample_path(root, e.path) for e in entries][:enc.FORK_MIN_SAMPLES]
        params = tr.init_group(SMALL, "image", seed=4)
        self.cpus(monkeypatch, 2)
        forks = self.recorded_forks(monkeypatch)
        enc.encode_samples(paths[:-1] + paths[:1], 8, params, 8)
        assert forks == []
        enc.encode_samples(paths, 8, params, 8)
        assert len(forks) == 1

    @pytest.mark.parametrize("at", [[0], [-1], [0, -1]],
                             ids=["first-half", "second-half", "both-halves"])
    def test_corrupt_sample_is_the_serial_format_error(self, corpus526, tmp_path, monkeypatch,
                                                       at):
        root, entries = corpus526
        paths = [dp._sample_path(root, e.path) for e in entries]
        for i in at:
            bad = tmp_path / f"bad{i}.vol"
            bad.write_bytes(b"VOL1" + bytes(5))
            paths[i] = str(bad)
        params = tr.init_group(SMALL, "image", seed=4)
        raised = {}
        for n in (2, 1):
            self.cpus(monkeypatch, n)
            with pytest.raises(FormatError) as exc:
                enc.encode_samples(paths, 8, params, 8)
            raised[n] = (type(exc.value), str(exc.value), exc.value.exit_code)
        first = tmp_path / f"bad{at[0]}.vol"
        assert raised[2] == raised[1] == (FormatError, f"{first}: truncated header", 5)

    @pytest.mark.parametrize("at", [3, -1], ids=["first-half", "second-half"])
    def test_corrupt_sample_exits_as_on_one_cpu(self, corpus526, tmp_path, monkeypatch, capsys,
                                                at):
        root, entries = corpus526
        data = tmp_path / "data"
        shutil.copytree(root, data)
        (data / entries[at].path).write_bytes(b"VOL1" + bytes(5))
        ckpt = tmp_path / "init.ckpt"
        tr.save_checkpoint(tr.make_initial_checkpoint(SMALL), ckpt)
        runs = {}
        for n in (2, 1):
            self.cpus(monkeypatch, n)
            code = cli.main(["export", "--ckpt", str(ckpt), "--data", str(data), "--pool", "gap",
                             "--out", str(tmp_path / f"out{n}")])
            runs[n] = (code, capsys.readouterr().err)
        assert runs[2] == runs[1]
        assert runs[2][0] == FormatError.exit_code
        assert f"error:format: {data / entries[at].path}: truncated header" in runs[2][1]

    def test_child_without_a_result_is_a_load_error(self, corpus526, monkeypatch):
        root, entries = corpus526
        paths = [dp._sample_path(root, e.path) for e in entries]
        load, me = dp.load_volume, os.getpid()
        monkeypatch.setattr(dp, "load_volume",
                            lambda p: os._exit(3) if os.getpid() != me else load(p))
        self.cpus(monkeypatch, 2)
        forks = self.recorded_forks(monkeypatch)
        with pytest.raises(LoadError, match="the encoding child sent no result and ended "
                                            "with exit status 3"):
            enc.encode_samples(paths, 8, tr.init_group(SMALL, "image", seed=4), 8)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_untyped_failure_here_kills_and_reaps_the_child(self, corpus526, monkeypatch):
        root, entries = corpus526
        paths = [dp._sample_path(root, e.path) for e in entries]
        me = os.getpid()

        def load(path):
            if os.getpid() != me:
                time.sleep(60)  # only a kill ends the child in time
            raise RuntimeError("untyped, in this process")

        monkeypatch.setattr(dp, "load_volume", load)
        self.cpus(monkeypatch, 2)
        forks = self.recorded_forks(monkeypatch)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="untyped, in this process"):
            enc.encode_samples(paths, 8, tr.init_group(SMALL, "image", seed=4), 8)
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
