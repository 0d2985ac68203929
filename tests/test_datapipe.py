
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from volalign import datapipe as dp
from volalign.datapipe import ManifestEntry, SynthSpec
from volalign.diffmath import fnv1a64
from volalign.errors import ConfigurationError, FormatError, InputError, LoadError


F32_MAX = float(np.finfo(np.float32).max)
FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def make_entry(**kw):
    base = dict(id="a", path="samples/a.vol", kind="2d", body_region="Chest",
                modality="CT", condition=None, label=0, split="train")
    base.update(kw)
    return ManifestEntry(**base)


class TestManifest:
    def test_empty_manifest_is_valid(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        assert dp.load_manifest(path) == []

    def test_round_trip(self, tmp_path):
        vol = np.zeros((1, 8, 8))
        (tmp_path / "samples").mkdir()
        dp.save_volume(vol, tmp_path / "samples" / "a.vol")
        dp.save_volume(vol, tmp_path / "samples" / "b.vol")
        entries = [make_entry(), make_entry(id="b", path="samples/b.vol",
                                            condition="Nodule", label=1, split="test")]
        dp.save_manifest(entries, tmp_path / "manifest.json")
        assert dp.load_manifest(tmp_path / "manifest.json") == entries

    def test_duplicate_id_names_the_id(self, tmp_path):
        vol = np.zeros((1, 8, 8))
        (tmp_path / "samples").mkdir()
        dp.save_volume(vol, tmp_path / "samples" / "a.vol")
        dp.save_manifest([make_entry(), make_entry()], tmp_path / "manifest.json")
        with pytest.raises(LoadError, match="'a'"):
            dp.load_manifest(tmp_path / "manifest.json")

    def test_dangling_path(self, tmp_path):
        dp.save_manifest([make_entry(path="samples/missing.vol")], tmp_path / "manifest.json")
        with pytest.raises(LoadError, match="not found"):
            dp.load_manifest(tmp_path / "manifest.json")

    def test_parse_failure_reports_line(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[\n{bad json}\n]")
        with pytest.raises(LoadError, match="line"):
            dp.load_manifest(path)

    def test_bad_enum_values(self, tmp_path):
        dp.save_manifest([make_entry(kind="4d", path="x")], tmp_path / "m.json")
        with pytest.raises(LoadError, match="kind"):
            dp.load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("field, value", [
        ("path", 5), ("path", None), ("body_region", 3), ("body_region", None),
        ("modality", ["CT"]), ("modality", None),
    ])
    def test_string_fields_are_type_checked(self, tmp_path, field, value):
        dp.save_manifest([make_entry(**{field: value})], tmp_path / "m.json")
        with pytest.raises(LoadError, match=rf"entry 0 \(id 'a'\): {field} must be a string"):
            dp.load_manifest(tmp_path / "m.json")

    def test_overlong_path_is_load_error(self, tmp_path):
        dp.save_manifest([make_entry(path="x" * 300)], tmp_path / "m.json")
        with pytest.raises(LoadError, match="entry 0"):
            dp.load_manifest(tmp_path / "m.json")

    def test_non_utf8_manifest_is_load_error(self, tmp_path):
        (tmp_path / "m.json").write_bytes(b"[\xff]")
        with pytest.raises(LoadError, match="cannot read"):
            dp.load_manifest(tmp_path / "m.json")


class TestVol1:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = rng.normal(size=(3, 5, 7)).astype(np.float32).astype(np.float64)
        dp.save_volume(vol, tmp_path / "v.vol")
        back = dp.load_volume(tmp_path / "v.vol")
        assert back.shape == (3, 5, 7)
        assert np.array_equal(back, vol)

    def test_header_layout(self, tmp_path):
        vol = np.zeros((2, 3, 4))
        dp.save_volume(vol, tmp_path / "v.vol")
        blob = (tmp_path / "v.vol").read_bytes()
        assert blob[:4] == b"VOL1"
        import struct
        assert struct.unpack("<III", blob[4:16]) == (2, 3, 4)
        assert len(blob) == 16 + 2 * 3 * 4 * 4

    def test_bad_magic(self, tmp_path):
        (tmp_path / "v.vol").write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            dp.load_volume(tmp_path / "v.vol")

    def test_truncated_payload(self, tmp_path):
        vol = np.zeros((2, 3, 4))
        dp.save_volume(vol, tmp_path / "v.vol")
        blob = (tmp_path / "v.vol").read_bytes()
        (tmp_path / "t.vol").write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="expected"):
            dp.load_volume(tmp_path / "t.vol")

    def test_non_finite_rejected(self, tmp_path):
        import struct
        payload = struct.pack("<f", float("nan")) * 4
        (tmp_path / "v.vol").write_bytes(b"VOL1" + struct.pack("<III", 1, 2, 2) + payload)
        with pytest.raises(FormatError, match="finite"):
            dp.load_volume(tmp_path / "v.vol")

    @pytest.mark.parametrize("dims", [(0, 2, 2), (1, 0, 2), (1, 2, 0)])
    def test_empty_dimension_rejected(self, tmp_path, dims):
        import struct
        (tmp_path / "v.vol").write_bytes(b"VOL1" + struct.pack("<III", *dims))
        with pytest.raises(FormatError, match="invalid dimensions"):
            dp.load_volume(tmp_path / "v.vol")

    @pytest.mark.parametrize("voxels, message", [
        (np.zeros((2, 2)), "must be"), (np.zeros((1, 1, 2, 2)), "must be"),
        (np.zeros((0, 2, 2)), "must be"), (np.zeros((1, 2, 0)), "must be"),
        (np.full((1, 2, 2), 1e39), "not finite"), (np.full((1, 2, 2), -1e39), "not finite"),
        (np.array([[[0.0, np.nan]]]), "not finite"), (np.array([[[np.inf, 0.0]]]), "not finite"),
    ])
    def test_save_refuses_what_load_refuses(self, tmp_path, voxels, message):
        with pytest.raises(InputError, match=message):
            dp.save_volume(voxels, tmp_path / "v.vol")
        assert list(tmp_path.iterdir()) == []

    def test_largest_float32_round_trips(self, tmp_path):
        vox = np.full((1, 2, 2), F32_MAX) * np.array([1.0, -1.0])
        dp.save_volume(vox, tmp_path / "v.vol")
        assert np.array_equal(dp.load_volume(tmp_path / "v.vol"), vox)


class TestResize:
    def test_identity_exact(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(9, 13))
        out = dp.resize_bilinear(img, 9, 13)
        assert np.abs(out - img).max() < 1e-12

    def test_constant_image(self):
        out = dp.resize_bilinear(np.full((5, 5), 3.25), 11, 7)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_two_by_two_down_to_one(self):
        out = dp.resize_bilinear(np.array([[0.0, 0.0], [2.0, 2.0]]), 1, 1)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-15

    def test_zero_target_rejected(self):
        with pytest.raises(InputError):
            dp.resize_bilinear(np.zeros((4, 4)), 0, 4)


class TestZscore:
    def test_two_values(self):
        out = dp.zscore(np.array([[0.0, 2.0]]))
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-15)

    def test_constant_image_maps_to_zeros(self):
        out = dp.zscore(np.full((4, 4), 9.0))
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_moments_on_random_input(self):
        rng = np.random.default_rng(2)
        out = dp.zscore(rng.normal(3.0, 7.0, size=(32, 32)))
        assert abs(out.mean()) < 1e-10
        assert abs(out.std() - 1.0) < 1e-10

    def test_preprocess_order_resize_then_zscore(self):
        rng = np.random.default_rng(3)
        vol = rng.normal(size=(2, 8, 8))
        pre = dp.preprocess_volume(vol, 4, 4)
        for i in range(2):
            sl = pre[i]
            assert abs(sl.mean()) < 1e-10
            assert abs(sl.std() - 1.0) < 1e-10
            manual = dp.zscore(dp.resize_bilinear(vol[i], 4, 4))
            assert np.array_equal(sl, manual)


class TestVolumePreprocessing:
    """resize_bilinear and zscore act on [..., H, W]: one call per volume
    gives each slice the bits it gets alone."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), h=st.integers(1, 40), w=st.integers(1, 40),
           out_h=st.integers(1, 40), out_w=st.integers(1, 40),
           loc=st.sampled_from([0.0, -3.5, 250.0]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           constant=st.sampled_from([None, 0, -1]), seed=st.integers(0, 2**32 - 1))
    def test_volume_equals_per_slice_composition(self, n, h, w, out_h, out_w, loc, scale,
                                                 constant, seed):
        vox = np.random.default_rng(seed).normal(loc, scale, size=(n, h, w))
        if constant is not None:
            vox[constant] = loc + scale
        pre = dp.preprocess_volume(vox, out_h, out_w)
        manual = np.stack([dp.zscore(dp.resize_bilinear(vox[i], out_h, out_w))
                           for i in range(n)])
        assert pre.shape == (n, out_h, out_w)
        assert pre.tobytes() == manual.tobytes()

    def test_leading_axes_are_batch_axes(self):
        imgs = np.random.default_rng(4).normal(size=(2, 3, 7, 5))
        resized = dp.resize_bilinear(imgs, 4, 9)
        normed = dp.zscore(imgs)
        assert resized.shape == (2, 3, 4, 9) and normed.shape == imgs.shape
        for i in range(2):
            for j in range(3):
                one = imgs[i, j]
                assert resized[i, j].tobytes() == dp.resize_bilinear(one, 4, 9).tobytes()
                assert normed[i, j].tobytes() == dp.zscore(one).tobytes()

    def test_constant_slice_maps_to_zeros_beside_others(self):
        vox = np.random.default_rng(5).normal(size=(3, 6, 6))
        vox[1] = 7.0
        pre = dp.preprocess_volume(vox, 4, 4)
        assert np.array_equal(pre[1], np.zeros((4, 4)))
        assert abs(pre[0].std() - 1.0) < 1e-10

    @pytest.mark.parametrize("fn", [lambda a: dp.resize_bilinear(a, 2, 2), dp.zscore])
    def test_fewer_than_two_dimensions_rejected(self, fn):
        for bad in (np.zeros(4), np.float64(1.0)):
            with pytest.raises(InputError, match=r"\[\.\.\., H, W\]"):
                fn(bad)

    def test_bad_target_size_rejected_for_volumes(self):
        with pytest.raises(InputError, match="target size"):
            dp.preprocess_volume(np.zeros((3, 4, 4)), 4, 0)


class TestPreprocessingStaysFinite:
    """Finite float32 voxels, all that load_volume lets through, give finite
    resize and z-score outputs, so nothing after load_volume needs to check."""

    @settings(max_examples=300, deadline=None)
    @example(vox=np.tile([[F32_MAX, -F32_MAX], [-F32_MAX, F32_MAX]], (1, 3, 2)),
             constant=None, out_h=13, out_w=2)
    @example(vox=np.full((2, 5, 3), -F32_MAX), constant=F32_MAX, out_h=1, out_w=9)
    @given(vox=arrays(np.float32, array_shapes(min_dims=3, max_dims=3, max_side=12),
                      elements=FINITE_F32),
           constant=st.none() | FINITE_F32 | st.sampled_from([F32_MAX, -F32_MAX]),
           out_h=st.integers(1, 24), out_w=st.integers(1, 24))
    def test_finite_float32_voxels_stay_finite(self, vox, constant, out_h, out_w):
        vox = vox.astype(np.float64)
        if constant is not None:
            vox[0] = constant
        resized = dp.resize_bilinear(vox, out_h, out_w)
        assert np.isfinite(resized).all()
        assert np.isfinite(dp.zscore(vox)).all()
        assert np.isfinite(dp.zscore(resized)).all()


def reference_resize(a, out_h, out_w):
    """The four-corner resize as written before its plan was cached."""
    h, w = a.shape[-2:]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y0c = np.clip(y0.astype(int), 0, h - 1)[:, None]
    y1c = np.clip(y0.astype(int) + 1, 0, h - 1)[:, None]
    x0c = np.clip(x0.astype(int), 0, w - 1)[None, :]
    x1c = np.clip(x0.astype(int) + 1, 0, w - 1)[None, :]
    return ((1 - fy) * (1 - fx) * a[..., y0c, x0c] + (1 - fy) * fx * a[..., y0c, x1c]
            + fy * (1 - fx) * a[..., y1c, x0c] + fy * fx * a[..., y1c, x1c])


def reference_zscore(a, eps=1e-8):
    """The z-score with scalar moments of each 2-D view, one image at a time."""
    images = a.reshape(-1, *a.shape[-2:])
    stats = a.shape[:-2] + (1, 1)
    mean = np.array([s.mean() for s in images]).reshape(stats)
    std = np.array([s.std() for s in images]).reshape(stats)
    return (a - mean) / np.maximum(std, eps)


class TestPreprocessingReference:
    """Array-wide moments and the cached resize plan keep every bit of the
    per-image loop and the per-call four-corner resize."""

    @settings(max_examples=150, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2), h=st.integers(1, 24),
           w=st.integers(1, 24), out_h=st.integers(1, 24), out_w=st.integers(1, 24),
           loc=st.sampled_from([0.0, -3.5, 250.0]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           constant=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference(self, lead, h, w, out_h, out_w, loc, scale, constant, seed):
        a = np.random.default_rng(seed).normal(loc, scale, size=(*lead, h, w))
        if constant:
            a.reshape(-1, h, w)[0] = loc + scale
        assert dp.zscore(a).tobytes() == reference_zscore(a).tobytes()
        out = dp.resize_bilinear(a, out_h, out_w)
        assert out.tobytes() == reference_resize(a, out_h, out_w).tobytes()

    @pytest.mark.parametrize("shape", [(97, 97), (224, 224), (3, 97, 97), (2, 224, 224)])
    def test_large_images_equal_reference(self, shape):
        a = np.random.default_rng(6).normal(1.5, 4.0, size=shape)
        assert dp.zscore(a).tobytes() == reference_zscore(a).tobytes()
        for out_h, out_w in ((16, 16), (224, 224), (97, 50)):
            out = dp.resize_bilinear(a, out_h, out_w)
            assert out.tobytes() == reference_resize(a, out_h, out_w).tobytes()

    def test_zscore_ignores_memory_layout(self):
        img = np.random.default_rng(7).normal(250.0, 2.0, size=(97, 97))
        for view in (img.T, np.asfortranarray(img), img[::-1, ::2]):
            copy = np.ascontiguousarray(view)
            assert dp.zscore(view).tobytes() == dp.zscore(copy).tobytes()

    def test_alternating_sizes_past_the_cache_bound(self):
        rng = np.random.default_rng(8)
        sizes = [(5 + i, 9 + 2 * i) for i in range(11)]
        for _ in range(2):
            for h, w in sizes:
                a = rng.normal(size=(2, h, w))
                for out in ((16, 16), (h + 1, 3)):
                    got = dp.resize_bilinear(a, *out)
                    assert got.tobytes() == reference_resize(a, *out).tobytes()

    def test_cached_plan_is_read_only(self):
        dp.resize_bilinear(np.zeros((6, 10)), 4, 4)
        plan = dp._resize_plan(6, 10, 4, 4)
        assert len(plan) == 8
        for arr in plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1


def write_samples(root, samples) -> list:
    """Save each [n, H, W] array as a VOL1 file under root; the sample paths."""
    paths = []
    for i, vox in enumerate(samples):
        paths.append(root / f"s{i}.vol")
        dp.save_volume(vox, paths[-1])
    return paths


def assert_as_loaded_alone(paths, vols, size):
    assert len(vols) == len(paths)
    for path, vol in zip(paths, vols):
        alone = dp.preprocess_volume(dp.load_volume(path), size, size)
        assert vol.shape == alone.shape
        assert vol.flags.c_contiguous
        assert vol.tobytes() == alone.tobytes()


class TestLoadPreprocessed:
    """load_preprocessed streams a split through preprocess_volume in batches
    of one image size and keeps every bit of one sample at a time."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(2, 20), st.integers(2, 20)),
                          min_size=2, max_size=2, unique=True),
           samples=st.lists(st.tuples(st.booleans(), st.integers(1, 9), st.booleans(),
                                      st.integers(0, 2**32 - 1)), min_size=1, max_size=40),
           repeats=st.lists(st.integers(0, 39), max_size=4),
           size=st.integers(1, 24))
    def test_equals_one_sample_at_a_time(self, sizes, samples, repeats, size):
        arrays = []
        for second, n, constant, seed in samples:
            vox = np.random.default_rng(seed).normal(3.0, 2.0, size=(n, *sizes[second]))
            if constant:
                vox[-1] = 1.5
            arrays.append(vox)
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_samples(Path(tmp), arrays)
            paths += [paths[i % len(paths)] for i in repeats]  # duplicates
            vols = dp.load_preprocessed(paths, size)
            assert_as_loaded_alone(paths, vols, size)

    def test_batches_straddle_the_slice_bound(self, tmp_path):
        rng = np.random.default_rng(9)
        arrays = [rng.normal(size=(1 + i % 9, 12 if i % 3 else 7, 10)) for i in range(60)]
        paths = write_samples(tmp_path, arrays)
        assert_as_loaded_alone(paths, dp.load_preprocessed(paths, 8), 8)
        assert_as_loaded_alone(paths, dp.load_preprocessed(paths, 16), 16)

    def test_pending_raw_slices_stay_within_one_batch_per_size(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(1 + i % 9, *((6, 6) if i % 4 else (9, 5))))
                  for i in range(80)]
        paths = write_samples(tmp_path, arrays)
        pending: dict = {}
        batches = []
        load, preprocess = dp.load_volume, dp.preprocess_volume

        def counting_load(path):
            vol = load(path)
            hw = vol.shape[1:]
            pending[hw] = pending.get(hw, 0) + len(vol)
            assert pending[hw] < dp.SLICE_BATCH + len(vol)  # fewer than a batch before it
            return vol

        def counting_preprocess(volume, *args, **kwargs):
            hw = volume.shape[1:]
            pending[hw] -= len(volume)
            batches.append(len(volume))
            return preprocess(volume, *args, **kwargs)

        monkeypatch.setattr(dp, "load_volume", counting_load)
        monkeypatch.setattr(dp, "preprocess_volume", counting_preprocess)
        vols = dp.load_preprocessed(paths, 4)
        monkeypatch.undo()
        assert set(pending.values()) == {0}
        assert sum(batches) == sum(len(a) for a in arrays)
        assert len(batches) < len(paths) // 4
        assert_as_loaded_alone(paths, vols, 4)


class TestCaptions:
    def test_brain_mri_with_condition(self):
        e = make_entry(body_region="Brain", modality="MRI", condition="Pituitary Tumor")
        assert dp.build_caption(e) == "Brain MRI with Pituitary Tumor"

    def test_abdomen_ct_with_condition(self):
        e = make_entry(body_region="Abdomen", modality="CT", condition="Prostate Lesion")
        assert dp.build_caption(e) == "Abdomen CT with Prostate Lesion"

    def test_condition_omitted(self):
        e = make_entry(body_region="Chest", modality="X-ray", condition=None)
        assert dp.build_caption(e) == "Chest X-ray"

    def test_empty_required_field(self):
        with pytest.raises(InputError):
            dp.build_caption(make_entry(body_region=" "))
        with pytest.raises(InputError):
            dp.build_caption(make_entry(modality=""))


class TestTokenize:
    def test_case_folding(self):
        assert dp.tokenize("MRI", vocab=4096) == dp.tokenize("mri", vocab=4096)
        assert len(dp.tokenize("MRI", vocab=4096)) == 1

    def test_split_semantics(self):
        a = dp.tokenize("Brain MRI", vocab=4096)
        b = dp.tokenize("MRI Brain", vocab=4096)
        assert sorted(a) == sorted(b)
        assert dp.tokenize("Chest X-ray", vocab=4096) == dp.tokenize("chest x ray", vocab=4096)

    def test_golden_brain_id(self):
        # pinned: FNV-1a 64-bit of "brain", mod 4096
        assert fnv1a64("brain") % 4096 == 2771
        assert dp.tokenize("brain", vocab=4096) == [2771]

    def test_no_alphanumeric_content(self):
        with pytest.raises(InputError):
            dp.tokenize("--- !!! ---", vocab=4096)

    def test_ids_below_vocab(self):
        ids = dp.tokenize("Brain MRI with Pituitary Tumor", vocab=128)
        assert all(0 <= i < 128 for i in ids)


class TestSynth:
    def test_same_seed_bitwise_identical_corpus(self, tmp_path):
        spec = SynthSpec(family="pattern", classes=2, per_class=6, slices=3,
                         height=8, width=8)
        dp.synth_dataset(spec, seed=7, out_dir=tmp_path / "a")
        dp.synth_dataset(spec, seed=7, out_dir=tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        spec = SynthSpec(family="pattern", classes=2, per_class=6, height=8, width=8, kind="2d")
        dp.synth_dataset(spec, seed=1, out_dir=tmp_path / "a")
        dp.synth_dataset(spec, seed=2, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "samples" / "c0_0000.vol").read_bytes()
        b = (tmp_path / "b" / "samples" / "c0_0000.vol").read_bytes()
        assert a != b

    def test_order_coded_shares_multiset(self, tmp_path):
        spec = SynthSpec(family="order-coded", classes=2, per_class=6, slices=4,
                         height=8, width=8)
        entries = dp.synth_dataset(spec, seed=3, out_dir=tmp_path)
        by_class = {}
        for e in entries:
            if e.label not in by_class:
                by_class[e.label] = dp.load_volume(tmp_path / e.path)
        v0 = by_class[0]
        v1 = by_class[1]
        # same multiset of slices, different order
        key = lambda v: sorted(v.reshape(v.shape[0], -1).tolist())
        assert key(v0) == key(v1)
        assert not np.array_equal(v0, v1)

    def test_order_coded_class_marker_at_position_zero(self, tmp_path):
        spec = SynthSpec(family="order-coded", classes=2, per_class=6, slices=4,
                         height=8, width=8)
        entries = dp.synth_dataset(spec, seed=3, out_dir=tmp_path)
        vols = {e.id: dp.load_volume(tmp_path / e.path) for e in entries if e.label == 0}
        first = next(iter(vols.values()))[0]
        for v in vols.values():
            assert np.array_equal(v[0], first)

    def test_split_counts(self, tmp_path):
        spec = SynthSpec(family="pattern", classes=2, per_class=20, height=8, width=8, kind="2d")
        entries = dp.synth_dataset(spec, seed=5, out_dir=tmp_path)
        for label in (0, 1):
            splits = [e.split for e in entries if e.label == label]
            assert splits.count("train") == 14
            assert splits.count("val") == 2
            assert splits.count("test") == 4

    def test_captions_file(self, tmp_path):
        spec = SynthSpec(family="order-coded", classes=3, per_class=5, slices=4,
                         height=8, width=8)
        dp.synth_dataset(spec, seed=0, out_dir=tmp_path)
        caps = dp.load_captions(tmp_path / "captions.json")
        assert caps == ["Brain MRI with Sequence A",
                        "Brain MRI with Sequence B",
                        "Brain MRI with Sequence C"]

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(family="nope").validate()
        with pytest.raises(ConfigurationError):
            SynthSpec(family="pattern", classes=9).validate()
        with pytest.raises(ConfigurationError):
            SynthSpec(family="order-coded", classes=5, slices=4).validate()
        with pytest.raises(ConfigurationError):
            SynthSpec(family="order-coded", kind="2d").validate()
        for noise in (-0.5, float("nan")):
            with pytest.raises(ConfigurationError):
                SynthSpec(family="pattern", noise=noise).validate()

    def test_spec_is_validated_when_built_and_immutable(self):
        spec = SynthSpec(family="pattern", classes=4)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, classes=9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.classes = 9

    def test_pattern_classes_linearly_separable_in_pixel_space(self, tmp_path):
        # probe oracle on raw flattened voxels; evalkit has the probe itself,
        # here a perceptron-style check keeps the module self-contained
        spec = SynthSpec(family="pattern", classes=4, per_class=12, slices=4,
                         height=16, width=16)
        entries = dp.synth_dataset(spec, seed=11, out_dir=tmp_path)
        xs = np.stack([dp.load_volume(tmp_path / e.path).ravel() for e in entries])
        ys = np.array([e.label for e in entries])
        # multinomial logistic regression, full batch
        x1 = np.hstack([xs, np.ones((len(xs), 1))])
        w = np.zeros((x1.shape[1], 4))
        onehot = np.eye(4)[ys]
        for _ in range(300):
            z = x1 @ w
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            w -= 0.05 * x1.T @ (p - onehot) / len(xs)
        acc = ((x1 @ w).argmax(axis=1) == ys).mean()
        assert acc >= 0.99
