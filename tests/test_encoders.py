import numpy as np
import pytest

from volalign import diffmath as dm
from volalign import encoders as enc
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.diffmath import Param
from volalign.errors import InputError

SMALL = TrainConfig(d_model=6, d_hidden=8, d_text=8, vocab=64, patch_size=4,
                    image_size=8, heads=2, s_max=8)


class TestTextEncoder:
    def test_seed_determinism_bitwise(self):
        a = tr.init_group(SMALL, "text", seed=5)
        b = tr.init_group(SMALL, "text", seed=5)
        assert np.array_equal(a["embed_table"].value.data, b["embed_table"].value.data)
        assert np.array_equal(a["proj"].value.data, b["proj"].value.data)

    def test_never_trainable(self):
        p = tr.init_group(SMALL, "text", seed=5)
        assert not p["embed_table"].trainable
        assert not p["proj"].trainable

    def test_same_ids_twice_identical(self):
        p = tr.init_group(SMALL, "text", seed=1)
        e1 = enc.encode_text([3, 9, 40], p)
        e2 = enc.encode_text([3, 9, 40], p)
        assert np.array_equal(e1.data, e2.data)

    def test_single_token_is_projected_row(self):
        p = tr.init_group(SMALL, "text", seed=1)
        out = enc.encode_text([7], p)
        expected = p["embed_table"].value.data[7] @ p["proj"].value.data
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_permuted_ids_identical_bitwise(self):
        p = tr.init_group(SMALL, "text", seed=1)
        a = enc.encode_text([3, 9, 40, 9], p)
        b = enc.encode_text([9, 40, 3, 9], p)
        assert np.array_equal(a.data, b.data)

    def test_empty_and_out_of_range(self):
        p = tr.init_group(SMALL, "text", seed=1)
        with pytest.raises(InputError):
            enc.encode_text([], p)
        with pytest.raises(InputError):
            enc.encode_text([64], p)
        with pytest.raises(InputError):
            enc.encode_text([-1], p)


class TestPatchify:
    def test_layout(self):
        img = np.arange(16.0).reshape(4, 4)
        patches = enc.patchify(img, 2)
        assert patches.shape == (4, 4)
        assert patches.data[0].tolist() == [0.0, 1.0, 4.0, 5.0]
        assert patches.data[3].tolist() == [10.0, 11.0, 14.0, 15.0]

    def test_indivisible(self):
        with pytest.raises(InputError):
            enc.patchify(np.zeros((6, 6)), 4)


class TestImageEncoder:
    def test_zero_image_zero_embedding(self):
        p = tr.init_group(SMALL, "image", seed=2)
        out = enc.encode_image2d(np.zeros((8, 8)), p)
        assert np.array_equal(out.data, np.zeros(6))

    def test_eval_mode_pure_function(self):
        p = tr.init_group(SMALL, "image", seed=2)
        img = dm.make_rng(0, "img").normal(size=(8, 8))
        a = enc.encode_image2d(img, p)
        b = enc.encode_image2d(img, p)
        assert np.array_equal(a.data, b.data)

    def test_gradient_passes_check(self):
        p = tr.init_group(SMALL, "image", seed=3)
        img = dm.make_rng(1, "img").normal(size=(8, 8))
        probe = Param(dm.make_rng(2, "probe").normal(size=(6, 1)), name="probe")

        def f(tape):
            emb = enc.encode_image2d(img, p, train_mode=True, dropout_rate=0.3,
                                     rng=dm.make_rng(9, "drop"), tape=tape)
            return dm.mean_all(dm.matmul(emb, probe, tape), tape)

        report = dm.grad_check(f, list(p.values()), h=1e-5, tol=1e-4)
        assert report.passed, repr(report)


class TestEncodeSlices:
    def test_identical_slices_identical_rows(self):
        p = tr.init_group(SMALL, "image", seed=4)
        sl = dm.make_rng(3, "sl").normal(size=(8, 8))
        stack = enc.encode_image2d(np.stack([sl] * 3), p)
        assert stack.shape == (3, 6)
        assert np.array_equal(stack.data[0], stack.data[1])
        assert np.array_equal(stack.data[0], stack.data[2])

    def test_single_slice_matches_encode_image2d(self):
        p = tr.init_group(SMALL, "image", seed=4)
        sl = dm.make_rng(4, "sl").normal(size=(8, 8))
        stack = enc.encode_image2d(sl[None], p)
        direct = enc.encode_image2d(sl, p)
        assert stack.shape == (1, 6)
        assert np.array_equal(stack.data[0], direct.data)

    def test_reversed_order_reverses_rows(self):
        p = tr.init_group(SMALL, "image", seed=4)
        r = dm.make_rng(5, "sl")
        vox = r.normal(size=(4, 8, 8))
        fwd = enc.encode_image2d(vox, p)
        rev = enc.encode_image2d(vox[::-1].copy(), p)
        assert np.array_equal(rev.data, fwd.data[::-1])

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
