"""The batched path: ops on a leading batch axis, the batched encoder and
adapter, and the trainer's one-call-per-batch loss."""

from dataclasses import replace

import numpy as np
import pytest

from volalign import contrastive as ct
from volalign import diffmath as dm
from volalign import encoders as enc
from volalign import slice_pool as sp
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.diffmath import Param, Tape
from volalign.errors import DimensionError

CFG = TrainConfig(d_model=8, heads=2, d_hidden=8, d_text=8, vocab=64, patch_size=4,
                  image_size=8, s_max=8, dropout_rate=0.5, batch_size=4)


def check(build, shapes, label, tol=1e-6):
    r = dm.make_rng(0, label)
    params = [Param(r.uniform(-1.0, 1.0, s), name=f"p{i}") for i, s in enumerate(shapes)]
    report = dm.grad_check(lambda tape: build(params, tape), params, h=1e-5, tol=tol)
    assert report.passed, repr(report)


class TestBatchedOpGradients:
    """Each generalized op against central differences at a batched shape."""

    def test_matmul_shared_weight(self):
        check(lambda p, t: dm.mean_all(dm.softmax_rows(dm.matmul(p[0], p[1], t), t), t),
              [(2, 3, 4), (4, 5)], "b_matmul_w")

    def test_matmul_vector(self):
        check(lambda p, t: dm.mean_all(dm.l2_normalize_rows(
            dm.reshape(dm.matmul(p[0], p[1], t), (1, 3), t), tape=t), t),
              [(4,), (4, 3)], "b_matmul_v")

    def test_matmul_batch_by_batch(self):
        check(lambda p, t: dm.mean_all(dm.softmax_rows(dm.matmul(p[0], p[1], t), t), t),
              [(2, 3, 3, 4), (2, 3, 4, 5)], "b_matmul_bb")

    def test_transpose(self):
        check(lambda p, t: dm.mean_all(dm.softmax_rows(dm.transpose(p[0], t), t), t),
              [(2, 3, 4)], "b_transpose")

    def test_reshape(self):
        check(lambda p, t: dm.mean_all(dm.softmax_rows(dm.reshape(p[0], (4, 6), t), t), t),
              [(2, 3, 4)], "b_reshape")

    def test_add_shared(self):
        check(lambda p, t: dm.mean_all(dm.softmax_rows(dm.add(p[0], p[1], t), t), t),
              [(2, 3, 4), (3, 4)], "b_add")

    def test_softmax_rows(self):
        check(lambda p, t: dm.mean_all(dm.matmul(dm.softmax_rows(p[0], t), p[1], t), t),
              [(2, 3, 4), (4, 2)], "b_softmax")

    def test_mean_rows(self):
        check(lambda p, t: dm.mean_all(dm.softmax_rows(dm.mean_rows(p[0], t), t), t),
              [(2, 3, 5, 4)], "b_meanrows")

    def test_concat_rows(self):
        check(lambda p, t: dm.mean_all(
            dm.softmax_rows(dm.concat_rows([p[0], p[1]], t), t), t),
              [(2, 3), (4, 3)], "b_concat")


class TestBatchedOpShapes:
    def test_matmul_rejects_mismatched_batches(self):
        with pytest.raises(DimensionError):
            dm.matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
        with pytest.raises(DimensionError):
            dm.matmul(np.zeros((2, 3, 4)), np.zeros((5, 4)))

    def test_add_shares_only_a_trailing_matrix(self):
        with pytest.raises(DimensionError):
            dm.add(np.zeros((2, 3, 4)), np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            dm.add(np.zeros((2, 3, 4)), np.zeros(4))

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            dm.reshape(np.zeros((2, 3)), (4, 2))

    def test_concat_rows_needs_equal_widths(self):
        with pytest.raises(DimensionError):
            dm.concat_rows([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_batched_matmul_equals_each_matrix_alone_bitwise(self):
        r = dm.make_rng(1, "bmm")
        a, w = r.normal(size=(5, 7, 16)), r.normal(size=(16, 9))
        out = dm.matmul(a, w)
        for i in range(5):
            assert np.array_equal(out[i], dm.matmul(a[i], w))


class TestMeanRowsOrderInvariance:
    def test_batched_bitwise_invariant_to_any_row_permutation(self):
        r = dm.make_rng(2, "meanperm")
        x = r.normal(size=(6, 9, 5))
        x[:, 3] = x[:, 7]  # ties
        x[0, :, 0] = 0.0
        x[0, ::2, 0] = -0.0  # signed zeros
        base = dm.mean_rows(x)
        for _ in range(20):
            perm = r.permutation(9)
            assert np.array_equal(dm.mean_rows(x[:, perm]), base)
            # a different permutation per batch entry
            each = np.stack([x[b, r.permutation(9)] for b in range(6)])
            assert np.array_equal(dm.mean_rows(each), base)

    def test_batched_equals_each_matrix_alone_bitwise(self):
        x = dm.make_rng(3, "meaneach").normal(size=(4, 7, 3))
        out = dm.mean_rows(x)
        for b in range(4):
            assert np.array_equal(out[b], dm.mean_rows(x[b]))


def model(seed=5):
    return (tr.init_group(CFG, "image", seed=seed), tr.init_group(CFG, "adapter", seed=seed))


class TestBatchedEqualsPerVolume:
    """With dropout on and a uniform slice count, the batched encoder and
    adapter give the loss and gradients of the per-volume composition."""

    def test_loss_and_every_gradient_agree(self):
        image, adapter = model()
        params = list(image.values()) + list(adapter.values())
        data = dm.make_rng(4, "vols")
        vox = data.normal(size=(4, 5, 8, 8))
        txt = data.normal(size=(4, 8))

        def run(batched):
            # separate streams for encoder and adapter dropout, so both
            # compositions draw each stream in the same order
            enc_rng, pool_rng = dm.make_rng(6, "enc"), dm.make_rng(6, "pool")
            dm.zero_grads(params)
            tape = Tape()
            if batched:
                emb = enc.encode_image2d(vox, image, True, 0.5, enc_rng, tape)
                img = sp.attention_pool(emb, adapter, CFG.heads, True, 0.5, pool_rng, tape)
            else:
                rows = [sp.attention_pool(enc.encode_image2d(v, image, True, 0.5, enc_rng, tape),
                                          adapter, CFG.heads, True, 0.5, pool_rng, tape)
                        for v in vox]
                img = dm.concat_rows([dm.reshape(r, (1, CFG.d_model), tape) for r in rows], tape)
            loss = ct.batch_loss(img, txt, CFG.tau, CFG.symmetric, tape)
            tape.backward(loss)
            return loss.item(), [p.grad.copy() for p in params]

        (l_b, g_b), (l_s, g_s) = run(True), run(False)
        assert abs(l_b - l_s) <= 1e-10
        for p, a, b in zip(params, g_b, g_s):
            assert np.abs(a).max() > 0.0, p.name
            assert np.abs(a - b).max() <= 1e-10, p.name

    def test_volume_rows_match_single_images_bitwise(self):
        image, _ = model()
        vox = dm.make_rng(7, "sl").normal(size=(6, 8, 8))
        stack = enc.encode_image2d(vox, image)
        for i in range(6):
            assert np.array_equal(stack[i], enc.encode_image2d(vox[i], image))


def items_2d(n, seed):
    r = dm.make_rng(seed, "items2d")
    return [tr._Item(inputs=r.normal(size=(8, 8)), text_vec=r.normal(size=8)) for _ in range(n)]


def items_3d(slice_counts, seed):
    r = dm.make_rng(seed, "items3d")
    return [tr._Item(inputs=r.normal(size=(n, 8)), text_vec=r.normal(size=8))
            for n in slice_counts]


class TestTrainerBatchLoss:
    def loss_fn(self, items, stage, ckpt, train_mode=True):
        def f(tape):
            rng = dm.make_rng(8, "drop") if train_mode else None
            return tr._batch_loss(items, range(len(items)), replace(ckpt, stage=stage),
                                  train_mode, rng, tape)
        return f

    def test_stage1_gradient_check(self):
        ckpt = tr.make_initial_checkpoint(CFG)
        report = dm.grad_check(self.loss_fn(items_2d(4, 9), 1, ckpt),
                               list(ckpt.image.values()), h=1e-5, tol=1e-4)
        assert report.passed, repr(report)

    def test_stage2_mixed_slice_counts_gradient_check(self):
        ckpt = tr.make_initial_checkpoint(CFG)
        items = items_3d([3, 5, 3, 4, 5], 10)
        report = dm.grad_check(self.loss_fn(items, 2, ckpt), list(ckpt.adapter.values()),
                               h=1e-5, tol=1e-4)
        assert report.passed, repr(report)

    def test_stage2_mixed_slice_counts_match_per_volume_loss(self):
        ckpt = tr.make_initial_checkpoint(CFG)
        items = items_3d([3, 5, 3, 4, 5], 11)
        batched = self.loss_fn(items, 2, ckpt, train_mode=False)(None).item()
        rows = [sp.attention_pool(it.inputs, ckpt.adapter, CFG.heads) for it in items]
        txt = np.stack([it.text_vec for it in items])
        per_volume = ct.batch_loss(np.stack(rows), txt, CFG.tau, CFG.symmetric).item()
        assert abs(batched - per_volume) <= 1e-10

    def test_one_record_per_layer_per_batch(self):
        ckpt = tr.make_initial_checkpoint(CFG)
        counts = {}
        for stage, items in ((1, items_2d(4, 12)), (2, items_3d([4] * 4, 13))):
            tape = Tape()
            self.loss_fn(items, stage, ckpt)(tape)
            counts[stage] = len(tape)
            bigger = items_2d(16, 12) if stage == 1 else items_3d([4] * 16, 13)
            tape = Tape()
            self.loss_fn(bigger, stage, ckpt)(tape)
            assert len(tape) == counts[stage]  # independent of the batch size
        assert counts == {1: 23, 2: 38}
