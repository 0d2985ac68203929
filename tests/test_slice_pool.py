import math

import numpy as np
import pytest

from volalign import diffmath as dm
from volalign import slice_pool as sp
from volalign import trainer as tr
from volalign.config import TrainConfig
from volalign.diffmath import Param
from volalign.errors import CapacityError, ConfigurationError, DimensionError, InputError

CFG = TrainConfig(d_model=8, heads=2, s_max=16, dropout_rate=0.0,
                  d_hidden=8, d_text=8, vocab=32, patch_size=4, image_size=8)


def identity_adapter(d_model: int, s_max: int = 16) -> dict[str, Param]:
    """Identity projections, so each head sees its own block of columns;
    zero position table."""
    adapter = {w: Param(np.eye(d_model)) for w in ("wq", "wk", "wv")}
    return {"pe_table": Param(np.zeros((s_max, d_model))), **adapter,
            "wo": Param(np.eye(d_model))}


class TestInitAdapter:
    def test_seed_determinism(self):
        a = tr.init_group(CFG, "adapter", seed=3)
        b = tr.init_group(CFG, "adapter", seed=3)
        assert np.array_equal(a["pe_table"].value, b["pe_table"].value)
        assert np.array_equal(a["wk"].value, b["wk"].value)
        assert np.array_equal(a["wo"].value, b["wo"].value)

    def test_different_seeds_differ(self):
        a = tr.init_group(CFG, "adapter", seed=3)
        b = tr.init_group(CFG, "adapter", seed=4)
        assert not np.array_equal(a["pe_table"].value, b["pe_table"].value)

    def test_head_dim_mismatch(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(d_model=8, heads=3, d_hidden=8, d_text=8, vocab=32,
                        patch_size=4, image_size=8)

    def test_pe_gaussian_sample_mean(self):
        big = TrainConfig(d_model=64, heads=4, s_max=64, d_hidden=8, d_text=8,
                          vocab=32, patch_size=4, image_size=8)
        a = tr.init_group(big, "adapter", seed=7)
        pe = a["pe_table"].value
        bound = 3 * 0.02 / math.sqrt(pe.size)
        assert abs(pe.mean()) < bound


class TestAttentionPool:
    def test_single_row_identity_config(self):
        adapter = identity_adapter(8)
        row = dm.make_rng(0, "row").normal(size=(1, 8))
        out = sp.attention_pool(row, adapter, 2)
        assert np.allclose(out, row[0], atol=1e-15)

    def test_identical_rows_identity_config(self):
        adapter = identity_adapter(8)
        row = dm.make_rng(1, "row").normal(size=8)
        out = sp.attention_pool(np.stack([row] * 5), adapter, 2)
        assert np.allclose(out, row, atol=1e-12)

    def test_permutation_invariant_with_zero_pe(self):
        adapter = tr.init_group(CFG, "adapter", seed=5)
        adapter["pe_table"].value[...] = 0.0
        r = dm.make_rng(2, "stack")
        mat = r.normal(size=(8, 8))
        base = sp.attention_pool(mat, adapter, CFG.heads)
        for _ in range(5):
            perm = r.permutation(8)
            out = sp.attention_pool(mat[perm], adapter, CFG.heads)
            assert np.abs(out - base).max() < 1e-9

    def test_order_sensitive_with_random_pe(self):
        # default-sized adapter, fixed seed
        cfg = TrainConfig(d_model=64, heads=4, s_max=64, dropout_rate=0.0)
        adapter = tr.init_group(cfg, "adapter", seed=5)
        r = dm.make_rng(3, "stack")
        mat = r.normal(size=(8, 64))
        perm = np.array([3, 1, 4, 0, 2, 7, 5, 6])
        a = sp.attention_pool(mat, adapter, cfg.heads)
        b = sp.attention_pool(mat[perm], adapter, cfg.heads)
        assert np.abs(a - b).max() > 1e-6

    def test_matches_manual_computation_and_attention_rows_sum_to_one(self):
        adapter = tr.init_group(CFG, "adapter", seed=6)
        r = dm.make_rng(4, "stack")
        mat = r.normal(size=(5, 8))
        out = sp.attention_pool(mat, adapter, CFG.heads)
        # without an rng a dropout rate changes nothing (eval)
        assert sp.attention_pool(mat, adapter, CFG.heads, 0.5).tobytes() == out.tobytes()

        z = mat + adapter["pe_table"].value[:5]
        outs = []
        for h in range(CFG.heads):
            cols = slice(h * CFG.d_head, (h + 1) * CFG.d_head)
            q = z @ adapter["wq"].value[:, cols]
            k = z @ adapter["wk"].value[:, cols]
            v = z @ adapter["wv"].value[:, cols]
            s = q @ k.T / math.sqrt(CFG.d_head)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-12
            outs.append(a @ v)
        manual = (np.concatenate(outs, axis=1) @ adapter["wo"].value).mean(axis=0)
        assert np.allclose(out, manual, atol=1e-12)

    def test_capacity_error_names_limits(self):
        adapter = tr.init_group(CFG, "adapter", seed=5)
        mat = np.zeros((17, 8))
        with pytest.raises(CapacityError, match="17.*16"):
            sp.attention_pool(mat, adapter, CFG.heads)

    def test_empty_stack(self):
        adapter = tr.init_group(CFG, "adapter", seed=5)
        with pytest.raises(InputError):
            sp.attention_pool(np.zeros((0, 8)), adapter, CFG.heads)

    def test_gradients_pass_check(self):
        adapter = tr.init_group(CFG, "adapter", seed=8)
        mat = dm.make_rng(5, "stack").normal(size=(4, 8))
        probe = Param(dm.make_rng(6, "probe").normal(size=(8, 1)), name="probe")

        def f(tape):
            emb = sp.attention_pool(mat, adapter, CFG.heads, rng=dm.make_rng(11, "drop"),
                                    tape=tape)
            return dm.mean_all(dm.matmul(emb, probe, tape), tape)

        report = dm.grad_check(f, list(adapter.values()), h=1e-5, tol=1e-4)
        assert report.passed, repr(report)


class TestGapPool:
    def test_mean(self):
        out = sp.gap_pool(np.array([[1.0, 1.0], [3.0, 3.0]]))
        assert out.tolist() == [2.0, 2.0]

    def test_permutation_bitwise_invariant(self):
        r = dm.make_rng(7, "gap")
        mat = r.normal(size=(9, 8))
        base = sp.gap_pool(mat)
        for _ in range(10):
            out = sp.gap_pool(mat[r.permutation(9)])
            assert np.array_equal(out, base)

    def test_single_row(self):
        row = dm.make_rng(8, "gap").normal(size=(1, 5))
        assert np.array_equal(sp.gap_pool(row), row[0])

    def test_equals_mean_rows_exactly(self):
        mat = dm.make_rng(9, "gap").normal(size=(6, 4))
        assert np.array_equal(sp.gap_pool(mat), dm.mean_rows(mat))

    def test_empty(self):
        with pytest.raises(InputError):
            sp.gap_pool(np.zeros((0, 4)))


class TestPoolDispatch:
    def test_vector_is_not_a_stack(self):
        adapter = tr.init_group(CFG, "adapter", seed=5)
        vec = np.zeros(8)
        with pytest.raises(DimensionError):
            sp.gap_pool(vec)
        with pytest.raises(DimensionError):
            sp.attention_pool(vec, adapter, CFG.heads)
