import math

import numpy as np
import pytest

from volalign import contrastive as ct
from volalign import diffmath as dm
from volalign.diffmath import Param
from volalign.errors import BatchError, DimensionError, InputError


def rng(label):
    return dm.make_rng(0, label)


class TestSimilarityMatrix:
    def test_matching_pairs_give_unit_diagonal(self):
        x = rng("pairs").normal(size=(4, 6))
        sim = ct.similarity_matrix(x, x.copy(), 1.0)
        assert np.abs(np.diagonal(sim) - 1.0).max() < 1e-12

    def test_orthogonal_rows_at_default_tau(self):
        img = np.eye(2, 6)
        txt = np.eye(2, 6)
        sim = ct.similarity_matrix(img, txt, 0.07)
        lg = sim
        assert lg[0, 1] == 0.0 and lg[1, 0] == 0.0
        assert abs(lg[0, 0] - 1.0 / 0.07) < 1e-12
        assert abs(lg[0, 0] - 14.2857) < 1e-3

    def test_cosine_scale_invariance(self):
        x = rng("scale").normal(size=(3, 5))
        y = rng("scale2").normal(size=(3, 5))
        base = ct.similarity_matrix(x, y, 0.07)
        x2 = x.copy()
        x2[1] *= 2.0  # power of two: bitwise identical normalization
        doubled = ct.similarity_matrix(x2, y, 0.07)
        assert np.array_equal(doubled, base)
        x3 = x.copy()
        x3[0] *= 3.7
        scaled = ct.similarity_matrix(x3, y, 0.07)
        assert np.abs(scaled - base).max() < 1e-12

    def test_bound_invariant(self):
        x = rng("bound").normal(size=(5, 4)) * 100
        y = rng("bound2").normal(size=(5, 4)) * 0.01
        tau = 0.07
        lg = ct.similarity_matrix(x, y, tau)
        assert np.abs(lg).max() <= 1.0 / tau + 1e-12

    def test_batch_and_shape_errors(self):
        with pytest.raises(BatchError):
            ct.similarity_matrix(np.ones((1, 4)), np.ones((1, 4)), 0.07)
        with pytest.raises(DimensionError):
            ct.similarity_matrix(np.ones((2, 4)), np.ones((2, 5)), 0.07)
        with pytest.raises(DimensionError):
            ct.similarity_matrix(np.ones((2, 4)), np.ones((3, 4)), 0.07)


class TestInfoNce:
    def test_uniform_logits_give_log_n(self):
        for n in (2, 4, 8):
            loss = ct.info_nce(np.full((n, n), 0.37))
            assert abs(loss.item() - math.log(n)) < 1e-12

    def test_strong_diagonal_two_by_two(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        loss = ct.info_nce(logits)
        expected = math.log(1.0 + math.exp(-10.0))
        assert abs(loss.item() - expected) < 1e-9

    def test_batch_permutation_symmetry_exact(self):
        r = rng("perm")
        logits = r.normal(size=(6, 6))
        base = ct.info_nce(logits).item()
        for _ in range(5):
            p = r.permutation(6)
            permuted = logits[np.ix_(p, p)]
            assert ct.info_nce(permuted).item() == base

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            ct.info_nce(np.ones((2, 3)))

    def test_asymmetric_flag_single_direction(self):
        logits = np.array([[2.0, -1.0], [0.5, 1.0]])
        one_way = ct.info_nce(logits, symmetric=False).item()
        lse = [math.log(math.exp(r[0]) + math.exp(r[1])) for r in logits]
        expected = ((lse[0] - 2.0) + (lse[1] - 1.0)) / 2
        assert abs(one_way - expected) < 1e-12

    def test_loss_nonnegative_property(self):
        r = rng("nonneg")
        for _ in range(20):
            logits = r.normal(scale=3.0, size=(5, 5))
            assert ct.info_nce(logits).item() >= 0.0

    def test_raising_diagonal_strictly_lowers_loss(self):
        r = rng("mono")
        logits = r.normal(size=(4, 4))
        base = ct.info_nce(logits).item()
        for i in range(4):
            bumped = logits.copy()
            bumped[i, i] += 0.5
            assert ct.info_nce(bumped).item() < base


class TestEndToEnd:
    def test_positive_pair_scale_invariance_through_loss(self):
        r = rng("e2e")
        img = r.normal(size=(4, 6))
        txt = r.normal(size=(4, 6))
        base = ct.batch_loss(img, txt, 0.07, True).item()
        img2 = img.copy()
        img2[2] *= 5.0
        assert abs(ct.batch_loss(img2, txt, 0.07, True).item() - base) < 1e-12

    def test_gradient_wrt_raw_embeddings(self):
        r = rng("grad")
        img = Param(r.normal(size=(3, 5)), name="img")
        txt = Param(r.normal(size=(3, 5)), name="txt")

        def f(tape):
            return ct.batch_loss(img, txt, 0.07, True, tape)

        report = dm.grad_check(f, [img, txt], h=1e-5, tol=1e-4)
        assert report.passed, repr(report)

    def test_loss_decreases_under_alignment(self):
        # identical embeddings (perfect alignment) score lower than random ones
        r = rng("align")
        x = r.normal(size=(6, 8))
        y = r.normal(size=(6, 8))
        aligned = ct.batch_loss(x, x.copy(), 0.07, True).item()
        random = ct.batch_loss(x, y, 0.07, True).item()
        assert aligned < random
