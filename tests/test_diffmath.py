import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from volalign import diffmath as dm
from volalign.diffmath import Param, Tape
from volalign.errors import ConfigurationError, ContractError, DimensionError


def rng(label="test", seed=0):
    return dm.make_rng(seed, label)


def _x(*shape):
    return rng("contract").normal(size=shape)


# (op, its inputs). The 0-d cases are there because numpy arithmetic on 0-d
# arrays returns numpy scalars, which are not ndarrays.
CONTRACT_CASES = [
    pytest.param("matmul", lambda: (_x(3, 4), Param(_x(4, 2))), id="matmul"),
    pytest.param("matmul", lambda: (_x(4), _x(4, 2)), id="matmul-vector"),
    pytest.param("matmul", lambda: (_x(2, 3, 4), _x(4, 5)), id="matmul-shared"),
    pytest.param("matmul", lambda: (_x(2, 3, 4), _x(2, 4, 5)), id="matmul-batched"),
    pytest.param("transpose", lambda: (_x(3, 4),), id="transpose"),
    pytest.param("transpose", lambda: (_x(2, 3, 4),), id="transpose-batched"),
    pytest.param("reshape", lambda: (_x(2, 6), (3, 4)), id="reshape"),
    pytest.param("add", lambda: (_x(2, 3), _x(2, 3)), id="add"),
    pytest.param("add", lambda: (_x(2, 3, 4), Param(_x(3, 4))), id="add-shared"),
    pytest.param("add", lambda: (np.array(1.5), np.array(-2.0)), id="add-0d"),
    pytest.param("sub", lambda: (_x(2, 3), _x(2, 3)), id="sub"),
    pytest.param("sub", lambda: (np.array(1.5), np.array(-2.0)), id="sub-0d"),
    pytest.param("scale", lambda: (_x(2, 3), 0.5), id="scale"),
    pytest.param("scale", lambda: (np.array(1.5), 0.5), id="scale-0d"),
    pytest.param("relu", lambda: (_x(2, 3),), id="relu"),
    pytest.param("relu", lambda: (np.array(1.5),), id="relu-0d"),
    pytest.param("softmax_rows", lambda: (_x(2, 3, 4),), id="softmax_rows"),
    pytest.param("logsumexp_rows", lambda: (_x(3, 4),), id="logsumexp_rows"),
    pytest.param("l2_normalize_rows", lambda: (_x(3, 4),), id="l2_normalize_rows"),
    pytest.param("mean_rows", lambda: (_x(2, 3, 4),), id="mean_rows"),
    pytest.param("mean_all", lambda: (_x(3, 4),), id="mean_all"),
    pytest.param("take_rows", lambda: (_x(3, 4), 2), id="take_rows"),
    pytest.param("take_diag", lambda: (_x(3, 3),), id="take_diag"),
    pytest.param("concat_rows", lambda: ([_x(2, 4), Param(_x(3, 4))],), id="concat_rows"),
    pytest.param("dropout", lambda: (_x(3, 4), 0.5, rng("mask")), id="dropout"),
    pytest.param("dropout", lambda: (np.array(1.5), 0.5, rng("mask")), id="dropout-0d"),
    pytest.param("dropout", lambda: (_x(3, 4), 0.5, None), id="dropout-eval"),
]


class TestOpOutputContract:
    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("op, inputs", CONTRACT_CASES)
    def test_c_contiguous_float64_ndarray(self, op, inputs, taped):
        args = inputs()
        out = getattr(dm, op)(*args, tape=Tape() if taped else None)
        assert isinstance(out, np.ndarray), type(out)
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]
        if op == "dropout" and args[2] is None:
            assert out is args[0]  # without an rng it is the identity

    def test_every_public_op_has_a_case(self):
        not_ops = {"Param", "Tape", "zero_grads", "grad_check", "GradCheckReport",
                   "fnv1a64", "derive_seed", "make_rng"}
        assert {c.values[0] for c in CONTRACT_CASES} == set(dm.__all__) - not_ops


class TestMatmul:
    def test_identity(self):
        x = np.array([[2.0, -1.0], [0.5, 3.0]])
        eye = np.eye(2)
        out = dm.matmul(eye, x)
        assert np.array_equal(out, x)

    def test_hand_sum(self):
        out = dm.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        assert out.tolist() == [[3.0], [7.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            dm.matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_gradient_vs_central_differences(self):
        r = rng("matmul")
        a = Param(r.normal(size=(3, 4)), name="a")
        b = Param(r.normal(size=(4, 2)), name="b")

        def f(tape):
            return dm.mean_all(dm.matmul(a, b, tape), tape)

        report = dm.grad_check(f, [a, b], h=1e-5, tol=1e-6)
        assert report.passed, repr(report)


class TestSoftmaxRows:
    def test_equal_values_uniform(self):
        out = dm.softmax_rows(np.array([[7.0, 7.0, 7.0, 7.0]]))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_analytic_quarter_three_quarters(self):
        out = dm.softmax_rows(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_no_overflow_on_huge_logits(self):
        out = dm.softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_rows_sum_to_one_property(self):
        r = rng("softmax")
        for _ in range(20):
            x = r.normal(scale=5.0, size=(6, 9))
            s = dm.softmax_rows(x).sum(axis=1)
            assert np.abs(s - 1.0).max() < 1e-12


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = dm.l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_vector_unchanged(self):
        out = dm.l2_normalize_rows(np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_zero_row_guarded(self):
        out = dm.l2_normalize_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_norms_property(self):
        r = rng("l2norm")
        for _ in range(20):
            x = r.normal(size=(5, 7))
            norms = np.linalg.norm(dm.l2_normalize_rows(x), axis=1)
            assert np.abs(norms - 1.0).max() < 1e-12


class TestElementwiseSuite:
    def test_mean_rows(self):
        out = dm.mean_rows(np.array([[1.0, 1.0], [3.0, 3.0]]))
        assert out.tolist() == [2.0, 2.0]

    def test_relu(self):
        out = dm.relu(np.array([-2.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_scale_by_zero(self):
        out = dm.scale(np.array([[1.0, -5.0]]), 0.0)
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_add_sub_shape_errors(self):
        with pytest.raises(DimensionError):
            dm.add(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DimensionError):
            dm.sub(np.array([[1.0]]), np.array([1.0]))

    def test_mean_rows_is_row_order_invariant_bitwise(self):
        r = rng("meaninv")
        x = r.normal(size=(11, 5))
        base = dm.mean_rows(x)
        for _ in range(10):
            perm = r.permutation(11)
            out = dm.mean_rows(x[perm])
            assert np.array_equal(out, base)


# Ties, both zeros, both infinities and sums that lose bits when added out of
# order, beside arbitrary finite values.
MEAN_VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 1e-300, 1e16, -1e16,
                                math.inf, -math.inf])
               | st.floats(allow_nan=False, allow_infinity=False))


class TestMeanRowsBits:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lead=st.lists(st.integers(1, 3), max_size=2),
           m=st.integers(1, 8), d=st.integers(1, 5), zero_col=st.booleans())
    def test_equals_sorted_sum_bytewise(self, data, lead, m, d, zero_col):
        # np.array_equal cannot tell -0.0 from +0.0; the bytes can.
        x = data.draw(hnp.arrays(np.float64, (*lead, m, d), elements=MEAN_VALUES))
        if zero_col:
            x[..., 0] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.sort(x, axis=-2).sum(axis=-2) / m
            assert dm.mean_rows(x).tobytes() == expected.tobytes()


class TestDropout:
    def test_eval_mode_identity(self):
        x = np.array([[1.0, 2.0]])
        out = dm.dropout(x, 0.9)
        assert out is x

    def test_rate_zero_identity(self):
        x = np.array([[1.0, 2.0]])
        out = dm.dropout(x, 0.0, rng=rng())
        assert out is x

    def test_rate_out_of_range(self):
        with pytest.raises(ConfigurationError):
            dm.dropout(np.array([1.0]), 1.0, rng=rng())
        with pytest.raises(ConfigurationError):
            dm.dropout(np.array([1.0]), -0.1, rng=rng())
        with pytest.raises(ConfigurationError):  # checked before the rng is looked at
            dm.dropout(np.array([1.0]), 1.0)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones(100_000)
        out = dm.dropout(x, 0.5, rng=rng("dropmean"))
        assert abs(out.mean() - 1.0) < 0.02

    def test_survivors_scaled(self):
        out = dm.dropout(np.ones(1000), 0.5, rng=rng("scaled"))
        vals = set(np.unique(out).tolist())
        assert vals <= {0.0, 2.0}


class TestTapeBackward:
    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = Param(np.ones((2, 2)))
        y = dm.relu(x, tape)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_double_backward_rejected(self):
        tape = Tape()
        x = Param(np.ones((2, 2)))
        loss = dm.mean_all(x, tape)
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)

    def test_grads_accumulate_across_backwards(self):
        x = Param(np.ones((2, 2)))
        buf = x.grad
        for _ in range(2):
            tape = Tape()
            loss = dm.mean_all(x, tape)
            tape.backward(loss)
        assert x.grad is buf  # accumulated in place
        assert np.allclose(x.grad, 2 * 0.25)

    def test_zero_grads(self):
        x = Param(np.ones((2, 2)))
        tape = Tape()
        tape.backward(dm.mean_all(x, tape))
        dm.zero_grads([x])
        assert np.array_equal(x.grad, np.zeros((2, 2)))

    def test_backward_is_bitwise_deterministic(self):
        def run():
            r = rng("det")
            x = Param(r.normal(size=(4, 6)), name="x")
            w = Param(r.normal(size=(6, 3)), name="w")
            tape = Tape()
            h = dm.relu(dm.matmul(x, w, tape), tape)
            loss = dm.mean_all(dm.softmax_rows(h, tape), tape)
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])

    def test_fanout_accumulates(self):
        # y = x + x => dy/dx = 2
        x = Param(np.array([1.0, 2.0]))
        tape = Tape()
        loss = dm.mean_all(dm.add(x, x, tape), tape)
        tape.backward(loss)
        assert np.allclose(x.grad, 1.0)


class TestPrimitiveGradients:
    """Every registered primitive vs central differences on inputs in [-1, 1]."""

    def check(self, build, shapes, label):
        r = rng(label)
        params = [Param(r.uniform(-1.0, 1.0, s), name=f"p{i}") for i, s in enumerate(shapes)]
        report = dm.grad_check(lambda tape: build(params, tape), params, h=1e-5, tol=1e-6)
        assert report.passed, repr(report)

    def test_matmul(self):
        self.check(lambda p, t: dm.mean_all(dm.matmul(p[0], p[1], t), t),
                   [(3, 4), (4, 2)], "g_matmul")

    def test_transpose(self):
        self.check(lambda p, t: dm.mean_all(dm.matmul(p[1], dm.transpose(p[0], t), t), t),
                   [(3, 4), (2, 4)], "g_transpose")

    def test_add_sub_scale(self):
        self.check(lambda p, t: dm.mean_all(dm.scale(dm.sub(dm.add(p[0], p[1], t), p[2], t), 2.5, t), t),
                   [(3, 3)] * 3, "g_addsub")

    def test_relu(self):
        self.check(lambda p, t: dm.mean_all(dm.relu(p[0], t), t), [(4, 5)], "g_relu")

    def test_softmax_rows(self):
        self.check(lambda p, t: dm.mean_all(dm.matmul(dm.softmax_rows(p[0], t), p[1], t), t),
                   [(3, 4), (4, 2)], "g_softmax")

    def test_logsumexp_rows(self):
        self.check(lambda p, t: dm.mean_all(dm.logsumexp_rows(p[0], t), t), [(3, 5)], "g_lse")

    def test_l2_normalize_rows(self):
        self.check(lambda p, t: dm.mean_all(dm.matmul(dm.l2_normalize_rows(p[0], tape=t), p[1], t), t),
                   [(3, 4), (4, 2)], "g_l2n")

    def test_mean_rows(self):
        self.check(lambda p, t: dm.mean_all(dm.matmul(dm.mean_rows(p[0], t), p[1], t), t),
                   [(4, 3), (3, 2)], "g_meanrows")

    def test_take_rows(self):
        self.check(lambda p, t: dm.mean_all(dm.take_rows(p[0], 2, t), t), [(4, 3)], "g_takerows")

    def test_take_diag(self):
        self.check(lambda p, t: dm.mean_all(dm.reshape(dm.take_diag(p[0], t), (1, 4), t), t),
                   [(4, 4)], "g_diag")

    def test_concat_rows(self):
        self.check(lambda p, t: dm.mean_all(dm.concat_rows([p[0], p[1]], t), t),
                   [(2, 3), (4, 3)], "g_concat")

    def test_dropout_fixed_mask(self):
        def build(p, t):
            out = dm.dropout(p[0], 0.4, rng=dm.make_rng(7, "dropg"), tape=t)
            return dm.mean_all(out, t)
        self.check(build, [(6, 6)], "g_dropout")


class TestGradCheck:
    def test_quadratic_exact(self):
        theta = Param(np.array([0.3, -0.7, 1.1]), name="theta")

        def f(tape):
            row = dm.reshape(theta, (1, 3), tape)
            return dm.mean_all(dm.scale(dm.matmul(row, dm.transpose(row, tape), tape),
                                        3.0, tape), tape)

        report = dm.grad_check(f, [theta], h=1e-5, tol=1e-9)
        assert report.passed, repr(report)

    def test_corrupted_backward_rule_fails(self):
        # negative control: an op whose backward rule is off by a factor of 2
        theta = Param(np.array([[0.5, -0.2], [0.1, 0.9]]), name="theta")

        def bad_double(x, tape):
            out = dm._val(x) * 2.0
            if tape is not None:
                def bwd(g, accum, x=x):
                    accum(x, g * 4.0)  # wrong: should be g * 2
                tape.record(out, (x,), bwd)
            return out

        def f(tape):
            return dm.mean_all(bad_double(theta, tape), tape)

        report = dm.grad_check(f, [theta], h=1e-5, tol=1e-4)
        assert not report.passed

    def test_leaves_grads_zeroed(self):
        theta = Param(np.array([1.0, 2.0]), name="theta")
        dm.grad_check(lambda t: dm.mean_all(dm.reshape(theta, (1, 2), t), t), [theta])
        assert np.array_equal(theta.grad, np.zeros(2))


class TestFinitenessProperty:
    def test_public_ops_stay_finite_on_finite_inputs(self):
        r = rng("finite")
        for _ in range(10):
            x = r.normal(scale=50.0, size=(4, 6))
            w = r.normal(scale=50.0, size=(6, 4))
            outs = [
                dm.matmul(x, w),
                dm.softmax_rows(x),
                dm.logsumexp_rows(x),
                dm.l2_normalize_rows(x),
                dm.mean_rows(x),
                dm.relu(x),
            ]
            for o in outs:
                assert np.isfinite(o).all()


class TestRng:
    def test_same_seed_same_stream(self):
        a = dm.make_rng(42, "x").random(8)
        b = dm.make_rng(42, "x").random(8)
        assert np.array_equal(a, b)

    def test_labels_give_independent_streams(self):
        a = dm.make_rng(42, "x").random(8)
        b = dm.make_rng(42, "y").random(8)
        assert not np.array_equal(a, b)

    def test_fnv1a64_golden(self):
        assert dm.fnv1a64("brain") == 13010620176333208275
