"""Tensor core: op semantics, reverse-mode gradients, verification oracle."""

import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf, expit

import linattn.tensor as T
from linattn.attention import EPS, _heads, kernel_attention_linear
from linattn.config import parse_config_file
from linattn.data import batch_iter
from linattn.errors import ContractError, GraphError, ShapeError
from linattn.model import build_model
from linattn.tensor import Tensor, backward, finite_difference_check, no_grad
from linattn.training import _forward_loss
from conftest import assert_threads_back, os_threads

LN2 = 0.6931471805599453
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def t64(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(t64(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = T.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = t64(rng.standard_normal((5, 4)), grad=True)
        b = t64(rng.standard_normal((4, 3)), grad=True)
        c = t64(rng.standard_normal((5, 3)))

        def f(p):
            return T.sum(T.mul(T.matmul(p["a"], p["b"]), c))

        report = finite_difference_check(f, {"a": a, "b": b}, step=1e-5)
        assert report["a"].max_rel_err <= 1e-6
        assert report["b"].max_rel_err <= 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = t64(rng.standard_normal((2, 3, 4)), grad=True)
        b = t64(rng.standard_normal((4, 5)), grad=True)

        def f(p):
            return T.sum(T.square(T.matmul(p["a"], p["b"])))

        report = finite_difference_check(f, {"a": a, "b": b}, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-6


class TestSoftplus:
    def test_zero(self):
        assert T.softplus(t64(0.0)).item() == pytest.approx(LN2, abs=1e-12)

    def test_large_negative_stays_positive(self):
        assert T.softplus(t64(-40.0)).item() > 0.0
        assert T.softplus(t64(-800.0)).item() > 0.0

    def test_value_at_ten(self):
        # ln(1 + e^10) evaluated in extended precision
        assert T.softplus(t64(10.0)).item() == pytest.approx(10.000045398899216865, abs=1e-12)

    def test_derivative_is_sigmoid(self):
        x = t64(np.linspace(-6, 6, 25), grad=True)
        grads = backward(T.sum(T.softplus(x)))
        expected = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(grads[x], expected, atol=1e-12)


class TestSigmoid:
    def test_symmetry_point(self):
        assert T.sigmoid(t64(0.0)).item() == pytest.approx(0.5, abs=1e-15)

    def test_complement_identity(self):
        x = np.random.default_rng(2).uniform(-30, 30, size=100)
        s = T.sigmoid(t64(x)).data + T.sigmoid(t64(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_value_at_two(self):
        assert T.sigmoid(t64(2.0)).item() == pytest.approx(0.88079707797788244406, abs=1e-12)

    def test_overflow_safe(self):
        out = T.sigmoid(t64([700.0, -700.0, 1000.0, -1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] > 0 and out.data[3] > 0


class TestElementwise:
    def test_add(self):
        np.testing.assert_array_equal(T.add(t64([1.0, 2.0]), t64([3.0, 4.0])).data, [4.0, 6.0])

    def test_mean_of_square(self):
        assert T.mean(T.square(t64([3.0, 4.0]))).item() == pytest.approx(12.5)

    def test_gelu_gradient(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal(12), grad=True)
        report = finite_difference_check(lambda p: T.sum(T.gelu(p["x"])), {"x": x}, step=1e-5)
        assert report["x"].max_rel_err <= 1e-5

    def test_div_by_zero_propagates_nonfinite(self):
        out = T.div(t64([1.0, -1.0, 0.0]), t64([0.0, 0.0, 0.0]))
        assert not np.any(np.isfinite(out.data))

    def test_broadcast_gradients_sum_over_expanded_axes(self):
        rng = np.random.default_rng(4)
        vec = t64(rng.standard_normal(4), grad=True)
        mat = t64(rng.standard_normal((3, 4)), grad=True)

        def f(p):
            return T.sum(T.square(T.add(p["mat"], p["vec"])))

        report = finite_difference_check(f, {"vec": vec, "mat": mat}, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-6

    def test_scale_and_reductions(self):
        x = t64(np.arange(6, dtype=np.float64).reshape(2, 3), grad=True)
        out = T.mul(T.sum(x, axis=0), 2.0)
        np.testing.assert_array_equal(out.data, [6.0, 10.0, 14.0])
        grads = backward(T.sum(out))
        np.testing.assert_array_equal(grads[x], np.full((2, 3), 2.0))


class TestBroadcastVjps:
    """Gradients of a broadcast operand, summed back by ``_unbroadcast``."""

    @pytest.mark.parametrize("trainable", [("a", "b"), ("a",), ("b",)])
    def test_div_by_a_trailing_one_denominator(self, trainable):
        rng = np.random.default_rng(26)
        a = t64(rng.standard_normal((2, 3, 5, 4)), grad="a" in trainable)
        b = t64(rng.uniform(0.5, 2.0, (2, 3, 5, 1)), grad="b" in trainable)
        c = t64(rng.standard_normal((2, 3, 5, 4)))
        params = {k: t for k, t in (("a", a), ("b", b)) if k in trainable}
        report = finite_difference_check(
            lambda p: T.sum(T.mul(T.square(T.div(a, b)), c)), params, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-6

    @pytest.mark.parametrize("op", [T.sub, T.mul], ids=["sub", "mul"])
    @pytest.mark.parametrize("small_shape", [(4,), (6, 1)], ids=["row", "column"])
    @pytest.mark.parametrize("small_first", [False, True], ids=["small-b", "small-a"])
    def test_sub_and_mul_against_a_broadcast_operand(self, op, small_shape, small_first):
        rng = np.random.default_rng(27)
        params = {"x": t64(rng.standard_normal((6, 4)), grad=True),
                  "y": t64(rng.standard_normal(small_shape), grad=True)}
        c = t64(rng.standard_normal((6, 4)))

        def f(p):
            out = op(p["y"], p["x"]) if small_first else op(p["x"], p["y"])
            return T.sum(T.mul(T.square(out), c))

        report = finite_difference_check(f, params, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-6

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_over_the_last_axis(self, keepdims):
        rng = np.random.default_rng(28)
        x = t64(rng.standard_normal((3, 5, 7)), grad=True)
        report = finite_difference_check(
            lambda p: T.sum(T.square(T.mean(p["x"], axis=-1, keepdims=keepdims))),
            {"x": x}, step=1e-5)
        assert report["x"].max_rel_err <= 1e-6

    @pytest.mark.parametrize("b_shape", [(2, 3, 4, 1), (4, 1)], ids=["batched", "shared"])
    def test_matmul_with_a_one_column_gradient(self, b_shape):
        rng = np.random.default_rng(29)
        params = {"a": t64(rng.standard_normal((2, 3, 7, 4)), grad=True),
                  "b": t64(rng.standard_normal(b_shape), grad=True)}
        report = finite_difference_check(
            lambda p: T.sum(T.square(T.matmul(p["a"], p["b"]))), params, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-6

    def test_one_column_matmul_gradient_equals_the_blas_product(self):
        # A length-1 contraction is one product per element, so the broadcast
        # multiply gives the same bits as g @ b^T.
        rng = np.random.default_rng(30)
        a = Tensor(rng.standard_normal((8, 4, 33, 16)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((8, 4, 16, 1)).astype(np.float32), requires_grad=True)
        g = rng.standard_normal((8, 4, 33, 1)).astype(np.float32)
        da, _ = T.matmul(a, b)._node.vjp(g)
        np.testing.assert_array_equal(da, g @ b.data.swapaxes(-1, -2))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", ["leading", "trailing"])
    def test_unbroadcast_by_blas_against_np_sum(self, dtype, rtol, case):
        rng = np.random.default_rng(31)
        if case == "leading":  # a bias gradient: (N, d) -> (d,)
            g, shape, axis, keepdims = rng.standard_normal((6, 43, 24)), (24,), (0, 1), False
        else:  # a (..., 1) operand
            g, shape, axis, keepdims = rng.standard_normal((3, 5, 40, 16)), (3, 5, 40, 1), -1, True
        g = g.astype(dtype)
        got = T._unbroadcast(g, shape)
        ref = np.sum(g, axis=axis, keepdims=keepdims)
        assert got.shape == shape and got.dtype == dtype
        # Relative to sum |g|, the scale of a sum's rounding error.
        scale = np.sum(np.abs(g), axis=axis, keepdims=keepdims)
        assert np.all(np.abs(got - ref) <= rtol * scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unbroadcast_of_a_view_falls_back_to_np_sum(self, dtype):
        rng = np.random.default_rng(32)
        base = rng.standard_normal((24, 43)).astype(dtype)
        for g, shape, axis, keepdims in ((base.T, (24,), 0, False),
                                         (base[:, ::2], (24, 1), -1, True)):
            assert not g.flags.c_contiguous
            np.testing.assert_array_equal(T._unbroadcast(g, shape),
                                          np.sum(g, axis=axis, keepdims=keepdims))


REDUCE_AXES = [None, 0, -1, -2, (0, 2), (1, 2), (0, 1, 2)]


class TestReductions:
    """``T.sum`` and ``T.mean`` reduce through ``_unbroadcast``: BLAS ones-vector
    products over leading, last and second-to-last axes, ``np.sum`` otherwise,
    always on a C-ordered copy of a strided operand."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", REDUCE_AXES, ids=str)
    @pytest.mark.parametrize("op, ref", [(T.sum, np.sum), (T.mean, np.mean)],
                             ids=["sum", "mean"])
    def test_matches_numpy(self, op, ref, axis, keepdims, dtype, rtol):
        x = np.random.default_rng(40).uniform(0.5, 1.5, (6, 40, 24)).astype(dtype)
        got = op(Tensor(x), axis=axis, keepdims=keepdims).data
        want = ref(x, axis=axis, keepdims=keepdims)
        assert got.shape == want.shape and got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_second_to_last_axis_by_blas_against_np_sum(self, dtype):
        g = np.random.default_rng(41).standard_normal((3, 4, 50, 16)).astype(dtype)
        got = T._unbroadcast(g, (3, 4, 1, 16))
        scale = np.sum(np.abs(g), axis=-2, keepdims=True)
        assert got.shape == (3, 4, 1, 16) and got.dtype == dtype
        rtol = 1e-6 if dtype == np.float32 else 1e-14
        assert np.all(np.abs(got - np.sum(g, axis=-2, keepdims=True)) <= rtol * scale)
        np.testing.assert_array_equal(got, np.ones((1, 50), dtype) @ g)

    @pytest.mark.parametrize("op", [T.sum, T.mean], ids=["sum", "mean"])
    @pytest.mark.parametrize("axis", REDUCE_AXES, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_views_give_the_bits_of_contiguous_copies(self, dtype, axis, op):
        # Widths 1-8 included: there OpenBLAS rounds a product over a strided
        # matrix differently from one over a contiguous copy.
        rng = np.random.default_rng(42)
        for width in (1, 2, 3, 4, 5, 8, 16):
            base = rng.standard_normal((5, 33, 3, width)).astype(dtype)
            views = [base.swapaxes(1, 2),                           # (5, 3, 33, width)
                     base.reshape(5, 33, 3 * width)[:, :, 1:][:, None]]  # a column slice
            for view in views:
                assert not view.flags.c_contiguous
                for keepdims in (False, True):
                    strided = op(Tensor(view), axis=axis, keepdims=keepdims).data
                    copied = op(Tensor(np.ascontiguousarray(view)), axis=axis,
                                keepdims=keepdims).data
                    np.testing.assert_array_equal(strided, copied)

    def test_mean_divides_by_the_reduced_axis_length(self):
        x = t64(np.arange(15.0).reshape(3, 5), grad=True)
        np.testing.assert_array_equal(T.mean(x, axis=0).data, [5.0, 6.0, 7.0, 8.0, 9.0])
        np.testing.assert_array_equal(T.mean(x, axis=-1).data, [2.0, 7.0, 12.0])
        np.testing.assert_array_equal(backward(T.sum(T.mean(x, axis=0)))[x],
                                      np.full((3, 5), 1.0 / 3.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_size_axis(self, dtype):
        x = Tensor(np.ones((3, 0, 4), dtype=dtype), requires_grad=True)
        for axis in (1, -1, (0, 2), None):
            out = T.sum(x, axis=axis, keepdims=True)
            want = np.sum(x.data, axis=axis, keepdims=True)
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(T.sum(x, axis=1).data, np.zeros((3, 4), dtype))
        # Like np.mean, a mean over no elements is nan, with a RuntimeWarning.
        with pytest.warns(RuntimeWarning):
            out = T.mean(x, axis=1)
        assert out.shape == (3, 4) and out.dtype == dtype and np.all(np.isnan(out.data))
        assert backward(T.sum(T.sum(x, axis=-1)))[x].shape == (3, 0, 4)

    def test_result_is_a_new_array(self):
        x = t64(np.ones((1, 4)))
        for out in (T.sum(x, axis=0), T.mean(x, axis=0, keepdims=True)):
            assert not np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(x.data, np.ones((1, 4)))

    @pytest.mark.parametrize("axis", [2, -3, (0, 0), (1, -1)])
    def test_bad_axis_rejected(self, axis):
        with pytest.raises(ShapeError, match="out of range or repeated"):
            T.sum(t64(np.ones((2, 3))), axis=axis)


class TestSoftmaxRows:
    def test_uniform(self):
        np.testing.assert_allclose(T.softmax_rows(t64([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_shift_invariance_no_overflow(self):
        np.testing.assert_allclose(T.softmax_rows(t64([[1000.0, 1000.0]])).data, [[0.5, 0.5]])
        x = np.random.default_rng(5).standard_normal((4, 6))
        a = T.softmax_rows(t64(x)).data
        b = T.softmax_rows(t64(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_known_row(self):
        out = T.softmax_rows(t64([[1.0, 2.0, 3.0]])).data[0]
        expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        x = np.random.default_rng(6).standard_normal((50, 9)) * 10
        out = T.softmax_rows(t64(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        w = t64(np.random.default_rng(7).standard_normal((2, 2)), grad=True)
        grads = backward(T.sum(w))
        np.testing.assert_array_equal(grads[w], np.ones((2, 2)))

    def test_sum_square_gives_2w(self):
        w = t64(np.random.default_rng(8).standard_normal((3, 3)), grad=True)
        grads = backward(T.sum(T.square(w)))
        np.testing.assert_allclose(grads[w], 2 * w.data, atol=1e-14)

    def test_non_scalar_loss_rejected(self):
        w = t64(np.ones(3), grad=True)
        with pytest.raises(ContractError, match="scalar"):
            backward(T.square(w))

    def test_second_backward_rejected(self):
        w = t64(np.ones(3), grad=True)
        loss = T.sum(T.square(w))
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_reusing_consumed_subgraph_rejected(self):
        w = t64(np.ones(3), grad=True)
        mid = T.square(w)
        backward(T.sum(mid))
        with pytest.raises(GraphError):
            backward(T.sum(T.mul(mid, mid)))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        w_data = rng.standard_normal((4, 4))

        def run():
            w = t64(w_data, grad=True)
            return backward(T.sum(T.softplus(T.matmul(w, w))))[w]

        np.testing.assert_array_equal(run(), run())

    def test_params_argument_fills_zeros(self):
        for dtype in (np.float32, np.float64):
            w = Tensor(np.ones(2, dtype=dtype), requires_grad=True)
            unused = Tensor(np.ones(3, dtype=dtype), requires_grad=True)
            grads = backward(T.sum(T.square(w)), params={"w": w, "unused": unused})
            for g in grads.values():  # arrays of the operand dtype, reached or not
                assert type(g) is np.ndarray and g.dtype == dtype
            np.testing.assert_array_equal(grads[w], np.full(2, 2.0))
            np.testing.assert_array_equal(grads[unused], np.zeros(3))

    def test_constant_inputs_are_not_leaves(self):
        w = t64(np.ones(2), grad=True)
        c = t64([5.0, 7.0])
        grads = backward(T.sum(T.mul(w, c)))
        assert w in grads and c not in grads

    @pytest.mark.parametrize("axis", [-1, (0, 1), None])
    def test_mean_gradient_keeps_float32(self, axis):
        x = Tensor(np.ones((2, 3, 4), dtype=np.float32), requires_grad=True)
        grads = backward(T.sum(T.mean(x, axis=axis)))
        assert grads[x].dtype == np.float32

    def test_vjp_changing_dtype_rejected(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        leaky = T._make(x.data * 2.0, (x,), lambda g: (g.astype(np.float64),))
        with pytest.raises(GraphError, match="float64.*float32"):
            backward(T.sum(leaky))


class TestNoGrad:
    def test_no_graph_built(self):
        w = t64(np.ones(2), grad=True)
        with no_grad():
            out = T.sum(T.square(w))
        assert not out.requires_grad
        with pytest.raises(ContractError):
            backward(out)


class TestLane:
    """The one worker thread the package runs (see ``tensor.lane``): started
    by the first task, joined on every exit, each error delivered, and no
    graph recorded on it. These run in CI at the NumPy floor too."""

    @staticmethod
    def counts():
        return threading.active_count(), os_threads()

    def test_no_thread_until_the_first_submit(self):
        threads = self.counts()
        with T.lane() as submit:
            assert self.counts() == threads
            ran_on = submit(threading.current_thread).result()
            assert ran_on is not threading.current_thread()
            assert threading.active_count() == threads[0] + 1
        assert_threads_back(threads)

    @pytest.mark.parametrize("exit_by", ["return", "caller raises", "task raises"])
    def test_joined_on_every_exit(self, exit_by):
        finished, threads = [], self.counts()

        def slow(n):
            time.sleep(0.05)
            if exit_by == "task raises" and n == 1:
                raise FloatingPointError("task")
            finished.append(n)

        def block():
            with T.lane() as submit:
                futures = [submit(slow, n) for n in range(3)]
                if exit_by == "caller raises":
                    raise FloatingPointError("caller")
                if exit_by == "task raises":
                    futures[1].result()

        if exit_by == "return":
            block()
        else:
            with pytest.raises(FloatingPointError, match=exit_by.split()[0]):
                block()
        # Every task submitted ran before the block was left.
        assert finished == ([0, 2] if exit_by == "task raises" else [0, 1, 2])
        assert_threads_back(threads)

    def test_task_error_reaches_its_reader(self):
        def fail():
            raise FloatingPointError("task")

        with T.lane() as submit:
            failed, fine = submit(fail), submit(math.sqrt, 4.0)
            with pytest.raises(FloatingPointError, match="task"):
                failed.result()
            assert fine.result() == 2.0

    def test_recording_op_on_the_lane_raises(self):
        w = t64(np.ones(3), grad=True)
        with T.lane() as submit:
            with pytest.raises(GraphError, match="lane thread"):
                submit(T.square, w).result()
            with no_grad():
                out = submit(T.square, w).result()
        assert not out.requires_grad
        np.testing.assert_array_equal(out.data, np.ones(3))
        assert T.square(w).requires_grad  # the caller still records


class TestFiniteDifferenceCheck:
    def test_linear_reports_zero(self):
        w = t64(np.random.default_rng(10).standard_normal((3, 2)), grad=True)
        report = finite_difference_check(lambda p: T.sum(p["w"]), {"w": w}, step=1e-5)
        assert report["w"].max_rel_err <= 1e-9

    def test_orthogonality_deviation_gradient(self):
        # f = ||W^T W - I||_F^2 has analytic gradient 4 W (W^T W - I)
        rng = np.random.default_rng(11)
        w = t64(rng.standard_normal((4, 4)), grad=True)

        def f(p):
            dev = T.sub(T.matmul(T.swapaxes(p["w"], -1, -2), p["w"]), t64(np.eye(4)))
            return T.sum(T.square(dev))

        grads = backward(f({"w": w}), params={"w": w})
        analytic = 4.0 * w.data @ (w.data.T @ w.data - np.eye(4))
        np.testing.assert_allclose(grads[w], analytic, rtol=1e-10)
        report = finite_difference_check(f, {"w": w}, step=1e-5)
        assert report["w"].max_rel_err <= 1e-6

    def test_zero_step_rejected(self):
        w = t64(np.ones(2), grad=True)
        with pytest.raises(ContractError):
            finite_difference_check(lambda p: T.sum(p["w"]), {"w": w}, step=0.0)

    def test_nonfinite_marks_failed(self):
        w = t64(np.zeros(1), grad=True)

        def f(p):
            return T.sum(T.sqrt(p["w"]))  # sqrt(-h) is nan

        with np.errstate(invalid="ignore", divide="ignore"):
            report = finite_difference_check(f, {"w": w}, step=1e-5)
        assert report["w"].failed


class TestRandomGraphProperty:
    """Composed graphs of the public ops agree with finite differences."""

    def test_random_compositions(self):
        rng = np.random.default_rng(12)
        unary = [T.softplus, T.sigmoid, T.gelu, T.square,
                 lambda t: T.sqrt(T.add(T.square(t), 1.0)),
                 lambda t: T.mul(t, 0.7), T.abs]
        for trial in range(20):
            rows, inner, cols = rng.integers(2, 5, size=3)
            a = t64(rng.standard_normal((rows, inner)), grad=True)
            b = t64(rng.standard_normal((inner, cols)), grad=True)
            op1 = unary[rng.integers(len(unary))]
            op2 = unary[rng.integers(len(unary))]

            def f(p):
                h = T.matmul(op1(p["a"]), p["b"])
                return T.mean(T.square(op2(h)))

            report = finite_difference_check(f, {"a": a, "b": b}, step=1e-5)
            worst = max(r.max_rel_err for r in report.values())
            assert worst <= 1e-4, f"trial {trial}: rel err {worst}"


class TestStructuralOps:
    def test_concat_and_getitem_gradients(self):
        rng = np.random.default_rng(13)
        a = t64(rng.standard_normal((3, 2)), grad=True)
        b = t64(rng.standard_normal((3, 4)), grad=True)

        def f(p):
            joined = T.concat([p["a"], p["b"]], axis=-1)
            return T.sum(T.square(T.getitem(joined, np.s_[:, 1:5])))

        report = finite_difference_check(f, {"a": a, "b": b}, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-6

    def test_embedding_gradient_scatters(self):
        table = t64(np.random.default_rng(14).standard_normal((6, 3)), grad=True)
        ids = np.array([[1, 1, 4]])
        grads = backward(T.sum(T.embedding(table, ids)))
        expected = np.zeros((6, 3))
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_array_equal(grads[table], expected)

    def test_embedding_rejects_out_of_range(self):
        table = t64(np.zeros((4, 2)), grad=True)
        with pytest.raises(ContractError):
            T.embedding(table, np.array([0, 5]))

    def test_cross_entropy_matches_manual(self):
        logits = t64([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]], grad=True)
        labels = np.array([0, 2])
        loss = T.cross_entropy(logits, labels)
        row0 = math.log(sum(math.exp(v) for v in [2.0, 0.5, -1.0])) - 2.0
        row1 = math.log(3.0)
        assert loss.item() == pytest.approx((row0 + row1) / 2, abs=1e-12)
        report = finite_difference_check(
            lambda p: T.cross_entropy(p["logits"], labels), {"logits": logits}, step=1e-6)
        assert report["logits"].max_rel_err <= 1e-6


class TestSwapaxesView:
    def test_returns_a_view_of_its_operand(self):
        x = t64(np.arange(24.0).reshape(2, 3, 4), grad=True)
        out = T.swapaxes(x, 0, 2)
        assert np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(out.data, np.swapaxes(x.data, 0, 2))
        w = np.random.default_rng(30).standard_normal(out.shape)
        np.testing.assert_array_equal(backward(T.sum(T.mul(out, t64(w))))[x],
                                      w.swapaxes(0, 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [16, 4])
    def test_linear_evaluator_on_strided_heads_equals_contiguous_copies(self, dtype, width):
        """``_heads`` hands the evaluator strided (B, h, L, C) views. At head
        width 16 (every shipped config) and in float64, its output and
        gradients equal those of C-ordered copies bit for bit. At width 4 in
        float32, OpenBLAS's matrix-vector kernel rounds ``qf z`` over a strided
        matrix differently, by one unit in the last place."""
        rng = np.random.default_rng(31)
        mask = np.array([[True] * 5 + [False] * 4, [True] * 9, [True] * 2 + [False] * 7])
        n, h, d = int(mask.sum()), 2, 3
        rows = [rng.uniform(0.1, 2.0, (n, h * width)), rng.uniform(0.1, 2.0, (n, h * width)),
                rng.standard_normal((n, h * d))]
        views = [_heads(Tensor(r.astype(dtype)), h, mask, fill).data
                 for r, fill in zip(rows, (1.0, 1.0, 0.0))]
        assert not any(v.flags.c_contiguous for v in views)
        w = Tensor(rng.standard_normal((3, h, 9, d)).astype(dtype))
        results = []
        for arrays in (views, [np.ascontiguousarray(v) for v in views]):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = kernel_attention_linear(*leaves, np.expand_dims(mask, -2), eps=EPS)
            grads = backward(T.sum(T.mul(out, w)))
            results.append([out.data] + [grads[leaf] for leaf in leaves])
        for strided, contiguous in zip(*results):
            assert strided.dtype == dtype
            if width == 16 or dtype == np.float64:
                np.testing.assert_array_equal(strided, contiguous)
            else:
                np.testing.assert_allclose(strided, contiguous, rtol=4e-7, atol=0)


class TestOneSpelling:
    """The module functions are the only way to build a graph node."""

    def test_operators_raise_type_error(self):
        t = Tensor(np.ones(3))
        # With a reflected operator, numpy would call it once per element
        # and return an object array of separate tensors.
        with pytest.raises(TypeError):
            np.ones(3) + t
        with pytest.raises(TypeError):
            t + 1.0

    def test_no_op_methods_or_aliases(self):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__matmul__", "__getitem__",
                     "sum", "mean", "reshape", "swapaxes", "transpose", "astype",
                     "backward", "numpy", "detach"):
            assert not hasattr(Tensor, name), name
        for name in ("scale", "astype", "GradMap"):
            assert not hasattr(T, name), name


class TestDtypeDiscipline:
    def test_mixed_dtypes_rejected(self):
        a = Tensor(np.zeros(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float64))
        with pytest.raises(ShapeError, match="float32"):
            T.add(a, b)

    def test_ops_preserve_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert T.softplus(x).dtype == np.float32
        assert T.gelu(x).dtype == np.float32
        assert T.softmax_rows(Tensor(np.ones((1, 3), dtype=np.float32))).dtype == np.float32

    def test_determinism_bit_identical(self):
        x = np.random.default_rng(15).standard_normal((8, 8)).astype(np.float32)
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x)).data
        assert np.array_equal(a, b)


class TestGetitemGradient:
    """Basic keys and boolean masks are assigned and must equal the np.add.at
    scatter exactly; keys that may select an element twice are rejected."""

    @staticmethod
    def _grad_and_reference(key):
        rng = np.random.default_rng(16)
        x = t64(rng.standard_normal((4, 5, 3)), grad=True)
        out = T.getitem(x, key)
        w = rng.standard_normal(out.shape)
        grads = backward(T.sum(T.mul(out, t64(w))))
        reference = np.zeros(x.shape)
        np.add.at(reference, key, w)
        report = finite_difference_check(
            lambda p: T.sum(T.mul(T.getitem(p["x"], key), t64(w))), {"x": x}, step=1e-5)
        assert report["x"].max_rel_err <= 1e-6
        return grads[x], reference

    @pytest.mark.parametrize("key", [np.s_[1:3], np.s_[:, ::-2], -1, np.s_[..., 2],
                                     np.s_[None, 2], np.s_[1, None, -2:]],
                             ids=["slice", "negative-step", "negative-int",
                                  "ellipsis-int", "none-int", "int-none-slice"])
    def test_basic_keys_equal_scatter_exactly(self, key):
        assert T._is_basic_key(key)
        grad, reference = self._grad_and_reference(key)
        np.testing.assert_array_equal(grad, reference)

    @pytest.mark.parametrize("key", [np.array([2, 0, 2, 2]), np.s_[[1, 1], :, 0], True,
                                     (0, np.bool_(True))],
                             ids=["repeated-ints", "repeated-list", "bool-scalar",
                                  "int-bool-scalar"])
    def test_repeatable_keys_rejected(self, key):
        x = t64(np.zeros((4, 5, 3)), grad=True)
        with pytest.raises(ShapeError, match="basic keys and boolean masks only"):
            T.getitem(x, key)

    def test_bool_scalar_key_is_advanced(self):
        assert not T._is_basic_key(True)
        assert not T._is_basic_key((0, np.bool_(True)))
        assert T._is_basic_key((np.int64(1), slice(None)))
        assert not T._is_bool_mask(True) and not T._is_bool_mask(np.bool_(True))

    _MASK = np.random.default_rng(18).random((4, 5)) < 0.6

    @pytest.mark.parametrize("key", [np.array([True, False, True, True]), _MASK,
                                     np.random.default_rng(19).random((4, 5, 3)) < 0.5,
                                     np.ones((4, 5), bool), np.zeros(4, bool)],
                             ids=["rows", "leading-2d", "full-shape", "all-true", "all-false"])
    def test_bool_masks_assign_and_equal_scatter_exactly(self, key):
        assert T._is_bool_mask(key)
        grad, reference = self._grad_and_reference(key)
        np.testing.assert_array_equal(grad, reference)


class TestUnpack:
    def test_inverts_boolean_gather_in_row_major_order(self):
        mask = np.array([[True, False, True], [False, True, True]])
        x = t64(np.arange(8.0).reshape(4, 2))
        out = T.unpack(x, mask, fill=-1.0).data
        assert out.shape == (2, 3, 2)
        np.testing.assert_array_equal(out[mask], x.data)
        np.testing.assert_array_equal(out[~mask], -1.0)
        np.testing.assert_array_equal(out[0, 2], [2.0, 3.0])
        np.testing.assert_array_equal(T.unpack(x, mask).data[~mask], 0.0)

    @pytest.mark.parametrize("mask", [np.array([[True, False, True, True],
                                                [False, True, False, True]]),
                                      np.ones((2, 4), bool)], ids=["padded", "no-padding"])
    def test_gradient_gathers_and_matches_finite_differences(self, mask):
        rng = np.random.default_rng(20)
        x = t64(rng.standard_normal((int(mask.sum()), 3)), grad=True)
        w = rng.standard_normal(mask.shape + (3,))
        grads = backward(T.sum(T.mul(T.unpack(x, mask, fill=1.0), t64(w))))
        np.testing.assert_array_equal(grads[x], w[mask])
        report = finite_difference_check(
            lambda p: T.sum(T.mul(T.unpack(p["x"], mask, fill=2.0), t64(w))),
            {"x": x}, step=1e-5)
        assert report["x"].max_rel_err <= 1e-6

    def test_no_padding_gives_the_reshaped_rows(self):
        x = t64(np.arange(12.0).reshape(6, 2))
        np.testing.assert_array_equal(T.unpack(x, np.ones((2, 3), bool), fill=5.0).data,
                                      x.data.reshape(2, 3, 2))

    def test_row_count_must_match_mask(self):
        with pytest.raises(ShapeError, match="3 True"):
            T.unpack(t64(np.zeros((2, 4))), np.array([True, True, True, False]))


class TestEmbeddingGradient:
    def test_repeated_and_absent_ids_match_scatter(self):
        rng = np.random.default_rng(17)
        table = t64(rng.standard_normal((9, 4)), grad=True)
        ids = np.array([[3, 1, 3, 7], [7, 3, 0, 1]])  # rows 2, 4, 5, 6, 8 never read
        w = rng.standard_normal((2, 4, 4))
        grads = backward(T.sum(T.mul(T.embedding(table, ids), t64(w))))
        reference = np.zeros(table.shape)
        np.add.at(reference, ids.reshape(-1), w.reshape(-1, 4))
        np.testing.assert_allclose(grads[table], reference, rtol=0, atol=1e-12)
        absent = [2, 4, 5, 6, 8]
        assert np.all(grads[table][absent] == 0.0)
        report = finite_difference_check(
            lambda p: T.sum(T.mul(T.embedding(p["t"], ids), t64(w))), {"t": table}, step=1e-5)
        assert report["t"].max_rel_err <= 1e-6

    def test_empty_ids_give_zero_gradient(self):
        table = t64(np.ones((3, 2)), grad=True)
        out = T.embedding(table, np.zeros((0,), dtype=np.int64))
        (grad,) = out._node.vjp(np.zeros((0, 2)))
        np.testing.assert_array_equal(grad, np.zeros((3, 2)))


class TestSaturatedLogistic:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_and_softplus_at_large_magnitude(self, dtype):
        tiny = np.finfo(dtype).tiny
        x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = T.sigmoid(x)
            sp = T.softplus(x)
            grads = backward(T.sum(T.add(s, sp)))
        assert s.dtype == sp.dtype == grads[x].dtype == dtype
        for out in (s.data, sp.data, grads[x]):
            assert np.all(np.isfinite(out))
        assert s.data[0] == tiny and sp.data[0] == tiny
        assert s.data[-1] == 1.0 and sp.data[-1] == dtype(1e4)
        assert np.all(s.data >= tiny) and np.all(sp.data >= tiny)
        # d/dx [sigmoid + softplus] = s (1 - s) + s; both terms vanish at -1e4
        np.testing.assert_allclose(grads[x], s.data * (1 - s.data) + s.data,
                                   rtol=1e-6, atol=tiny)

    def test_gradients_match_finite_differences(self):
        x = t64(np.linspace(-4.0, 4.0, 13), grad=True)
        report = finite_difference_check(
            lambda p: T.sum(T.mul(T.sigmoid(p["x"]), T.softplus(p["x"]))), {"x": x}, step=1e-5)
        assert report["x"].max_rel_err <= 1e-6


class TestScipyOracles:
    """The vectorized float32 erf and the logistic against scipy.special."""

    def test_erf32_against_float64_erf(self):
        x = np.linspace(-8.0, 8.0, 1_000_001, dtype=np.float32)
        scratch = [np.empty(x.size, np.float32) for _ in range(3)]
        got = T._erf32(x.copy(), *scratch)
        assert np.abs(got - erf(x.astype(np.float64))).max() <= 5e-7
        np.testing.assert_array_equal(T._erf32(-x, *scratch), -got)
        assert np.abs(got).max() <= 1.0
        special = T._erf32(np.array([np.nan, np.inf, -np.inf], dtype=np.float32), *scratch)
        assert np.isnan(special[0]) and special[1] == 1.0 and special[2] == -1.0

    def test_float32_gelu_bit_identical_to_unblocked_formula(self):
        # The FFN inner of a long-eval batch: whole erf blocks and a partial last one.
        x = (np.random.default_rng(24).standard_normal((7000, 128)) * 3).astype(np.float32)
        assert x.size > T._ERF32_BLOCK and x.size % T._ERF32_BLOCK
        cdf = np.multiply(x, 1.0 / math.sqrt(2.0))
        T._erf32(cdf.reshape(-1), *[np.empty(x.size, np.float32) for _ in range(3)])
        cdf += 1.0
        cdf *= 0.5
        g = np.random.default_rng(25).standard_normal(x.shape).astype(np.float32)
        pdf = np.exp(np.float32(-0.5) * x * x) * np.float32(1.0 / math.sqrt(2.0 * math.pi))
        tx = Tensor(x, requires_grad=True)
        y = T.gelu(tx)
        np.testing.assert_array_equal(y.data, x * cdf)
        grads = backward(T.sum(T.mul(y, Tensor(g))))
        np.testing.assert_array_equal(grads[tx], g * (cdf + x * pdf))

    def test_float32_gelu_against_exact(self):
        x = np.linspace(-8.0, 8.0, 100_001, dtype=np.float32)
        x64 = x.astype(np.float64)
        exact = x64 * 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
        out = T.gelu(Tensor(x)).data
        assert out.dtype == np.float32
        assert np.abs(out - exact).max() <= 2e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["transposed", "strided"])
    def test_gelu_of_a_view_equals_gelu_of_its_copy(self, dtype, view):
        # Larger than one erf block, with a partial last one, so every block
        # is written back.
        rows = T._ERF32_BLOCK // 100
        base = (np.random.default_rng(21).standard_normal((rows, 258)) * 3).astype(dtype)
        x = base.T if view == "transposed" else base[:, ::2]
        assert not x.flags.c_contiguous
        assert x.size > T._ERF32_BLOCK and x.size % T._ERF32_BLOCK
        dense = np.ascontiguousarray(x)
        tx, td = Tensor(x, requires_grad=True), Tensor(dense, requires_grad=True)
        yx, yd = T.gelu(tx), T.gelu(td)
        np.testing.assert_array_equal(yx.data, yd.data)
        np.testing.assert_array_equal(backward(T.sum(yx))[tx],
                                      backward(T.sum(yd))[td])

    def test_float64_gelu_bit_identical_to_formula(self):
        x = np.random.default_rng(22).standard_normal((64, 33)) * 4
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        cdf = 0.5 * (1.0 + erf(x * inv_sqrt2))
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        g = np.random.default_rng(23).standard_normal(x.shape)
        tx = t64(x, grad=True)
        y = T.gelu(tx)
        np.testing.assert_array_equal(y.data, x * cdf)
        grads = backward(T.sum(T.mul(y, t64(g))))
        np.testing.assert_array_equal(grads[tx], g * (cdf + x * pdf))

    def test_zero_dimensional_inputs(self):
        for dtype in (np.float32, np.float64):
            for op in (T.gelu, T.sigmoid, T.softplus):
                x = Tensor(np.array(1.5, dtype=dtype), requires_grad=True)
                y = op(x)
                grad = backward(y)[x]
                assert y.shape == grad.shape == () and y.dtype == grad.dtype == dtype
            assert T._logistic(np.array(1.5, dtype=dtype)).shape == ()

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 4e-7), (np.float64, 1e-15)])
    def test_logistic_against_expit(self, dtype, rtol):
        x = np.concatenate([np.linspace(-20.0, 20.0, 400_001),
                            np.linspace(-700.0, 700.0, 140_001)]).astype(dtype)
        ref = expit(x)
        got = T._logistic(x)
        assert got.dtype == dtype
        normal = ref >= np.finfo(dtype).tiny
        rel = np.abs(got[normal].astype(np.float64) - ref[normal]) / ref[normal]
        assert rel.max() <= rtol
        # Below the smallest normal both are floored by sigmoid.
        np.testing.assert_array_equal(np.maximum(got[~normal], np.finfo(dtype).tiny),
                                      np.maximum(ref[~normal], np.finfo(dtype).tiny))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 4e-7), (np.float64, 1e-15)])
    def test_softplus_gradient_against_expit(self, dtype, rtol):
        x = np.concatenate([np.linspace(-20.0, 20.0, 400_001),
                            np.linspace(-700.0, 700.0, 140_001)]).astype(dtype)
        tx = Tensor(x, requires_grad=True)
        got = backward(T.sum(T.softplus(tx)))[tx]
        ref = expit(x.astype(np.float64))
        assert got.dtype == dtype
        tiny = np.finfo(dtype).tiny
        normal = ref >= tiny
        assert (np.abs(got[normal] - ref[normal]) / ref[normal]).max() <= rtol
        # Where the logistic is below the smallest normal, softplus is floored
        # there, and so is its gradient.
        assert np.all((got[~normal] >= 0) & (got[~normal] <= tiny))


class TestConstantOperands:
    """A VJP computes no gradient for an operand that does not require one."""

    OPS = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div, "matmul": T.matmul}

    @pytest.mark.parametrize("name", sorted(OPS))
    @pytest.mark.parametrize("const_at", [0, 1], ids=["const-a", "const-b"])
    def test_constant_gets_none_and_params_zero_filled(self, name, const_at):
        op = self.OPS[name]
        rng = np.random.default_rng(18)
        w = t64(rng.uniform(0.5, 2.0, (3, 4)), grad=True)
        if name == "matmul":
            c_shape = (3, 3) if const_at == 0 else (4, 4)
        else:
            c_shape = (3, 1)  # broadcast like a padding mask
        c = t64(rng.uniform(0.5, 2.0, c_shape))

        def call(wt):
            return op(c, wt) if const_at == 0 else op(wt, c)

        out = call(w)
        pieces = out._node.vjp(np.ones_like(out.data))
        assert pieces[const_at] is None
        assert pieces[1 - const_at].shape == w.shape

        unused = t64(np.ones(2), grad=True)
        grads = backward(T.sum(call(w)), params={"w": w, "c": c, "unused": unused})
        np.testing.assert_array_equal(grads[c], np.zeros(c.shape))
        np.testing.assert_array_equal(grads[unused], np.zeros(2))
        report = finite_difference_check(lambda p: T.sum(T.square(call(p["w"]))), {"w": w},
                                         step=1e-6)
        assert report["w"].max_rel_err <= 1e-6

    def test_both_trainable_still_get_both(self):
        a = t64(np.ones((2, 2)), grad=True)
        b = t64(np.full((2, 2), 2.0), grad=True)
        pieces = T.div(a, b)._node.vjp(np.ones((2, 2)))
        np.testing.assert_array_equal(pieces[0], np.full((2, 2), 0.5))
        np.testing.assert_array_equal(pieces[1], np.full((2, 2), -0.25))


def trainable(shape, seed=0):
    """A tensor that needs a gradient and, unlike a leaf, whose array the
    graph does not hold by itself: the output of an op."""
    rng = np.random.default_rng(seed)
    return T.add(t64(rng.uniform(0.5, 2.0, shape), grad=True), 0.0)


def constant(shape, seed=1):
    return t64(np.random.default_rng(seed).uniform(0.5, 2.0, shape))


PACK_MASK = np.array([[True, True, False], [True, False, False]])

# Per op: its operands, the call, and the arrays its graph keeps until
# backward ("out" is the op's own output). Everything else is freed as soon
# as the caller drops it.
KEPT = {
    "add": (lambda: {"a": trainable((2, 3)), "b": trainable((3,))}, T.add, set()),
    "sub": (lambda: {"a": trainable((2, 3)), "b": trainable((2, 1))}, T.sub, set()),
    "mul": (lambda: {"a": trainable((2, 3)), "b": trainable((3,))}, T.mul, {"a", "b"}),
    "mul-const-a": (lambda: {"a": constant((2, 3)), "b": trainable((3,))}, T.mul, {"a"}),
    "mul-const-b": (lambda: {"a": trainable((2, 3)), "b": constant((3,))}, T.mul, {"b"}),
    "div": (lambda: {"a": trainable((2, 3)), "b": trainable((2, 1))}, T.div, {"b", "out"}),
    "div-const-a": (lambda: {"a": constant((2, 3)), "b": trainable((2, 1))}, T.div,
                    {"b", "out"}),
    "div-const-b": (lambda: {"a": trainable((2, 3)), "b": constant((2, 1))}, T.div, {"b"}),
    "matmul": (lambda: {"a": trainable((2, 3)), "b": trainable((3, 4))}, T.matmul,
               {"a", "b"}),
    "matmul-const-a": (lambda: {"a": constant((2, 3)), "b": trainable((3, 4))}, T.matmul,
                       {"a"}),
    "matmul-const-b": (lambda: {"a": trainable((2, 3)), "b": constant((3, 4))}, T.matmul,
                       {"b"}),
    "square": (lambda: {"x": trainable((2, 3))}, T.square, {"x"}),
    "abs": (lambda: {"x": trainable((2, 3))}, T.abs, {"x"}),
    # gelu keeps its derivative, computed in the forward pass, instead of x
    # (TestTapeContract checks that backward releases it).
    "gelu": (lambda: {"x": trainable((2, 3))}, T.gelu, set()),
    "sigmoid": (lambda: {"x": trainable((2, 3))}, T.sigmoid, {"out"}),
    "softplus": (lambda: {"x": trainable((2, 3))}, T.softplus, {"out"}),
    "sqrt": (lambda: {"x": trainable((2, 3))}, T.sqrt, {"out"}),
    "softmax_rows": (lambda: {"x": trainable((2, 3))}, T.softmax_rows, {"out"}),
    "sum": (lambda: {"x": trainable((2, 3))}, lambda x: T.sum(x, axis=0), set()),
    "mean": (lambda: {"x": trainable((2, 3))}, lambda x: T.mean(x, axis=-1), set()),
    "reshape": (lambda: {"x": trainable((2, 3))}, lambda x: T.reshape(x, (3, 2)), set()),
    "swapaxes": (lambda: {"x": trainable((2, 3))}, lambda x: T.swapaxes(x, 0, 1), set()),
    "concat": (lambda: {"a": trainable((2, 3)), "b": trainable((2, 1))},
               lambda a, b: T.concat([a, b], axis=-1), set()),
    "getitem": (lambda: {"x": trainable((2, 3))}, lambda x: T.getitem(x, (slice(1), 2)),
                set()),
    "getitem-mask": (lambda: {"x": trainable((2, 3, 4))},
                     lambda x: T.getitem(x, PACK_MASK), set()),
    "unpack": (lambda: {"x": trainable((3, 4))}, lambda x: T.unpack(x, PACK_MASK), set()),
    "embedding": (lambda: {"table": trainable((5, 3))},
                  lambda table: T.embedding(table, np.array([[4, 0], [4, 1]])), set()),
    "cross_entropy": (lambda: {"logits": trainable((2, 3))},
                      lambda logits: T.cross_entropy(logits, np.array([0, 2])), set()),
}


class TestTapeContract:
    """A graph links nodes, not tensors, and each VJP keeps only what it reads."""

    def test_every_public_op_has_a_row(self):
        ops = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__
               and not name.startswith("_")} - {"no_grad", "backward", "finite_difference_check"}
        assert {case.split("-")[0] for case in KEPT} == ops

    @pytest.mark.parametrize("case", sorted(KEPT))
    def test_graph_keeps_only_what_the_vjp_reads(self, case):
        build, op, kept = KEPT[case]
        operands = build()
        arrays = {name: weakref.ref(t.data) for name, t in operands.items()}
        out = op(**operands)
        arrays["out"] = weakref.ref(out.data)
        loss = T.sum(out)
        del operands, out
        assert {name for name, ref in arrays.items() if ref() is not None} == kept
        backward(loss)
        assert [name for name, ref in arrays.items() if ref() is not None] == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_keeps_one_derivative_array_until_backward(self, dtype):
        x = T.add(Tensor(np.linspace(-3.0, 3.0, 6, dtype=dtype).reshape(2, 3),
                         requires_grad=True), 0.0)
        out = T.gelu(x)
        kept = [cell.cell_contents for cell in out._node.vjp.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert [(a.shape, a.dtype) for a in kept] == [(x.shape, dtype)]
        derivative = weakref.ref(kept[0])
        del kept
        backward(T.sum(out))
        assert derivative() is None

    def test_forward_tape_holds_under_half_of_what_the_ops_made(self, monkeypatch):
        # One f32 configs/listops.cfg micro-batch, with dropout: the bytes still
        # live once the forward pass returns, against the bytes of every op
        # output. A tape of whole tensors holds about all of them; this one
        # holds 44%. Allocation sizes are fixed by the data, so the figure
        # repeats exactly.
        cfg = parse_config_file(CONFIGS / "listops.cfg")
        cfg.task.data_seed = 1
        train_ds, _ = cfg.task.build()
        model = build_model(cfg.model, 1, dtype=np.float32)
        batch = next(batch_iter(train_ds, cfg.micro_batch, cfg.model.max_len, shuffle_seed=1))
        made = [0]
        make = T._make

        def counting_make(out, prev, vjp):
            made[0] += out.nbytes
            return make(out, prev, vjp)

        monkeypatch.setattr(T, "_make", counting_make)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, _ = _forward_loss(model, batch, rng)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert live <= 0.5 * made[0], f"{live} live bytes of {made[0]} made"
        backward(loss)


FAULT_PROBE = """
import resource
import numpy as np
import linattn

def one_round():
    arrays = [np.ones(1 << 20, dtype=np.float32) for _ in range(4)]
    del arrays

for _ in range(3):
    one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one_round()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


class FakeLibc:
    def __init__(self, *answers):
        self.answers = list(answers)
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.answers.pop(0)


class TestMallocPolicy:
    @pytest.mark.skipif(T._glibc() is None, reason="the policy is set on glibc only")
    def test_freed_arrays_are_reused_without_faults(self):
        src = str(Path(T.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        faults_per_round = float(out.stdout)
        assert faults_per_round < 64, f"{faults_per_round} minor faults per round"
        assert T.MALLOC_POLICY == {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30,
                                   "arena_max": 1}

    def test_rejected_mmap_threshold_sets_nothing_else(self):
        libc = FakeLibc(0)
        assert T._set_malloc_policy(libc) is None
        assert libc.calls == [(-3, 32 << 20)]

    def test_both_thresholds_set_mmap_first(self):
        libc = FakeLibc(1, 1, 1)
        assert T._set_malloc_policy(libc) == {"mmap_threshold": 32 << 20,
                                             "trim_threshold": 1 << 30, "arena_max": 1}
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]

    def test_refused_settings_record_none(self):
        libc = FakeLibc(1, 0, 0)
        assert T._set_malloc_policy(libc) == {"mmap_threshold": 32 << 20,
                                             "trim_threshold": None, "arena_max": None}
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]
