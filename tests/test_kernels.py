"""Feature-map kernels: analytic values, positivity, factorization, penalty."""

import numpy as np
import pytest

import linattn.tensor as T
from linattn.errors import ConfigError, ShapeError
from linattn.kernels import (KernelSpec, aoglu_rank, drawer, feature_layer, init_kernel_params,
                             kernel_stack_forward, orthogonal_init, orthogonality_penalty,
                             regularized_matrices)
from linattn.model import named_tensors
from linattn.tensor import Tensor, backward, finite_difference_check

LN2 = 0.6931471805599453
SOFTPLUS_1 = 1.3132616875182228
SOFTPLUS_M1 = 0.3132616875182228
SIGMOID_1 = 0.7310585786300049
SOFTPLUS_2_TIMES_SIGMOID_2 = 1.8733919771959595

ALL_VARIANT_DEPTHS = [(v, d) for v in ("linear_softplus", "glu", "oglu", "aoglu")
                      for d in (1, 2, 3)]


def softplus_layer(x, w):
    return feature_layer(x, {"w_feat": w}, T.softplus)


def gated_layer(x, w_feat, w_gate, act):
    return feature_layer(x, {"w_feat": w_feat, "w_gate": w_gate}, act)


def low_rank_layer(x, w_feat, gate_in, gate_out):
    return feature_layer(x, {"w_feat": w_feat, "gate_in": gate_in, "gate_out": gate_out},
                         T.softplus)


def param_count(layers):
    return sum(t.size for t in named_tensors(layers).values())


class TestKernelSpec:
    def test_aoglu_rank_bounds(self):
        assert [aoglu_rank(n) for n in (4, 6, 7, 8, 10, 16)] == [1, 1, 1, 2, 2, 4]
        for n in (2, 3):
            with pytest.raises(ConfigError, match=f"head width >= 4 .*, got {n}$"):
                aoglu_rank(n)
            with pytest.raises(ConfigError, match=f"head width >= 4 .*, got {n}$"):
                init_kernel_params(KernelSpec(variant="aoglu"), n, drawer(0))

    def test_depth_capped(self):
        with pytest.raises(ConfigError):
            KernelSpec(variant="glu", depth=4)
        with pytest.raises(ConfigError):
            KernelSpec(variant="glu", depth=0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            KernelSpec(variant="relu")


class TestOrthogonalInit:
    def test_one_by_one_is_sign(self):
        for seed in range(20):
            q = orthogonal_init(1, seed)
            assert q.shape == (1, 1)
            assert abs(abs(q[0, 0]) - 1.0) < 1e-15

    def test_orthonormal_at_n8(self):
        q = orthogonal_init(8, 123)
        assert np.abs(q.T @ q - np.eye(8)).max() <= 1e-12

    def test_different_seeds_differ(self):
        a = orthogonal_init(8, 1)
        b = orthogonal_init(8, 2)
        assert np.abs(a - b).max() > 1e-3

    def test_float32_tolerance(self):
        q = orthogonal_init(16, 5, dtype=np.float32)
        assert np.abs(q.astype(np.float64).T @ q.astype(np.float64) - np.eye(16)).max() <= 1e-6


class TestLinearKernel:
    def test_zero_input_gives_ln2(self):
        w = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
        out = softplus_layer(Tensor(np.zeros((3, 4))), w)
        np.testing.assert_allclose(out.data, LN2, atol=1e-12)

    def test_identity_weights(self):
        out = softplus_layer(Tensor(np.array([[1.0, -1.0]])), Tensor(np.eye(2)))
        np.testing.assert_allclose(out.data, [[SOFTPLUS_1, SOFTPLUS_M1]], atol=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(1)
        out = softplus_layer(Tensor(rng.normal(0, 3, (200, 6))),
                             Tensor(rng.standard_normal((6, 6))))
        assert out.data.min() > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            softplus_layer(Tensor(np.zeros((2, 3))), Tensor(np.eye(4)))


class TestGLU:
    def test_identity_weights(self):
        out = gated_layer(Tensor(np.array([[1.0, 0.0]])), Tensor(np.eye(2)), Tensor(np.eye(2)),
                          None)
        np.testing.assert_allclose(out.data, [[SIGMOID_1, 0.0]], atol=1e-12)

    def test_gate_closes(self):
        # sigmoid(-50 x) -> 0 for positive inputs, shutting the gate
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(0.5, 2.0, size=(10, 4)))
        out = gated_layer(x, Tensor(np.eye(4)), Tensor(-50.0 * np.eye(4)), None)
        assert np.abs(out.data).max() < 1e-9

    def test_gradient(self):
        rng = np.random.default_rng(3)
        params = {
            "x": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            "wf": Tensor(rng.standard_normal((4, 4)), requires_grad=True),
            "wg": Tensor(rng.standard_normal((4, 4)), requires_grad=True),
        }

        def f(p):
            return T.sum(T.square(gated_layer(p["x"], p["wf"], p["wg"], None)))

        report = finite_difference_check(f, params, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-5


class TestOGLUOutput:
    def test_zero_input(self):
        rng = np.random.default_rng(4)
        out = gated_layer(Tensor(np.zeros((2, 4))), Tensor(rng.standard_normal((4, 4))),
                          Tensor(rng.standard_normal((4, 4))), T.softplus)
        np.testing.assert_allclose(out.data, LN2 * 0.5, atol=1e-12)

    def test_identity_at_two(self):
        out = gated_layer(Tensor(np.array([[2.0]])), Tensor(np.eye(1)), Tensor(np.eye(1)),
                          T.softplus)
        assert out.item() == pytest.approx(SOFTPLUS_2_TIMES_SIGMOID_2, abs=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(5)
        out = gated_layer(Tensor(rng.normal(0, 3, (500, 6))), Tensor(rng.standard_normal((6, 6))),
                          Tensor(rng.standard_normal((6, 6))), T.softplus)
        assert out.data.min() > 0


class TestAOGLU:
    def test_matches_materialized_gate(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((20, 8)))
        w_feat = Tensor(rng.standard_normal((8, 8)))
        gate_in = Tensor(rng.standard_normal((8, 2)))
        gate_out = Tensor(rng.standard_normal((2, 8)))
        factored = low_rank_layer(x, w_feat, gate_in, gate_out)
        dense = gated_layer(x, w_feat, Tensor(gate_in.data @ gate_out.data), T.softplus)
        assert np.abs(factored.data - dense.data).max() <= 1e-12

    def test_parameter_reduction_arithmetic(self):
        n, r = 64, 16
        spec = KernelSpec(variant="aoglu", depth=1)
        params = init_kernel_params(spec, n, drawer(0, np.float64))
        assert param_count(params) == n * n + 2 * n * r == 6144
        glu_params = init_kernel_params(KernelSpec(variant="glu", depth=1), n, drawer(0))
        assert param_count(glu_params) == 2 * n * n == 8192
        assert param_count(params) == int(0.75 * param_count(glu_params))

    def test_zero_input_gates_at_half(self):
        rng = np.random.default_rng(7)
        out = low_rank_layer(Tensor(np.zeros((3, 8))), Tensor(rng.standard_normal((8, 8))),
                             Tensor(rng.standard_normal((8, 3))),
                             Tensor(rng.standard_normal((3, 8))))
        np.testing.assert_allclose(out.data, LN2 * 0.5, atol=1e-12)


class TestKernelStack:
    def test_depth1_linear_reduces_to_single_layer(self):
        rng = np.random.default_rng(9)
        spec = KernelSpec("linear_softplus", 1)
        params = init_kernel_params(spec, 8, drawer(rng, np.float64))
        x = Tensor(rng.standard_normal((5, 8)))
        stacked = kernel_stack_forward(x, params)
        direct = softplus_layer(x, params[0]["w_feat"])
        np.testing.assert_array_equal(stacked.data, direct.data)

    def test_depth1_identity_weights_equal_softplus(self):
        params = [{"w_feat": Tensor(np.eye(8), requires_grad=True)}]
        x = Tensor(np.random.default_rng(10).standard_normal((4, 8)))
        out = kernel_stack_forward(x, params)
        np.testing.assert_array_equal(out.data, T.softplus(x).data)

    @pytest.mark.parametrize("variant,depth", ALL_VARIANT_DEPTHS)
    def test_positivity_sweep(self, variant, depth):
        rng = np.random.default_rng(hash((variant, depth)) % 2**32)
        spec = KernelSpec(variant, depth)
        params = init_kernel_params(spec, 8, drawer(rng, np.float64))
        x = Tensor(rng.normal(0.0, 3.0, size=(10_000, 8)))
        out = kernel_stack_forward(x, params)
        assert out.data.min() > 0

    def test_depth2_oglu_composes_plain_then_positive_output(self):
        rng = np.random.default_rng(20)
        spec = KernelSpec("oglu", 2)
        params = init_kernel_params(spec, 8, drawer(rng, np.float64))
        x = Tensor(rng.standard_normal((6, 8)))
        stacked = kernel_stack_forward(x, params)
        l0, l1 = params
        manual = gated_layer(gated_layer(x, l0["w_feat"], l0["w_gate"], None),
                             l1["w_feat"], l1["w_gate"], T.softplus)
        np.testing.assert_array_equal(stacked.data, manual.data)
        assert stacked.data.min() > 0

    def test_depth3_linear_softplus_runs_inner_layers_under_gelu(self):
        rng = np.random.default_rng(21)
        params = init_kernel_params(KernelSpec("linear_softplus", 3), 8, drawer(rng, np.float64))
        x = Tensor(rng.standard_normal((6, 8)))
        w0, w1, w2 = (layer["w_feat"] for layer in params)
        manual = T.softplus(T.matmul(T.gelu(T.matmul(T.gelu(T.matmul(x, w0)), w1)), w2))
        np.testing.assert_array_equal(kernel_stack_forward(x, params).data, manual.data)

    def test_depth2_aoglu_composes_plain_then_low_rank_output(self):
        rng = np.random.default_rng(22)
        params = init_kernel_params(KernelSpec("aoglu", 2), 8, drawer(rng, np.float64))
        x = Tensor(rng.standard_normal((6, 8)))
        l0, l1 = params
        manual = low_rank_layer(gated_layer(x, l0["w_feat"], l0["w_gate"], None),
                                l1["w_feat"], l1["gate_in"], l1["gate_out"])
        np.testing.assert_array_equal(kernel_stack_forward(x, params).data, manual.data)

    def test_depth3_aoglu_param_count_by_construction(self):
        spec = KernelSpec(variant="aoglu", depth=3)
        params = init_kernel_params(spec, 64, drawer(0))
        # two full-rank gated layers plus one low-rank output layer
        assert param_count(params) == 2 * 8192 + 6144 == 22528

    @pytest.mark.parametrize("variant,depth", ALL_VARIANT_DEPTHS)
    def test_stack_gradients(self, variant, depth):
        rng = np.random.default_rng(11)
        spec = KernelSpec(variant, depth)
        kp = init_kernel_params(spec, 8, drawer(rng, np.float64))
        x = Tensor(rng.standard_normal((4, 8)))
        named = named_tensors(kp)

        def f(_):
            return T.mean(T.square(kernel_stack_forward(x, kp)))

        report = finite_difference_check(f, named, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-5


class TestOrthogonalityPenalty:
    def test_zero_at_orthogonal(self):
        w = Tensor(orthogonal_init(6, 3), requires_grad=True)
        assert orthogonality_penalty([w], 1.0).item() <= 1e-10

    def test_scaled_identity(self):
        w = Tensor(2.0 * np.eye(2), requires_grad=True)
        assert orthogonality_penalty([w], 1.0).item() == pytest.approx(18.0, abs=1e-12)

    def test_plain_glu_has_empty_set(self):
        spec = KernelSpec("glu", 2)
        params = init_kernel_params(spec, 8, drawer(0, np.float64))
        mats = regularized_matrices(spec, params)
        assert mats == []
        assert orthogonality_penalty(mats, 1.0).item() == 0.0

    def test_regularized_sets(self):
        for variant, expected_per_layer in (("linear_softplus", 1), ("oglu", 1), ("aoglu", 1)):
            spec = KernelSpec(variant, 3)
            params = init_kernel_params(spec, 8, drawer(0, np.float64))
            assert len(regularized_matrices(spec, params)) == 3 * expected_per_layer

    def test_gradient_matches_analytic(self):
        rng = np.random.default_rng(13)
        w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        grads = backward(orthogonality_penalty([w], 1.0), params={"w": w})
        analytic = 4.0 * w.data @ (w.data.T @ w.data - np.eye(5))
        np.testing.assert_allclose(grads[w], analytic, rtol=1e-10)
        report = finite_difference_check(
            lambda p: orthogonality_penalty([p["w"]], 1.0), {"w": w}, step=1e-5)
        assert report["w"].max_rel_err <= 1e-6


class TestInitialization:
    def test_orthogonal_flag_respected(self):
        spec = KernelSpec(variant="oglu", depth=2)
        params = init_kernel_params(spec, 16, drawer(0, np.float64))
        for layer in params:
            w = layer["w_feat"].data
            assert np.abs(w.T @ w - np.eye(16)).max() <= 1e-12

    def test_uniform_bound(self):
        spec = KernelSpec(variant="glu", depth=1)
        params = init_kernel_params(spec, 16, drawer(0, np.float64))
        bound = 1.0 / np.sqrt(16)
        for layer in params:
            for t in layer.values():
                assert np.abs(t.data).max() <= bound

    def test_deterministic_by_seed(self):
        spec = KernelSpec("aoglu", 2)
        a = init_kernel_params(spec, 8, drawer(42, np.float64))
        b = init_kernel_params(spec, 8, drawer(42, np.float64))
        for la, lb in zip(a, b):
            for k in la:
                np.testing.assert_array_equal(la[k].data, lb[k].data)
