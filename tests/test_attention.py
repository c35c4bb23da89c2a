"""Attention evaluators: oracle equivalence, masking, hull, gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

import linattn.tensor as T
from linattn.attention import (init_attention_params, kernel_attention_linear,
                               kernel_attention_quadratic, multi_head_kernel_attention,
                               softmax_attention)
from linattn.errors import ContractError, ShapeError
from linattn.kernels import KernelSpec, init_kernel_params, kernel_stack_forward
from linattn.model import ModelConfig, named_tensors
from linattn.tensor import Tensor, backward, finite_difference_check

ALL_VARIANT_DEPTHS = [(v, d) for v in ("linear_softplus", "glu", "oglu", "aoglu")
                      for d in (1, 2, 3)]


def make_spec(variant, depth, n=8):
    return KernelSpec(variant=variant, depth=depth,
                      gate_rank=n // 4 if variant == "aoglu" else 0)


def layer_config(spec, d_model, n_heads, eps=0.0):
    """A ``ModelConfig`` for one ``kernel_linear`` attention layer; the
    layer reads only its width, head count, kernel spec, eps and kind."""
    return ModelConfig(d_model=d_model, n_heads=n_heads, kernel=spec, eps=eps)


def init_layer(cfg, seed, dtype=np.float32):
    return init_attention_params(cfg, np.random.default_rng(seed), dtype=dtype)


def random_features(rng, length, feat, val):
    """Strictly positive query/key features plus values."""
    qf = Tensor(rng.uniform(0.1, 2.0, size=(length, feat)))
    kf = Tensor(rng.uniform(0.1, 2.0, size=(length, feat)))
    v = Tensor(rng.standard_normal((length, val)))
    return qf, kf, v


class TestSoftmaxAttention:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((1, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        out = softmax_attention(q, k, v, np.ones(1, bool))
        np.testing.assert_array_equal(out.data, v.data)

    def test_equal_logits_average_unmasked(self):
        length = 6
        q = Tensor(np.zeros((length, 4)))
        k = Tensor(np.random.default_rng(1).standard_normal((length, 4)))
        v = Tensor(np.random.default_rng(2).standard_normal((length, 3)))
        mask = np.array([True, True, True, True, False, False])
        out = softmax_attention(q, k, v, mask)
        expected = v.data[:4].mean(axis=0)
        np.testing.assert_allclose(out.data, np.tile(expected, (length, 1)), atol=1e-12)

    def test_two_by_two_hand_case(self):
        # Q = K = I2 with d = 2: row i logits are e_i / sqrt(2)
        q = Tensor(np.eye(2))
        v = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = softmax_attention(q, Tensor(np.eye(2)), v, np.ones(2, bool))
        w_hi = math.exp(1 / math.sqrt(2)) / (math.exp(1 / math.sqrt(2)) + math.exp(0.0))
        expected = np.array([[w_hi, 1 - w_hi], [1 - w_hi, w_hi]])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_all_masked_rejected(self):
        q = Tensor(np.zeros((2, 3)))
        with pytest.raises(ContractError):
            softmax_attention(q, q, q, np.zeros(2, bool))


class TestQuadraticEvaluator:
    def test_single_key(self):
        rng = np.random.default_rng(3)
        qf, kf, v = random_features(rng, 1, 4, 5)
        out = kernel_attention_quadratic(qf, kf, v, np.ones(1, bool))
        np.testing.assert_allclose(out.data, v.data, atol=1e-14)

    def test_constant_keys_average_values(self):
        rng = np.random.default_rng(4)
        length = 8
        qf = Tensor(rng.uniform(0.1, 2.0, size=(length, 4)))
        kf = Tensor(np.tile(rng.uniform(0.5, 1.5, size=(1, 4)), (length, 1)))
        v = Tensor(rng.standard_normal((length, 3)))
        out = kernel_attention_quadratic(qf, kf, v, np.ones(length, bool))
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (length, 1)),
                                   atol=1e-12)

    def test_nonpositive_features_rejected(self):
        rng = np.random.default_rng(5)
        qf, kf, v = random_features(rng, 4, 4, 4)
        bad = Tensor(qf.data * np.where(np.arange(4) == 2, -1.0, 1.0)[:, None])
        with pytest.raises(ContractError, match="positive"):
            kernel_attention_quadratic(bad, kf, v, np.ones(4, bool))


class TestLinearEvaluator:
    def test_single_key_eps_bound(self):
        rng = np.random.default_rng(6)
        qf, kf, v = random_features(rng, 1, 4, 5)
        exact = kernel_attention_linear(qf, kf, v, np.ones(1, bool), eps=0.0)
        np.testing.assert_allclose(exact.data, v.data, atol=1e-14)
        eps = 1e-6
        perturbed = kernel_attention_linear(qf, kf, v, np.ones(1, bool), eps=eps)
        denom = float((qf.data @ kf.data.T).item())
        bound = eps * np.linalg.norm(v.data) / denom
        assert np.linalg.norm(perturbed.data - v.data) <= bound + 1e-15

    @pytest.mark.parametrize("variant,depth", ALL_VARIANT_DEPTHS)
    def test_oracle_equivalence(self, variant, depth):
        rng = np.random.default_rng(7)
        spec = make_spec(variant, depth)
        worst = 0.0
        for _ in range(20):
            kp = init_kernel_params(spec, 8, rng, dtype=np.float64)
            length = int(rng.integers(2, 65))
            d = int(rng.integers(2, 17))
            qf = kernel_stack_forward(Tensor(rng.standard_normal((length, 8))), spec, kp)
            kf = kernel_stack_forward(Tensor(rng.standard_normal((length, 8))), spec, kp)
            v = Tensor(rng.standard_normal((length, d)))
            mask = np.ones(length, bool)
            if length > 2:
                mask[rng.random(length) < 0.25] = False
                mask[0] = True
            lin = kernel_attention_linear(qf, kf, v, mask, eps=0.0)
            quad = kernel_attention_quadratic(qf, kf, v, mask, eps=0.0)
            worst = max(worst, float(np.abs(lin.data - quad.data).max()))
        assert worst <= 1e-10

    @pytest.mark.parametrize("variant", ("linear_softplus", "glu", "oglu", "aoglu"))
    def test_f32_long_length_matches_f64_oracle(self, variant):
        # same weights: the f32 linear path against the f64 quadratic oracle,
        # depth 2, about 30% of positions masked
        rng = np.random.default_rng(12)
        spec = make_spec(variant, 2)
        kp64 = init_kernel_params(spec, 8, rng, dtype=np.float64)
        kp32 = [{k: Tensor(t.data.astype(np.float32)) for k, t in layer.items()}
                for layer in kp64]
        worst = 0.0
        with T.no_grad():
            for length in (512, 2048, 4096):
                x_q, x_k = rng.standard_normal((2, length, 8))
                v = rng.standard_normal((length, 8))
                mask = rng.random(length) >= 0.3
                mask[0] = True

                def attend(kp, dtype, evaluator):
                    qf = kernel_stack_forward(Tensor(x_q.astype(dtype)), spec, kp)
                    kf = kernel_stack_forward(Tensor(x_k.astype(dtype)), spec, kp)
                    return evaluator(qf, kf, Tensor(v.astype(dtype)), mask, eps=0.0).data

                lin = attend(kp32, np.float32, kernel_attention_linear)
                quad = attend(kp64, np.float64, kernel_attention_quadratic)
                assert lin.dtype == np.float32
                worst = max(worst, float(np.abs(lin.astype(np.float64) - quad).max()))
        assert worst <= 1e-6

    def test_masked_positions_do_not_contribute(self):
        rng = np.random.default_rng(8)
        length, feat, val = 10, 5, 4
        qf, kf, v = random_features(rng, length, feat, val)
        base = kernel_attention_linear(qf, kf, v, np.ones(length, bool), eps=0.0)

        extra = 4
        qf_ext = Tensor(np.vstack([qf.data, rng.uniform(0.1, 2.0, (extra, feat))]))
        kf_ext = Tensor(np.vstack([kf.data, rng.uniform(0.1, 2.0, (extra, feat))]))
        v_ext = Tensor(np.vstack([v.data, rng.standard_normal((extra, val)) * 100]))
        mask = np.concatenate([np.ones(length, bool), np.zeros(extra, bool)])
        ext = kernel_attention_linear(qf_ext, kf_ext, v_ext, mask, eps=0.0)
        assert np.abs(ext.data[:length] - base.data).max() <= 1e-12

    def test_convex_hull_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            length = int(rng.integers(2, 32))
            qf, kf, v = random_features(rng, length, 6, 5)
            mask = np.ones(length, bool)
            mask[rng.random(length) < 0.3] = False
            mask[0] = True
            out = kernel_attention_linear(qf, kf, v, mask, eps=0.0).data
            lo = v.data[mask].min(axis=0) - 1e-12
            hi = v.data[mask].max(axis=0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_permutation_equivariance_of_key_value_pairs(self):
        rng = np.random.default_rng(10)
        length = 12
        qf, kf, v = random_features(rng, length, 5, 4)
        mask = np.ones(length, bool)
        base = kernel_attention_linear(qf, kf, v, mask, eps=0.0)
        perm = rng.permutation(length)
        shuffled = kernel_attention_linear(qf, Tensor(kf.data[perm]), Tensor(v.data[perm]),
                                           mask[perm], eps=0.0)
        assert np.abs(base.data - shuffled.data).max() <= 1e-12

    def test_gradients_flow(self):
        rng = np.random.default_rng(11)
        length = 6
        params = {
            "qf_pre": Tensor(rng.standard_normal((length, 4)), requires_grad=True),
            "kf_pre": Tensor(rng.standard_normal((length, 4)), requires_grad=True),
            "v": Tensor(rng.standard_normal((length, 3)), requires_grad=True),
        }
        mask = np.array([True] * 4 + [False] * 2)

        def f(p):
            qf = T.softplus(p["qf_pre"])
            kf = T.softplus(p["kf_pre"])
            return T.sum(T.square(kernel_attention_linear(qf, kf, p["v"], mask, eps=0.0)))

        report = finite_difference_check(f, params, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-5


class TestMultiHead:
    def test_single_head_reduces_to_pipeline(self):
        rng = np.random.default_rng(12)
        spec = make_spec("oglu", 1)
        cfg = layer_config(spec, 8, 1)
        params = init_layer(cfg, 0, dtype=np.float64)
        x = Tensor(rng.standard_normal((5, 8)))
        mask = np.ones(5, bool)
        out = multi_head_kernel_attention(x, params, cfg, mask)

        q = T.matmul(x, params.w_q)
        k = T.matmul(x, params.w_k)
        v = T.matmul(x, params.w_v)
        qf = kernel_stack_forward(q, spec, params.head_kernels[0])
        kf = kernel_stack_forward(k, spec, params.head_kernels[0])
        manual = T.matmul(kernel_attention_linear(qf, kf, v, mask, eps=0.0), params.w_o)
        np.testing.assert_allclose(out.data, manual.data, atol=1e-13)

    @pytest.mark.parametrize("n_heads,head_dim", [(2, 8), (4, 16)])
    def test_output_shape(self, n_heads, head_dim):
        rng = np.random.default_rng(13)
        d_model = n_heads * head_dim
        cfg = layer_config(make_spec("glu", 2, n=head_dim), d_model, n_heads)
        params = init_layer(cfg, 1, dtype=np.float64)
        assert len(params.head_kernels) == n_heads
        mask = np.ones((3, 10), bool)
        x = Tensor(rng.standard_normal((3, 10, d_model))[mask])
        out = multi_head_kernel_attention(x, params, cfg, mask)
        assert out.shape == (30, d_model)

    def test_matches_quadratic_replica(self):
        rng = np.random.default_rng(14)
        cfg = layer_config(make_spec("aoglu", 2), 16, 2)
        params = init_layer(cfg, 2, dtype=np.float64)
        mask = np.ones((2, 14), bool)
        mask[1, -5:] = False
        x = Tensor(rng.standard_normal((2, 14, 16))[mask])
        quad_cfg = replace(cfg, attention_kind="kernel_quadratic")
        lin = multi_head_kernel_attention(x, params, cfg, mask)
        quad = multi_head_kernel_attention(x, params, quad_cfg, mask)
        assert np.abs(lin.data - quad.data).max() <= 1e-9

    def test_full_layer_gradients(self):
        rng = np.random.default_rng(15)
        cfg = layer_config(make_spec("oglu", 1, n=4), 8, 2)
        params = init_layer(cfg, 3, dtype=np.float64)
        mask = np.array([True] * 5 + [False])
        x = Tensor(rng.standard_normal((6, 8))[mask])
        named = named_tensors(params)

        def f(_):
            out = multi_head_kernel_attention(x, params, cfg, mask)
            return T.mean(T.square(out))

        report = finite_difference_check(f, named, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-4

    def test_f32_long_length_gradients_match_f64(self):
        # One layer at L = 2048 with about 30% of positions masked: each
        # parameter's f32 gradient against the f64 gradient of the same weights.
        rng = np.random.default_rng(19)
        cfg = layer_config(make_spec("oglu", 1, n=16), 64, 4, eps=1e-6)
        mask = rng.random((2, 2048)) >= 0.3
        x = rng.standard_normal((int(mask.sum()), 64))
        c = rng.standard_normal(x.shape)
        named64 = named_tensors(init_layer(cfg, 8, dtype=np.float64))

        def gradients(dtype):
            params = init_layer(cfg, 8, dtype=dtype)
            named = named_tensors(params)
            for name, t in named.items():
                t.data = named64[name].data.astype(dtype)
            out = multi_head_kernel_attention(Tensor(x.astype(dtype)), params, cfg, mask)
            grads = backward(T.mean(T.mul(T.square(out), Tensor(c.astype(dtype)))),
                             params=named)
            return {name: grads[t] for name, t in named.items()}

        g32, g64 = gradients(np.float32), gradients(np.float64)
        for name, ref in g64.items():
            assert g32[name].dtype == np.float32
            err = np.abs(g32[name].astype(np.float64) - ref).max()
            assert err <= 1e-5 * np.abs(ref).max(), name

    @pytest.mark.parametrize("kind", ["kernel_linear", "softmax"], ids=["kernel", "softmax"])
    def test_only_packed_rows_accepted(self, kind):
        rng = np.random.default_rng(18)
        cfg = replace(layer_config(make_spec("oglu", 2), 16, 2), attention_kind=kind)
        params = init_layer(cfg, 7, dtype=np.float64)
        x = rng.standard_normal((3, 9, 16))
        mask = np.arange(9) < np.array([9, 4, 1])[:, None]

        def run(inp):
            return multi_head_kernel_attention(Tensor(inp), params, cfg, mask)
        assert run(x[mask]).shape == (14, 16)
        for bad in (x, x[mask][:-1], x[mask][:, :8]):
            with pytest.raises(ShapeError, match=r"\(14, 16\)"):
                run(bad)

    def test_dimension_mismatch(self):
        cfg = layer_config(make_spec("glu", 1), 16, 2)
        params = init_layer(cfg, 5)
        with pytest.raises(ShapeError):
            multi_head_kernel_attention(Tensor(np.zeros((4, 8))), params, cfg,
                                        np.ones(4, bool))

    def test_softmax_baseline_shape_and_grads(self):
        rng = np.random.default_rng(17)
        cfg = replace(layer_config(make_spec("glu", 1), 16, 2), attention_kind="softmax")
        params = init_layer(cfg, 6, dtype=np.float64)
        assert params.head_kernels == []
        mask = np.ones((2, 7), bool)
        mask[0, -2:] = False
        x = Tensor(rng.standard_normal((2, 7, 16))[mask])
        out = multi_head_kernel_attention(x, params, cfg, mask)
        assert out.shape == (12, 16)
        named = {"w_q": params.w_q, "w_o": params.w_o}

        def f(_):
            return T.mean(T.square(multi_head_kernel_attention(x, params, cfg, mask)))

        report = finite_difference_check(f, named, step=1e-5)
        assert max(r.max_rel_err for r in report.values()) <= 1e-5
