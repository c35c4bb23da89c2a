"""Encoder model: determinism, invariances, accounting, checkpointing."""

import contextlib
import json
import struct
import threading
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import linattn.attention
import linattn.kernels
import linattn.model
import linattn.tensor as T
import linattn.training
from linattn.attention import multi_head_kernel_attention
from linattn.config import parse_config_file
from linattn.data import gen_text_classification, batch_iter
from linattn.errors import ConfigError, ContractError, DataError
from linattn.kernels import KernelSpec
from linattn.model import (ModelConfig, ParamAccount, build_model,
                           closed_form_params, count_params, forward_classify, forward_match,
                           load_checkpoint, save_checkpoint)
from linattn.tensor import Tensor, backward
from linattn.training import Adam
from conftest import assert_threads_back, lanes_off, os_threads

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LISTOPS_CFG = CONFIGS / "listops.cfg"


def small_config(**overrides):
    base = dict(vocab_size=16, d_model=16, n_heads=2, n_layers=2,
                ffn_dim=32, max_len=32, classes=3,
                kernel=KernelSpec(variant="oglu", depth=1),
                attention_kind="kernel_linear", dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def random_batch(cfg, b=4, length=20, seed=0):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(1, cfg.vocab_size, size=(b, length))
    mask = np.ones((b, length), bool)
    return tokens, mask


def padded_hidden(model, tokens, mask):
    """Final hidden states (B, L, d) of the encoder run on the padded batch,
    as the encoder ran before it packed its rows: the reference for what
    the pooling reads at the real positions."""
    cfg = model.config
    h = T.add(T.embedding(model.embed_tokens, tokens),
              T.getitem(model.embed_pos, np.s_[:tokens.shape[1]]))
    for blk in model.blocks:
        normed = T.getitem(model._layer_norm(h, blk.ln1_gamma, blk.ln1_beta), mask)
        attn_out = multi_head_kernel_attention(normed, blk.attn, cfg, mask)
        h = T.add(h, T.unpack(attn_out, mask))
        normed = model._layer_norm(h, blk.ln2_gamma, blk.ln2_beta)
        inner = T.gelu(T.add(T.matmul(normed, blk.ffn_w1), blk.ffn_b1))
        h = T.add(h, T.add(T.matmul(inner, blk.ffn_w2), blk.ffn_b2))
    return model._layer_norm(h, model.final_gamma, model.final_beta).data


def classify_head(model, pooled):
    return pooled @ model.head["w"].data + model.head["b"].data


class TestConfigValidation:
    @pytest.mark.parametrize("d_model, n_heads, match", [
        (30, 4, "split into n_heads"), (4, 4, "split into n_heads"),
        (0, 4, "d_model must be >= 1"), (-64, 4, "d_model must be >= 1"),
        (64, 0, "n_heads must be >= 1"),
    ])
    def test_head_split(self, d_model, n_heads, match):
        with pytest.raises(ConfigError, match=match):
            small_config(d_model=d_model, n_heads=n_heads)

    @pytest.mark.parametrize("d_model", [4, 6], ids=["width-2", "width-3"])
    def test_aoglu_needs_head_width_four(self, d_model):
        with pytest.raises(ConfigError, match=f"head width >= 4 .*, got {d_model // 2}$"):
            small_config(d_model=d_model, n_heads=2, kernel=KernelSpec(variant="aoglu"))

    def test_head_dim_is_derived(self):
        assert small_config(d_model=48, n_heads=3).head_dim == 16
        assert "head_dim" not in asdict(small_config())
        assert "head_dim" not in asdict(small_config())["kernel"]

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            small_config(dropout_rate=1.0)

    def test_sizes_at_least_one(self):
        for field in ("max_len", "n_layers", "ffn_dim"):
            with pytest.raises(ConfigError, match=field):
                small_config(**{field: -2})

    def test_unknown_attention_kind(self):
        with pytest.raises(ConfigError, match="attention_kind"):
            small_config(attention_kind="flash")

    @pytest.mark.parametrize("field, value, match", [
        ("variant", "bogus", "variant must be one of"),
        ("depth", 4, "depth must be in"),
    ], ids=["bogus-variant", "deep-stack"])
    def test_kernel_spec_mutated_after_parsing_rejected(self, field, value, match):
        cfg = parse_config_file(LISTOPS_CFG).model
        setattr(cfg.kernel, field, value)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()
        with pytest.raises(ConfigError, match=match):
            build_model(cfg, seed=0)


class TestBuildModel:
    def test_same_seed_identical(self):
        cfg = small_config()
        a = build_model(cfg, seed=9, dtype=np.float64).named_parameters()
        b = build_model(cfg, seed=9, dtype=np.float64).named_parameters()
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        cfg = small_config()
        a = build_model(cfg, seed=1).named_parameters()
        b = build_model(cfg, seed=2).named_parameters()
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_orthogonal_init_applied(self):
        cfg = small_config()
        model = build_model(cfg, seed=3, dtype=np.float32)
        for w in model.regularized_matrices():
            w64 = w.data.astype(np.float64)
            assert np.abs(w64.T @ w64 - np.eye(w.shape[0])).max() <= 1e-5

    def test_forward_shape(self):
        cfg = small_config()
        model = build_model(cfg, seed=4, dtype=np.float64)
        tokens, mask = random_batch(cfg, b=5, length=32)
        logits = forward_classify(model, tokens, mask)
        assert logits.shape == (5, cfg.classes)


class TestForwardClassify:
    def test_identical_sequences_identical_rows(self):
        cfg = small_config()
        model = build_model(cfg, seed=5, dtype=np.float32)
        tokens, mask = random_batch(cfg, b=1, length=16)
        tokens = np.tile(tokens, (6, 1))
        mask = np.tile(mask, (6, 1))
        logits = forward_classify(model, tokens, mask).data
        assert np.abs(logits - logits[0]).max() <= 1e-6

    def test_padding_extension_invariance(self):
        cfg = small_config()
        model = build_model(cfg, seed=6, dtype=np.float32)
        tokens, mask = random_batch(cfg, b=3, length=20)
        base = forward_classify(model, tokens, mask).data
        pad = np.zeros((3, 6), dtype=tokens.dtype)
        ext = forward_classify(model, np.concatenate([tokens, pad], axis=1),
                               np.concatenate([mask, np.zeros((3, 6), bool)], axis=1)).data
        assert np.abs(base - ext).max() <= 1e-5

    def test_untrained_accuracy_near_chance(self):
        cfg = small_config(vocab_size=32, classes=2, max_len=64)
        model = build_model(cfg, seed=7, dtype=np.float32)
        ds = gen_text_classification(0, 1000, length=64, vocab_size=32, classes=2)
        correct = 0
        with T.no_grad():
            for batch in batch_iter(ds, 128, 64):
                preds = np.argmax(forward_classify(model, batch.tokens, batch.mask).data,
                                  axis=-1)
                correct += int((preds == batch.labels).sum())
        acc = correct / len(ds)
        assert abs(acc - 0.5) <= 0.10

    def test_out_of_vocab_rejected(self):
        cfg = small_config()
        model = build_model(cfg, seed=8)
        tokens, mask = random_batch(cfg)
        tokens[0, 0] = cfg.vocab_size
        with pytest.raises(DataError):
            forward_classify(model, tokens, mask)

    def test_dropout_only_in_training(self):
        cfg = small_config(dropout_rate=0.5)
        model = build_model(cfg, seed=9, dtype=np.float32)
        tokens, mask = random_batch(cfg)
        a = forward_classify(model, tokens, mask).data
        b = forward_classify(model, tokens, mask).data
        np.testing.assert_array_equal(a, b)
        rng = np.random.default_rng(0)
        c = forward_classify(model, tokens, mask, rng=rng).data
        assert np.abs(a - c).max() > 1e-6
        np.testing.assert_array_equal(forward_classify(model, tokens, mask, rng=None).data, a)


def reference_scales(rng, mask, widths, rate, dtype):
    """Keep scales as drawn at the padded shape and then gathered."""
    return [(rng.random(mask.shape + (w,)) >= rate)[mask].astype(dtype) / (1.0 - rate)
            for w in widths]


def rng_state(rng):
    """The state of a ``Generator`` or a ``RandomState``, as a dict."""
    if isinstance(rng, np.random.Generator):
        return rng.bit_generator.state
    return rng.get_state(legacy=False)


class TestDropoutStream:
    """Dropout draws each site at the padded shape on the encoder's lane:
    every scale and the stream's final state match ``reference_scales``.
    These run in CI at the NumPy floor too, pinning the padded stream
    there."""

    MASKS = {
        "prefix": np.arange(12) < np.array([12, 7, 3, 12, 1])[:, None],
        "holes": np.array([[0, 0, 1, 1, 1, 0, 1, 1], [0, 1, 1, 1, 0, 0, 0, 1],
                           [1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0, 1, 0]], bool),
        "full": np.ones((3, 9), bool),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_scales_and_stream_match_the_padded_draw(self, name, dtype):
        mask = self.MASKS[name]
        cfg = small_config()
        widths = [1, cfg.d_model, cfg.ffn_dim, 1]
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        with T.lane() as submit:
            got = list(linattn.model._keep_scales(submit, rng, 0.1, mask, widths, dtype))
        for g, want in zip(got, reference_scales(twin, mask, widths, 0.1, dtype), strict=True):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, want)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()

    def test_buffered_half_word_survives(self):
        mask = self.MASKS["holes"]
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        for r in (rng, twin):
            r.integers(0, 7, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"]
        with T.lane() as submit:
            list(linattn.model._keep_scales(submit, rng, 0.5, mask, [5], np.float32))
        reference_scales(twin, mask, [5], 0.5, np.float32)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.integers(0, 7, dtype=np.uint32) == twin.integers(0, 7, dtype=np.uint32)

    def test_encode_matches_the_padded_draw(self, monkeypatch):
        cfg = small_config(dropout_rate=0.3)
        model = build_model(cfg, seed=12, dtype=np.float32)
        mask = self.MASKS["prefix"]
        tokens = np.where(mask, 1 + np.arange(mask.size).reshape(mask.shape) % 15, 0)
        got = forward_classify(model, tokens, mask, rng=np.random.default_rng(5)).data

        def padded(submit, rng, rate, mask, widths, dtype):
            return iter(reference_scales(rng, mask, widths, rate, dtype))

        monkeypatch.setattr(linattn.model, "_keep_scales", padded)
        want = forward_classify(model, tokens, mask, rng=np.random.default_rng(5)).data
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("make", [lambda: np.random.Generator(np.random.MT19937(0)),
                                      lambda: np.random.Generator(np.random.Philox(0)),
                                      lambda: np.random.RandomState(0)],
                             ids=["MT19937", "Philox", "RandomState"])
    def test_any_rng_drives_dropout(self, monkeypatch, make):
        cfg = small_config(dropout_rate=0.1)
        model = build_model(cfg, seed=13)
        mask = self.MASKS["holes"]
        tokens = np.where(mask, 5, 0)
        rng, twin = make(), make()
        got = []

        def capture(x, scale):
            got.append(scale)
            return x

        monkeypatch.setattr(linattn.model, "_dropout", capture)
        forward_classify(model, tokens, mask, rng=rng)
        widths = [cfg.d_model, cfg.ffn_dim] * cfg.n_layers
        for g, want in zip(got, reference_scales(twin, mask, widths, 0.1, np.float32),
                           strict=True):
            np.testing.assert_array_equal(g, want)
        np.testing.assert_equal(rng_state(rng), rng_state(twin))

    def test_raising_encode_joins_and_finishes_the_stream(self):
        cfg = small_config(dropout_rate=0.1)
        model = build_model(cfg, seed=14)
        model.blocks[1].attn.head_kernels.pop()
        mask = self.MASKS["prefix"]
        tokens = np.where(mask, 3, 0)
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        threads = threading.active_count(), os_threads()
        with pytest.raises(ConfigError, match="feature stacks"):
            forward_classify(model, tokens, mask, rng=rng)
        assert (threading.active_count(), os_threads()) == threads
        reference_scales(twin, mask, [cfg.d_model, cfg.ffn_dim] * cfg.n_layers, 0.1, np.float32)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_no_thread_without_dropout(self, monkeypatch):
        threaded = lanes_off(monkeypatch)
        tokens, mask = random_batch(small_config())
        forward_classify(build_model(small_config(dropout_rate=0.1), seed=16), tokens, mask)
        forward_classify(build_model(small_config(), seed=16), tokens, mask,
                         rng=np.random.default_rng(8))
        assert threaded == []


class TestRowSplit:
    """Without a graph or an ``rng`` and at ``OVERLAP_MIN_ELEMENTS`` packed
    elements, ``encode`` hands its lane to each attention layer and runs its
    layer norms and FFN sub-blocks on two row halves cut at a multiple of 64,
    the first on the lane: the same bits as one thread, one lane thread per
    encode, and one thread otherwise. These run in CI at the NumPy floor too,
    whose BLAS must keep the bits at the cut as well."""

    # Sequence lengths by packed row count N: N mod 64 is 0, 1, 2 and 3
    # (cut 128, 128, 64 and 192), and at N = 127 the cut is 0.
    LENGTHS = {256: [100, 96, 60], 321: [128, 128, 65], 194: [120, 74],
               387: [128, 3, 128, 128], 127: [64, 63]}

    @staticmethod
    def model(head, dtype, rate=0.1):
        cfg = ModelConfig(vocab_size=16, d_model=64, n_heads=4, n_layers=2, ffn_dim=128,
                          max_len=128, classes=2 if head == "match" else 3,
                          kernel=KernelSpec("oglu", 1), dropout_rate=rate, head=head)
        return build_model(cfg, seed=31, dtype=dtype)

    @classmethod
    def batch(cls, rows, seed):
        lengths = np.array(cls.LENGTHS[rows])
        mask = np.arange(lengths.max()) < lengths[:, None]
        return np.where(mask, np.random.default_rng(seed).integers(1, 16, mask.shape), 0), mask

    @staticmethod
    def sub_block_rows(monkeypatch):
        """Record whether each row-wise sub-block ran on the caller, and on how many rows."""
        seen, caller = set(), threading.current_thread()
        for name in ("_layer_norm", "_ffn_residual"):
            def spy(self, x, *args, original=getattr(linattn.model.Model, name)):
                seen.add((threading.current_thread() is caller, x.shape[0]))
                return original(self, x, *args)

            monkeypatch.setattr(linattn.model.Model, name, spy)
        return seen

    @staticmethod
    def layer_lanes(monkeypatch):
        """Record, for each attention layer an encode runs, whether it got a lane."""
        seen, layer = [], linattn.model.multi_head_kernel_attention

        def spy(x, params, config, mask, submit):
            seen.append(submit is not None)
            return layer(x, params, config, mask, submit)

        monkeypatch.setattr(linattn.model, "multi_head_kernel_attention", spy)
        return seen

    @pytest.mark.parametrize("rows", sorted(LENGTHS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head", ["classify", "match"])
    def test_halves_keep_every_bit(self, monkeypatch, head, dtype, rows):
        model = self.model(head, dtype)
        sides = [self.batch(rows, seed) for seed in (1, 2)]
        seen = self.sub_block_rows(monkeypatch)
        threads = threading.active_count(), os_threads()
        out = {}
        for floor in (0, 1 << 62):
            monkeypatch.setattr(linattn.model, "OVERLAP_MIN_ELEMENTS", floor)
            seen.clear()
            with T.no_grad():
                pooled = [model.encode(*side).data for side in sides]
                logits = (forward_classify(model, *sides[0]) if head == "classify"
                          else forward_match(model, *sides[0], *sides[1])).data
            out[floor] = pooled + [logits]
            cut = rows // 2 // 64 * 64 if floor == 0 else 0
            assert seen == ({(False, cut), (True, rows - cut)} if cut else {(True, rows)})
        assert_threads_back(threads)
        assert out[0][0].dtype == dtype
        for split, whole in zip(out[0], out[1 << 62], strict=True):
            np.testing.assert_array_equal(split, whole)

    def test_worker_runs_at_the_floor(self, monkeypatch):
        model = self.model("classify", np.float32)
        tokens, mask = self.batch(256, 1)
        seen, lanes = self.sub_block_rows(monkeypatch), self.layer_lanes(monkeypatch)
        monkeypatch.setattr(linattn.model, "OVERLAP_MIN_ELEMENTS", 256 * 64)
        with T.no_grad():
            model.encode(tokens, mask)
        assert seen == {(False, 128), (True, 128)}
        assert lanes == [True, True]

    @pytest.mark.parametrize("case", ["graph", "rng", "below the floor"])
    def test_no_worker(self, monkeypatch, case):
        model = self.model("classify", np.float32, rate=0.0)
        tokens, mask = self.batch(256, 1)
        floor = 256 * 64 + 1 if case == "below the floor" else 0
        monkeypatch.setattr(linattn.model, "OVERLAP_MIN_ELEMENTS", floor)
        seen, lanes = self.sub_block_rows(monkeypatch), self.layer_lanes(monkeypatch)
        rng = np.random.default_rng(0) if case == "rng" else None
        with contextlib.nullcontext() if case == "graph" else T.no_grad():
            pooled = model.encode(tokens, mask, rng=rng)
        assert pooled.requires_grad == (case == "graph")
        assert seen == {(True, 256)}
        assert lanes == [False, False]

    def test_one_lane_thread_per_encode(self, monkeypatch):
        made = []

        class Counted(linattn.tensor.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(linattn.tensor, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(linattn.model, "OVERLAP_MIN_ELEMENTS", 256 * 64)
        model = self.model("classify", np.float32)
        with T.no_grad():
            model.encode(*self.batch(256, 1))
        assert len(made) == 1


class TestForwardMatch:
    def test_identical_pair_encodes_equal(self):
        cfg = small_config(head="match", classes=2)
        model = build_model(cfg, seed=10, dtype=np.float64)
        tokens, mask = random_batch(cfg)
        u = model.encode(tokens, mask).data
        v = model.encode(tokens, mask).data
        np.testing.assert_array_equal(u, v)
        assert np.abs(u - v).max() == 0.0

    def test_swap_consistency_of_encoders(self):
        cfg = small_config(head="match", classes=2)
        model = build_model(cfg, seed=11, dtype=np.float64)
        ta, ma = random_batch(cfg, seed=1)
        tb, mb = random_batch(cfg, seed=2)
        u1 = model.encode(ta, ma).data
        v1 = model.encode(tb, mb).data
        u2 = model.encode(tb, mb).data
        v2 = model.encode(ta, ma).data
        np.testing.assert_array_equal(u1, v2)
        np.testing.assert_array_equal(v1, u2)

    def test_output_shape(self):
        cfg = small_config(head="match", classes=2)
        model = build_model(cfg, seed=12)
        ta, ma = random_batch(cfg, seed=3)
        tb, mb = random_batch(cfg, seed=4)
        out = forward_match(model, ta, ma, tb, mb)
        assert out.shape == (4, 2)

    def test_head_kind_enforced(self):
        cfg = small_config()
        model = build_model(cfg, seed=13)
        tokens, mask = random_batch(cfg)
        with pytest.raises(ConfigError):
            forward_match(model, tokens, mask, tokens, mask)


def closed_form_base(cfg: ModelConfig) -> int:
    d, f = cfg.d_model, cfg.ffn_dim
    per_block = 4 * d * d + (d * f + f) + (f * d + d) + 4 * d
    total = cfg.vocab_size * d + cfg.max_len * d + cfg.n_layers * per_block + 2 * d
    if cfg.head == "classify":
        total += d * cfg.classes + cfg.classes
    else:
        total += 4 * d * d + d + d * 2 + 2
    return total


def kernel_formula(spec: KernelSpec, n: int) -> int:
    r = n // 4
    if spec.variant == "linear_softplus":
        per_layer = [n * n] * spec.depth
    elif spec.variant in ("glu", "oglu"):
        per_layer = [2 * n * n] * spec.depth
    else:
        per_layer = [2 * n * n] * (spec.depth - 1) + [n * n + 2 * n * r]
    return sum(per_layer)


class TestCountParams:
    @pytest.mark.parametrize("cfg", [
        small_config(),
        small_config(n_layers=1, ffn_dim=64, head="match", classes=2,
                     kernel=KernelSpec(variant="aoglu", depth=2)),
        small_config(vocab_size=24, d_model=32, n_heads=4, max_len=16,
                     kernel=KernelSpec(variant="linear_softplus", depth=3)),
    ])
    def test_closed_form(self, cfg):
        model = build_model(cfg, seed=14)
        account = count_params(model)
        assert account.base_params == closed_form_base(cfg)
        expected_kernel = cfg.n_layers * cfg.n_heads * kernel_formula(cfg.kernel, cfg.head_dim)
        assert account.kernel_params == expected_kernel

    def test_glu_doubles_linear(self):
        h, n = 4, 16
        glu_cfg = small_config(d_model=h * n, n_heads=h, n_layers=1,
                               kernel=KernelSpec(variant="glu", depth=1))
        lin_cfg = small_config(d_model=h * n, n_heads=h, n_layers=1,
                               kernel=KernelSpec(variant="linear_softplus", depth=1))
        glu_count = count_params(build_model(glu_cfg, 0)).kernel_params
        lin_count = count_params(build_model(lin_cfg, 0)).kernel_params
        assert glu_count == 2 * lin_count
        assert lin_count == h * n * n == 1024

    def test_aoglu_quarter_rank_is_three_quarters_of_glu(self):
        h, n = 2, 16
        glu_cfg = small_config(d_model=h * n, n_heads=h, n_layers=1,
                               kernel=KernelSpec(variant="glu", depth=1))
        ao_cfg = small_config(d_model=h * n, n_heads=h, n_layers=1,
                              kernel=KernelSpec(variant="aoglu", depth=1))
        glu_count = count_params(build_model(glu_cfg, 0)).kernel_params
        ao_count = count_params(build_model(ao_cfg, 0)).kernel_params
        assert 4 * ao_count == 3 * glu_count

    # aoglu at head widths 4 to 16: 6 and 10 are not multiples of 4.
    @pytest.mark.parametrize("source", [
        "softmax", "match-aoglu3", "aoglu-n4", "aoglu-n6", "aoglu-n10", "aoglu-n16",
        *sorted(p.name for p in CONFIGS.glob("*.cfg"))])
    def test_closed_form_params_matches_count(self, source):
        if source == "softmax":
            cfg = small_config(attention_kind="softmax")
        elif source == "match-aoglu3":
            cfg = small_config(head="match", classes=2,
                               kernel=KernelSpec(variant="aoglu", depth=3))
        elif source.startswith("aoglu-n"):
            cfg = small_config(d_model=2 * int(source[7:]),
                               kernel=KernelSpec(variant="aoglu", depth=2))
        else:
            cfg = parse_config_file(CONFIGS / source).model
        assert closed_form_params(cfg) == count_params(build_model(cfg, seed=0))

    def test_softmax_model_has_no_kernel_params(self):
        cfg = small_config(attention_kind="softmax")
        account = count_params(build_model(cfg, 0))
        assert account.kernel_params == 0
        assert account.ratio == 0.0


class TestParameterTree:
    def test_listops_names_each_parameter_once_by_path(self):
        model = build_model(parse_config_file(LISTOPS_CFG).model, seed=0)
        named = model.named_parameters()
        assert len(named) == 46
        assert len({id(t) for t in named.values()}) == 46
        names = list(named)
        assert names[0] == "embed_tokens" and names[-1] == "head.b"
        assert "blocks.1.attn.head_kernels.3.0.w_gate" in named
        kernel = sum(t.size for name, t in named.items() if "_kernels." in name)
        assert count_params(model).kernel_params == kernel == 4096


class TestBudgetCheck:
    def test_zero_kernel_passes(self):
        account = ParamAccount(base_params=1000, kernel_params=0)
        assert account.within_budget and account.ratio == 0.0

    def test_exactly_at_limit_fails(self):
        assert not ParamAccount(base_params=1000, kernel_params=100).within_budget

    def test_just_below_passes(self):
        assert ParamAccount(base_params=1000, kernel_params=99).within_budget

    def test_triple_gated_stack_small_backbone_fails(self):
        cfg = ModelConfig(vocab_size=32, d_model=64, n_heads=4, n_layers=2,
                          ffn_dim=128, max_len=128, classes=2,
                          kernel=KernelSpec(variant="glu", depth=3),
                          attention_kind="kernel_linear", dropout_rate=0.0)
        account = count_params(build_model(cfg, 0))
        assert not account.within_budget
        assert account.ratio > 0.10


class TestPooling:
    """Pooling averages the unmasked positions of each sequence."""

    def test_mean_averages_real_positions(self):
        model = build_model(small_config(), seed=23, dtype=np.float64)
        tokens, mask = random_batch(model.config, b=3, length=10, seed=3)
        mask[0, 6:] = False
        mask[1, :3] = False
        hidden = padded_hidden(model, tokens, mask)
        pooled = (hidden * mask[..., None]).sum(axis=1) / mask.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(forward_classify(model, tokens, mask).data,
                                   classify_head(model, pooled), rtol=0, atol=1e-12)

    def test_empty_sequence_rejected(self):
        model = build_model(small_config(), seed=24, dtype=np.float64)
        tokens, mask = random_batch(model.config, b=3, length=8)
        mask[1] = False
        with pytest.raises(ContractError, match="at least one unmasked"):
            forward_classify(model, tokens, mask)


PADDING_KINDS = [("kernel_linear", v) for v in ("linear_softplus", "glu", "oglu", "aoglu")]
PADDING_KINDS.append(("softmax", "oglu"))


class TestPaddingInvariance:
    """The encoder runs on packed real tokens, so padding changes nothing."""

    LENGTHS = (17, 12, 24, 14)  # 67 of 96 slots real: 30% padding

    @staticmethod
    def _model(kind, variant):
        cfg = small_config(kernel=KernelSpec(variant=variant, depth=2), attention_kind=kind)
        return build_model(cfg, seed=25, dtype=np.float64)

    def _batch(self, cfg, seed=4):
        tokens, _ = random_batch(cfg, b=len(self.LENGTHS), length=max(self.LENGTHS), seed=seed)
        mask = np.arange(tokens.shape[1]) < np.array(self.LENGTHS)[:, None]
        return tokens, mask

    @staticmethod
    def _loss_and_grads(model, tokens, mask, weights):
        params = model.named_parameters()
        logits = forward_classify(model, tokens, mask)
        grads = backward(T.sum(T.mul(logits, Tensor(weights))), params=params)
        return logits.data, {name: grads[p] for name, p in params.items()}

    @pytest.mark.parametrize("kind,variant", PADDING_KINDS,
                             ids=[f"{k}-{v}" for k, v in PADDING_KINDS])
    def test_batch_equals_each_sequence_alone(self, kind, variant):
        model = self._model(kind, variant)
        tokens, mask = self._batch(model.config)
        weights = np.random.default_rng(5).standard_normal((len(self.LENGTHS), 3))
        logits, grads = self._loss_and_grads(model, tokens, mask, weights)
        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        for i, n in enumerate(self.LENGTHS):
            alone, alone_grads = self._loss_and_grads(
                model, tokens[i:i + 1, :n], np.ones((1, n), bool), weights[i:i + 1])
            np.testing.assert_allclose(logits[i:i + 1], alone, rtol=0, atol=1e-12)
            for name, g in alone_grads.items():
                summed[name] += g
        for name, g in grads.items():
            np.testing.assert_allclose(g, summed[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("kind,variant", PADDING_KINDS,
                             ids=[f"{k}-{v}" for k, v in PADDING_KINDS])
    def test_pad_token_ids_change_nothing(self, kind, variant):
        model = self._model(kind, variant)
        tokens, mask = self._batch(model.config)
        other = tokens.copy()
        other[~mask] = np.random.default_rng(6).integers(0, model.config.vocab_size,
                                                         size=int((~mask).sum()))
        assert np.any(other != tokens)
        np.testing.assert_array_equal(forward_classify(model, tokens, mask).data,
                                      forward_classify(model, other, mask).data)

    @pytest.mark.parametrize("kind,variant", PADDING_KINDS,
                             ids=[f"{k}-{v}" for k, v in PADDING_KINDS])
    def test_zero_eps_gradients_finite(self, kind, variant, monkeypatch):
        # Pad query features of 1 keep every denominator positive without the
        # layer's eps floor.
        monkeypatch.setattr(linattn.attention, "EPS", 0.0)
        model = self._model(kind, variant)
        tokens, mask = self._batch(model.config, seed=7)
        with np.errstate(divide="raise", invalid="raise"):
            _, grads = self._loss_and_grads(model, tokens, mask, np.ones((4, 3)))
        assert all(np.isfinite(g).all() for g in grads.values())


class TestAttentionLookup:
    def test_evaluator_and_stacks_looked_up_at_call_time(self, monkeypatch):
        # perfbench/spans.py times these by replacing the module globals, so
        # the layer has to look them up when it runs, not bind them at import.
        import linattn.attention as attention
        calls = dict.fromkeys(("kernel_attention_linear", "kernel_stack_forward"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(attention, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(attention, name, counted)
        cfg = small_config()
        tokens, mask = random_batch(cfg)
        forward_classify(build_model(cfg, seed=0), tokens, mask)
        assert calls == {"kernel_attention_linear": cfg.n_layers,
                         "kernel_stack_forward": cfg.n_layers * cfg.n_heads * 2}


class TestAttentionKind:
    @pytest.mark.parametrize("built", ["kernel_linear", "softmax"])
    def test_unknown_kind_on_a_built_model_raises(self, built):
        # ModelConfig stays mutable, so the layer names a kind it cannot run
        # instead of falling through to one of the evaluators.
        model = build_model(small_config(attention_kind=built), seed=0)
        model.config.attention_kind = "bogus"
        tokens, mask = random_batch(model.config)
        with pytest.raises(ConfigError, match="'bogus'"):
            forward_classify(model, tokens, mask)

    @pytest.mark.parametrize("built, kind, heads, stacks", [
        ("kernel_linear", "kernel_linear", 4, 2), ("softmax", "kernel_linear", 2, 0),
        ("softmax", "kernel_quadratic", 2, 0)], ids=["more-heads", "softmax-to-linear",
                                                     "softmax-to-quadratic"])
    def test_head_count_unlike_the_layer_stacks_raises(self, built, kind, heads, stacks):
        # Without the check, more heads split the stacks' output silently and
        # no stacks at all divided by zero.
        model = build_model(small_config(attention_kind=built), seed=0)
        model.config.attention_kind, model.config.n_heads = kind, heads
        tokens, mask = random_batch(model.config)
        with pytest.raises(ConfigError, match=f"{kind} runs {heads} heads, but the layer "
                                              f"holds {stacks} feature stacks"):
            forward_classify(model, tokens, mask)


class TestEndToEndEquivalence:
    def test_linear_equals_quadratic_forward(self):
        cfg_l = small_config()
        cfg_q = small_config(attention_kind="kernel_quadratic")
        m_l = build_model(cfg_l, seed=15, dtype=np.float64)
        m_q = build_model(cfg_q, seed=15, dtype=np.float64)
        tokens, mask = random_batch(cfg_l, b=3, length=24, seed=5)
        mask[1, -7:] = False
        a = forward_classify(m_l, tokens, mask).data
        b = forward_classify(m_q, tokens, mask).data
        assert np.abs(a - b).max() <= 1e-8


class TestLossAndStep:
    def test_loss_finite_and_one_step_reduces(self):
        from linattn.kernels import orthogonality_penalty
        cfg = small_config(classes=2, vocab_size=24, max_len=24)
        wins = 0
        trials = 100
        for trial in range(trials):
            model = build_model(cfg, seed=trial, dtype=np.float64)
            rng = np.random.default_rng(1000 + trial)
            tokens = rng.integers(1, cfg.vocab_size, size=(8, 12))
            mask = np.ones((8, 12), bool)
            labels = rng.integers(0, 2, size=8)
            params = model.named_parameters()

            def loss_fn():
                logits = forward_classify(model, tokens, mask)
                ce = T.cross_entropy(logits, labels)
                pen = orthogonality_penalty(model.regularized_matrices(), 0.01)
                return T.add(ce, pen)

            before = loss_fn()
            assert np.isfinite(before.item())
            grads = backward(before, params=params)
            lr = 1e-3
            for name, p in params.items():
                p.data -= lr * grads[p]
            with T.no_grad():
                after = loss_fn()
            wins += int(after.item() < before.item())
        assert wins >= 95, f"loss decreased in only {wins}/{trials} trials"


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_config()
        model = build_model(cfg, seed=16, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert all(t.dtype == np.float64 for t in loaded.named_parameters().values())
        a = model.named_parameters()
        b = loaded.named_parameters()
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
        tokens, mask = random_batch(cfg)
        np.testing.assert_array_equal(forward_classify(model, tokens, mask).data,
                                      forward_classify(loaded, tokens, mask).data)

    def test_f32_round_trip(self, tmp_path):
        cfg = small_config()
        model = build_model(cfg, seed=17, dtype=np.float32)
        path = tmp_path / "model32.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert all(t.dtype == np.float32 for t in loaded.named_parameters().values())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxxxxxxx")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def _load_or_data_error(path, data):
        """Load ``data`` written to ``path``: either a model comes back or a
        DataError names the file; nothing else may escape."""
        path.write_bytes(data)
        try:
            return load_checkpoint(path)
        except DataError as exc:
            assert str(path) in str(exc)
            return None

    def test_truncation_fuzz(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=19), path)
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.ckpt"
        for cut in [*range(0, len(raw), 97), len(raw) // 2, len(raw) - 1]:
            assert self._load_or_data_error(cut_path, raw[:cut]) is None, cut

    def test_byte_flip_fuzz(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=20), path)
        raw = path.read_bytes()
        flip_path = tmp_path / "flip.ckpt"
        rejected = 0
        for offset in range(400):
            for bits in (0x01, 0x80, 0xFF):
                data = bytearray(raw)
                data[offset] ^= bits
                rejected += self._load_or_data_error(flip_path, bytes(data)) is None
        assert rejected > 0

    def test_every_byte_flip_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=22), path)
        raw = path.read_bytes()
        flip_path = tmp_path / "flip.ckpt"
        for offset in range(0, len(raw), 31):
            for bits in (0x01, 0x80, 0xFF):
                data = bytearray(raw)
                data[offset] ^= bits
                assert self._load_or_data_error(flip_path, bytes(data)) is None, (offset, bits)

    def test_checksum_covers_weights_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=23), path)
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, len(raw) - 4)[0] == zlib.crc32(raw[:-4])
        data = bytearray(raw)
        data[len(raw) // 2] ^= 0x01  # inside a weight blob: parses, checksum fails
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_old_version_rejected(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=24), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, version)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)

    @staticmethod
    def _edit_header(path, **fields):
        """Rewrite the config header of the checkpoint at ``path`` with
        ``fields`` changed, keeping its weights, and recompute the checksum."""
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<Q", raw, 12)
        header = {**json.loads(raw[20:20 + cfg_len]), **fields}
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        body = raw[:12] + struct.pack("<Q", len(text)) + text + raw[20 + cfg_len:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_oversized_header_rejected_before_building(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=26), path)
        self._edit_header(path, max_len=99999999999)
        with pytest.raises(DataError, match="parameters, more than"):
            load_checkpoint(path)

    def test_header_value_outside_its_rule_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=27), path)
        self._edit_header(path, dropout_rate=1.0)
        with pytest.raises(DataError, match=r"dropout_rate must be in \[0, 1\), got 1\.0"):
            load_checkpoint(path)

    def test_weight_bytes_checked_before_building(self, tmp_path, monkeypatch):
        # A valid header naming a far larger model than the file's weights
        # fails on the byte count, without drawing the model it names.
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=30), path)
        self._edit_header(path, vocab_size=200000)
        monkeypatch.setattr(linattn.model, "_assemble",
                            lambda *a, **k: pytest.fail("built before checking the weight bytes"))
        with pytest.raises(DataError, match="bytes of weights, but the config's float32 "
                                            "parameters take"):
            load_checkpoint(path)

    def test_mixed_blob_dtypes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = build_model(small_config(), seed=25)
        assert list(model.named_parameters())[-1] == "head.b"
        head_b = model.head["b"]
        head_b.data = head_b.data.astype(np.float64)  # the last parameter alone is f64
        with pytest.raises(ContractError, match=r"head\.b is float64, unlike embed_tokens "
                                                r"\(float32\)"):
            save_checkpoint(model, path)
        assert not path.exists()

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=21), path)
        raw = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<Q", raw, 12)
        raw[20 + cfg_len] = 7  # the dtype code, right after the config
        struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="dtype code 7"):
            load_checkpoint(path)

    def test_header_is_little_endian_binary(self, tmp_path):
        cfg = small_config()
        model = build_model(cfg, seed=18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        assert raw.startswith(b"LINATTN1")
        assert struct.unpack_from("<I", raw, 8)[0] == 8  # version

    def test_version_8_layout(self, tmp_path):
        model = build_model(small_config(), seed=27, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        cfg = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
        body = (b"LINATTN1" + struct.pack("<IQ", 8, len(cfg)) + cfg + b"\x01"
                + b"".join(t.data.astype("<f8").tobytes()
                           for t in model.named_parameters().values()))
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    @staticmethod
    def _rewrite(path, raw, cfg_len=None, weights=None):
        """Write ``raw`` with its config length or weights replaced and a
        valid checksum, so only the loader's later checks can reject it."""
        (old_len,) = struct.unpack_from("<Q", raw, 12)
        new_len = old_len if cfg_len is None else cfg_len
        body = (raw[:12] + struct.pack("<Q", new_len) + raw[20:21 + old_len]
                + (raw[21 + old_len:-4] if weights is None else weights))
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("cfg_len", [10**6, 2**64 - 1])
    def test_config_length_beyond_file_rejected(self, tmp_path, cfg_len):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=28), path)
        self._rewrite(path, path.read_bytes(), cfg_len=cfg_len)
        with pytest.raises(DataError, match=f"config length {cfg_len} overruns"):
            load_checkpoint(path)

    @pytest.mark.parametrize("delta", [-4, -1, 1, 4])
    def test_weight_bytes_must_match_config(self, tmp_path, delta):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(small_config(), seed=29), path)
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<Q", raw, 12)
        weights = raw[21 + cfg_len:-4]
        weights = weights[:delta] if delta < 0 else weights + b"\0" * delta
        self._rewrite(path, raw, weights=weights)
        with pytest.raises(DataError, match="bytes of weights, but the config's float32 "
                                            "parameters take") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)


def _layout(stack_names, head):
    """The ordered (name, shape) pairs of a one-layer, two-head model of
    width 8 (head width 4) whose stacks hold ``stack_names`` per head."""
    return [("embed_tokens", (8, 8)), ("embed_pos", (8, 8)),
            ("blocks.0.ln1_gamma", (8,)), ("blocks.0.ln1_beta", (8,)),
            ("blocks.0.attn.w_q", (8, 8)), ("blocks.0.attn.w_k", (8, 8)),
            ("blocks.0.attn.w_v", (8, 8)), ("blocks.0.attn.w_o", (8, 8)),
            *[(f"blocks.0.attn.head_kernels.{h}.{name}", shape)
              for h in range(2) for name, shape in stack_names],
            ("blocks.0.ln2_gamma", (8,)), ("blocks.0.ln2_beta", (8,)),
            ("blocks.0.ffn_w1", (8, 16)), ("blocks.0.ffn_b1", (16,)),
            ("blocks.0.ffn_w2", (16, 8)), ("blocks.0.ffn_b2", (8,)),
            ("final_gamma", (8,)), ("final_beta", (8,)), *head]


class TestCheckpointLayout:
    """A version-8 checkpoint stores weights in ``named_parameters`` order
    without names, so this order is the file format."""

    @pytest.mark.parametrize("head,spec,expected", [
        ("classify", KernelSpec(variant="oglu", depth=1),
         _layout([("0.w_feat", (4, 4)), ("0.w_gate", (4, 4))],
                 [("head.w", (8, 3)), ("head.b", (3,))])),
        ("classify", KernelSpec(variant="linear_softplus", depth=1),
         _layout([("0.w_feat", (4, 4))], [("head.w", (8, 3)), ("head.b", (3,))])),
        ("match", KernelSpec(variant="aoglu", depth=2),
         _layout([("0.w_feat", (4, 4)), ("0.w_gate", (4, 4)), ("1.w_feat", (4, 4)),
                  ("1.gate_in", (4, 1)), ("1.gate_out", (1, 4))],
                 [("head.w1", (32, 8)), ("head.b1", (8,)), ("head.w2", (8, 2)),
                  ("head.b2", (2,))])),
    ])
    def test_parameter_order_and_shapes_are_pinned(self, head, spec, expected):
        cfg = ModelConfig(vocab_size=8, d_model=8, n_heads=2, n_layers=1, ffn_dim=16,
                          max_len=8, classes=2 if head == "match" else 3, kernel=spec,
                          head=head)
        layout = [(name, t.shape) for name, t in build_model(cfg, 0).named_parameters().items()]
        assert layout == expected, (
            "the checkpoint layout changed: files written before this change would load "
            "permuted weights, so bump model._VERSION and update this list")


class TestOneLayout:
    """Building and loading make every parameter through one ``param(kind,
    shape)`` in ``named_parameters`` order, so draws and file reads land in
    the same tensors."""

    CASES = {**{p.stem: parse_config_file(p).model for p in sorted(CONFIGS.glob("*.cfg"))},
             "softmax": small_config(attention_kind="softmax"),
             "match_aoglu_2": small_config(head="match", classes=2, kernel=KernelSpec(
                 variant="aoglu", depth=2))}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_param_calls_follow_named_parameters(self, name):
        calls = []

        def record(kind, shape):
            t = Tensor(np.zeros(shape), requires_grad=True)
            calls.append((shape, t))
            return t

        named = linattn.model._assemble(self.CASES[name], record).named_parameters()
        assert len(calls) == len(named)
        for (param_name, t), (shape, made) in zip(named.items(), calls):
            assert made is t and t.shape == shape, param_name

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = build_model(small_config(), seed=31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a parameter")

        for module, name in [(linattn.model, "build_model"), (linattn.model, "drawer"),
                             (linattn.kernels, "drawer"), (linattn.kernels, "orthogonal_init"),
                             (np.random, "default_rng")]:
            monkeypatch.setattr(module, name, refuse)
        loaded = load_checkpoint(path).named_parameters()
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(loaded[name].data, t.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loaded_parameters_train_and_leave_the_file_alone(self, tmp_path, dtype):
        cfg = small_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(cfg, seed=32, dtype=dtype), path)
        raw = path.read_bytes()
        model = load_checkpoint(path)
        params = model.named_parameters()
        for name, t in params.items():
            flags = t.data.flags
            assert flags.writeable and flags.owndata and t.data.dtype.isnative, name
        before = {name: t.data.copy() for name, t in params.items()}
        tokens, mask = random_batch(cfg)
        loss = T.cross_entropy(forward_classify(model, tokens, mask), np.arange(4) % 3)
        grads = backward(loss, params=params)
        Adam(params).step({name: grads[p] for name, p in params.items()}, lr=1e-2)
        assert all(not np.array_equal(t.data, before[name]) for name, t in params.items())
        assert path.read_bytes() == raw
