"""Desk-scale transformer encoder over kernel attention.

Pre-norm blocks (layer norm -> attention -> residual, layer norm -> gelu
FFN -> residual), learned positional embeddings, a final layer norm, and
either a linear classification head over mean-pooled features or a
two-layer matching head over [u, v, u*v, |u-v|] of two independently encoded
sequences.

The encoder runs one of the attention kinds of ``linattn.attention`` so
the same weights can be checked linear-vs-quadratic and benchmarked
against the softmax baseline. Parameter accounting separates the
feature-map weights from everything else to enforce the
additional-parameter budget.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import tensor as T
from .attention import (ATTENTION_KINDS, AttentionLayerParams, init_attention_params,
                        multi_head_kernel_attention)
from .errors import ConfigError, ContractError, DataError, ShapeError
from .kernels import (KernelSpec, check_gate_rank, check_int_fields, regularized_matrices,
                      uniform_init)
from .tensor import Tensor

HEADS = ("classify", "match")

LAYERNORM_EPS = 1e-5

# The largest model ``ModelConfig.validate`` accepts, in parameters (400 MB
# of float32 weights), so a huge vocab_size or max_len in a config file or a
# checkpoint header fails before anything allocates.
MAX_PARAMS = 10**8

# The additional-parameter budget: feature-map weights must stay strictly
# below this share of the rest of the model.
BUDGET_LIMIT = 0.10


@dataclass
class ModelConfig:
    vocab_size: int = 32
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 1
    ffn_dim: int = 128
    max_len: int = 128
    classes: int = 2
    kernel: KernelSpec = field(default_factory=KernelSpec)
    attention_kind: str = "kernel_linear"
    eps: float = 1e-6
    dropout_rate: float = 0.1
    head: str = "classify"

    def __post_init__(self):
        self.validate()

    @property
    def head_dim(self) -> int:
        """The width of one head's slice, the feature maps' input width."""
        return self.d_model // self.n_heads

    def validate(self):
        self.kernel.validate()
        check_int_fields(self)
        for name in ("n_heads", "d_model", "max_len", "n_layers", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads or self.head_dim < 2:
            raise ConfigError(f"d_model must split into n_heads heads of width >= 2, got "
                              f"d_model={self.d_model}, n_heads={self.n_heads}")
        check_gate_rank(self.kernel, self.head_dim)
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.attention_kind not in ATTENTION_KINDS:
            raise ConfigError(f"attention_kind must be one of {ATTENTION_KINDS}, "
                              f"got {self.attention_kind!r}")
        if self.head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if not 0 <= self.eps < float("inf"):
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        account = closed_form_params(self)
        total = account.base_params + account.kernel_params
        if total > MAX_PARAMS:
            raise ConfigError(f"model has {total} parameters, more than the {MAX_PARAMS} allowed")


@dataclass
class ParamAccount:
    """Exact parameter counts: the encoder body vs the feature-map stacks."""

    base_params: int
    kernel_params: int

    @property
    def ratio(self) -> float:
        return self.kernel_params / self.base_params

    @property
    def within_budget(self) -> bool:
        """Kernel parameters strictly below ``BUDGET_LIMIT`` of the base."""
        return self.ratio < BUDGET_LIMIT


def closed_form_params(config: ModelConfig) -> ParamAccount:
    """The counts ``count_params`` finds in a model built from ``config``,
    computed without building it."""
    d, f, n, spec = config.d_model, config.ffn_dim, config.head_dim, config.kernel
    block = 4 * d * d + 2 * d * f + f + 5 * d  # projections, FFN, two layer norms
    if config.head == "classify":
        head = d * config.classes + config.classes
    else:
        head = 4 * d * d + 3 * d + 2
    base = (config.vocab_size + config.max_len + 2) * d + config.n_layers * block + head
    if spec.variant == "linear_softplus":
        stack = spec.depth * n * n
    else:  # gated layers; aoglu's output gate is rank r
        stack = spec.depth * 2 * n * n
        if spec.variant == "aoglu":
            stack += 2 * n * spec.gate_rank - n * n
    kernel = 0 if config.attention_kind == "softmax" else config.n_layers * config.n_heads * stack
    return ParamAccount(base_params=base, kernel_params=kernel)


@dataclass
class Block:
    ln1_gamma: Tensor
    ln1_beta: Tensor
    attn: AttentionLayerParams
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


def named_tensors(tree, prefix: str = "") -> dict[str, Tensor]:
    """Every tensor in a tree of dataclasses (fields in order), dicts (keys
    in order) and lists (indices in order), named by its dotted path, such
    as ``blocks.0.attn.head_kernels.1.0.w_feat``. Leaves that are not
    tensors (configs, counts, ``None``) are skipped."""
    if isinstance(tree, Tensor):
        return {prefix: tree}
    if is_dataclass(tree):
        tree = {f.name: getattr(tree, f.name) for f in fields(tree)}
    elif isinstance(tree, list):
        tree = dict(enumerate(tree))
    elif not isinstance(tree, dict):
        return {}
    return {name: t for key, sub in tree.items()
            for name, t in named_tensors(sub, f"{prefix}.{key}" if prefix else str(key)).items()}


@dataclass(eq=False)
class Model:
    """A built encoder: immutable during evaluation, single-writer in
    training (the optimizer rewrites parameter data in place). Its
    parameters are the tensors of its tree, named by their paths."""

    config: ModelConfig
    embed_tokens: Tensor
    embed_pos: Tensor
    blocks: list[Block]
    final_gamma: Tensor
    final_beta: Tensor
    head: dict[str, Tensor]

    # -- parameter registry ------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        return named_tensors(self)

    def regularized_matrices(self) -> list[Tensor]:
        return [w for blk in self.blocks for kp in blk.attn.head_kernels
                for w in regularized_matrices(self.config.kernel, kp)]

    # -- forward -----------------------------------------------------------

    def _layer_norm(self, x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
        mu = T.mean(x, axis=-1, keepdims=True)
        centered = T.sub(x, mu)
        var = T.mean(T.square(centered), axis=-1, keepdims=True)
        inv = T.div(centered, T.sqrt(T.add(var, float(LAYERNORM_EPS))))
        return T.add(T.mul(inv, gamma), beta)

    def _dropout(self, x: Tensor, mask: np.ndarray, rng) -> Tensor:
        """Inverted dropout on packed rows, iff an ``rng`` is given. The keep
        mask is drawn at the padded shape and then gathered, so the random
        stream does not depend on how much of the batch is padding."""
        rate = self.config.dropout_rate
        if rng is None or rate == 0.0:
            return x
        keep = rng.random(mask.shape + x.shape[1:]) >= rate
        return T.mul(x, Tensor(keep[mask].astype(x.dtype) / (1.0 - rate)))

    def encode(self, tokens: np.ndarray, mask: np.ndarray, rng=None) -> Tensor:
        """Token ids (B, L) + mask -> mean-pooled features (B, d_model), with
        dropout iff ``rng`` is given.

        Every position-wise op runs on the packed rows (N, d_model) of the
        real tokens, in row-major order; only attention's S/z aggregation and
        the pooling, which averages each sequence's rows, see sequences.
        """
        tokens = np.asarray(tokens)
        mask = np.asarray(mask, dtype=bool)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (batch, length), got {tokens.shape}")
        if tokens.shape != mask.shape:
            raise ShapeError(f"mask shape {mask.shape} does not match tokens {tokens.shape}")
        b, length = tokens.shape
        cfg = self.config
        if length > cfg.max_len:
            raise ShapeError(f"sequence length {length} exceeds max_len {cfg.max_len}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise DataError(
                f"token ids must lie in [0, {cfg.vocab_size}), got "
                f"[{tokens.min()}, {tokens.max()}]")

        seq, col = np.nonzero(mask)
        h = T.add(T.embedding(self.embed_tokens, tokens[mask]),
                  T.embedding(self.embed_pos, col))

        for blk in self.blocks:
            normed = self._layer_norm(h, blk.ln1_gamma, blk.ln1_beta)
            attn_out = multi_head_kernel_attention(normed, blk.attn, cfg, mask)
            h = T.add(h, self._dropout(attn_out, mask, rng))

            normed = self._layer_norm(h, blk.ln2_gamma, blk.ln2_beta)
            inner = T.gelu(T.add(T.matmul(normed, blk.ffn_w1), blk.ffn_b1))
            inner = self._dropout(inner, mask, rng)
            ffn_out = T.add(T.matmul(inner, blk.ffn_w2), blk.ffn_b2)
            h = T.add(h, ffn_out)

        h = self._layer_norm(h, self.final_gamma, self.final_beta)
        # Attention rejected empty sequences, so every count is >= 1.
        members = seq == np.arange(b)[:, None]
        return T.matmul(Tensor((members / members.sum(axis=-1, keepdims=True))
                               .astype(h.dtype)), h)


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Deterministically initialize a model from a seed.

    Embeddings are N(0, 0.02); projections and FFN weights are
    uniform(+-1/sqrt(fan_in)); norms start at identity; kernel stacks
    follow their spec (orthogonal or uniform).
    """
    config.validate()
    rng = np.random.default_rng(seed)
    d, dtype = config.d_model, np.dtype(dtype)

    def param(arr):
        return Tensor(arr, requires_grad=True)

    embed_tokens = param((rng.standard_normal((config.vocab_size, d)) * 0.02).astype(dtype))
    embed_pos = param((rng.standard_normal((config.max_len, d)) * 0.02).astype(dtype))

    blocks = []
    for _ in range(config.n_layers):
        attn = init_attention_params(config, rng, dtype)
        blocks.append(Block(
            ln1_gamma=param(np.ones(d, dtype=dtype)),
            ln1_beta=param(np.zeros(d, dtype=dtype)),
            attn=attn,
            ln2_gamma=param(np.ones(d, dtype=dtype)),
            ln2_beta=param(np.zeros(d, dtype=dtype)),
            ffn_w1=param(uniform_init(rng, d, config.ffn_dim, dtype)),
            ffn_b1=param(np.zeros(config.ffn_dim, dtype=dtype)),
            ffn_w2=param(uniform_init(rng, config.ffn_dim, d, dtype)),
            ffn_b2=param(np.zeros(d, dtype=dtype)),
        ))

    final_gamma = param(np.ones(d, dtype=dtype))
    final_beta = param(np.zeros(d, dtype=dtype))

    if config.head == "classify":
        head = {
            "w": param(uniform_init(rng, d, config.classes, dtype)),
            "b": param(np.zeros(config.classes, dtype=dtype)),
        }
    else:  # a hidden layer of width d_model
        head = {
            "w1": param(uniform_init(rng, 4 * d, d, dtype)),
            "b1": param(np.zeros(d, dtype=dtype)),
            "w2": param(uniform_init(rng, d, 2, dtype)),
            "b2": param(np.zeros(2, dtype=dtype)),
        }
    return Model(config, embed_tokens, embed_pos, blocks, final_gamma, final_beta, head)


def forward_classify(model: Model, tokens, mask, rng=None) -> Tensor:
    """Logits (B, classes) of padded token sequences, with dropout iff ``rng`` is given."""
    if model.config.head != "classify":
        raise ConfigError("model was built with a matching head")
    pooled = model.encode(tokens, mask, rng=rng)
    return T.add(T.matmul(pooled, model.head["w"]), model.head["b"])


def forward_match(model: Model, tokens_a, mask_a, tokens_b, mask_b, rng=None) -> Tensor:
    """Logits (B, 2) for sequence pairs encoded independently (dropout iff ``rng``).

    Head input is [u, v, u*v, |u-v|] through a gelu hidden layer.
    """
    if model.config.head != "match":
        raise ConfigError("model was built with a classification head")
    u = model.encode(tokens_a, mask_a, rng=rng)
    v = model.encode(tokens_b, mask_b, rng=rng)
    feats = T.concat([u, v, T.mul(u, v), T.abs(T.sub(u, v))], axis=-1)
    hidden = T.gelu(T.add(T.matmul(feats, model.head["w1"]), model.head["b1"]))
    return T.add(T.matmul(hidden, model.head["w2"]), model.head["b2"])


def count_params(model: Model) -> ParamAccount:
    """Exact counts with the feature-map weights isolated.

    Kernel parameters are the weights of every layer's feature-map stacks;
    base parameters are everything else in the parameter registry (the
    same set a softmax model of this architecture carries).
    """
    kernel = sum(t.size for blk in model.blocks
                 for t in named_tensors(blk.attn.head_kernels).values())
    total = sum(t.size for t in model.named_parameters().values())
    return ParamAccount(base_params=total - kernel, kernel_params=kernel)


# ---------------------------------------------------------------------------
# checkpoint container: little-endian binary with a canonical-text header
# ---------------------------------------------------------------------------

_MAGIC = b"LINATTN1"
_VERSION = 7
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEAD = len(_MAGIC) + 12  # magic, version, config length


def save_checkpoint(model: Model, path):
    """Write magic, version, canonical-JSON config, one dtype code, the raw
    little-endian data of every parameter in ``named_parameters`` order,
    then a CRC32 of all the bytes before it. The config fixes each
    parameter's name and shape, so the file does not restate them."""
    params = model.named_parameters()
    first = next(iter(params))
    dtype = params[first].dtype
    for name, t in params.items():
        if t.dtype != dtype:
            raise ContractError(f"{name} is {t.dtype.name}, unlike {first} ({dtype.name}): "
                                f"a checkpoint holds one dtype")
    cfg = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    body = b"".join([_MAGIC, struct.pack("<IQ", _VERSION, len(cfg)), cfg,
                     struct.pack("<B", _DTYPE_CODES[dtype]),
                     *(t.data.astype(dtype.newbyteorder("<"), copy=False).tobytes()
                       for t in params.values())])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint file. Malformed, truncated or
    corrupted content raises ``DataError`` naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEAD + 5 or not raw.startswith(_MAGIC):  # 5: dtype code and CRC32
        raise DataError(f"{path}: not a model checkpoint (bad magic or only {len(raw)} bytes)")
    version, cfg_len = struct.unpack_from("<IQ", raw, len(_MAGIC))
    if version != _VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if struct.unpack_from("<I", raw, len(raw) - 4)[0] != zlib.crc32(raw[:-4]):
        raise DataError(f"{path}: checksum mismatch (corrupt checkpoint)")
    if cfg_len > len(raw) - _HEAD - 5:
        raise DataError(f"{path}: config length {cfg_len} overruns the {len(raw)}-byte file")
    try:
        header = json.loads(raw[_HEAD:_HEAD + cfg_len].decode("utf-8"))
        config = ModelConfig(**{**header, "kernel": KernelSpec(**header["kernel"])})
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError(f"{path}: bad config header ({exc})") from None
    code = raw[_HEAD + cfg_len]
    if code not in _CODE_DTYPES:
        raise DataError(f"{path}: unknown dtype code {code}")
    dtype = _CODE_DTYPES[code]
    body = memoryview(raw)[_HEAD + cfg_len + 1:-4]
    account = closed_form_params(config)
    need = (account.base_params + account.kernel_params) * dtype.itemsize
    if len(body) != need:
        raise DataError(f"{path}: {len(body)} bytes of weights, but the config's "
                        f"{dtype.name} parameters take {need}")
    model = build_model(config, seed=0, dtype=dtype.newbyteorder("="))
    params = model.named_parameters().values()
    data = np.frombuffer(body, dtype=dtype)
    offset = 0
    for t in params:
        t.data[...] = data[offset:offset + t.size].reshape(t.shape)
        offset += t.size
    return model
