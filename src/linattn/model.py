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

import itertools
import json
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import tensor as T
from .attention import (ATTENTION_KINDS, AttentionLayerParams, init_attention_params,
                        multi_head_kernel_attention)
from .errors import ConfigError, ContractError, DataError, ShapeError
from .kernels import (KernelSpec, aoglu_rank, at_least, check_fields, drawer, one_of,
                      regularized_matrices, ruled)
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

# The fewest packed elements (rows x d_model) at which an encode that
# records no graph and draws no dropout runs on its lane. Each attention
# layer then builds its query features on the lane while the caller builds
# its key features, and runs the rest of the layer on two sequence halves.
# Overlapped over serial time of a layer of width 64, 4 heads and oglu
# stacks, on a 2-core x86-64 VM with one BLAS thread, with the feature
# overlap alone: 1.53 at 65k elements, 1.08 at 131k, 0.84 at 262k, 0.67 at
# 1M. Adding the sequence halves took the perfbench listops_long_eval step
# (about 7k rows of width 64 per layer, L <= 2048) to 0.87-0.93 of its time
# with the feature overlap alone, at three seeds. The row-wise sub-blocks
# run on two row halves, the first on the lane. Split over serial time, on
# the same VM at width 64: a layer norm 1.18-1.27 at 2048 rows, 0.86-0.87 at
# 4096 and 0.72-0.75 at 7000; the FFN residual sub-block (ffn_dim 128)
# 0.77-0.79, 0.66-0.68 and 0.65-0.66.
OVERLAP_MIN_ELEMENTS = 1 << 18


@dataclass
class ModelConfig:
    """An encoder's shape and behaviour. ``validate`` applies the field rules
    in declaration order, so a config that breaks several names the first."""

    n_heads: int = at_least(1, default=4)
    d_model: int = at_least(1, default=64)
    max_len: int = at_least(1, default=128)
    n_layers: int = at_least(1, default=1)
    ffn_dim: int = at_least(1, default=128)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    dropout_rate: float = ruled("in [0, 1)", lambda v: 0 <= v < 1, default=0.1)
    attention_kind: str = one_of(ATTENTION_KINDS, default="kernel_linear")
    head: str = one_of(HEADS, default="classify")
    vocab_size: int = at_least(2, default=32)
    classes: int = at_least(2, default=2)

    def __post_init__(self):
        self.validate()

    @property
    def head_dim(self) -> int:
        """The width of one head's slice, the feature maps' input width."""
        return self.d_model // self.n_heads

    def validate(self):
        self.kernel.validate()
        check_fields(self)
        if self.d_model % self.n_heads or self.head_dim < 2:
            raise ConfigError(f"d_model must split into n_heads heads of width >= 2, got "
                              f"d_model={self.d_model}, n_heads={self.n_heads}")
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
    computed without building it. An aoglu stack at a head width below 4
    raises ``ConfigError`` (``aoglu_rank``)."""
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
            stack += 2 * n * aoglu_rank(n) - n * n
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


def _keep_scale(rng, mask: np.ndarray, width: int, rate: float, dtype) -> np.ndarray:
    """One dropout site's scale ``keep / (1 - rate)`` on the packed rows:
    the padded draw ``rng.random((B, L, width))``, gathered at ``mask``."""
    return (rng.random(mask.shape + (width,)) >= rate)[mask].astype(dtype) / (1.0 - rate)


def _keep_scales(submit, rng, rate: float, mask: np.ndarray, widths: list[int], dtype):
    """An iterator over the keep scales of dropout sites of ``widths``, in
    that order: ``None`` for each without an ``rng`` or at rate 0, else
    drawn at the padded shape as ``submit`` tasks, all submitted at once."""
    if rng is None or rate == 0.0:
        return itertools.repeat(None)
    sites = [submit(_keep_scale, rng, mask, w, rate, dtype) for w in widths]
    return (site.result() for site in sites)


def _dropout(x: Tensor, scale: np.ndarray | None) -> Tensor:
    return x if scale is None else T.mul(x, Tensor(scale))


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

    def _ffn_residual(self, h: Tensor, blk: Block, scale: np.ndarray | None) -> Tensor:
        """``h + FFN(LN2(h))``, with dropout ``scale`` on the FFN inner."""
        normed = self._layer_norm(h, blk.ln2_gamma, blk.ln2_beta)
        inner = _dropout(T.gelu(T.add(T.matmul(normed, blk.ffn_w1), blk.ffn_b1)), scale)
        return T.add(h, T.add(T.matmul(inner, blk.ffn_w2), blk.ffn_b2))

    def encode(self, tokens: np.ndarray, mask: np.ndarray, rng=None) -> Tensor:
        """Token ids (B, L) + mask -> mean-pooled features (B, d_model), with
        dropout iff ``rng`` is given.

        Every position-wise op runs on the packed rows (N, d_model) of the
        real tokens, in row-major order; only attention's S/z aggregation and
        the pooling, which averages each sequence's rows, see sequences.

        Dropout (``rng`` given and ``dropout_rate > 0``) runs on any
        ``np.random.Generator`` or ``RandomState``. Each block has two sites,
        the attention output and then the FFN inner, and each site draws
        ``rng.random((B, L, width))``, where L is the batch's padded width:
        a real slot keeps its value iff its number is >= the rate. So the
        stream depends on the padded shape, not only on the real tokens.

        An encode opens one ``tensor.lane``, whose thread starts only if it
        gets a task. With dropout, the lane draws the sites ahead of the
        forward pass; once the inputs pass their checks, ``rng`` ends where
        a finished encode leaves it. Without an ``rng``, with no graph being
        recorded, and at least ``OVERLAP_MIN_ELEMENTS`` elements in the
        packed rows, the encode splits: each attention layer gets the lane's
        ``submit`` (see ``multi_head_kernel_attention``), and each block's
        first layer norm, its FFN residual sub-block and the final layer
        norm run on two row halves: rows ``[:cut]`` on the lane while the
        caller runs ``[cut:]``, where ``cut`` is N // 2 rounded down to a
        multiple of 64 (no row halves if that is 0). These ops treat each
        row alone, and the aligned cut keeps the BLAS products' row
        grouping, so the halves give the bits of the whole. Otherwise each
        attention layer runs serially. So the lane runs draws or the split,
        never both.
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

        widths = [cfg.d_model, cfg.ffn_dim] * len(self.blocks)
        seq, col = np.nonzero(mask)
        n = len(seq)
        split = (rng is None and not T._GRAD_ENABLED
                 and n * cfg.d_model >= OVERLAP_MIN_ELEMENTS)
        # The cut is a multiple of 64 rows because the ones-vector product
        # inside ``mean`` groups rows by 4 on OpenBLAS: a layer norm cut at a
        # row count that is no multiple of 4 changed bits in 58 of 60 trials
        # in each precision, one cut at a multiple of 64 in none.
        cut = n // 2 // 64 * 64 if split else 0
        with T.lane() as submit:
            scales = _keep_scales(submit, rng, cfg.dropout_rate, mask, widths,
                                  self.embed_tokens.dtype)
            overlap = submit if split else None

            def rows(fn, x, *args):
                if not cut:
                    return fn(x, *args)
                first = submit(fn, T.getitem(x, np.s_[:cut]), *args)
                rest = fn(T.getitem(x, np.s_[cut:]), *args)
                return T.concat([first.result(), rest], axis=0)

            h = T.add(T.embedding(self.embed_tokens, tokens[mask]),
                      T.embedding(self.embed_pos, col))

            for blk in self.blocks:
                normed = rows(self._layer_norm, h, blk.ln1_gamma, blk.ln1_beta)
                attn_out = multi_head_kernel_attention(normed, blk.attn, cfg, mask, overlap)
                h = T.add(h, _dropout(attn_out, next(scales)))
                h = rows(self._ffn_residual, h, blk, next(scales))

            h = rows(self._layer_norm, h, self.final_gamma, self.final_beta)
        # Attention rejected empty sequences, so every count is >= 1.
        members = seq == np.arange(b)[:, None]
        return T.matmul(Tensor((members / members.sum(axis=-1, keepdims=True))
                               .astype(h.dtype)), h)


def _assemble(config: ModelConfig, param) -> Model:
    """The model tree of ``config``, every tensor made by ``param(kind,
    shape)`` in ``named_parameters`` order, which is also the checkpoint's
    order. ``kernels.drawer`` draws them; ``load_checkpoint`` reads them."""
    d, f = config.d_model, config.ffn_dim
    return Model(
        config,
        embed_tokens=param("normal", (config.vocab_size, d)),
        embed_pos=param("normal", (config.max_len, d)),
        blocks=[Block(ln1_gamma=param("ones", (d,)), ln1_beta=param("zeros", (d,)),
                      attn=init_attention_params(config, param),
                      ln2_gamma=param("ones", (d,)), ln2_beta=param("zeros", (d,)),
                      ffn_w1=param("uniform", (d, f)), ffn_b1=param("zeros", (f,)),
                      ffn_w2=param("uniform", (f, d)), ffn_b2=param("zeros", (d,)))
                for _ in range(config.n_layers)],
        final_gamma=param("ones", (d,)),
        final_beta=param("zeros", (d,)),
        head=({"w": param("uniform", (d, config.classes)),
               "b": param("zeros", (config.classes,))}
              if config.head == "classify" else  # a hidden layer of width d_model
              {"w1": param("uniform", (4 * d, d)), "b1": param("zeros", (d,)),
               "w2": param("uniform", (d, 2)), "b2": param("zeros", (2,))}))


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Deterministically initialize a model from a seed.

    Embeddings are N(0, 0.02); projections and FFN weights are
    uniform(+-1/sqrt(fan_in)); norms start at identity; kernel stacks
    follow their spec (orthogonal or uniform).
    """
    config.validate()
    return _assemble(config, drawer(seed, dtype))


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
_VERSION = 8
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
    """Rebuild a model from a checkpoint file, reading each parameter in
    turn from the weights and drawing nothing. Malformed, truncated or
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
    offset = 0

    def read(kind, shape):
        nonlocal offset
        count = int(np.prod(shape))
        arr = np.frombuffer(body, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
        return Tensor(arr.astype(dtype.newbyteorder("=")), requires_grad=True)

    return _assemble(config, read)
