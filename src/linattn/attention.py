"""Attention evaluators: exact softmax, quadratic kernel oracle, and the
linear factorized form, plus the one multi-head layer that runs each of
them as an attention kind.

The two kernel evaluators compute the same weighted average of values,
with weights proportional to the dot products of positive query/key
features. The quadratic form materializes the full L x L weight matrix
and serves as the correctness oracle; the linear form instead accumulates
the key-feature/value outer-product sum S (C x d) and the key-feature sum
z (C) once, bringing the cost down to O(L * C * d).

All evaluators accept arbitrary leading batch axes. Padding masks are
plain boolean arrays (True = real token) broadcastable against the
evaluator's (..., L) key axis; masked positions contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .kernels import KernelSpec, init_kernel_params, kernel_stack_forward
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

ATTENTION_KINDS = ("softmax", "kernel_linear", "kernel_quadratic")


def _as_mask(mask, length: int) -> np.ndarray:
    m = np.asarray(mask, dtype=bool)
    if m.shape[-1] != length:
        raise ShapeError(f"mask length {m.shape[-1]} does not match sequence length {length}")
    if not np.all(np.any(m, axis=-1)):
        raise ContractError("every sequence must have at least one unmasked position")
    return m


def softmax_attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    """Exact softmax attention with 1/sqrt(d) logit scaling.

    Masked key positions receive -inf logits and therefore zero weight.
    """
    length, d = k.shape[-2], q.shape[-1]
    m = _as_mask(mask, length)
    scores = T.mul(T.matmul(q, T.swapaxes(k, -1, -2)), 1.0 / np.sqrt(d))
    bias = np.where(m, 0.0, -np.inf).astype(q.dtype)
    scores = T.add(scores, Tensor(np.expand_dims(bias, -2)))
    return T.matmul(T.softmax_rows(scores), v)


def _check_positive(feats: Tensor, name: str):
    lo = float(feats.data.min())
    if not lo > 0:
        raise ContractError(f"{name} must be strictly positive kernel features, min={lo}")


def kernel_attention_quadratic(qf: Tensor, kf: Tensor, v: Tensor, mask,
                               eps: float = 0.0) -> Tensor:
    """Explicit O(L^2) kernel attention; the oracle for the linear form.

    out_i = sum_j w_ij v_j with w_ij = qf_i . kf_j over unmasked j,
    normalized by sum_j w_ij (+ eps).
    """
    _check_positive(qf, "query features")
    _check_positive(kf, "key features")
    length = kf.shape[-2]
    m = _as_mask(mask, length)
    mcol = Tensor(np.expand_dims(m, -2).astype(qf.dtype))  # (..., 1, L)
    scores = T.mul(T.matmul(qf, T.swapaxes(kf, -1, -2)), mcol)
    denom = T.sum(scores, axis=-1, keepdims=True)
    if eps:
        denom = T.add(denom, float(eps))
    return T.div(T.matmul(scores, v), denom)


def kernel_attention_linear(qf: Tensor, kf: Tensor, v: Tensor, mask,
                            eps: float = 0.0) -> Tensor:
    """Factorized kernel attention in O(L * C * d).

    Accumulates S = sum_j m_j kf_j v_j^T and z = sum_j m_j kf_j once, then
    out_i = (qf_i S) / (qf_i . z + eps). Positive features make the
    denominator positive whenever a sequence has an unmasked position.
    """
    length = kf.shape[-2]
    m = _as_mask(mask, length)
    mcol = Tensor(np.expand_dims(m, -1).astype(qf.dtype))  # (..., L, 1)
    kf_m = T.mul(kf, mcol)
    s = T.matmul(T.swapaxes(kf_m, -1, -2), v)                   # (..., C, d)
    z = T.sum(kf_m, axis=-2, keepdims=True)                     # (..., 1, C)
    num = T.matmul(qf, s)                                       # (..., L, d)
    den = T.matmul(qf, T.swapaxes(z, -1, -2))                   # (..., L, 1)
    if eps:
        den = T.add(den, float(eps))
    return T.div(num, den)


@dataclass
class AttentionLayerParams:
    """Projection matrices plus per-head kernel weights for one layer.

    ``head_kernels[i]`` feeds both the query and key slices of head i.
    Softmax-only layers carry no kernel stacks.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    head_kernels: list[list[dict[str, Tensor]]] = field(default_factory=list)


def init_attention_params(config: ModelConfig, param) -> AttentionLayerParams:
    """Four ``uniform`` projections, then for the kernel kinds one
    ``config.kernel`` stack per head in head order, each tensor made by
    ``param(kind, shape)`` (see ``kernels.drawer``)."""
    d = config.d_model
    heads = 0 if config.attention_kind == "softmax" else config.n_heads
    return AttentionLayerParams(
        *[param("uniform", (d, d)) for _ in range(4)],  # a list: made before the stacks
        head_kernels=[init_kernel_params(config.kernel, config.head_dim, param)
                      for _ in range(heads)])


def _rows_mask(x: Tensor, mask, d_model: int) -> np.ndarray:
    """The boolean mask, once ``x`` is checked to hold its packed rows."""
    m = np.asarray(mask, dtype=bool)
    expected = (int(np.count_nonzero(m)), d_model)
    if x.shape != expected:
        raise ShapeError(f"input {x.shape} is not the packed rows {expected} of mask {m.shape}")
    return m


def _heads(rows: Tensor, n_heads: int, m: np.ndarray, fill: float = 0.0) -> Tensor:
    """Packed rows (N, h*n) -> per-head padded (..., h, L, n), pad slots ``fill``."""
    n = rows.shape[-1] // n_heads
    per_head = T.reshape(rows, (rows.shape[0], n_heads, n))
    return T.swapaxes(T.unpack(per_head, m, fill), -2, -3)


def _merge_rows(x: Tensor, m: np.ndarray) -> Tensor:
    """Per-head padded (..., h, L, n) -> packed rows (N, h*n) of the real positions."""
    rows = T.getitem(T.swapaxes(x, -2, -3), m)
    return T.reshape(rows, (rows.shape[0], -1))


def _stack_head_features(rows: Tensor, kernels: list[list[dict[str, Tensor]]],
                         spec: KernelSpec) -> Tensor:
    """Apply each head's feature-map stack to its column block of the packed
    rows (N, h*n); returns (N, h*C)."""
    n = rows.shape[-1] // len(kernels)
    return T.concat([kernel_stack_forward(T.getitem(rows, np.s_[:, i * n:(i + 1) * n]), spec, kp)
                     for i, kp in enumerate(kernels)], axis=-1)


def multi_head_kernel_attention(x: Tensor, params: AttentionLayerParams,
                                config: ModelConfig, mask) -> Tensor:
    """Project, run kernel attention per head, merge, project out.

    ``config`` supplies the width, head count, kernel spec, ``eps`` and
    ``attention_kind``. ``softmax`` is kernel attention under the
    exponential kernel exp(q . k / sqrt(n)), evaluated exactly (the
    quadratic baseline). ``kernel_linear`` and ``kernel_quadratic`` map
    queries and keys through each head's feature stack, then run the
    factorized evaluator or its oracle (to cross-check full layers). Any
    other kind, or a head count other than the layer's number of stacks,
    raises ``ConfigError``: a ``ModelConfig`` stays mutable.

    ``x`` holds the packed rows ``(mask.sum(), d_model)`` of the unmasked
    positions of a ``(..., L)`` mask, in row-major order, and so does the
    output. The projections and feature stacks run on these rows; the
    evaluator sees per-head padded arrays. For the kernel kinds their pad
    slots hold features of 1 and values of 0, so a pad query never divides
    0 by 0 and the key mask keeps pad keys out of S and z.
    """
    m = _rows_mask(x, mask, config.d_model)
    kind, n_heads = config.attention_kind, config.n_heads
    if kind not in ATTENTION_KINDS:
        raise ConfigError(f"attention_kind must be one of {ATTENTION_KINDS}, got {kind!r}")
    if kind == "softmax":
        q = _heads(T.matmul(x, params.w_q), n_heads, m)
        k = _heads(T.matmul(x, params.w_k), n_heads, m)
    else:
        if len(params.head_kernels) != n_heads:
            raise ConfigError(f"{kind} runs {n_heads} heads, but the layer holds "
                              f"{len(params.head_kernels)} feature stacks")
        q = _stack_head_features(T.matmul(x, params.w_q), params.head_kernels, config.kernel)
        k = _stack_head_features(T.matmul(x, params.w_k), params.head_kernels, config.kernel)
        q = _heads(q, n_heads, m, fill=1.0)
        k = _heads(k, n_heads, m, fill=1.0)
    v = _heads(T.matmul(x, params.w_v), n_heads, m)

    m_heads = np.expand_dims(m, -2)  # broadcast over heads: (..., 1, L)
    if kind == "softmax":
        heads_out = softmax_attention(q, k, v, m_heads)
    elif kind == "kernel_linear":
        heads_out = kernel_attention_linear(q, k, v, m_heads, eps=config.eps)
    elif kind == "kernel_quadratic":
        heads_out = kernel_attention_quadratic(q, k, v, m_heads, eps=config.eps)
    return T.matmul(_merge_rows(heads_out, m), params.w_o)
