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
from .kernels import init_kernel_params, kernel_stack_forward
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelConfig

ATTENTION_KINDS = ("softmax", "kernel_linear", "kernel_quadratic")

# The denominator floor the multi-head layer passes to both kernel evaluators.
EPS = 1e-6


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
    del kf_m  # without a graph, its memory is free for num
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
    """Packed rows (N, h*n) -> per-head padded (..., h, L, n), pad slots ``fill``:
    a strided view of the padded (..., L, h, n) array, not a copy."""
    n = rows.shape[-1] // n_heads
    per_head = T.reshape(rows, (rows.shape[0], n_heads, n))
    return T.swapaxes(T.unpack(per_head, m, fill), -2, -3)


def _merge_rows(x: Tensor, m: np.ndarray) -> Tensor:
    """Per-head padded (..., h, L, n) -> packed rows (N, h*n) of the real positions."""
    rows = T.getitem(T.swapaxes(x, -2, -3), m)
    return T.reshape(rows, (rows.shape[0], -1))


def _head_features(x: Tensor, w: Tensor, kernels: list[list[dict[str, Tensor]]]) -> Tensor:
    """One side of a kernel layer: project the packed rows (N, d) by ``w``,
    then apply each head's feature-map stack to its column block; returns
    (N, h*C)."""
    rows = T.matmul(x, w)
    n = rows.shape[-1] // len(kernels)
    return T.concat([kernel_stack_forward(T.getitem(rows, np.s_[:, i * n:(i + 1) * n]), kp)
                     for i, kp in enumerate(kernels)], axis=-1)


def _attend(q: Tensor, k: Tensor, x: Tensor, params: AttentionLayerParams, kind: str,
            n_heads: int, m: np.ndarray) -> Tensor:
    """The rest of a layer on the packed rows of mask ``m``: pad the query and
    key rows per head (kernel features with 1, softmax logits' inputs with
    0), project and pad the values of ``x``, run ``kind``'s evaluator, merge
    the heads and project out. Each step works on each row or on each
    (sequence, head) slice alone."""
    fill = 0.0 if kind == "softmax" else 1.0
    q, k = _heads(q, n_heads, m, fill), _heads(k, n_heads, m, fill)
    v = _heads(T.matmul(x, params.w_v), n_heads, m)
    m_heads = np.expand_dims(m, -2)  # broadcast over heads: (..., 1, L)
    if kind == "softmax":
        out = softmax_attention(q, k, v, m_heads)
    elif kind == "kernel_linear":
        out = kernel_attention_linear(q, k, v, m_heads, eps=EPS)
    else:
        out = kernel_attention_quadratic(q, k, v, m_heads, eps=EPS)
    return T.matmul(_merge_rows(out, m), params.w_o)


def multi_head_kernel_attention(x: Tensor, params: AttentionLayerParams,
                                config: ModelConfig, mask, submit=None) -> Tensor:
    """Project, run kernel attention per head, merge, project out.

    ``config`` supplies the width, head count and ``attention_kind``;
    each head's feature stack runs as its weights say. ``softmax`` is kernel
    attention under the exponential kernel exp(q . k / sqrt(n)), evaluated
    exactly (the quadratic baseline). ``kernel_linear`` and
    ``kernel_quadratic`` map queries and keys through each head's stack, then
    run the factorized evaluator or its oracle (to cross-check full layers).
    Any other kind, or a head count other than the layer's number of stacks,
    raises ``ConfigError``: a ``ModelConfig`` stays mutable.

    ``x`` holds the packed rows ``(mask.sum(), d_model)`` of the unmasked
    positions of a ``(..., L)`` mask, in row-major order, and so does the
    output. The projections and feature stacks run on these rows; the
    evaluator sees per-head padded arrays, and both kernel evaluators add
    ``EPS`` to their denominators. For the kernel kinds the pad slots hold
    features of 1 and values of 0: positive, as the quadratic oracle checks,
    so a pad query never divides 0 by 0, and the key mask keeps pad keys out
    of S and z.

    Without ``submit``, the steps run in turn on the caller, the query
    features before the key features. With the ``submit`` of a caller's
    ``tensor.lane`` (``Model.encode`` passes its own when it records no
    graph), the query features are built on the lane while the caller builds
    the key features. Then, if the mask has a leading sequence axis of at
    least 2 entries, the batch is cut at ``B // 2`` sequences: the lane runs
    the rest of the layer (``_attend``) on the first half's rows while the
    caller runs it on the second half's, and the two outputs are
    concatenated. S and z are formed per sequence and head and the products
    treat each row alone, so the halves give the bits of the whole; a cut
    that leaves one half a single row is not made.
    """
    m = _rows_mask(x, mask, config.d_model)
    kind, n_heads = config.attention_kind, config.n_heads
    if kind not in ATTENTION_KINDS:
        raise ConfigError(f"attention_kind must be one of {ATTENTION_KINDS}, got {kind!r}")
    kernels = params.head_kernels
    if kind != "softmax" and len(kernels) != n_heads:
        raise ConfigError(f"{kind} runs {n_heads} heads, but the layer holds "
                          f"{len(kernels)} feature stacks")
    if kind == "softmax":
        q, k = T.matmul(x, params.w_q), T.matmul(x, params.w_k)
    elif submit is None:
        q = _head_features(x, params.w_q, kernels)
        k = _head_features(x, params.w_k, kernels)
    else:
        q = submit(_head_features, x, params.w_q, kernels)
        k = _head_features(x, params.w_k, kernels)
        q = q.result()
    b2 = m.shape[0] // 2 if submit is not None and m.ndim >= 2 else 0
    r = int(np.count_nonzero(m[:b2]))
    # A half of one row would take numpy's matrix-vector product, whose
    # bits differ from those of a row of the matrix product.
    if not 1 < r < x.shape[0] - 1:
        return _attend(q, k, x, params, kind, n_heads, m)
    first = submit(_attend, *(T.getitem(t, np.s_[:r]) for t in (q, k, x)),
                   params, kind, n_heads, m[:b2])
    rest = _attend(*(T.getitem(t, np.s_[r:]) for t in (q, k, x)),
                   params, kind, n_heads, m[b2:])
    return T.concat([first.result(), rest], axis=0)
