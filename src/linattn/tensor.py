"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy array (float32 for training, float64 for verification)
and optionally participate in a differentiation graph. Graphs are built
eagerly as operations run and are single-use: ``backward`` consumes the
graph and a second pass through it raises ``GraphError``.

Broadcasting follows numpy's trailing-dimension alignment; gradients of a
broadcast operand are summed back over the expanded axes. The intended use
is batch-style broadcasting (a matrix applied across leading batch axes, a
per-feature vector against its trailing axis, a size-1 mask axis).

On glibc, importing this module sets the allocator's mmap and trim
thresholds (see ``MALLOC_POLICY``), so the multi-MB temporaries every step
allocates and frees reuse heap pages instead of faulting in fresh ones.
"""

from __future__ import annotations

import builtins
import ctypes
import math
import os
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, GraphError, ShapeError

_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 erf as x P(x^2) / Q(x^2) on [-4, 4], the rational form Eigen and
# XLA use for float32 (beyond 4, erf rounds to +-1 in float32). Coefficients
# are listed from the highest power down, for Horner's rule.
_ERF32_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32)
_ERF32_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
# Elements per block of gelu's passes: the block and the erf's scratch stay
# in cache across the ~25 passes of the rational form.
_ERF32_BLOCK = 1 << 15

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit (2.36 ignores a larger one yet
# returns success); larger arrays still use mmap.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def _glibc():
    """The process's C library through ctypes when it is 64-bit glibc, else
    None (on 32-bit glibc ``MMAP_THRESHOLD`` is out of range)."""
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        return None
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    return libc


def _set_malloc_policy(libc) -> dict | None:
    """Keep freed arrays below ``MMAP_THRESHOLD`` in the heap for reuse.

    By default glibc moves its mmap threshold up to the largest chunk freed
    so far and trims the heap top once the free space there exceeds twice
    that, so each step's fresh multi-MB temporaries fault their pages in
    again. Fixing any threshold turns the dynamic one off, so both are set:
    the mmap threshold first and, only if glibc accepted it, the trim
    threshold. The cost is that resident memory stays at its high-water
    mark. Returns the thresholds applied, or None when none was.
    """
    if libc is None or libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return None
    trimmed = libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return {"mmap_threshold": MMAP_THRESHOLD,
            "trim_threshold": TRIM_THRESHOLD if trimmed else None}


#: Allocator thresholds set at import (``None`` off glibc); ``linattn bench``
#: records it in ``env.json``.
MALLOC_POLICY = _set_malloc_policy(_glibc())


@contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation, timing)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense n-dimensional array with an optional differentiation node.

    Identity matters: tensors hash and compare by object identity so they
    can key gradient maps. Data is treated as immutable after construction.
    A tensor has no arithmetic operators, indexing or op methods: every
    graph node comes from one of this module's functions.
    """

    __slots__ = ("data", "requires_grad", "_prev", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._prev: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{grad})"


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _check_dtypes(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: mixed element types {a.dtype.name} and {b.dtype.name}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over broadcast axes so it matches the operand shape.

    For a C-contiguous ``g``, two common cases sum as a BLAS matrix-vector
    product with a ones vector, several times faster than ``np.sum`` and
    rounded differently in the last bits: leading axes only (a bias or gain,
    (N, d) -> (d,)) and a trailing size-1 axis only (a (..., 1) operand).
    """
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if g.flags.c_contiguous:
        if extra > 0 and g.shape[extra:] == shape:
            n = math.prod(g.shape[:extra])
            return (np.ones(n, g.dtype) @ g.reshape(n, math.prod(shape))).reshape(shape)
        if extra == 0 and shape[-1] == 1 and g.shape[:-1] == shape[:-1]:
            k = g.shape[-1]
            return (g.reshape(math.prod(shape), k) @ np.ones(k, g.dtype)).reshape(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(out_data: np.ndarray, prev: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result, attaching a graph node when grads are live."""
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in prev):
        out.requires_grad = True
        out._prev = tuple(prev)
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "add")
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "sub")
    out = a.data - b.data

    def vjp(g):
        # Negated after the sum, so a broadcast b negates only its own size.
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "mul")
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    """Elementwise division. Division by zero propagates inf/nan values,
    which the training harness detects via its non-finite guard."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def vjp(g):
        # d(a/b)/db = -(a/b)/b, so both gradients come from g/b and the output.
        da = db = None
        with np.errstate(divide="ignore", invalid="ignore"):
            ga = g / b.data
            if a.requires_grad:
                da = _unbroadcast(ga, a.shape)
            if b.requires_grad:
                db = -_unbroadcast(ga * out, b.shape)
        return da, db

    return _make(out, (a, b), vjp)


def _logistic(x: np.ndarray) -> np.ndarray:
    """Logistic e^min(x, 0) / (1 + e^-|x|) of an array: overflow-free, and
    vectorized passes only (``scipy.special.expit`` runs a scalar loop).
    Within 4e-7 relative of ``expit`` in float32 and 1e-15 in float64."""
    num = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(num, out=num)
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    np.reciprocal(den, out=den)
    num *= den
    return num


def _erf32(b: np.ndarray, z2: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """erf of the 1-d float32 array ``b``, in place; returns ``b``. The first
    ``b.size`` elements of ``z2``, ``p`` and ``q`` are its scratch.

    Within 5e-7 absolute of the exact erf; odd, nan to nan, +-inf to +-1.
    """
    z2, p, q = z2[:b.size], p[:b.size], q[:b.size]
    np.clip(b, -4.0, 4.0, out=b)
    np.multiply(b, b, out=z2)
    np.multiply(z2, _ERF32_P[0], out=p)
    for c in _ERF32_P[1:-1]:
        p += c
        p *= z2
    p += _ERF32_P[-1]
    np.multiply(z2, _ERF32_Q[0], out=q)
    for c in _ERF32_Q[1:-1]:
        q += c
        q *= z2
    q += _ERF32_Q[-1]
    b *= p
    b /= q
    # The unclipped ratio reaches 1.0000002.
    np.clip(b, -1.0, 1.0, out=b)
    return b


def softplus(x) -> Tensor:
    """ln(1 + e^x) in the overflow-safe form max(x, 0) + ln(1 + e^-|x|).

    The result is floored at the smallest positive normal of the element
    type so it stays strictly positive even where e^-|x| underflows. Its
    gradient, the logistic of x, is 1 - e^-out: fewer passes than
    ``_logistic`` and as accurate.
    """
    x = _as_tensor(x)
    tiny = np.finfo(x.dtype).tiny
    out = np.abs(x.data, out=np.empty_like(x.data))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x.data, 0.0)
    np.maximum(out, tiny, out=out)
    return _make(out, (x,), lambda g: (g * -np.expm1(-out),))


def sigmoid(x) -> Tensor:
    """Logistic 1 / (1 + e^-x), overflow-safe, floored at the smallest
    positive normal so gates never collapse to exactly zero."""
    x = _as_tensor(x)
    tiny = np.finfo(x.dtype).tiny
    s = _logistic(x.data)
    np.maximum(s, tiny, out=s)
    return _make(s, (x,), lambda g: (g * s * (1.0 - s),))


def gelu(x) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 x (1 + erf(x / sqrt 2)).

    float32 uses ``_erf32``, float64 ``scipy.special.erf``. Every pass runs
    on one ``_ERF32_BLOCK``-element block at a time, while it is in cache;
    each is elementwise, so the result equals the unblocked formula.
    """
    x = _as_tensor(x)
    flat = x.data.reshape(-1)  # a copy only for a non-contiguous x
    cdf = np.empty_like(flat)
    out = np.empty_like(flat)
    if x.dtype == np.float32:
        scratch = [np.empty(min(flat.size, _ERF32_BLOCK), np.float32) for _ in range(3)]
    for start in range(0, flat.size, _ERF32_BLOCK):
        s = slice(start, start + _ERF32_BLOCK)
        c = np.multiply(flat[s], _INV_SQRT2, out=cdf[s])
        if x.dtype == np.float32:
            _erf32(c, *scratch)
        else:
            erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(flat[s], c, out=out[s])
    cdf = cdf.reshape(x.shape)
    out = out.reshape(x.shape)

    def vjp(g):
        # g (cdf + x e^(-x^2/2) / sqrt(2 pi)) in place, rounded step for step
        # as that expression, so float64 stays bit-identical to it.
        d = np.multiply(-0.5, x.data, out=np.empty_like(x.data))
        d *= x.data
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x.data
        d += cdf
        d *= g
        return (d,)

    return _make(out, (x,), vjp)


def square(x) -> Tensor:
    x = _as_tensor(x)
    return _make(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    out = np.sqrt(x.data)
    return _make(out, (x,), lambda g: (g / (2.0 * out),))


def abs(x) -> Tensor:
    """Elementwise absolute value; subgradient 0 at the origin."""
    x = _as_tensor(x)
    return _make(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


def sum(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    out = np.sum(x.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        return (_spread(g, x.shape, axis, keepdims),)

    return _make(np.asarray(out, dtype=x.dtype), (x,), vjp)


def mean(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    out = np.mean(x.data, axis=axis, keepdims=keepdims)
    # A python int count keeps the gradient in x's dtype (an np.int64 would
    # promote float32 to float64).
    count = x.data.size if axis is None else math.prod(
        x.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,)))

    def vjp(g):
        return (_spread(g / count, x.shape, axis, keepdims),)

    return _make(np.asarray(out, dtype=x.dtype), (x,), vjp)


def _spread(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    """Broadcast a reduction gradient back to the input shape."""
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for a in sorted(ax % len(shape) for ax in axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


# ---------------------------------------------------------------------------
# matrix and structural operations
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading batch axes."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    _check_dtypes(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >= 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        da = db = None
        if a.requires_grad:
            bt = b.data.swapaxes(-1, -2)
            # With one column, g b^T is an outer product: one product per
            # element, as exact as BLAS and faster as a broadcast multiply.
            da = _unbroadcast(g * bt if g.shape[-1] == 1 else g @ bt, a.shape)
        if b.requires_grad:
            db = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return da, db

    return _make(out, (a, b), vjp)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)
    return _make(out, (x,), lambda g: (g.reshape(x.shape),))


def swapaxes(x, a: int, b: int) -> Tensor:
    x = _as_tensor(x)
    out = np.ascontiguousarray(x.data.swapaxes(a, b))
    return _make(out, (x,), lambda g: (g.swapaxes(a, b),))


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    for t in ts[1:]:
        _check_dtypes(ts[0], t, "concat")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def vjp(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _make(out, ts, vjp)


def _is_basic_key(key) -> bool:
    """Whether numpy indexes with ``key`` by basic indexing (integers, slices,
    ``Ellipsis``, ``None``), which never selects an element twice."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def _is_bool_mask(key) -> bool:
    """Whether ``key`` is a boolean array, which selects each element at most once."""
    return isinstance(key, np.ndarray) and key.dtype == np.bool_ and key.ndim > 0


def getitem(x, key) -> Tensor:
    """``x[key]`` for a basic key or a boolean mask, which never select an
    element twice, so the gradient is assigned. Other keys (integer arrays,
    lists, boolean scalars) may repeat elements and raise ``ShapeError``;
    ``embedding`` is the integer gather."""
    x = _as_tensor(x)
    if not (_is_basic_key(key) or _is_bool_mask(key)):
        raise ShapeError("getitem takes basic keys and boolean masks only: an integer "
                         "array, list or boolean scalar may select an element twice")
    if _is_bool_mask(key) and key.shape == x.shape[:key.ndim] and key.all():
        # Every element selected, as for a batch without padding: a reshape.
        return _make(x.data.reshape((-1,) + x.shape[key.ndim:]), (x,),
                     lambda g: (g.reshape(x.shape),))

    def vjp(g):
        dx = np.zeros_like(x.data)
        dx[key] = g
        return (dx,)

    return _make(np.ascontiguousarray(x.data[key]), (x,), vjp)


def unpack(x, mask, fill: float = 0.0) -> Tensor:
    """The inverse of ``getitem(x, mask)`` for a boolean ``mask``: the rows of ``x``,
    one per True entry in row-major order, scattered into a ``mask.shape +
    x.shape[1:]`` array whose other slots hold ``fill``. The gradient of
    ``x`` is ``g[mask]``; the fill slots pass none back."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    n = int(np.count_nonzero(mask))
    if x.ndim < 1 or x.shape[0] != n:
        raise ShapeError(f"unpack: {x.shape[:1]} rows for a mask with {n} True entries")
    shape = mask.shape + x.shape[1:]
    if n == mask.size:  # no slot to fill: a reshape
        return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))
    out = np.full(shape, fill, dtype=x.dtype)
    out[mask] = x.data
    return _make(out, (x,), lambda g: (g[mask],))


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``. The gradient of each table row is the sum
    of the output rows that read it, summed in the order they occur."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(
            f"embedding ids out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}")
    out = table.data[ids]

    def vjp(g):
        dt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            rows = g.reshape(-1, table.shape[-1])[order]
            dt[sorted_ids[starts]] = np.add.reduceat(rows, starts, axis=0)
        return (dt,)

    return _make(out, (table,), vjp)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax over the last axis, shifted by the row max."""
    x = _as_tensor(x)
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), vjp)


def cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"labels out of range [0, {k})")
    shifted = logits.data - np.max(logits.data, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1)) + np.max(logits.data, axis=-1)
    nll = lse - logits.data[np.arange(n), labels]
    out = np.asarray(nll.mean(), dtype=logits.dtype)

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _make(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise GraphError("graph already consumed by a previous backward pass")
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params=None) -> dict[Tensor, np.ndarray]:
    """Reverse-mode gradients of a scalar loss for every trainable leaf.

    Returns a mapping from leaf tensor (identity) to its gradient array.
    When ``params`` is given (an iterable or name->tensor mapping), every
    requested tensor gets exactly one entry, zero-filled if the loss does
    not depend on it. The traversed graph is consumed. Every gradient keeps
    its operand's dtype: a VJP that returns another dtype raises
    ``GraphError``. Returned gradients may share memory: for
    ``sum(3 (a + b))`` the gradients of ``a`` and ``b`` are one array, so
    copy one before changing it in place.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any trainable tensor")

    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            leaves[node] = np.asarray(g)  # 0-d products come back as numpy scalars
            continue
        for p, pg in zip(node._prev, node._vjp(g)):
            if not p.requires_grad or pg is None:
                continue
            if pg.dtype != p.dtype:
                raise GraphError(f"a gradient of dtype {pg.dtype.name} reached an operand "
                                 f"of dtype {p.dtype.name}")
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
        node._consumed = True
        node._vjp = None
        node._prev = ()

    if params is not None:
        requested = params.values() if isinstance(params, dict) else params
        for p in requested:
            if p not in leaves:
                leaves[p] = np.zeros_like(p.data)
    return leaves


# ---------------------------------------------------------------------------
# finite-difference verification oracle
# ---------------------------------------------------------------------------

class FiniteDiffReport:
    """Per-parameter outcome of a finite-difference gradient check."""

    __slots__ = ("max_rel_err", "failed")

    def __init__(self, max_rel_err: float, failed: bool):
        self.max_rel_err = max_rel_err
        self.failed = failed

    def __repr__(self):
        status = "FAILED" if self.failed else "ok"
        return f"FiniteDiffReport(max_rel_err={self.max_rel_err:.3e}, {status})"


def finite_difference_check(f: Callable[[dict], Tensor], params: dict,
                            step: float = 1e-5) -> dict[str, FiniteDiffReport]:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be a deterministic function of the parameter dict that
    returns a scalar tensor. The relative error per element uses the
    denominator max(|g|, |g_fd|, 1e-8). A non-finite evaluation marks the
    parameter under perturbation as failed.
    """
    if not step > 0:
        raise ContractError(f"finite-difference step must be > 0, got {step}")

    loss = f(params)
    grads = backward(loss, params=params)

    report: dict[str, FiniteDiffReport] = {}
    for name, p in params.items():
        g = grads[p]
        worst = 0.0
        failed = False
        for idx in np.ndindex(p.shape):
            orig = p.data[idx]
            with no_grad():
                p.data[idx] = orig + step
                up = float(f(params).item())
                p.data[idx] = orig - step
                down = float(f(params).item())
            p.data[idx] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                failed = True
                continue
            g_fd = (up - down) / (2.0 * step)
            g_an = float(g[idx])
            denom = max(builtins.abs(g_an), builtins.abs(g_fd), 1e-8)
            worst = max(worst, builtins.abs(g_an - g_fd) / denom)
        report[name] = FiniteDiffReport(worst, failed)
    return report
