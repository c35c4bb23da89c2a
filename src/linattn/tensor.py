"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy array (float32 for training, float64 for verification)
and optionally link to a node of a differentiation graph. Graphs are built
eagerly as operations run and are single-use: ``backward`` consumes the
graph and a second pass through it raises ``GraphError``.

The graph is a tape of nodes, not of tensors: a node holds its parents'
nodes and a VJP closure, and each VJP keeps only the shapes and arrays it
reads (``add`` keeps shapes, ``mul`` the other operand, ``sigmoid`` its
output, ...). An intermediate that no VJP reads is freed during the forward
pass as soon as the caller drops its tensor. A VJP reads the arrays it
captured at forward time: an in-place write to one (as Adam makes) is seen,
a rebinding of ``Tensor.data`` is not. ``swapaxes`` returns a view of its
operand, as ``reshape`` does where numpy can, so an in-place write to a
parameter (Adam's) also shows through every view taken of it and through
the VJPs that captured one; each graph is consumed by ``backward`` before
Adam writes.

Graphs are recorded on one thread. ``_node_of`` gives a trainable tensor
its leaf node lazily, on its first use in a graph, so two threads recording
over a shared parameter could each make one, and ``backward`` would keep
only one of their gradients, without an error. The package's one kind of
worker thread is a ``lane``, and ``_make`` raises ``GraphError`` where a
lane thread would attach a node. An encode's lane draws dropout numbers,
or, in an encode that records no graph, builds each attention layer's
query features and runs the rest of the layer on one half of its
sequences, and the layer norms and FFN on one half of its rows (see
``model``). A training step's lane runs one micro-batch's ``backward``
while the caller records the next (see ``training``). ``backward`` makes
no node and toggles no ``no_grad``: it reads the nodes, leaves included,
that the recording thread made.

Broadcasting follows numpy's trailing-dimension alignment; gradients of a
broadcast operand are summed back over the expanded axes by ``_unbroadcast``,
which also computes the forward ``sum`` and ``mean``. The intended use is
batch-style broadcasting (a matrix applied across leading batch axes, a
per-feature vector against its trailing axis, a size-1 mask axis).

On glibc, importing this module sets the allocator's mmap and trim
thresholds and its arena count (see ``MALLOC_POLICY``), so the multi-MB
temporaries every step allocates and frees reuse heap pages instead of
faulting in fresh ones, on every thread. Unless a BLAS thread-count
variable is set, it also sets numpy's OpenBLAS to one thread (see
``BLAS_THREADS``).
"""

from __future__ import annotations

import builtins
import ctypes
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

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
# in cache across the ~25 passes of the rational form. Each block costs ~30
# small ufunc calls, each of which takes and hands back the GIL, so two
# threads running gelu on row halves contend for it. On a 2-core x86-64 VM
# the halves of a (7000, 128) gelu ran at 0.98-1.10 of serial time with
# 2^15-element blocks and at 0.75-0.81 with 2^16, where the serial call also
# went from 2.9-3.1 to 2.7-2.9 ms.
_ERF32_BLOCK = 1 << 16

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# glibc's largest mmap threshold on 64-bit (2.36 ignores a larger one yet
# returns success); larger arrays still use mmap.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30
ARENA_MAX = 1


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
    """Keep freed arrays below ``MMAP_THRESHOLD`` in one heap for reuse.

    By default glibc moves its mmap threshold up to the largest chunk freed
    so far and trims the heap top once the free space there exceeds twice
    that, so each step's fresh multi-MB temporaries fault their pages in
    again. Fixing any threshold turns the dynamic one off, so both are set:
    the mmap threshold first and, only if glibc accepted it, the trim
    threshold. The cost is that resident memory stays at its high-water
    mark. Then ``ARENA_MAX`` caps the arenas at one, so a ``lane`` thread
    (the encoder's dropout draws and row halves, a layer's query features
    and first sequence half, a reverse pass) allocates from the main heap and
    reuses its pages instead of growing an arena of its own.
    Returns the settings applied (``None`` for one glibc refused), or None
    when none was.
    """
    if libc is None or libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return None
    trimmed = libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    one_arena = libc.mallopt(_M_ARENA_MAX, ARENA_MAX) == 1
    return {"mmap_threshold": MMAP_THRESHOLD,
            "trim_threshold": TRIM_THRESHOLD if trimmed else None,
            "arena_max": ARENA_MAX if one_arena else None}


#: Allocator settings made at import (``None`` off glibc); ``linattn bench``
#: records it in ``env.json``.
MALLOC_POLICY = _set_malloc_policy(_glibc())

#: The variables that fix a BLAS thread count; any one set wins over the default.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Thread-count setters of the OpenBLAS builds that numpy wheels bundle
# (scipy-openblas from NumPy 2, the 64-bit-integer OpenBLAS of NumPy 1.26)
# and of a plain OpenBLAS; each has a getter named with "get" for "set".
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads")


def _set_blas_threads() -> int | None:
    """Set the first OpenBLAS mapped into the process (numpy's, once numpy is
    imported) to one thread, unless one of ``BLAS_THREAD_VARS`` is set, and
    return the thread count it runs at. Returns None when no mapped library
    exports a known setter (no OpenBLAS, or no ``/proc/self/maps``).

    Every timing and byte record here is taken at one BLAS thread, and the
    package's own lane threads would compete with OpenBLAS's for the
    cores. ``os.environ`` is left as it is."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = dict.fromkeys(line.split(None, 5)[5].strip() for line in fh
                                  if "openblas" in line.rsplit("/", 1)[-1])
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapped file since deleted
            continue
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                setter, getter = getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                if not any(os.environ.get(var) for var in BLAS_THREAD_VARS):
                    setter(1)
                return getter()
    return None


#: The thread count numpy's OpenBLAS runs at after import (``None`` when no
#: OpenBLAS with a known setter is loaded); ``linattn bench`` records it in
#: ``env.json``.
BLAS_THREADS = _set_blas_threads()


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


class _LaneThread(threading.local):
    """``on`` is True only on a lane thread, whose executor's initializer
    sets it; every other thread reads the class default."""

    on = False


_LANE_THREAD = _LaneThread()


# A class, not a generator function: perfbench's tracer wraps every public
# function of this module as a tensor op, and a lane makes no tensor.
class lane:
    """``with lane() as submit:`` runs ``submit(fn, *args) -> Future``
    tasks on one worker thread beside the caller.

    The thread starts at the first ``submit`` (a lane given no task starts
    none) and runs the tasks in submit order. Every exit from the block
    joins it, after the tasks already submitted have run. A task's error
    reaches whoever reads its result. A lane thread records no graph:
    ``_make`` raises ``GraphError`` there.
    """

    def __init__(self):
        self._pool: ThreadPoolExecutor | None = None

    def __enter__(self) -> Callable[..., Future]:
        return self._submit

    def _submit(self, fn: Callable, *args) -> Future:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="linattn-lane",
                                            initializer=setattr,
                                            initargs=(_LANE_THREAD, "on", True))
        return self._pool.submit(fn, *args)

    def __exit__(self, exc_type, exc, tb):
        if self._pool is not None:
            self._pool.shutdown()
        return False


class _Node:
    """One entry of a differentiation graph: the parents' nodes (None for an
    operand that needs no gradient), the VJP, and the dtype its gradient
    must have. A leaf node holds its trainable tensor and has no VJP."""

    __slots__ = ("prev", "vjp", "dtype", "leaf", "consumed")

    def __init__(self, prev: tuple, vjp: Callable | None, dtype, leaf: Tensor | None = None):
        self.prev = prev
        self.vjp = vjp
        self.dtype = dtype
        self.leaf = leaf
        self.consumed = False


class Tensor:
    """A dense n-dimensional array with an optional differentiation node.

    Identity matters: tensors hash and compare by object identity so they
    can key gradient maps. Data is treated as immutable after construction.
    A tensor has no arithmetic operators, indexing or op methods: every
    graph node comes from one of this module's functions.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

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


def _unbroadcast(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``x`` over the axes on which it broadcasts ``shape``: the gradient
    of a broadcast operand, and the forward ``sum`` and ``mean`` (``shape``
    is then their ``keepdims`` shape).

    For a C-contiguous ``x``, three cases sum as a BLAS product with a ones
    vector, several times faster than ``np.sum`` and rounded differently in
    the last bits: over leading axes (``ones(n) @ x``; a bias, (N, d) ->
    (d,)), over the last axis (``x @ ones(k)``) and over the second-to-last
    (``ones((1, k)) @ x``, stacked). Other axes and layouts use ``np.sum``.
    """
    if x.shape == shape:
        return x
    full = (1,) * (x.ndim - len(shape)) + shape
    axes = tuple(i for i, (n, m) in enumerate(zip(x.shape, full)) if n != m)
    if x.flags.c_contiguous:
        if axes == tuple(range(len(axes))):
            n = math.prod(x.shape[:len(axes)])
            return (np.ones(n, x.dtype) @ x.reshape(n, math.prod(full))).reshape(shape)
        if axes == (x.ndim - 1,):
            k = x.shape[-1]
            return (x.reshape(math.prod(full), k) @ np.ones(k, x.dtype)).reshape(shape)
        if axes == (x.ndim - 2,):
            return (np.ones((1, x.shape[-2]), x.dtype) @ x).reshape(shape)
    return x.sum(axis=axes, keepdims=True).reshape(shape)


def _node_of(t: Tensor) -> _Node:
    """The graph node of a tensor that requires grad; a tensor no op made
    gets a leaf node on its first use."""
    if t._node is None:
        t._node = _Node((), None, t.dtype, leaf=t)
    return t._node


def _make(out_data: np.ndarray, prev: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result, attaching a graph node when grads are live. The
    node links the operands' nodes, not the operands, so it keeps no array
    that ``vjp`` does not capture."""
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in prev):
        if _LANE_THREAD.on:
            raise GraphError("a lane thread would record a graph node; graphs are "
                             "recorded on one thread")
        out.requires_grad = True
        out._node = _Node(tuple(_node_of(p) if p.requires_grad else None for p in prev),
                          vjp, out.dtype)
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "add")
    out = a.data + b.data
    a_shape, b_shape, need_a, need_b = a.shape, b.shape, a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return _make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "sub")
    out = a.data - b.data
    a_shape, b_shape, need_a, need_b = a.shape, b.shape, a.requires_grad, b.requires_grad

    def vjp(g):
        # Negated after the sum, so a broadcast b negates only its own size.
        return (_unbroadcast(g, a_shape) if need_a else None,
                -_unbroadcast(g, b_shape) if need_b else None)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "mul")
    out = a.data * b.data
    # Each gradient reads the other operand: kept only when it is needed.
    a_shape, b_shape = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (None if bd is None else _unbroadcast(g * bd, a_shape),
                None if ad is None else _unbroadcast(g * ad, b_shape))

    return _make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    """Elementwise division. Division by zero propagates inf/nan values,
    which the training harness detects via its non-finite guard."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_dtypes(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    # d(a/b)/db = -(a/b)/b, so both gradients come from g/b and the output,
    # which is kept only when b needs a gradient.
    a_shape, b_shape, need_a, bd = a.shape, b.shape, a.requires_grad, b.data
    quotient = out if b.requires_grad else None

    def vjp(g):
        da = db = None
        with np.errstate(divide="ignore", invalid="ignore"):
            ga = g / bd
            if need_a:
                da = _unbroadcast(ga, a_shape)
            if quotient is not None:
                db = -_unbroadcast(ga * quotient, b_shape)
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

    float32 uses ``_erf32``, float64 ``scipy.special.erf``, imported on its
    first call (the import costs about 22 MB of RSS that no float32 path
    needs). Every pass runs on one ``_ERF32_BLOCK``-element block at a time,
    while it is in cache; each is elementwise, so the result equals the
    unblocked formula. While a graph is recorded, each block then turns its
    ``cdf`` into the derivative ``cdf + x e^(-x^2/2) / sqrt(2 pi)``, rounded
    step for step as that expression, so the VJP keeps that one array and
    neither ``x`` nor ``cdf``.
    """
    x = _as_tensor(x)
    flat = x.data.reshape(-1)  # a copy only for a non-contiguous x
    cdf = np.empty_like(flat)
    out = np.empty_like(flat)
    record = _GRAD_ENABLED and x.requires_grad
    scratch = [np.empty(min(flat.size, _ERF32_BLOCK), flat.dtype) for _ in range(3)]
    if x.dtype != np.float32:
        from scipy.special import erf
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
        if record:
            d = np.multiply(-0.5, flat[s], out=scratch[0][:c.size])
            d *= flat[s]
            np.exp(d, out=d)
            d *= _INV_SQRT2PI
            d *= flat[s]
            c += d
    deriv = cdf.reshape(x.shape)

    def vjp(g):
        # A graph runs each VJP once, so the derivative takes g in place.
        return (np.multiply(deriv, g, out=deriv),)

    return _make(out.reshape(x.shape), (x,), vjp)


def square(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    return _make(xd * xd, (x,), lambda g: (g * 2.0 * xd,))


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    out = np.sqrt(x.data)
    return _make(out, (x,), lambda g: (g / (2.0 * out),))


def abs(x) -> Tensor:
    """Elementwise absolute value; subgradient 0 at the origin."""
    x = _as_tensor(x)
    xd = x.data
    return _make(np.abs(xd), (x,), lambda g: (g * np.sign(xd),))


def _sum(x: Tensor, axis, keepdims) -> tuple[np.ndarray, tuple[int, ...], int]:
    """The sum of ``x`` over ``axis`` (every axis for None) by ``_unbroadcast``,
    on a C-ordered copy of a strided ``x`` so that the bits do not depend on
    its layout, in a new array; with the ``keepdims`` shape and the count
    summed per entry."""
    nd = x.ndim
    axes = tuple(range(nd)) if axis is None else tuple(
        a % nd if -nd <= a < nd else nd for a in (axis if isinstance(axis, tuple) else (axis,)))
    if nd in axes or len(set(axes)) < len(axes):
        raise ShapeError(f"reduction axis {axis} is out of range or repeated for shape {x.shape}")
    kept = tuple(1 if i in axes else n for i, n in enumerate(x.shape))
    out = x.data.copy() if x.shape == kept else _unbroadcast(np.ascontiguousarray(x.data), kept)
    if not keepdims:
        out = out.reshape(tuple(n for i, n in enumerate(x.shape) if i not in axes))
    return out, kept, math.prod(x.shape[a] for a in axes)


def sum(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    out, kept, _ = _sum(x, axis, keepdims)
    shape = x.shape
    return _make(out, (x,), lambda g: (np.broadcast_to(g.reshape(kept), shape).copy(),))


def mean(x, axis=None, keepdims=False) -> Tensor:
    """The sum over ``axis`` divided by the count in place, in ``x``'s dtype,
    as ``np.mean`` does."""
    x = _as_tensor(x)
    out, kept, count = _sum(x, axis, keepdims)
    # A python int count keeps x's dtype (an np.int64 would promote float32
    # to float64).
    out /= count
    shape = x.shape
    return _make(out, (x,),
                 lambda g: (np.broadcast_to((g / count).reshape(kept), shape).copy(),))


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
    # Each gradient reads the other operand: kept only when it is needed.
    a_shape, b_shape = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        da = db = None
        if bd is not None:
            bt = bd.swapaxes(-1, -2)
            # With one column, g b^T is an outer product: one product per
            # element, as exact as BLAS and faster as a broadcast multiply.
            da = _unbroadcast(g * bt if g.shape[-1] == 1 else g @ bt, a_shape)
        if ad is not None:
            db = _unbroadcast(ad.swapaxes(-1, -2) @ g, b_shape)
        return da, db

    return _make(out, (a, b), vjp)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)
    in_shape = x.shape
    return _make(out, (x,), lambda g: (g.reshape(in_shape),))


def swapaxes(x, a: int, b: int) -> Tensor:
    """Axes ``a`` and ``b`` swapped, as a strided view that shares ``x``'s
    memory (no copy); the gradient is the view of ``g`` swapped back."""
    x = _as_tensor(x)
    return _make(x.data.swapaxes(a, b), (x,), lambda g: (g.swapaxes(a, b),))


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
    shape, dtype = x.shape, x.dtype
    if _is_bool_mask(key) and key.shape == shape[:key.ndim] and key.all():
        # Every element selected, as for a batch without padding: a reshape.
        return _make(x.data.reshape((-1,) + shape[key.ndim:]), (x,),
                     lambda g: (g.reshape(shape),))

    def vjp(g):
        dx = np.zeros(shape, dtype)
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
    shape, in_shape = mask.shape + x.shape[1:], x.shape
    if n == mask.size:  # no slot to fill: a reshape
        return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),))
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
    shape, dtype = table.shape, table.dtype

    def vjp(g):
        dt = np.zeros(shape, dtype)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            rows = g.reshape(-1, shape[-1])[order]
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

def _toposort(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    seen: set[_Node] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        if node.consumed:
            raise GraphError("graph already consumed by a previous backward pass")
        stack.append((node, True))
        for p in node.prev:
            if p is not None:
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

    root = _node_of(loss)
    order = _toposort(root)
    grads: dict[_Node, np.ndarray] = {root: np.ones_like(loss.data)}
    leaves: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node.leaf is not None:
            leaves[node.leaf] = np.asarray(g)  # 0-d products come back as numpy scalars
            continue
        for p, pg in zip(node.prev, node.vjp(g)):
            if p is None or pg is None:
                continue
            if pg.dtype != p.dtype:
                raise GraphError(f"a gradient of dtype {pg.dtype.name} reached an operand "
                                 f"of dtype {p.dtype.name}")
            acc = grads.get(p)
            grads[p] = pg if acc is None else acc + pg
        # Drop the VJP and its captured arrays as soon as it has run.
        node.consumed = True
        node.vjp = None
        node.prev = ()

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
