"""Trainable positive feature maps for kernelized attention.

Four variants of the per-head projection applied to queries and keys
before the factorized attention product:

* ``linear_softplus``   softplus(X W), a single linear layer under a
  strictly positive nonlinearity.
* ``glu``               gated linear unit X W_feat * sigmoid(X W_gate);
  the output layer swaps the linear path for softplus to restore
  positivity.
* ``oglu``              same as ``glu`` but every W_feat is orthogonally
  initialized and pulled toward the orthogonal manifold by a penalty.
* ``aoglu``             ``oglu`` with the output layer's gate factored as
  a rank-r product (n x r)(r x n), r = n // 4 (``aoglu_rank``), to cut
  parameters; it needs a head width n >= 4.

Stacks of depth 2-3 insert plain gated layers (or, for the softplus
variant, linear layers under gelu) before the positive output layer. No
normalization between layers. Every layer of every variant is one
``feature_layer`` over ``w_feat`` and any gate; the stack takes each layer's
activation from its place and its weights. Training adds the orthogonality
penalty at the fixed weight ``ORTHO_REG_WEIGHT``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("linear_softplus", "glu", "oglu", "aoglu")

MAX_DEPTH = 3

# The orthogonality penalty's weight in the training loss.
ORTHO_REG_WEIGHT = 0.01

# Variants whose feature matrices (``w_feat``) start orthogonal and carry
# the orthogonality penalty: every variant but plain glu.
_ORTHOGONAL_VARIANTS = ("linear_softplus", "oglu", "aoglu")


def ruled(rule: str, ok, **kw):
    """A dataclass ``field(**kw)`` whose values must satisfy ``ok``, stated
    as ``rule`` for messages; ``check_fields`` applies it."""
    return field(metadata={"rule": rule, "ok": ok}, **kw)


def at_least(low, **kw):
    return ruled(f">= {low}", lambda v: v >= low, **kw)


def one_of(choices, **kw):
    return ruled(f"one of {choices}", lambda v: v in choices, **kw)


_FIELD_TYPES = {"int": ("an integer", (int, np.integer)), "float": ("a real number", numbers.Real),
                "float | None": ("a real number", (numbers.Real, type(None)))}


def check_fields(config):
    """Reject a bool or a value of another type (a checkpoint header can carry
    any) in a field annotated ``int``, ``float`` or ``float | None``, then a
    value outside any field's ``ruled`` domain, in field order."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES:
            what, types = _FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
    for f in fields(config):
        value = getattr(config, f.name)
        if "ok" in f.metadata and not f.metadata["ok"](value):
            raise ConfigError(f"{f.name} must be {f.metadata['rule']}, got {value!r}")


@dataclass
class KernelSpec:
    """How to make one feature-map stack: its variant and depth. No forward
    pass reads it: a built stack describes itself. Queries and keys of a
    head run through the same stack.
    """

    variant: str = one_of(VARIANTS, default="linear_softplus")
    depth: int = ruled(f"in [1, {MAX_DEPTH}]", lambda v: 1 <= v <= MAX_DEPTH, default=1)

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_fields(self)


def aoglu_rank(n: int) -> int:
    """The rank ``n // 4`` of aoglu's output gate at head width ``n``; a
    width below 4 leaves no rank and raises ``ConfigError``."""
    if n < 4:
        raise ConfigError(f"aoglu needs a head width >= 4 for its rank n // 4 gate, got {n}")
    return n // 4


def orthogonal_init(n: int, seed, dtype=np.float64) -> np.ndarray:
    """Draw an n x n matrix uniformly from the orthogonal group.

    QR-decomposes a standard Gaussian draw and absorbs the signs of R's
    diagonal into Q's columns, which corrects QR's sign ambiguity and
    makes the distribution Haar-uniform.
    """
    if n < 1:
        raise ConfigError(f"orthogonal_init needs n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).astype(dtype)


def drawer(seed, dtype=np.float32):
    """A ``param(kind, shape) -> Tensor`` that draws from
    ``np.random.default_rng(seed)``, one call at a time. ``uniform`` is
    uniform(-1/sqrt(rows), 1/sqrt(rows)), ``normal`` is N(0, 0.02),
    ``orthogonal`` an ``orthogonal_init`` draw; ``ones`` and ``zeros``
    draw nothing."""
    rng = np.random.default_rng(seed)

    def param(kind: str, shape: tuple[int, ...]) -> Tensor:
        if kind == "uniform":
            bound = 1.0 / np.sqrt(shape[0])
            arr = rng.uniform(-bound, bound, size=shape)
        elif kind == "normal":
            arr = rng.standard_normal(shape) * 0.02
        elif kind == "orthogonal":
            arr = orthogonal_init(shape[0], rng)
        else:
            arr = {"ones": np.ones, "zeros": np.zeros}[kind](shape)
        return Tensor(arr.astype(dtype), requires_grad=True)

    return param


def init_kernel_params(spec: KernelSpec, n: int, param) -> list[dict[str, Tensor]]:
    """Make all weights for one feature-map stack of width ``n`` through
    ``param(kind, shape)`` (see ``drawer``), one dict per layer: ``w_feat``,
    then ``w_gate`` for a gated variant or, on aoglu's output layer only, a
    rank-r gate ``gate_in``/``gate_out``. ``w_feat`` is ``orthogonal`` for
    the variants under the orthogonality penalty; every other matrix is
    ``uniform``.
    """
    feat = "orthogonal" if spec.variant in _ORTHOGONAL_VARIANTS else "uniform"
    layers = []
    for i in range(spec.depth):
        layer = {"w_feat": param(feat, (n, n))}
        if spec.variant == "aoglu" and i == spec.depth - 1:
            r = aoglu_rank(n)
            layer.update(gate_in=param("uniform", (n, r)), gate_out=param("uniform", (r, n)))
        elif spec.variant != "linear_softplus":
            layer["w_gate"] = param("uniform", (n, n))
        layers.append(layer)
    return layers


def feature_layer(x: Tensor, layer: dict[str, Tensor], act) -> Tensor:
    """act(X W_feat), times sigmoid(X W_gate) or sigmoid((X gate_in) gate_out)
    when the layer holds those weights; ``act=None`` leaves X W_feat linear.
    With ``act=T.softplus`` the output is strictly positive."""
    h = T.matmul(x, layer["w_feat"])
    if act is not None:
        h = act(h)
    if "w_gate" in layer:
        return T.mul(h, T.sigmoid(T.matmul(x, layer["w_gate"])))
    if "gate_in" in layer:
        return T.mul(h, T.sigmoid(T.matmul(T.matmul(x, layer["gate_in"]), layer["gate_out"])))
    return h


def kernel_stack_forward(x: Tensor, layers: list[dict[str, Tensor]]) -> Tensor:
    """Run a feature-map stack: gelu on an inner layer that is ``w_feat``
    alone, no activation on an inner gated layer, softplus on the last, so
    the output is strictly positive."""
    *inner, last = layers
    for layer in inner:
        x = feature_layer(x, layer, T.gelu if len(layer) == 1 else None)
    return feature_layer(x, last, T.softplus)


def regularized_matrices(spec: KernelSpec, layers: list[dict[str, Tensor]]) -> list[Tensor]:
    """The matrices the orthogonality penalty applies to: each layer's
    ``w_feat`` for linear_softplus, oglu and aoglu, none for plain glu: the
    matrices ``init_kernel_params`` starts orthogonal."""
    if spec.variant not in _ORTHOGONAL_VARIANTS:
        return []
    return [layer["w_feat"] for layer in layers]


def orthogonality_penalty(matrices: list[Tensor], weight: float) -> Tensor:
    """weight * sum over matrices of ||W^T W - I||_F^2, or an exact
    constant zero for an empty set (plain glu), so such runs carry no
    penalty graph.
    """
    if not matrices:
        return Tensor(np.zeros((), dtype=np.float64))
    total = None
    for w in matrices:
        n = w.shape[0]
        eye = Tensor(np.eye(n, dtype=w.dtype))
        dev = T.sub(T.matmul(T.swapaxes(w, -1, -2), w), eye)
        term = T.sum(T.square(dev))
        total = term if total is None else T.add(total, term)
    return T.mul(total, weight)
