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
  a rank-r product (n x r)(r x n) to cut parameters.

Stacks of depth 2-3 insert plain gated layers (or, for the softplus
variant, linear layers under gelu) before the positive output layer. No
normalization between layers. Every layer of every variant is one
``feature_layer``; the stack only picks each layer's activation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("linear_softplus", "glu", "oglu", "aoglu")

MAX_DEPTH = 3

# Variants whose feature matrices (``w``, ``w_feat``) start orthogonal and
# carry the orthogonality penalty: every variant but plain glu.
_ORTHOGONAL_VARIANTS = ("linear_softplus", "oglu", "aoglu")


@dataclass
class KernelSpec:
    """Declarative description of one feature-map stack.

    ``gate_rank`` is only meaningful for the ``aoglu`` variant and must
    satisfy 1 <= rank < n / 2 at head width n (``check_gate_rank``).
    Queries and keys of a head run through the same stack.
    """

    variant: str = "linear_softplus"
    depth: int = 1
    gate_rank: int = 0
    ortho_reg_weight: float = 0.01

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_int_fields(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown kernel variant {self.variant!r}; expected one of {VARIANTS}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"kernel depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        if not 0 <= self.ortho_reg_weight < float("inf"):
            raise ConfigError(
                f"ortho_reg_weight must be finite and >= 0, got {self.ortho_reg_weight}")


def check_int_fields(spec):
    """Reject a float, bool or string (a checkpoint header can carry one) in
    a dataclass field annotated ``int``."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "int" and (isinstance(value, bool)
                                or not isinstance(value, (int, np.integer))):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")


def check_gate_rank(spec: KernelSpec, n: int):
    """Reject an aoglu gate rank r outside 1 <= r < n / 2 at head width n."""
    if spec.variant == "aoglu" and not 1 <= spec.gate_rank < n / 2:
        raise ConfigError(f"aoglu gate_rank must satisfy 1 <= r < n/2 at head width n, "
                          f"got r={spec.gate_rank}, n={n}")


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
    ``param(kind, shape)`` (see ``drawer``), one dict per layer: ``w``,
    ``w_feat``/``w_gate`` or ``w_feat``/``gate_in``/``gate_out``.

    Matrices subject to the orthogonality penalty (``w`` of the softplus
    variant, ``w_feat`` of oglu/aoglu) are ``orthogonal``; every other
    matrix is ``uniform``. Only aoglu's output layer has a rank-r gate.
    """
    check_gate_rank(spec, n)
    r = spec.gate_rank
    feat = "orthogonal" if spec.variant in _ORTHOGONAL_VARIANTS else "uniform"
    layers = []
    for i in range(spec.depth):
        if spec.variant == "linear_softplus":
            layers.append({"w": param(feat, (n, n))})
        elif spec.variant == "aoglu" and i == spec.depth - 1:
            layers.append({"w_feat": param(feat, (n, n)), "gate_in": param("uniform", (n, r)),
                           "gate_out": param("uniform", (r, n))})
        else:
            layers.append({"w_feat": param(feat, (n, n)), "w_gate": param("uniform", (n, n))})
    return layers


def feature_layer(x: Tensor, layer: dict[str, Tensor], act) -> Tensor:
    """act(X W), times sigmoid(X W_gate) or sigmoid((X gate_in) gate_out)
    when the layer holds those weights; ``act=None`` leaves X W linear.
    With ``act=T.softplus`` the output is strictly positive."""
    w = layer["w"] if "w" in layer else layer["w_feat"]
    h = T.matmul(x, w)
    if act is not None:
        h = act(h)
    if "w_gate" in layer:
        return T.mul(h, T.sigmoid(T.matmul(x, layer["w_gate"])))
    if "gate_in" in layer:
        return T.mul(h, T.sigmoid(T.matmul(T.matmul(x, layer["gate_in"]), layer["gate_out"])))
    return h


def kernel_stack_forward(x: Tensor, spec: KernelSpec, layers: list[dict[str, Tensor]]) -> Tensor:
    """Run the full feature-map stack; the final layer output is strictly
    positive for every variant."""
    if len(layers) != spec.depth:
        raise ConfigError(f"params hold {len(layers)} layers but spec depth is {spec.depth}")
    h = x
    for i, layer in enumerate(layers):
        if i == spec.depth - 1:
            act = T.softplus
        elif spec.variant == "linear_softplus":
            act = T.gelu
        else:
            act = None
        h = feature_layer(h, layer, act)
    return h


def regularized_matrices(spec: KernelSpec, layers: list[dict[str, Tensor]]) -> list[Tensor]:
    """The matrices the orthogonality penalty applies to: ``w`` for the
    softplus variant, each layer's ``w_feat`` for oglu/aoglu, none for
    plain glu: the matrices ``init_kernel_params`` starts orthogonal."""
    if spec.variant not in _ORTHOGONAL_VARIANTS:
        return []
    key = "w" if spec.variant == "linear_softplus" else "w_feat"
    return [layer[key] for layer in layers]


def orthogonality_penalty(matrices: list[Tensor], weight: float) -> Tensor:
    """weight * sum over matrices of ||W^T W - I||_F^2.

    Returns an exact constant zero when the set is empty or the weight is
    zero, so unregularized runs carry no penalty graph.
    """
    if weight < 0:
        raise ConfigError(f"penalty weight must be >= 0, got {weight}")
    if not matrices or weight == 0:
        dtype = matrices[0].dtype if matrices else np.float64
        return Tensor(np.zeros((), dtype=dtype))
    total = None
    for w in matrices:
        n = w.shape[0]
        eye = Tensor(np.eye(n, dtype=w.dtype))
        dev = T.sub(T.matmul(T.swapaxes(w, -1, -2), w), eye)
        term = T.sum(T.square(dev))
        total = term if total is None else T.add(total, term)
    return T.mul(total, weight)
