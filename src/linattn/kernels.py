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
variant, linear layers under a configurable inner nonlinearity) before
the positive output layer. No normalization between layers.
Every layer of every variant is one ``feature_layer``; the stack only
picks each layer's activation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("linear_softplus", "glu", "oglu", "aoglu")
INNER_NONLINEARITIES = ("softplus", "gelu", "sigmoid")

MAX_DEPTH = 3


@dataclass
class KernelSpec:
    """Declarative description of one feature-map stack.

    ``gate_rank`` is only meaningful for the ``aoglu`` variant and must
    satisfy 1 <= rank < n / 2 at head width n (``check_gate_rank``).
    ``low_rank_all_layers`` extends the rank-r gate factorization from the
    output layer to the intermediate gated layers as well (off by default:
    intermediate gates stay full rank). ``share_query_key`` controls whether
    queries and keys run through the same weights within a head.
    """

    variant: str = "linear_softplus"
    depth: int = 1
    gate_rank: int = 0
    orthogonal_init: bool = True
    ortho_reg_weight: float = 0.01
    inner_nonlinearity: str = "gelu"
    low_rank_all_layers: bool = False
    share_query_key: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown kernel variant {self.variant!r}; expected one of {VARIANTS}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"kernel depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        if self.inner_nonlinearity not in INNER_NONLINEARITIES:
            raise ConfigError(
                f"inner_nonlinearity must be one of {INNER_NONLINEARITIES}, "
                f"got {self.inner_nonlinearity!r}")
        if not 0 <= self.ortho_reg_weight < float("inf"):
            raise ConfigError(
                f"ortho_reg_weight must be finite and >= 0, got {self.ortho_reg_weight}")


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


def uniform_init(rng: np.random.Generator, rows: int, cols: int, dtype) -> np.ndarray:
    """A (rows, cols) draw from uniform(-1/sqrt(rows), 1/sqrt(rows))."""
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)


def init_kernel_params(spec: KernelSpec, n: int, seed,
                       dtype=np.float32) -> list[dict[str, Tensor]]:
    """Allocate and initialize all weights for one feature-map stack of width
    ``n``, one dict per layer: ``w``, ``w_feat``/``w_gate`` or ``w_feat``/``gate_in``/``gate_out``.

    Matrices subject to the orthogonality penalty (``w`` of the softplus
    variant, ``w_feat`` of oglu/aoglu) start orthogonal when the spec asks
    for it; every other matrix uses uniform(-1/sqrt(n), 1/sqrt(n)).
    """
    check_gate_rank(spec, n)
    rng = np.random.default_rng(seed)
    r = spec.gate_rank
    ortho = spec.orthogonal_init and spec.variant in ("linear_softplus", "oglu", "aoglu")

    def feat_matrix():
        if ortho:
            return Tensor(orthogonal_init(n, rng, dtype=dtype), requires_grad=True)
        return Tensor(uniform_init(rng, n, n, dtype), requires_grad=True)

    layers = []
    for i in range(spec.depth):
        last = i == spec.depth - 1
        if spec.variant == "linear_softplus":
            layers.append({"w": feat_matrix()})
        elif spec.variant in ("glu", "oglu"):
            layers.append({"w_feat": feat_matrix(),
                           "w_gate": Tensor(uniform_init(rng, n, n, dtype), requires_grad=True)})
        else:  # aoglu
            low_rank = last or spec.low_rank_all_layers
            layer = {"w_feat": feat_matrix()}
            if low_rank:
                layer["gate_in"] = Tensor(uniform_init(rng, n, r, dtype), requires_grad=True)
                layer["gate_out"] = Tensor(uniform_init(rng, r, n, dtype), requires_grad=True)
            else:
                layer["w_gate"] = Tensor(uniform_init(rng, n, n, dtype), requires_grad=True)
            layers.append(layer)
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


_INNER = {"softplus": T.softplus, "gelu": T.gelu, "sigmoid": T.sigmoid}


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
            act = _INNER[spec.inner_nonlinearity]
        else:
            act = None
        h = feature_layer(h, layer, act)
    return h


def regularized_matrices(spec: KernelSpec, layers: list[dict[str, Tensor]]) -> list[Tensor]:
    """The matrices the orthogonality penalty applies to: ``w`` for the
    softplus variant, each layer's ``w_feat`` for oglu/aoglu, none for
    plain glu."""
    if spec.variant == "linear_softplus":
        return [layer["w"] for layer in layers]
    if spec.variant in ("oglu", "aoglu"):
        return [layer["w_feat"] for layer in layers]
    return []


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
