"""The four trainable feature maps and what makes them usable as kernels.

Attention weights in a factorized model are dot products of mapped queries
and keys, so the map must produce strictly positive features. This walks
each variant, shows positivity over a wide input range, and compares
parameter costs.
"""

import numpy as np

from linattn.kernels import (KernelSpec, drawer, init_kernel_params, kernel_stack_forward,
                             orthogonality_penalty, regularized_matrices)
from linattn.model import named_tensors
from linattn.tensor import Tensor

rng = np.random.default_rng(0)
n = 16  # per-head feature width

print("variant            depth  params   min output    max output   penalty@init")
for variant in ("linear_softplus", "glu", "oglu", "aoglu"):
    for depth in (1, 2, 3):
        spec = KernelSpec(variant=variant, depth=depth)
        params = init_kernel_params(spec, n, drawer(rng, np.float64))

        # wide inputs: three standard deviations of a unit-scale activation
        x = Tensor(rng.normal(0.0, 3.0, size=(5000, n)))
        out = kernel_stack_forward(x, params)

        penalty = orthogonality_penalty(regularized_matrices(spec, params), 1.0)
        size = sum(t.size for t in named_tensors(params).values())
        print(f"{variant:<18} {depth:>5}  {size:>6}   "
              f"{out.data.min():.3e}    {out.data.max():.3e}   {penalty.item():.2e}")

print()
print("Notes:")
print(" * every output is > 0: softplus on the linear path, sigmoid on the gate")
print(" * gated layers cost 2x the linear map; the rank-n/4 gate factoring")
print(f"   brings one layer from {2*n*n} back to {n*n + 2*n*(n//4)} parameters (-25%)")
print(" * orthogonally initialized matrices start with ~0 penalty; training")
print("   with a positive weight keeps them near the orthogonal manifold")
