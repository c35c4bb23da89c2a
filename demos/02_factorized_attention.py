"""Why the linear rewrite of kernel attention is exact, not approximate.

Weighted-average attention with kernel weights k(q_i, k_j) = qf_i . kf_j
can be evaluated two ways: materialize the L x L weight matrix (the
quadratic oracle), or accumulate S = sum_j kf_j v_j^T and z = sum_j kf_j
once and reuse them for every query. Same numbers, different cost.
"""

import numpy as np

from linattn.attention import kernel_attention_linear, kernel_attention_quadratic
from linattn.kernels import KernelSpec, drawer, init_kernel_params, kernel_stack_forward
from linattn.tensor import Tensor

rng = np.random.default_rng(7)

spec = KernelSpec(variant="oglu", depth=2)
params = init_kernel_params(spec, 8, drawer(3, np.float64))

L, d = 48, 12
qf = kernel_stack_forward(Tensor(rng.standard_normal((L, 8))), params)
kf = kernel_stack_forward(Tensor(rng.standard_normal((L, 8))), params)
v = Tensor(rng.standard_normal((L, d)))
mask = np.ones(L, bool)
mask[-10:] = False  # pretend the tail is padding

quad = kernel_attention_quadratic(qf, kf, v, mask)
lin = kernel_attention_linear(qf, kf, v, mask)
print(f"L={L}, d={d}, feature dim C={qf.shape[-1]}")
print(f"max |linear - quadratic| = {np.abs(lin.data - quad.data).max():.3e}")

# positive weights that sum to one mean every output row is a convex
# combination of the unmasked value rows
lo, hi = v.data[mask].min(), v.data[mask].max()
print(f"output range [{lin.data.min():.3f}, {lin.data.max():.3f}] inside "
      f"value range [{lo:.3f}, {hi:.3f}]")

# padding can never leak: append garbage rows under a False mask
junk_v = np.vstack([v.data, 1e6 * rng.standard_normal((4, d))])
junk_kf = Tensor(np.vstack([kf.data, rng.uniform(0.5, 1.5, (4, qf.shape[-1]))]))
junk_qf = Tensor(np.vstack([qf.data, rng.uniform(0.5, 1.5, (4, qf.shape[-1]))]))
ext_mask = np.concatenate([mask, np.zeros(4, bool)])
ext = kernel_attention_linear(junk_qf, junk_kf, Tensor(junk_v), ext_mask)
print(f"masked-junk drift on real positions: "
      f"{np.abs(ext.data[:L] - lin.data).max():.3e}")
