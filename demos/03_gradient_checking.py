"""Trust but verify: reverse-mode gradients against central differences.

The tensor core carries its own verification oracle. For any scalar
function of named parameters it compares the backward pass against
(f(x+h) - f(x-h)) / 2h elementwise and reports the worst relative error
per parameter group.
"""

import numpy as np

import linattn.tensor as T
from linattn.model import ModelConfig, build_model, forward_classify
from linattn.kernels import ORTHO_REG_WEIGHT, KernelSpec, orthogonality_penalty
from linattn.tensor import cross_entropy, finite_difference_check

spec = KernelSpec(variant="aoglu", depth=2)  # head width 4: gate rank 1
config = ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=1,
                     ffn_dim=16, max_len=8, classes=3, kernel=spec,
                     attention_kind="kernel_linear", dropout_rate=0.0)
model = build_model(config, seed=7, dtype=np.float64)

rng = np.random.default_rng(3)
tokens = rng.integers(1, 12, size=(2, 7))
mask = np.ones((2, 7), bool)
labels = np.array([1, 2])
params = model.named_parameters()


def loss_fn(_):
    ce = cross_entropy(forward_classify(model, tokens, mask), labels)
    return T.add(ce, orthogonality_penalty(model.regularized_matrices(), ORTHO_REG_WEIGHT))


report = finite_difference_check(loss_fn, params, step=1e-5)
print(f"{len(params)} parameter groups, "
      f"{sum(p.size for p in params.values())} scalar parameters\n")
for name, rep in sorted(report.items(), key=lambda kv: -kv[1].max_rel_err)[:10]:
    print(f"  {name:<38} rel err {rep.max_rel_err:.3e}")
worst = max(r.max_rel_err for r in report.values())
print(f"\nworst relative error anywhere: {worst:.3e} (gate: 1e-4)")
