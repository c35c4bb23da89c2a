"""Parameter accounting: how much the feature maps add on top of the encoder.

The harness refuses configurations whose kernel weights exceed 10% of the
base model. Gated stacks hit that wall quickly on small backbones; the
low-rank gate pushes it out.
"""

from linattn.kernels import KernelSpec
from linattn.model import ModelConfig, build_model, count_params

BASE = dict(vocab_size=32, d_model=64, n_heads=4, n_layers=2,
            ffn_dim=128, max_len=128, classes=2, attention_kind="kernel_linear",
            dropout_rate=0.0)

print("kernel stack               kernel params   ratio    10% budget")
for variant in ("linear_softplus", "glu", "oglu", "aoglu"):
    for depth in (1, 2, 3):
        spec = KernelSpec(variant=variant, depth=depth)
        model = build_model(ModelConfig(kernel=spec, **BASE), seed=0)
        account = count_params(model)
        word = "ok" if account.within_budget else "OVER"
        print(f"{variant:<18} x{depth}      {account.kernel_params:>8}      "
              f"{account.ratio:.4f}   {word}")

model = build_model(ModelConfig(kernel=KernelSpec(variant="glu", depth=1), **BASE), seed=0)
print(f"\nbase encoder parameters: {count_params(model).base_params}")
print("the 2-layer gated stack fits; the 3-layer one needs the low-rank gate,")
print("and even that stays over budget on this backbone at depth 3")
