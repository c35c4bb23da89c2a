"""Train a small factorized-attention encoder on a separable motif task.

Each class plants its own trigram in filler noise, so the task is
perfectly solvable; the interesting part is watching the orthogonality
penalty stay small while accuracy climbs. Takes well under a minute.
"""

import numpy as np

from linattn.config import (OptimizerConfig, ScheduleConfig, TaskSpec, TrainConfig)
from linattn.kernels import KernelSpec
from linattn.model import ModelConfig
from linattn.training import train

config = TrainConfig(
    model=ModelConfig(vocab_size=32, d_model=32, n_heads=2, n_layers=1,
                      ffn_dim=64, max_len=128, classes=2,
                      kernel=KernelSpec(variant="oglu", depth=1),
                      attention_kind="kernel_linear", dropout_rate=0.0),
    task=TaskSpec(source="text_classification", count=2000, eval_count=500,
                  length=128, vocab_size=32, classes=2),
    optimizer=OptimizerConfig(lr=2e-3),
    schedule=ScheduleConfig(warmup_steps=50, total_steps=400),
    micro_batch=16, eval_every=25, target_accuracy=0.98,
)

result = train(config, seed=1, log=None)
print("step   train loss   penalty      eval acc")
for rec in result.records:
    if rec.eval_accuracy is not None or rec.step % 25 == 0:
        acc = f"{rec.eval_accuracy:.3f}" if rec.eval_accuracy is not None else "  -  "
        print(f"{rec.step:>4}   {rec.train_loss:>9.4f}   {rec.ortho_penalty:.3e}   {acc}")

print(f"\nstopped at step {result.records[-1].step} with eval accuracy "
      f"{result.final_accuracy:.3f}")
