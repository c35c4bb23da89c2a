"""Linear attention with trainable positive feature-map kernels.

A numpy-backed library with its own reverse-mode differentiation core: positive
feature maps (softplus linear, gated linear units, orthogonally regularized and
low-rank-gated variants), factorized attention checked against a quadratic
oracle, a desk-scale transformer encoder with parameter-budget accounting,
synthetic long-sequence tasks, and a training/benchmark harness.
"""

from .attention import (AttentionLayerParams, kernel_attention_linear,
                        kernel_attention_quadratic, multi_head_kernel_attention,
                        softmax_attention)
from .errors import ConfigError, ContractError, DataError, GraphError, ShapeError
from .kernels import (KernelSpec, feature_layer, kernel_stack_forward, orthogonal_init,
                      orthogonality_penalty)
from .model import (ModelConfig, ParamAccount, build_model, count_params, forward_classify,
                    forward_match, load_checkpoint, save_checkpoint)
from .tensor import Tensor, backward, finite_difference_check, no_grad

__version__ = "0.1.0"
