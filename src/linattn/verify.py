"""Self-contained verification battery behind the ``verify`` subcommand.

Every check runs in 64-bit and prints one pass/fail line: factorized
attention against the quadratic oracle for each kernel variant and depth,
finite-difference gradient checks on every parameter group of a small
model, positivity sweeps, orthogonal initialization, low-rank gate
materialization, and the closed-form parameter counts. The acceptance
suite calls the same checks, so both run one battery at one setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import kernel_attention_linear, kernel_attention_quadratic
from .kernels import (ORTHO_REG_WEIGHT, KernelSpec, drawer, feature_layer, init_kernel_params,
                      kernel_stack_forward, orthogonal_init, orthogonality_penalty)
from .model import ModelConfig, build_model, closed_form_params, count_params, forward_classify
from .tensor import Tensor, cross_entropy, finite_difference_check

VARIANT_GRID = [("linear_softplus", 1), ("linear_softplus", 2), ("linear_softplus", 3),
                ("glu", 1), ("glu", 2), ("glu", 3),
                ("oglu", 1), ("oglu", 2), ("oglu", 3),
                ("aoglu", 1), ("aoglu", 2), ("aoglu", 3)]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_oracle_equivalence() -> list[CheckResult]:
    """100 random trials per variant and depth, L in [2, 64], a quarter of
    the positions masked, eps 0; linear and quadratic agree to 1e-10."""
    rng = np.random.default_rng(2024)
    results = []
    for variant, depth in VARIANT_GRID:
        spec = KernelSpec(variant, depth)
        worst, worst_length = 0.0, 0
        for _ in range(100):
            kp = init_kernel_params(spec, 8, drawer(rng, np.float64))
            length = int(rng.integers(2, 65))
            d = int(rng.integers(2, 17))
            x_q = Tensor(rng.standard_normal((length, 8)))
            x_k = Tensor(rng.standard_normal((length, 8)))
            v = Tensor(rng.standard_normal((length, d)))
            mask = np.ones(length, dtype=bool)
            if length > 2:
                mask[rng.random(length) < 0.25] = False
                mask[0] = True
            qf = kernel_stack_forward(x_q, kp)
            kf = kernel_stack_forward(x_k, kp)
            lin = kernel_attention_linear(qf, kf, v, mask, eps=0.0)
            quad = kernel_attention_quadratic(qf, kf, v, mask, eps=0.0)
            diff = float(np.abs(lin.data - quad.data).max())
            if diff > worst:
                worst, worst_length = diff, length
        results.append(CheckResult(
            name=f"oracle equivalence {variant} depth {depth}",
            passed=worst <= 1e-10,
            detail=f"max |linear - quadratic| = {worst:.3e} at L={worst_length} "
                   f"over 100 trials (tol 1e-10)"))
    return results


def check_gradients() -> list[CheckResult]:
    """Central differences on every parameter group of a 1-layer, 2-head
    aoglu model (head width 4, so gate rank 1), loss = cross-entropy +
    ``ORTHO_REG_WEIGHT`` * orthogonality penalty; worst relative error 1e-4."""
    spec = KernelSpec(variant="aoglu", depth=2)
    config = ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=1,
                         ffn_dim=16, max_len=8, classes=3, kernel=spec,
                         attention_kind="kernel_linear", dropout_rate=0.0)
    model = build_model(config, seed=7, dtype=np.float64)
    rng = np.random.default_rng(3)
    tokens = rng.integers(1, 12, size=(2, 7))
    mask = np.ones((2, 7), dtype=bool)
    mask[0, -2:] = False
    labels = np.array([1, 2])
    params = model.named_parameters()

    def loss_fn(p):
        ce = cross_entropy(forward_classify(model, tokens, mask), labels)
        return T.add(ce, orthogonality_penalty(model.regularized_matrices(), ORTHO_REG_WEIGHT))

    report = finite_difference_check(loss_fn, params, step=1e-5)
    worst_name, worst = max(((n, r.max_rel_err) for n, r in report.items()),
                            key=lambda kv: kv[1])
    any_failed = any(r.failed for r in report.values())
    return [CheckResult(
        name="finite-difference gradients (all parameter groups)",
        passed=worst <= 1e-4 and not any_failed,
        detail=f"worst group {worst_name}: rel err {worst:.3e} (tol 1e-4), "
               f"{len(params)} parameter groups")]


def check_positivity() -> list[CheckResult]:
    """Minimum stack output over 10^4 draws from N(0, 9) per variant and
    depth is strictly positive."""
    rng = np.random.default_rng(11)
    results = []
    for variant, depth in VARIANT_GRID:
        spec = KernelSpec(variant, depth)
        kp = init_kernel_params(spec, 8, drawer(rng, np.float64))
        x = Tensor(rng.normal(0.0, 3.0, size=(10_000, 8)))
        out = kernel_stack_forward(x, kp)
        lo = float(out.data.min())
        results.append(CheckResult(
            name=f"positivity {variant} depth {depth}",
            passed=lo > 0.0,
            detail=f"min output {lo:.3e} over 10000 draws from N(0, 9)"))
    return results


def check_orthogonal_init() -> list[CheckResult]:
    worst = 0.0
    for n in (2, 8, 32, 64, 128):
        q = orthogonal_init(n, seed=n + 1)
        worst = max(worst, float(np.abs(q.T @ q - np.eye(n)).max()))
    return [CheckResult(name="orthogonal initialization",
                        passed=worst <= 1e-12,
                        detail=f"max |Q^T Q - I| = {worst:.3e} over n <= 128 (tol 1e-12)")]


def check_gate_materialization() -> list[CheckResult]:
    rng = np.random.default_rng(3)
    spec = KernelSpec(variant="aoglu", depth=1)
    layer = init_kernel_params(spec, 16, drawer(rng, np.float64))[0]
    x = Tensor(rng.standard_normal((32, 16)))
    factored = feature_layer(x, layer, T.softplus)
    dense_gate = Tensor(layer["gate_in"].data @ layer["gate_out"].data)
    dense = feature_layer(x, {"w_feat": layer["w_feat"], "w_gate": dense_gate}, T.softplus)
    diff = float(np.abs(factored.data - dense.data).max())
    return [CheckResult(name="low-rank gate materialization",
                        passed=diff <= 1e-12,
                        detail=f"max diff factored vs dense gate = {diff:.3e}")]


def check_param_counts() -> list[CheckResult]:
    results = []
    for variant, depth in (("linear_softplus", 1), ("glu", 2), ("aoglu", 3)):
        spec = KernelSpec(variant, depth)
        config = ModelConfig(vocab_size=16, d_model=32, n_heads=2,
                             n_layers=2, ffn_dim=64, max_len=32, classes=2, kernel=spec,
                             attention_kind="kernel_linear", dropout_rate=0.0)
        model = build_model(config, seed=0)
        account, expected = count_params(model), closed_form_params(config)
        results.append(CheckResult(
            name=f"parameter closed form {variant} depth {depth}",
            passed=account == expected,
            detail=f"base {account.base_params} (expected {expected.base_params}), "
                   f"kernel {account.kernel_params} (expected {expected.kernel_params})"))

    n = 16

    def counted(variant: str) -> int:
        config = ModelConfig(vocab_size=16, d_model=4 * n, n_heads=4,
                             n_layers=1, ffn_dim=64, max_len=32, classes=2,
                             kernel=KernelSpec(variant=variant, depth=1),
                             attention_kind="kernel_linear", dropout_rate=0.0)
        return count_params(build_model(config, seed=0)).kernel_params

    linear = counted("linear_softplus")
    glu = counted("glu")
    aoglu = counted("aoglu")
    results.append(CheckResult(
        name="gated layer doubles the linear parametrization",
        passed=glu == 2 * linear,
        detail=f"counted glu {glu} vs 2 * linear {2 * linear}"))
    results.append(CheckResult(
        name="rank-n/4 gate cuts the gated layer by 25%",
        passed=aoglu * 4 == glu * 3,
        detail=f"counted aoglu {aoglu} vs 0.75 * glu {glu * 3 / 4:g}"))
    return results


def run_verify(log=print) -> bool:
    """Run the whole battery; prints one line per property."""
    checks: list[CheckResult] = []
    checks += check_oracle_equivalence()
    checks += check_gradients()
    checks += check_positivity()
    checks += check_orthogonal_init()
    checks += check_gate_materialization()
    checks += check_param_counts()
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        log(f"[{status}] {c.name}: {c.detail}")
        all_ok &= c.passed
    log(f"{'all checks passed' if all_ok else 'CHECKS FAILED'} "
        f"({sum(c.passed for c in checks)}/{len(checks)})")
    return all_ok
