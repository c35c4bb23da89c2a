"""Acceptance gates.

Each test exercises one release criterion at its stated tolerance and
prints a pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``
to see them). Quantitative gates run at desk scale: the synthetic tasks
and timing thresholds stand in for full-size long-sequence benchmarks.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import linattn.training
from linattn.bench import bench_scaling
from linattn.config import parse_config_file
from linattn.errors import ConfigError
from linattn.kernels import KernelSpec
from linattn.model import ModelConfig, ParamAccount, build_model, count_params
from linattn.training import train
from linattn.verify import (check_gradients, check_oracle_equivalence, check_orthogonal_init,
                            check_param_counts, check_positivity)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def summarize(results) -> tuple[bool, str]:
    """Whether every ``verify`` check result passed, and a detail line
    naming the failures (or the first results when all passed)."""
    failed = [r for r in results if not r.passed]
    shown = "; ".join(f"{r.name}: {r.detail}" for r in (failed or results)[:3])
    return not failed, f"{len(results) - len(failed)}/{len(results)} passed; {shown}"


class TestOracleEquivalence:
    def test_linear_matches_quadratic_for_every_variant_and_depth(self):
        t0 = time.time()
        ok, detail = summarize(check_oracle_equivalence())
        elapsed = time.time() - t0
        report("oracle equivalence (4 variants x 3 depths x 100 trials)",
               ok and elapsed < 60, f"{detail}, {elapsed:.1f}s")


class TestGradientCorrectness:
    def test_full_model_gradients_match_finite_differences(self):
        t0 = time.time()
        ok, detail = summarize(check_gradients())
        elapsed = time.time() - t0
        report("gradient correctness (1-layer 2-head kernel attention model)",
               ok and elapsed < 300, f"{detail}, {elapsed:.1f}s")


class TestPositivity:
    def test_kernel_outputs_strictly_positive(self):
        report("positivity (10^4 draws from N(0,9) per variant x depth)",
               *summarize(check_positivity()))


class TestParameterAccounting:
    def test_gated_kernel_doubles_linear(self):
        report("parameter accounting (closed forms, gating doubles, rank-n/4 cuts 25%)",
               *summarize(check_param_counts()))

    def test_budget_gate_rejects_at_limit(self):
        at_limit = ParamAccount(base_params=1000, kernel_params=100)
        below = ParamAccount(base_params=1000, kernel_params=99)
        config = parse_config_file(CONFIGS / "glu3.cfg")
        over = count_params(build_model(config.model, 0))
        with pytest.raises(ConfigError):
            train(config, seed=1)
        ok = (not at_limit.within_budget) and below.within_budget and (not over.within_budget)
        report("budget gate (strict: ratio >= 0.10 rejected, training refused)",
               ok, f"ratio 0.100 -> fail, 0.099 -> pass, shipped 3x gated config "
                   f"ratio {over.ratio:.4f} -> refused")


class TestOrthogonality:
    def test_initialization_is_orthogonal(self):
        report("orthogonal initialization (n <= 128)", *summarize(check_orthogonal_init()))

    def test_regularized_run_ends_with_smaller_penalty(self, monkeypatch):
        from linattn.config import (OptimizerConfig, ScheduleConfig, TaskSpec,
                                    TrainConfig)

        def run(weight):
            monkeypatch.setattr(linattn.training, "ORTHO_REG_WEIGHT", weight)
            spec = KernelSpec(variant="oglu", depth=1)
            cfg = TrainConfig(
                model=ModelConfig(vocab_size=24, d_model=16, n_heads=2,
                                  n_layers=1, ffn_dim=32, max_len=64, classes=2,
                                  kernel=spec, attention_kind="kernel_linear",
                                  dropout_rate=0.0),
                task=TaskSpec(source="text_classification", count=96, eval_count=64,
                              length=64, vocab_size=24, classes=2),
                optimizer=OptimizerConfig(lr=1e-3),
                schedule=ScheduleConfig(warmup_steps=0, total_steps=200),
                micro_batch=16, eval_every=0)
            return train(cfg, seed=5, dtype=np.float64).records[-1].ortho_penalty

        with_reg = run(0.01)
        without = run(0.0)
        report("orthogonality regularization (weight 0.01 vs 0, same seed)",
               with_reg < without,
               f"measured penalty {with_reg:.4e} < {without:.4e}")


class TestGradientAccumulation:
    def test_micro_batches_equal_one_large_batch(self):
        from linattn.config import (OptimizerConfig, ScheduleConfig, TaskSpec,
                                    TrainConfig)

        def run(micro, accum):
            spec = KernelSpec(variant="oglu", depth=1)
            cfg = TrainConfig(
                model=ModelConfig(vocab_size=24, d_model=16, n_heads=2,
                                  n_layers=1, ffn_dim=32, max_len=64, classes=2,
                                  kernel=spec, attention_kind="kernel_linear",
                                  dropout_rate=0.0),
                task=TaskSpec(source="text_classification", count=96, eval_count=64,
                              length=64, vocab_size=24, classes=2),
                optimizer=OptimizerConfig(lr=1e-3),
                schedule=ScheduleConfig(warmup_steps=0, total_steps=3),
                micro_batch=micro, accumulation_steps=accum, eval_every=0)
            return train(cfg, seed=3, dtype=np.float64).model.named_parameters()

        p_micro = run(8, 4)
        p_large = run(32, 1)
        worst = max(float(np.abs(p_micro[k].data - p_large[k].data).max())
                    for k in p_micro)
        report("gradient accumulation (4 x 8 vs 1 x 32, three steps, 64-bit)",
               worst <= 1e-12, f"max parameter diff = {worst:.3e}, tol 1e-12")


class TestComplexityScaling:
    def test_fitted_exponents(self):
        t0 = time.time()
        result = bench_scaling([256, 512, 1024, 2048], repeats=5)
        lin = result.exponents["kernel_linear"]
        soft = result.exponents["softmax"]
        elapsed = time.time() - t0
        report("complexity scaling (log-log exponents over L in 256..2048)",
               lin < 1.3 and soft > 1.7 and elapsed < 600,
               f"factorized {lin:.2f} < 1.3, softmax {soft:.2f} > 1.7, {elapsed:.0f}s")


class TestDeskScaleLearning:
    def test_linear_and_gated_kernels_learn_the_separable_task(self):
        t0 = time.time()
        results = {}
        for name in ("classify_linear.cfg", "classify_oglu.cfg"):
            config = parse_config_file(CONFIGS / name)
            res = train(config, seed=1)
            results[name] = res
        elapsed = time.time() - t0
        ok = all(r.final_accuracy >= 0.95 and r.records[-1].step <= 2000
                 for r in results.values()) and elapsed < 1800
        detail = ", ".join(f"{n.split('.')[0]}: {r.final_accuracy:.3f} in "
                           f"{r.records[-1].step} steps" for n, r in results.items())
        report("desk-scale learning (>= 95% within 2000 steps, both kernels)",
               ok, f"{detail}, {elapsed:.0f}s total")


class TestFiveSeedProtocol:
    def test_seeds_summary_and_variance_flag(self, capsys):
        from linattn.cli import main

        cfg_text = (CONFIGS / "classify_linear.cfg").read_text()
        cfg_text = cfg_text.replace("total_steps = 2000", "total_steps = 8")
        cfg_text = cfg_text.replace("warmup_steps = 50", "warmup_steps = 0")
        cfg_text = cfg_text.replace("count = 2000", "count = 128")
        cfg_text = cfg_text.replace("eval_count = 500", "eval_count = 64")
        cfg_text = cfg_text.replace("target_accuracy = 0.95", "")
        import tempfile, os
        fd, path = tempfile.mkstemp(suffix=".cfg")
        out_dir = tempfile.mkdtemp()
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(cfg_text)
            code = main(["seeds", "--config", path, "--out-dir", out_dir])
            text = capsys.readouterr().out
            rows = [line for line in text.splitlines() if line.startswith("seed ")]
            has_aggregate = "mean" in text and "best" in text and "std" in text
            summary_path = os.path.join(out_dir, "summary.json")
            ok = code == 0 and len(rows) == 5 and has_aggregate and os.path.exists(summary_path)

            import json
            summary = json.loads(open(summary_path).read())
            flag_consistent = summary["high_variance"] == (summary["std"] > 0.02)
        finally:
            os.unlink(path)
        report("five-seed protocol (per-seed rows, mean/best/std, variance flag)",
               ok and flag_consistent,
               f"5 rows emitted, mean {summary['mean']:.3f}, std {summary['std']:.4f}, "
               f"flagged: {summary['high_variance']}")
