"""Training harness: optimizer, accumulation, evaluation, seeds protocol."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import linattn.training
from linattn.config import (OptimizerConfig, ScheduleConfig, TaskSpec, TrainConfig,
                            parse_config_file)
from linattn.data import gen_matching, gen_text_classification
from linattn.errors import ConfigError
from linattn.kernels import KernelSpec
from linattn.model import ModelConfig, build_model
from linattn.tensor import Tensor
from linattn.training import Adam, VARIANCE_FLAG_STD, evaluate, lr_at, run_seeds, train


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def tiny_config(variant="oglu", steps=5, lam=0.01, micro=8, accum=1, **train_overrides):
    spec = KernelSpec(variant=variant, depth=1, ortho_reg_weight=lam)
    defaults = dict(
        model=ModelConfig(vocab_size=24, d_model=16, n_heads=2, n_layers=1,
                          ffn_dim=32, max_len=64, classes=2, kernel=spec,
                          attention_kind="kernel_linear", eps=0.0, dropout_rate=0.0),
        task=TaskSpec(source="text_classification", count=96, eval_count=64, length=64,
                      vocab_size=24, classes=2),
        optimizer=OptimizerConfig(lr=1e-3),
        schedule=ScheduleConfig(warmup_steps=0, total_steps=steps),
        micro_batch=micro, accumulation_steps=accum, eval_every=0,
    )
    defaults.update(train_overrides)
    return TrainConfig(**defaults)


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p})
        g = np.array([0.5, -0.25])
        opt.step({"p": g}, lr=0.01)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = np.array([1.0, -2.0]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        assert lr_at(1, 1.0, 10, 100) == pytest.approx(0.1)
        assert lr_at(10, 1.0, 10, 100) == pytest.approx(1.0)

    def test_linear_decay_reaches_zero(self):
        assert lr_at(100, 1.0, 10, 100) == pytest.approx(0.0)
        assert lr_at(55, 1.0, 10, 100) == pytest.approx(0.5)

    def test_inv_sqrt(self):
        assert lr_at(40, 1.0, 10, 100, decay="inv_sqrt") == pytest.approx(0.5)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(warmup_steps=10, total_steps=10).validate()


class TestAccumulationEquivalence:
    def test_micro_batches_match_single_batch(self):
        r1 = train(tiny_config(micro=8, accum=4, steps=3), seed=3, dtype=np.float64)
        r2 = train(tiny_config(micro=32, accum=1, steps=3), seed=3, dtype=np.float64)
        p1 = r1.model.named_parameters()
        p2 = r2.model.named_parameters()
        worst = max(np.abs(p1[k].data - p2[k].data).max() for k in p1)
        assert worst <= 1e-12

    def test_losses_match_too(self):
        r1 = train(tiny_config(micro=4, accum=6, steps=2), seed=1, dtype=np.float64)
        r2 = train(tiny_config(micro=24, accum=1, steps=2), seed=1, dtype=np.float64)
        for a, b in zip(r1.records, r2.records):
            assert a.train_loss == pytest.approx(b.train_loss, abs=1e-12)


class TestEvaluate:
    def test_deterministic(self):
        cfg = tiny_config()
        model = build_model(cfg.model, seed=0)
        ds = gen_text_classification(0, 200, length=64, vocab_size=24, classes=2)
        a = evaluate(model, ds)
        b = evaluate(model, ds)
        assert a == b

    def test_untrained_near_chance(self):
        # labels independent of tokens, so any fixed predictor sits at 1/2
        from linattn.data import Dataset
        cfg = tiny_config()
        model = build_model(cfg.model, seed=1)
        rng = np.random.default_rng(1)
        examples = [(rng.integers(1, 24, size=64), int(i % 2)) for i in range(2000)]
        ds = Dataset(examples=examples, vocab=[str(i) for i in range(24)], classes=2)
        acc, loss = evaluate(model, ds)
        assert abs(acc - 0.5) <= 0.05
        assert math.isfinite(loss)

    def test_schema_mismatch_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg.model, seed=2)
        pairs = gen_matching(0, 50, length=32)
        with pytest.raises(ConfigError):
            evaluate(model, pairs)

    def test_perfect_predictions_give_accuracy_one(self):
        # an oracle-labeled dataset evaluated against itself
        from linattn.data import motif_oracle
        ds = gen_text_classification(2, 300, length=64, vocab_size=24, classes=2)
        preds = motif_oracle(ds)
        labels = np.array([y for _, y in ds.examples])
        assert (preds == labels).mean() == 1.0


class TestTrainLoop:
    def test_metrics_recorded_every_step(self):
        res = train(tiny_config(steps=4), seed=0)
        assert [r.step for r in res.records] == [1, 2, 3, 4]
        assert all(math.isfinite(r.train_loss) for r in res.records)
        assert res.records[-1].eval_accuracy is not None  # final step evaluates

    def test_metrics_jsonl_written(self, tmp_path):
        out = tmp_path / "run"
        res = train(tiny_config(steps=3), seed=0, out_dir=str(out))
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert {"step", "train_loss", "task_loss", "ortho_penalty", "eval_accuracy",
                "wall_time_ms", "seed", "diverged"} <= set(rec)
        assert (out / "checkpoint.bin").exists()
        assert res.checkpoint_path is not None

    def test_metrics_deterministic_modulo_wall_time(self, tmp_path):
        def stream(tag):
            out = tmp_path / tag
            train(tiny_config(steps=4), seed=5, out_dir=str(out))
            lines = (out / "metrics.jsonl").read_text().strip().splitlines()
            cleaned = []
            for line in lines:
                rec = json.loads(line)
                rec.pop("wall_time_ms")
                cleaned.append(json.dumps(rec, sort_keys=True))
            return cleaned

        assert stream("a") == stream("b")

    @staticmethod
    def _over_budget_config():
        """``glu3.cfg``'s model: a 3-layer glu stack over the 10% budget."""
        cfg = tiny_config()
        cfg.model = ModelConfig(vocab_size=32, d_model=64, n_heads=4,
                                n_layers=2, ffn_dim=128, max_len=64, classes=2,
                                kernel=KernelSpec(variant="glu", depth=3),
                                attention_kind="kernel_linear", dropout_rate=0.0)
        return cfg

    def test_budget_gate_refuses(self):
        cfg = self._over_budget_config()
        with pytest.raises(ConfigError, match="0.1"):
            train(cfg, seed=0)
        res = train(cfg, seed=0, override_budget=True)
        assert len(res.records) >= 1

    def test_budget_checked_before_data_or_weights(self, monkeypatch):
        monkeypatch.setattr(TaskSpec, "build", lambda self: pytest.fail("generated the data"))
        monkeypatch.setattr(linattn.training, "build_model",
                            lambda *a, **k: pytest.fail("drew the weights"))
        with pytest.raises(ConfigError, match=r"over parameter budget: kernel/base ratio "
                                              r"0\.\d{4} >= 0\.10 \(pass --override-budget"):
            train(self._over_budget_config(), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_flagged(self, tmp_path):
        cfg = tiny_config(steps=50)
        # Large enough that step 2's loss overflows, small enough that step 1's
        # update leaves the penalty finite (lr = 1e18 overflows it at step 1).
        cfg.optimizer = OptimizerConfig(lr=1e6)
        out = tmp_path / "run"
        res = train(cfg, seed=0, dtype=np.float32, out_dir=str(out))
        assert res.diverged
        assert res.records[-1].diverged
        assert math.isnan(res.records[-1].train_loss)  # in memory, NaN stays NaN
        assert res.records[-1].step == len(res.records)
        assert res.checkpoint_path is None
        assert not (out / "checkpoint.bin").exists()

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        lines = (out / "metrics.jsonl").read_text().splitlines()
        recs = [json.loads(line, parse_constant=reject) for line in lines]
        assert len(recs) == len(res.records)
        assert recs[-1]["diverged"] is True
        assert recs[-1]["train_loss"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_last_step_overflow_is_divergence(self, tmp_path):
        # The step's loss is finite; its update overflows the weights.
        cfg = tiny_config(steps=1, schedule=ScheduleConfig(warmup_steps=0, total_steps=1,
                                                           decay="inv_sqrt"))
        cfg.optimizer = OptimizerConfig(lr=1e18)
        out = tmp_path / "run"
        res = train(cfg, seed=0, dtype=np.float32, out_dir=str(out))
        assert math.isfinite(res.records[-1].train_loss)
        assert not math.isfinite(res.records[-1].ortho_penalty)
        assert res.diverged
        assert res.final_accuracy == 0.0
        assert res.checkpoint_path is None
        assert not (out / "checkpoint.bin").exists()
        rec = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        assert rec["diverged"] is True and rec["ortho_penalty"] is None

    def test_non_finite_eval_loss_is_divergence(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linattn.training, "evaluate",
                            lambda *args, **kwargs: (0.5, float("nan")))
        cfg = tiny_config(steps=4, eval_every=2)
        res = train(cfg, seed=0, out_dir=str(tmp_path))
        assert res.diverged and res.records[-1].step == 2
        assert [r.diverged for r in res.records] == [False, True]
        assert math.isfinite(res.records[-1].ortho_penalty)
        assert res.final_accuracy == 0.0
        assert not (tmp_path / "checkpoint.bin").exists()

    def test_target_accuracy_stops_early(self):
        cfg = tiny_config(variant="linear_softplus", steps=400, micro=16,
                          eval_every=10, target_accuracy=0.9)
        cfg.optimizer = OptimizerConfig(lr=2e-3)
        res = train(cfg, seed=1)
        assert res.final_accuracy >= 0.9
        assert res.records[-1].step < 400

    def test_ortho_regularization_reduces_measured_penalty(self):
        reg = train(tiny_config(steps=200, lam=0.01), seed=5, dtype=np.float64)
        unreg = train(tiny_config(steps=200, lam=0.0), seed=5, dtype=np.float64)
        assert reg.records[-1].ortho_penalty < unreg.records[-1].ortho_penalty


class TestRunSeeds:
    def test_identical_seeds_zero_std(self):
        cfg = tiny_config(steps=3, seeds=[7, 7, 7, 7, 7])
        summary = run_seeds(cfg)
        assert summary.std == 0.0
        assert not summary.high_variance
        assert len(summary.rows) == 5

    def test_one_row_per_seed_plus_aggregate(self, tmp_path):
        cfg = tiny_config(steps=3, seeds=[1, 2, 3])
        summary = run_seeds(cfg, out_dir=str(tmp_path / "seeds"))
        assert len(summary.rows) == 3
        assert {r["seed"] for r in summary.rows} == {1, 2, 3}
        assert summary.best >= summary.mean
        saved = json.loads((tmp_path / "seeds" / "summary.json").read_text())
        assert len(saved["rows"]) == 3

    def test_variance_flag_threshold(self, monkeypatch):
        from linattn import training as tr
        accs = {}

        def fixed(config, seed, **kw):
            return SimpleNamespace(final_accuracy=accs[seed], records=[SimpleNamespace(step=1)],
                                   diverged=False)

        monkeypatch.setattr(tr, "train", fixed)
        for offset, flagged in ((0.001, True), (-0.001, False)):
            half_gap = VARIANCE_FLAG_STD + offset  # the std of two values
            accs.update({1: 0.5 - half_gap, 2: 0.5 + half_gap})
            summary = tr.run_seeds(tiny_config(seeds=[1, 2]))
            assert summary.std == pytest.approx(half_gap)
            assert summary.high_variance is flagged

    def test_diverged_seed_excluded_and_reported(self, monkeypatch):
        cfg = tiny_config(steps=3, seeds=[1, 2])
        from linattn import training as tr
        real_train = tr.train

        def flaky(config, seed, **kw):
            res = real_train(config, seed, **kw)
            if seed == 2:
                res.records[-1].diverged = True
            return res

        monkeypatch.setattr(tr, "train", flaky)
        summary = tr.run_seeds(cfg)
        assert summary.diverged_seeds == [2]
        row1 = [r for r in summary.rows if r["seed"] == 1][0]
        assert summary.mean == pytest.approx(row1["accuracy"])


class TestFloat32Gradients:
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_every_gradient_reaching_adam_has_its_parameter_dtype(self, path, monkeypatch):
        cfg = parse_config_file(path)
        cfg.task.count = cfg.micro_batch * cfg.accumulation_steps
        cfg.task.eval_count = 2
        cfg.schedule.warmup_steps, cfg.schedule.total_steps = 0, 1
        cfg.eval_every = 0
        seen = []
        step = linattn.training.Adam.step

        def recording_step(opt, grads, lr):
            seen.extend((name, g.dtype, opt.params[name].dtype) for name, g in grads.items())
            return step(opt, grads, lr)

        monkeypatch.setattr(linattn.training.Adam, "step", recording_step)
        train(cfg, seed=0, dtype=np.float32, override_budget=True)
        assert len(seen) == len(build_model(cfg.model, 0).named_parameters())
        wrong = [(name, g.name) for name, g, want in seen if g != want or want != np.float32]
        assert not wrong
