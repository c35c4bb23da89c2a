"""Training harness: optimizer, accumulation, evaluation, seeds protocol."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import linattn.model
import linattn.tensor as T
import linattn.training
from linattn.config import (OptimizerConfig, ScheduleConfig, TaskSpec, TrainConfig,
                            parse_config_file)
from linattn.data import Batch, gen_matching, gen_text_classification
from linattn.errors import ConfigError
from linattn.kernels import KernelSpec
from linattn.model import ModelConfig, build_model
from linattn.tensor import Tensor
from linattn.training import Adam, VARIANCE_FLAG_STD, evaluate, lr_at, run_seeds, train
from conftest import assert_threads_back, lanes_off, os_threads


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def tiny_config(variant="oglu", steps=5, micro=8, accum=1, **train_overrides):
    spec = KernelSpec(variant=variant, depth=1)
    defaults = dict(
        model=ModelConfig(vocab_size=24, d_model=16, n_heads=2, n_layers=1,
                          ffn_dim=32, max_len=64, classes=2, kernel=spec,
                          attention_kind="kernel_linear", dropout_rate=0.0),
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


class TestPipelinedAccumulation:
    """With k > 1 micro-batches, each reverse pass but the last runs on a
    lane while the caller records the next forward pass: the same bits and
    dropout stream as a serial step, graphs made on the caller alone, and
    reverse passes in micro-batch order. These run in CI at the NumPy floor
    too."""

    @staticmethod
    def step(k, dtype=np.float32, seed=5):
        """One accumulated step over ``k`` distinct ragged micro-batches,
        with dropout; returns its result and the dropout rng."""
        cfg = tiny_config(accum=k).model
        cfg.dropout_rate = 0.1
        model = build_model(cfg, seed=seed, dtype=dtype)
        draw = np.random.default_rng(seed)
        batches = []
        for _ in range(k):
            mask = np.arange(20) < draw.integers(3, 21, size=(4, 1))
            tokens = np.where(mask, draw.integers(1, cfg.vocab_size, mask.shape), 0)
            batches.append(Batch(tokens, mask, draw.integers(0, cfg.classes, 4)))
        rng = np.random.default_rng(seed + 1)
        stepped = linattn.training._accumulated_step(
            model, model.named_parameters(), iter(batches), k, rng)
        return stepped, rng

    @staticmethod
    def slow_reverse(monkeypatch, fail_at=None):
        """Log each reverse pass's start and end and its thread; a pass on a
        worker first sleeps, so that it is still running while the caller
        goes on. Pass number ``fail_at`` raises instead."""
        events, caller, backward = [], threading.current_thread(), linattn.training.backward

        def logged(loss, params):
            n = sum(e[0] == "start" for e in events)
            events.append(("start", n, threading.current_thread() is caller))
            if threading.current_thread() is not caller:
                time.sleep(0.05)
            if n == fail_at:
                raise FloatingPointError(f"reverse pass {n}")
            grads = backward(loss, params=params)
            events.append(("end", n, threading.current_thread() is caller))
            return grads

        monkeypatch.setattr(linattn.training, "backward", logged)
        return events

    @staticmethod
    def forward_at(monkeypatch, n, make):
        """Micro-batch ``n``'s forward pass returns ``make(loss, task_loss)``."""
        calls, forward = [], linattn.training._forward_loss

        def patched(model, batch, rng):
            calls.append(None)
            out = forward(model, batch, rng)
            return make(*out) if len(calls) == n else out

        monkeypatch.setattr(linattn.training, "_forward_loss", patched)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_same_bits_and_stream_as_a_serial_step(self, monkeypatch, k, dtype):
        # A short switch interval makes the two threads interleave finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            (loss, task, grads), rng = self.step(k, dtype)
        finally:
            sys.setswitchinterval(interval)
        lanes_off(monkeypatch)
        (want_loss, want_task, want_grads), want_rng = self.step(k, dtype)
        assert (loss, task) == (want_loss, want_task)
        assert list(grads) == list(want_grads)
        for name, g in grads.items():
            assert g.dtype == dtype and g.tobytes() == want_grads[name].tobytes(), name
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_every_node_is_made_on_the_caller(self, monkeypatch):
        threads = []

        class SpyNode(T._Node):
            def __init__(self, *args, **kwargs):
                threads.append(threading.current_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(T, "_Node", SpyNode)
        self.slow_reverse(monkeypatch)
        assert self.step(3) is not None
        assert threads and set(threads) == {threading.current_thread()}

    @pytest.mark.parametrize("k", [2, 3])
    def test_reverse_passes_run_in_order_and_the_last_on_the_caller(self, monkeypatch, k):
        events = self.slow_reverse(monkeypatch)
        self.step(k)
        want = [(e, n, n == k - 1) for n in range(k) for e in ("start", "end")]
        assert events == want

    def test_non_finite_second_loss_returns_none_and_joins(self, monkeypatch):
        events = self.slow_reverse(monkeypatch)
        self.forward_at(monkeypatch, 2, lambda loss, task: (T.add(loss, np.nan), task))
        threads = threading.active_count(), os_threads()
        assert self.step(2)[0] is None
        assert_threads_back(threads)
        assert events == [("start", 0, False), ("end", 0, False)]

    def test_raising_first_reverse_pass_reaches_the_caller(self, monkeypatch):
        events = self.slow_reverse(monkeypatch, fail_at=0)
        threads = threading.active_count(), os_threads()
        with pytest.raises(FloatingPointError, match="reverse pass 0"):
            self.step(2)
        assert_threads_back(threads)
        assert events == [("start", 0, False)]

    def test_failed_reverse_pass_beats_a_non_finite_loss(self, monkeypatch):
        events = self.slow_reverse(monkeypatch, fail_at=0)
        self.forward_at(monkeypatch, 2, lambda loss, task: (T.add(loss, np.nan), task))
        threads = threading.active_count(), os_threads()
        with pytest.raises(FloatingPointError, match="reverse pass 0"):
            self.step(2)
        assert_threads_back(threads)
        assert events == [("start", 0, False)]

    def test_one_micro_batch_starts_no_thread(self, monkeypatch):
        threaded = lanes_off(monkeypatch)
        assert self.step(1)[0] is not None
        # Only the encoder's dropout draws would leave the caller.
        assert set(threaded) == {linattn.model._keep_scale}


# A float32 train step and an evaluation, through the CLI module's imports,
# leave scipy.special unloaded: it costs about 24 MB of RSS and only float64
# gelu calls it.
SCIPY_PROBE = """
import sys
import numpy as np
import linattn.cli
from linattn.config import OptimizerConfig, ScheduleConfig, TaskSpec, TrainConfig
from linattn.kernels import KernelSpec
from linattn.model import ModelConfig
from linattn.training import evaluate, train

cfg = TrainConfig(
    model=ModelConfig(vocab_size=24, d_model=16, n_heads=2, n_layers=1, ffn_dim=32,
                      max_len=32, classes=2, kernel=KernelSpec(variant="linear_softplus", depth=2)),
    task=TaskSpec(source="text_classification", count=16, eval_count=8, length=32,
                  vocab_size=24, classes=2),
    optimizer=OptimizerConfig(lr=1e-3), schedule=ScheduleConfig(warmup_steps=0, total_steps=1),
    micro_batch=8, accumulation_steps=2, eval_every=0)
result = train(cfg, seed=0, dtype=np.float32)
evaluate(result.model, cfg.task.build()[1])
print("scipy.special" in sys.modules)
"""


def test_float32_paths_leave_scipy_special_unloaded():
    src = str(Path(linattn.training.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False"]


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

    def test_ortho_regularization_reduces_measured_penalty(self, monkeypatch):
        reg = train(tiny_config(steps=200), seed=5, dtype=np.float64)
        monkeypatch.setattr(linattn.training, "ORTHO_REG_WEIGHT", 0.0)
        unreg = train(tiny_config(steps=200), seed=5, dtype=np.float64)
        assert reg.records[-1].ortho_penalty < unreg.records[-1].ortho_penalty


class TestRunSeeds:
    def test_equal_accuracies_zero_std(self, monkeypatch):
        from linattn import training as tr
        monkeypatch.setattr(tr, "train", lambda config, seed, **kw: SimpleNamespace(
            final_accuracy=0.75, records=[SimpleNamespace(step=1)], diverged=False))
        summary = tr.run_seeds(tiny_config(seeds=[3, 5, 7, 9, 11]))
        assert summary.std == 0.0
        assert not summary.high_variance
        assert len(summary.rows) == 5

    def test_repeated_seed_rejected_before_training(self, monkeypatch):
        from linattn import training as tr
        built = []
        monkeypatch.setattr(tr, "build_model", lambda *a, **kw: built.append(a))
        with pytest.raises(ConfigError, match=r"^seeds must be >= 0 and distinct, "
                                              r"got \[1, 1, 2\]$"):
            tr.run_seeds(tiny_config(seeds=[1, 1, 2]))
        assert built == []

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
