"""Training loop, Adam optimizer, evaluation, and the multi-seed protocol.

One optimizer step averages gradients over ``accumulation_steps``
micro-batches (each micro-batch loss is an example mean; the summed
micro gradients are divided by the number of micro-batches), which makes
k micro-batches of size b equivalent to one batch of size k*b. The loss
is cross-entropy plus the weighted orthogonality penalty; the metrics
stream records the penalty unweighted so runs with different weights are
comparable.

A step diverges when its loss, the orthogonality penalty after its update
or the loss of its eval is non-finite. That aborts the run with a diverged
flag instead of continuing on garbage; a diverged run writes no checkpoint
and reports a final accuracy of 0.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .data import Batch, Dataset, MatchBatch, batch_iter
from .errors import ConfigError
from .kernels import orthogonality_penalty
from .model import (BUDGET_LIMIT, Model, build_model, closed_form_params, forward_classify,
                    forward_match, save_checkpoint)
from .tensor import Tensor, backward, no_grad


@dataclass
class MetricsRecord:
    step: int
    train_loss: float
    task_loss: float
    ortho_penalty: float
    eval_accuracy: float | None
    wall_time_ms: float
    seed: int
    diverged: bool = False

    def to_json(self) -> str:
        """One JSON line; a non-finite float (a diverged step's losses) is
        written as ``null``, since JSON has no NaN or Infinity."""
        row = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in asdict(self).items()}
        return json.dumps(row, sort_keys=True, allow_nan=False)


@dataclass
class TrainResult:
    """A run's records (one per step run), its model and its checkpoint."""

    records: list[MetricsRecord]
    model: Model
    checkpoint_path: str | None = None

    @property
    def diverged(self) -> bool:
        return self.records[-1].diverged

    @property
    def final_accuracy(self) -> float:
        """0 if the run diverged, else the eval accuracy of its last step."""
        return 0.0 if self.diverged else self.records[-1].eval_accuracy


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction at ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``; no weight decay."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p.data -= (lr * update).astype(p.data.dtype, copy=False)


def lr_at(step: int, base_lr: float, warmup_steps: int, total_steps: int,
          decay: str = "linear") -> float:
    """Linear warmup to ``base_lr`` then linear-to-zero or inverse-sqrt decay."""
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    if decay == "linear":
        span = max(total_steps - warmup_steps, 1)
        return base_lr * max(total_steps - step, 0) / span
    return base_lr * math.sqrt(max(warmup_steps, 1) / step)


def _logits(model: Model, batch, rng=None) -> Tensor:
    """Logits of a classification or matching batch; dropout iff ``rng``."""
    if isinstance(batch, MatchBatch):
        return forward_match(model, batch.tokens_a, batch.mask_a,
                             batch.tokens_b, batch.mask_b, rng=rng)
    return forward_classify(model, batch.tokens, batch.mask, rng=rng)


def _forward_loss(model: Model, batch, rng) -> tuple[Tensor, Tensor]:
    """Training loss (cross-entropy plus the kernel spec's weighted
    orthogonality penalty) and the cross-entropy alone."""
    task_loss = T.cross_entropy(_logits(model, batch, rng=rng), batch.labels)
    weight = model.config.kernel.ortho_reg_weight
    mats = model.regularized_matrices()
    if weight > 0 and mats:
        return T.add(task_loss, orthogonality_penalty(mats, weight)), task_loss
    return task_loss, task_loss


def _measure_penalty(model: Model) -> float:
    with no_grad():
        return float(orthogonality_penalty(model.regularized_matrices(), 1.0).item())


def _accumulated_step(model: Model, params: dict[str, Tensor], stream, k: int, rng):
    """Mean loss, task loss and gradients of one optimizer step over ``k``
    micro-batches, or None at the first non-finite loss. Gradients add up in
    place (a copy of the first micro-batch's, then ``+=``), then ``/= k``."""
    grad_sum: dict[str, np.ndarray] = {}
    loss_sum = task_sum = 0.0
    for _ in range(k):
        loss, task_loss = _forward_loss(model, next(stream), rng)
        loss_val = float(loss.item())
        if not math.isfinite(loss_val):
            return None
        loss_sum += loss_val
        task_sum += float(task_loss.item())
        grads = backward(loss, params=params)
        for name, p in params.items():
            if name in grad_sum:
                grad_sum[name] += grads[p]
            else:
                grad_sum[name] = grads[p].copy()
    for g in grad_sum.values():
        g /= k
    return loss_sum / k, task_sum / k, grad_sum


def _batch_stream(ds: Dataset, micro_batch: int, max_len: int, seed: int):
    """Endless micro-batches; each epoch reshuffles deterministically."""
    epoch = 0
    while True:
        shuffle_seed = seed * 1_000_003 + epoch
        yield from batch_iter(ds, micro_batch, max_len, shuffle_seed=shuffle_seed)
        epoch += 1


def evaluate(model: Model, ds: Dataset, batch_size: int = 64,
             max_len: int | None = None) -> tuple[float, float]:
    """Deterministic accuracy and mean loss (dropout off, no graphs). The
    forward pass rejects a dataset of the other head's kind (``ConfigError``)."""
    max_len = max_len or model.config.max_len
    correct = 0
    loss_sum = 0.0
    n = 0
    with no_grad():
        for batch in batch_iter(ds, batch_size, max_len, shuffle_seed=None):
            logits = _logits(model, batch)
            preds = np.argmax(logits.data, axis=-1)
            correct += int((preds == batch.labels).sum())
            loss_sum += float(T.cross_entropy(logits, batch.labels).item()) * len(batch.labels)
            n += len(batch.labels)
    return correct / n, loss_sum / n


def train(config: TrainConfig, seed: int, out_dir: str | None = None,
          dtype=np.float32, override_budget: bool = False,
          log=None) -> TrainResult:
    """Train one model; writes ``metrics.jsonl`` and, unless the run
    diverged, a final checkpoint when ``out_dir`` is given.

    Refuses to start when the kernel parameter budget fails, unless
    overridden. Stops at the first diverged step (see the module
    docstring), or early once ``target_accuracy`` is reached.
    """
    config.validate()
    account = closed_form_params(config.model)
    if not account.within_budget and not override_budget:
        raise ConfigError(
            f"over parameter budget: kernel/base ratio {account.ratio:.4f} >= "
            f"{BUDGET_LIMIT:.2f} (pass --override-budget to train anyway)")
    train_ds, eval_ds = config.task.build()
    model = build_model(config.model, seed, dtype=dtype)

    params = model.named_parameters()
    opt = Adam(params)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    stream = _batch_stream(train_ds, config.micro_batch, config.model.max_len, seed)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    sched = config.schedule
    records: list[MetricsRecord] = []
    with (open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8")
          if out_dir else nullcontext()) as fh:
        for step in range(1, sched.total_steps + 1):
            t0 = time.perf_counter()
            stepped = _accumulated_step(model, params, stream, config.accumulation_steps,
                                        dropout_rng)
            loss = task_loss = float("nan")
            eval_acc = None
            eval_loss = 0.0
            if stepped is not None:
                loss, task_loss, grads = stepped
                opt.step(grads, lr_at(step, config.optimizer.lr, sched.warmup_steps,
                                      sched.total_steps, sched.decay))
                if ((config.eval_every and step % config.eval_every == 0)
                        or step == sched.total_steps):
                    eval_acc, eval_loss = evaluate(model, eval_ds, batch_size=64)

            penalty = _measure_penalty(model)
            diverged = not all(math.isfinite(v) for v in (loss, penalty, eval_loss))
            rec = MetricsRecord(step=step, train_loss=loss, task_loss=task_loss,
                                ortho_penalty=penalty, eval_accuracy=eval_acc,
                                wall_time_ms=(time.perf_counter() - t0) * 1e3,
                                seed=seed, diverged=diverged)
            records.append(rec)
            if fh:
                fh.write(rec.to_json() + "\n")
                fh.flush()
            if log:
                log(f"step {step:5d}  loss {loss:.4f}  task {task_loss:.4f}  "
                    f"penalty {rec.ortho_penalty:.4e}"
                    + (f"  acc {eval_acc:.4f}" if eval_acc is not None else ""))
            if rec.diverged or (config.target_accuracy is not None and eval_acc is not None
                                and eval_acc >= config.target_accuracy):
                break

    result = TrainResult(records=records, model=model)
    if out_dir and not result.diverged:
        result.checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        save_checkpoint(model, result.checkpoint_path)
    return result


@dataclass
class SeedsSummary:
    """Per-seed accuracies plus aggregate statistics.

    ``high_variance`` flags a standard deviation above two accuracy
    points; diverged seeds are excluded from the aggregate and listed.
    ``mean``, ``best`` and ``std`` stay None when no seed finished.
    """

    rows: list[dict] = field(default_factory=list)
    mean: float | None = None
    best: float | None = None
    std: float | None = None
    high_variance: bool = False
    diverged_seeds: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


VARIANCE_FLAG_STD = 0.02


def run_seeds(config: TrainConfig, out_dir: str | None = None, dtype=np.float32,
              override_budget: bool = False, log=None) -> SeedsSummary:
    """Train one model per configured seed and aggregate final accuracy."""
    summary = SeedsSummary()
    accs = []
    for seed in config.seeds:
        seed_dir = os.path.join(out_dir, f"seed{seed}") if out_dir else None
        result = train(config, seed, out_dir=seed_dir, dtype=dtype,
                       override_budget=override_budget, log=log)
        row = {"seed": seed, "accuracy": result.final_accuracy,
               "steps": result.records[-1].step, "diverged": result.diverged}
        summary.rows.append(row)
        if result.diverged:
            summary.diverged_seeds.append(seed)
        else:
            accs.append(result.final_accuracy)
    if accs:
        summary.mean = float(np.mean(accs))
        summary.best = float(np.max(accs))
        summary.std = float(np.std(accs))
        summary.high_variance = summary.std > VARIANCE_FLAG_STD
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            fh.write(summary.to_json() + "\n")
    return summary
