#!/usr/bin/env python3
"""The linattn benchmark: train-step and long-sequence eval throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload listops_train --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each one exists):

* ``listops_train``     optimizer steps of configs/listops.cfg
* ``match_train``       optimizer steps of configs/match.cfg
* ``listops_long_eval`` no_grad evaluation of the listops model at L <= 2048

A run sets up the workload SETUP_REPS times (set-up time is their fastest
decile), times a fixed number of units of work sized so that they take
about ``--seconds`` on the reference box, then runs the correctness gates.
The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. The line before it carries the environment, exact counts and gate
results. The exit code is 1 when any gate fails and 2 when the checkout has
no linattn source.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# One BLAS thread (nproc is 2 on the reference box): the arrays are small,
# and a second thread measured slower and noisier than one.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_TIMED_UNITS = 12
TAIL_BEYOND = 10          # the tail percentile keeps this many samples above it
REF_SEED = 0              # seed of the gates compared against reference.json
REF_STEPS = 3             # optimizer steps of the train reference run
REF_RTOL_ULPS = 1000      # reference tolerance, in machine epsilons of the model dtype
ORACLE_TOL = 1e-10        # linear vs quadratic evaluator in f64, as in the test suite

LONG_LEN = 2048
LONG_DEPTH = 8
LONG_BATCH = 8
LONG_POOL = 384           # examples of one listops_long_eval pass
ORACLE_LONG_EXAMPLES = 2  # the f64 quadratic oracle holds (B, h, L, L) scores

TRAIN_CONFIGS = {"listops_train": "configs/listops.cfg", "match_train": "configs/match.cfg"}
WORKLOADS = (*TRAIN_CONFIGS, "listops_long_eval")

# Median unit wall time (optimizer step, eval batch) on the reference box.
# A run times round(seconds / unit time) units, so the set of timed units
# depends on --seconds alone and not on how fast the code under test is.
REF_UNIT_MS = {"listops_train": 700.0, "match_train": 50.0, "listops_long_eval": 250.0}

# Set-ups per run, enough to span several seconds of neighbour load on the
# reference box; setup_s is their fastest decile.
SETUP_REPS = {"listops_train": 5, "match_train": 40, "listops_long_eval": 6}

# Exact calls per timed unit: kernels.stack is layers x heads x (q, k) x
# encodes, model.encode one per micro-batch side. A change to the model's
# call structure has to update these.
EXACT_CALLS = {
    "listops_train": {"kernels.stack": 32, "model.encode": 2},
    "match_train": {"kernels.stack": 8, "model.encode": 2},
    "listops_long_eval": {"kernels.stack": 16, "model.encode": 1},
}

# Per-layer figures of a traced call: self ms and calls per timed unit, and
# inclusive ms per call for the layers that run at set-up.
PER_UNIT_SELF = ("data.batch", "model.encode", "model.head", "attention.mh_kernel_self",
                 "attention.linear", "kernels.stack", "kernels.penalty",
                 "tensor.backward", "training.adam")
PER_UNIT_CALLS = ("model.encode", "kernels.stack")
PER_CALL = ("data.gen", "model.build", "model.checkpoint_save", "model.checkpoint_load",
            "training.evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy
    from linattn import attention, bench, config, data, model, tensor, training
    return SimpleNamespace(np=np, scipy=scipy, attention=attention, bench=bench,
                           config=config, data=data, model=model, tensor=tensor,
                           training=training)


def environment(pkg) -> dict:
    np = pkg.np
    blas = {}
    simd = []
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        simd = info["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": pkg.scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")).strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu": f"{platform.machine()} {platform.processor()}".strip(),
        "cpu_features": simd,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(samples, pct: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def tail(samples):
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    n = len(samples)
    pct = 100 if n <= TAIL_BEYOND else math.floor(100 * (n - TAIL_BEYOND) / n)
    return nearest_rank(samples, pct), pct, n


def timed_units(workload: str, seconds: float) -> int:
    return max(MIN_TIMED_UNITS, round(seconds * 1e3 / REF_UNIT_MS[workload]))


def flops_counter(pkg):
    """Computed flops of one kernel_attention_linear call (2 per multiply-add)."""
    def flops(qf, kf, v, *_):
        length, feat = qf.shape[-2], qf.shape[-1]
        heads = int(pkg.np.prod(qf.shape[:-2]))
        return 2.0 * heads * pkg.bench.linear_attention_op_count(length, feat, v.shape[-1])
    return flops


class Outcome:
    """Attempted and failed operations, and the gate log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates = []

    def gate(self, name: str, ok: bool, detail: str):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.gates.append({"gate": name, "ok": bool(ok), "detail": detail})

    def units(self, count: int, bad: int, what: str):
        self.attempted += count
        self.failed += bad
        if bad:
            self.gates.append({"gate": what, "ok": False,
                               "detail": f"{bad} of {count} units failed"})


# ---------------------------------------------------------------------------
# train workloads
# ---------------------------------------------------------------------------

def train_config(pkg, workload: str, seed: int, steps: int):
    """The shipped config, run for ``steps`` optimizer steps.

    Model, optimizer, micro-batch, accumulation and training data are as
    shipped. The closing eval of ``train`` is shrunk to one micro-batch and
    periodic eval and early stopping are off. The schedule is inverse-sqrt
    without warmup, so the learning rate of a step does not depend on the
    run length: step k does the same work and gives the same loss in runs
    of any length.
    """
    cfg = pkg.config.parse_config_file(ROOT / TRAIN_CONFIGS[workload])
    cfg.task.data_seed = seed
    cfg.task.eval_count = cfg.micro_batch
    cfg.schedule.total_steps = steps
    cfg.schedule.warmup_steps = 0
    cfg.schedule.decay = "inv_sqrt"
    cfg.eval_every = 0
    cfg.target_accuracy = None
    return cfg


def train_run(pkg, cfg, seed: int, out: Path, tracer):
    """One ``training.train`` call; returns its result and the log times.

    Step k runs between the log calls of steps k-1 and k. Steps 2 to n-1
    are timed: step 1 pays first-touch costs and step n the closing eval.
    """
    n = cfg.schedule.total_steps
    marks = [time.perf_counter()]

    def on_step(_line):
        marks.append(time.perf_counter())
        tracer.unit = len(marks)
        tracer.timed = 2 <= tracer.unit < n

    tracer.unit, tracer.timed = 1, False
    with tracer.installed(pkg, flops_counter(pkg)):
        result = pkg.training.train(cfg, seed, out_dir=str(out), log=on_step)
    tracer.timed = False
    return result, marks


def timed_call(pkg, args, steps: int, tracer, work: Path, out: Outcome):
    """One timed ``train`` call: step ms, traced interval ms, real tokens
    per step, padded slots and losses of the timed steps."""
    cfg = train_config(pkg, args.workload, args.seed, steps)
    result, marks = train_run(pkg, cfg, args.seed, work / "timed", tracer)
    timed = range(2, len(result.records))
    losses = [r.train_loss for r in result.records]
    bad = sum(not math.isfinite(x) for x in losses[1:-1]) + int(result.diverged)
    out.units(len(timed), bad, f"finite loss ({'traced' if tracer.spans else 'untraced'})")
    return SimpleNamespace(
        tracer=tracer, losses=losses, nonfinite=bad,
        wall=[result.records[k - 1].wall_time_ms for k in timed],
        interval=[(marks[k] - marks[k - 1]) * 1e3 for k in timed],
        tokens=[tracer.tokens[k] for k in timed],
        slots=sum(tracer.slots[k] for k in timed))


def same_prefix(a: list, b: list) -> bool:
    k = min(len(a), len(b))
    return a[:k] == b[:k]


def run_train(pkg, args, work: Path, out: Outcome, report: dict):
    seed = args.seed
    Tracer = spans.Tracer
    traced = []   # tracers with spans, for per-call figures

    setup_s, first_losses = [], []
    for _ in range(SETUP_REPS[args.workload]):
        tracer = Tracer(spans=bool(args.trace))
        start = time.perf_counter()
        cfg = train_config(pkg, args.workload, seed, steps=1)
        result, _ = train_run(pkg, cfg, seed, work / "setup", tracer)
        setup_s.append(time.perf_counter() - start)
        first_losses.append([r.train_loss for r in result.records])
        traced.append(tracer)

    # One train call of a fixed step count. A traced run makes an untraced
    # and a traced call of half the steps each: the traced one gives the
    # per-layer figures, the pair the tracing overhead.
    phases = [False, True] if args.trace else [False]
    steps = 2 + timed_units(args.workload, args.seconds / len(phases))
    runs = [timed_call(pkg, args, steps, Tracer(spans=s), work, out) for s in phases]
    traced += [r.tracer for r in runs if r.tracer.spans]
    rss = peak_rss_mb()
    losses = first_losses + [r.losses for r in runs]
    out.gate("deterministic", all(same_prefix(losses[-1], x) for x in losses),
             f"{len(losses)} train calls give the same loss at the same step, bit for bit")

    ref = Tracer(spans=True)
    losses = train_reference(pkg, args.workload, work / "reference", ref)
    check_reference(pkg, out, args.workload, losses, "final losses of the seed-0 run")
    traced.append(ref)

    gate_tracer = Tracer(spans=True)
    with gate_tracer.installed(pkg):
        trained = pkg.model.load_checkpoint(work / "timed" / "checkpoint.bin")
    traced.append(gate_tracer)
    check_oracle(pkg, out, trained, runs[0].tracer.first_batch)

    # Steps are alike (batch width 128 or 64), so the fastest decile of
    # steps is the step time without neighbour load.
    rates = [t / w * 1e3 for t, w in zip(runs[0].tokens, runs[0].wall)]
    headline = nearest_rank(rates, 90), nearest_rank(runs[0].wall, 10)
    finish(pkg, out, report, "optimizer step", headline, setup_s, rss, runs, ref, traced,
           interval=runs[-1].interval)


def train_reference(pkg, workload: str, out: Path, tracer):
    cfg = train_config(pkg, workload, REF_SEED, REF_STEPS)
    result, _ = train_run(pkg, cfg, REF_SEED, out, tracer)
    return [r.train_loss for r in result.records]


# ---------------------------------------------------------------------------
# long-sequence eval workload
# ---------------------------------------------------------------------------

def eval_config(pkg, seed: int, pool: int):
    """The listops architecture at max_len 2048 on depth-8 expressions.

    The train split is one batch: like ``linattn eval``, only the eval
    split is used.
    """
    cfg = pkg.config.parse_config_file(ROOT / "configs" / "listops.cfg")
    cfg.model.max_len = LONG_LEN
    cfg.task.length = LONG_LEN
    cfg.task.max_depth = LONG_DEPTH
    cfg.task.data_seed = seed
    cfg.task.count = LONG_BATCH
    cfg.task.eval_count = pool
    cfg.validate()
    return cfg


def eval_setup(pkg, seed: int, work: Path, pool: int = LONG_POOL):
    """Data, a model through a checkpoint round trip, one warm batch."""
    cfg = eval_config(pkg, seed, pool)
    _, data = cfg.task.build()
    path = work / f"long-{seed}.bin"
    pkg.model.save_checkpoint(pkg.model.build_model(cfg.model, seed), path)
    model = pkg.model.load_checkpoint(path)
    chunks = [pkg.data.Dataset(data.examples[i:i + LONG_BATCH], data.vocab, data.classes,
                               data.kind, data.meta)
              for i in range(0, len(data), LONG_BATCH)]
    pkg.training.evaluate(model, chunks[0], batch_size=LONG_BATCH, max_len=LONG_LEN)
    return model, chunks


def eval_phase(pkg, model, chunks, tracer, passes: int, seen: dict, out: Outcome):
    """One ``evaluate`` call per batch, ``passes`` whole passes over the
    pool. A batch seen before, in this or an earlier phase, must give a
    bit-identical loss."""
    order = [i for _ in range(passes) for i in range(len(chunks))]
    wall, tokens, nonfinite, repeats, changed = [], [], 0, 0, 0
    with tracer.installed(pkg, flops_counter(pkg)):
        for pos in order:
            tracer.unit += 1
            tracer.timed = True
            start = time.perf_counter()
            _, loss = pkg.training.evaluate(model, chunks[pos], batch_size=LONG_BATCH,
                                            max_len=LONG_LEN)
            wall.append((time.perf_counter() - start) * 1e3)
            tracer.timed = False
            tokens.append(tracer.tokens[tracer.unit])
            nonfinite += not math.isfinite(loss)
            if pos in seen:
                repeats += 1
                changed += loss != seen[pos]
            seen.setdefault(pos, loss)
    out.units(len(wall), nonfinite, f"finite loss ({'traced' if tracer.spans else 'untraced'})")
    if repeats:
        out.gate("deterministic", changed == 0,
                 f"{repeats - changed} of {repeats} repeated batches gave bit-identical losses")
    return SimpleNamespace(tracer=tracer, wall=wall, tokens=tokens, nonfinite=nonfinite,
                           slots=sum(tracer.slots.values()), order=order)


def run_long_eval(pkg, args, work: Path, out: Outcome, report: dict):
    Tracer = spans.Tracer
    traced = []

    setup_s = []
    for _ in range(SETUP_REPS[args.workload]):
        tracer = Tracer(spans=bool(args.trace))
        start = time.perf_counter()
        with tracer.installed(pkg):
            model, chunks = eval_setup(pkg, args.seed, work)
        setup_s.append(time.perf_counter() - start)
        traced.append(tracer)

    # Whole passes over the pool. Untraced runs make one phase; traced runs
    # an untraced and a traced phase of half the passes each, which gives
    # the overhead.
    phases = [False, True] if args.trace else [False]
    passes = max(1, round(timed_units(args.workload, args.seconds / len(phases))
                          / len(chunks)))
    seen = {}
    runs = [eval_phase(pkg, model, chunks, Tracer(spans=s), passes, seen, out)
            for s in phases]
    traced += [r.tracer for r in runs if r.tracer.spans]
    rss = peak_rss_mb()

    ref = Tracer(spans=True)
    logits = eval_reference(pkg, work, ref)
    check_reference(pkg, out, args.workload, logits, "logits of the seed-0 model")
    traced.append(ref)

    pool = chunks[0]
    batch = next(pkg.data.batch_iter(pool, ORACLE_LONG_EXAMPLES, LONG_LEN))
    check_oracle(pkg, out, model, batch)

    # Batch widths run from a few tokens to 2048 and their mix depends on
    # the seed, so the figures cover the whole pool, each batch at its
    # fastest pass: the pass time without neighbour load.
    plain = runs[0]
    fastest = [min(w for w, pos in zip(plain.wall, plain.order) if pos == i)
               for i in range(len(chunks))]
    pool_tokens = sum(plain.tokens[:len(chunks)])
    headline = pool_tokens / sum(fastest) * 1e3, statistics.mean(fastest)
    finish(pkg, out, report, "eval batch", headline, setup_s, rss, runs, ref, traced,
           interval=runs[-1].wall)


def eval_reference(pkg, work: Path, tracer):
    """Logits of the seed-0 model on its first batch; the batch is also
    evaluated once as a traced unit, for the exact counts."""
    with tracer.installed(pkg, flops_counter(pkg)):
        model, chunks = eval_setup(pkg, REF_SEED, work, pool=LONG_BATCH)
        tracer.unit, tracer.timed = 1, True
        pkg.training.evaluate(model, chunks[0], batch_size=LONG_BATCH, max_len=LONG_LEN)
        tracer.timed = False
    batch = next(pkg.data.batch_iter(chunks[0], LONG_BATCH, LONG_LEN))
    with pkg.tensor.no_grad():
        logits = pkg.model.forward_classify(model, batch.tokens, batch.mask)
    return [float(x) for x in logits.data.ravel()]


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _forward(pkg, model, batch):
    if hasattr(batch, "mask"):
        return pkg.model.forward_classify(model, batch.tokens, batch.mask)
    return pkg.model.forward_match(model, batch.tokens_a, batch.mask_a,
                                   batch.tokens_b, batch.mask_b)


def check_oracle(pkg, out: Outcome, model, batch):
    """The factorized path against the quadratic evaluator, same weights, f64."""
    np = pkg.np
    source = model.named_parameters()
    logits = []
    with pkg.tensor.no_grad():
        for kind in ("kernel_linear", "kernel_quadratic"):
            cfg = dataclasses.replace(model.config, attention_kind=kind)
            twin = pkg.model.build_model(cfg, seed=0, dtype=np.float64)
            for name, t in twin.named_parameters().items():
                t.data[...] = source[name].data
            logits.append(_forward(pkg, twin, batch).data)
    gap = float(np.max(np.abs(logits[0] - logits[1])))
    out.gate("oracle", gap <= ORACLE_TOL,
             f"max |linear - quadratic| logits = {gap:.3e} (tol {ORACLE_TOL:.0e}, f64, "
             f"batch {logits[0].shape[0]})")


def check_reference(pkg, out: Outcome, workload: str, values, what: str):
    np = pkg.np
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            expected = np.asarray(json.load(fh)[workload], dtype=np.float64)
    except (OSError, KeyError, ValueError) as exc:
        out.gate("reference", False, f"no reference for {workload}: {exc}")
        return
    got = np.asarray(values, dtype=np.float64)
    rtol = REF_RTOL_ULPS * float(np.finfo(np.float32).eps)
    scale = max(float(np.max(np.abs(expected))), 1.0)
    ok = got.shape == expected.shape and bool(np.all(np.abs(got - expected) <= rtol * scale))
    gap = float(np.max(np.abs(got - expected))) if got.shape == expected.shape else math.inf
    out.gate("reference", ok, f"{what}: max gap {gap:.3e} vs tol {rtol * scale:.3e}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def finish(pkg, out: Outcome, report: dict, unit: str, headline, setup_s, rss, runs, ref,
           traced, interval):
    """End-to-end figures from the untraced call, counts, and for traced
    runs the per-layer figures of the traced call; gates on the counts.

    ``headline`` is the workload's (tokens_per_s, step_ms). Neighbour load
    on a shared box slows stretches of a few seconds by up to 70%, so a
    run's median and tail move with how much of it was loaded; the
    bounded figures leave the loaded units out, and the median and the
    tail are reported beside them. ``ref`` is the traced reference run with
    one timed unit; it supplies the structural counts (ops, stack calls per
    unit) of untraced runs.
    """
    plain, last = runs[0], runs[-1]
    value, pct, n = tail(plain.wall)
    report["metrics"] = {
        "tokens_per_s": (headline[0], "tokens/s"),
        "step_ms": (headline[1], "ms"),
        "step_ms_p50": (statistics.median(plain.wall), "ms"),
        "step_ms_tail": (value, "ms"),
        "setup_s": (nearest_rank(setup_s, 10), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    counts, units = (last.tracer, len(last.wall)) if last.tracer.spans else (ref, 1)
    report["counts"] = {
        "unit": unit,
        "timed_units": n,
        "tail_percentile": pct,
        "real_tokens": sum(plain.tokens),
        "real_tokens_per_unit": sum(plain.tokens) / n,
        "data.pad_share": 1.0 - sum(plain.tokens) / plain.slots,
        "kernels.stack_calls": counts.calls["kernels.stack"] / units,
        "model.encode_calls": counts.calls["model.encode"] / units,
        "tensor.ops_per_step": _op_calls(counts) / units,
        "setup_reps": len(setup_s),
    }
    workload = report["workload"]
    for name, want in EXACT_CALLS[workload].items():
        got = report["counts"][f"{name}_calls"]
        out.gate("exact count", got == want, f"{name}_calls {got:g} per {unit}, expected {want}")
    check_spans(out, counts, [t for t in traced if t.spans])
    if last.tracer.spans:
        report["per_layer"] = per_layer(last, interval, traced, plain.wall,
                                        spans.tensor_ops(pkg.tensor))


def span_of(metric: str):
    """The span a per-layer metric is read from, or None for derived figures."""
    if metric.startswith(("tensor.fwd_ms.", "tensor.calls.")):
        return "tensor." + metric.rsplit(".", 1)[1]
    base = metric.rsplit("_", 1)[0]
    return base if base in PER_UNIT_SELF + PER_CALL else None


def check_spans(out: Outcome, unit_tracer, call_tracers):
    """Every span that a BENCHMARK.json per-layer metric reads fired: per
    unit spans in the timed units of ``unit_tracer``, set-up spans in some
    call of ``call_tracers``. A wrapper that a changed call path bypasses
    would otherwise read as 0 ms."""
    silent = []
    for entry in load_spec()["per_layer"]:
        span = span_of(entry["name"])
        if span in PER_CALL:
            fired = sum(t.inclusive[span][0] for t in call_tracers if span in t.inclusive)
        else:
            fired = unit_tracer.calls.get(span, 0) if span else 1
        if not fired and span not in silent:
            silent.append(span)
    out.gate("spans", not silent,
             f"spans that recorded no call: {', '.join(silent)}" if silent
             else "every span named in BENCHMARK.json recorded calls")


def _op_calls(tracer) -> int:
    return sum(c for name, c in tracer.calls.items()
               if name.startswith("tensor.") and name != "tensor.backward")


def per_layer(run, interval, traced, untraced_wall, ops) -> dict:
    """Per-layer figures of a traced call: self ms and calls per timed unit,
    inclusive ms per call for set-up layers, exact ratios and counts."""
    tracer, u = run.tracer, len(run.wall)
    m = {}
    for name in PER_UNIT_SELF:
        m[f"{name}_ms"] = (tracer.self_ms.get(name, 0.0) / u, "ms")
    for name in PER_UNIT_CALLS:
        m[f"{name}_calls"] = (tracer.calls.get(name, 0) / u, "count")
    for name in PER_CALL:
        calls = sum(t.inclusive[name][0] for t in traced if name in t.inclusive)
        ms = sum(t.inclusive[name][1] for t in traced if name in t.inclusive)
        m[f"{name}_ms"] = (ms / calls if calls else 0.0, "ms")
    linear_s = tracer.self_ms.get("attention.linear", 0.0) / 1e3
    m["attention.linear_gflops"] = (tracer.flops / linear_s / 1e9 if linear_s else 0.0,
                                    "GFLOP/s")
    m["data.pad_share"] = (1.0 - sum(run.tokens) / run.slots, "ratio")
    m["tensor.ops_per_step"] = (_op_calls(tracer) / u, "count")
    for op in ops:
        m[f"tensor.fwd_ms.{op}"] = (tracer.self_ms.get(f"tensor.{op}", 0.0) / u, "ms")
        m[f"tensor.calls.{op}"] = (tracer.calls.get(f"tensor.{op}", 0) / u, "count")
    m["training.loop_ms"] = ((sum(interval) - tracer.top_ms) / u, "ms")
    m["training.nonfinite_steps"] = (run.nonfinite, "count")
    m["trace.step_ms_p50"] = (statistics.median(run.wall), "ms")
    m["trace.overhead_ms"] = (statistics.median(run.wall) - statistics.median(untraced_wall),
                              "ms")
    m["trace.accounted_share"] = (tracer.top_ms / sum(interval), "ratio")
    return m


def select(spec: list, source: dict, out: Outcome) -> dict:
    """The metrics named in BENCHMARK.json, with the units it declares."""
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name not in source or source[name][1] != entry["unit"]:
            out.gate("metrics", False, f"{name} [{entry['unit']}] is not among the measurements")
            continue
        metrics[name] = {"value": source[name][0], "unit": entry["unit"]}
    return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(pkg, args, work: Path) -> int:
    spec = load_spec()
    out = Outcome()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(pkg)}
    runner = run_long_eval if args.workload == "listops_long_eval" else run_train
    try:
        runner(pkg, args, work, out, report)
    except Exception:  # reported as a failed run, with its traceback
        traceback.print_exc()
        out.gate("run", False, traceback.format_exc().strip().splitlines()[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select(wanted, report.get("per_layer" if args.trace else "metrics", {}), out)
    report["failed_share"] = out.failed / max(out.attempted, 1)
    report["gates"] = out.gates
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    for g in out.gates:
        print(f"gate {g['gate']:14s} {'ok' if g['ok'] else 'FAILED'}  {g['detail']}")
    print(json.dumps(report, default=list))
    print(json.dumps({"correct": out.failed == 0, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:      # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "linattn" / "__init__.py").is_file():
        print(f"error: no linattn source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # so the work dir is removed
    pkg = load_package()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(pkg, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
