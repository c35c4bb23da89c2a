"""Sequence-length scaling benchmark: factorized vs softmax attention.

Times single-sequence forward passes of a one-layer encoder at a range of
lengths, takes the median over repeats (warmup passes discarded), and
fits the log-log slope of time against length. The factorized path should
fit an exponent near 1, the softmax baseline near 2.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import ConfigError
from .kernels import KernelSpec
from .model import ModelConfig, build_model, forward_classify
from .tensor import BLAS_THREAD_VARS, BLAS_THREADS, MALLOC_POLICY, no_grad

BENCH_KINDS = ("kernel_linear", "softmax")
WARMUP_PASSES = 2
D_MODEL, N_HEADS, FFN_DIM = 64, 4, 64  # the one-layer encoder that is timed
SEED = 0  # model initialization and token draws
MIN_MEDIAN_MS = 1.0
MAX_REPEATS = 64  # the cap on doubling a repeat count below MIN_MEDIAN_MS, and on --repeats
# The longest length timed: the softmax baseline's (1, N_HEADS, L, L) float32
# scores take 256 MiB there.
MAX_LENGTH = 4096


@dataclass
class BenchRow:
    kind: str
    length: int
    median_ms: float
    repeats: int


@dataclass
class BenchResult:
    rows: list[BenchRow] = field(default_factory=list)
    exponents: dict[str, float] = field(default_factory=dict)
    resolution_warnings: list[str] = field(default_factory=list)

    def csv(self) -> str:
        lines = ["kind,length,median_ms,repeats"]
        for r in self.rows:
            lines.append(f"{r.kind},{r.length},{r.median_ms:.6f},{r.repeats}")
        return "\n".join(lines) + "\n"


def linear_attention_op_count(length: int, feat_dim: int, value_dim: int) -> int:
    """Exact multiply-add count of the factorized evaluator's four
    aggregation products: building S and z, then applying them per query."""
    s_build = length * feat_dim * value_dim
    z_build = length * feat_dim
    numerator = length * feat_dim * value_dim
    denominator = length * feat_dim
    return s_build + z_build + numerator + denominator


def bench_environment() -> dict:
    """What a timing depends on besides the code: library versions, the BLAS
    numpy was built against, usable CPUs, the thread-count variables
    (``None`` when unset), the thread count its OpenBLAS ran at after
    import (``None`` when unknown) and the allocator thresholds set at
    import (``None`` when none were)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": cpus,
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "blas_threads": BLAS_THREADS,
        "malloc": MALLOC_POLICY,
    }


def _bench_config(kind: str, max_len: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=32, d_model=D_MODEL, n_heads=N_HEADS, n_layers=1, ffn_dim=FFN_DIM,
        max_len=max_len, classes=2, kernel=KernelSpec(variant="linear_softplus", depth=1),
        attention_kind=kind, dropout_rate=0.0)


def _time_lengths(model, inputs, repeats: int) -> list[tuple[float, int]]:
    """(median ms, repeats) of forward passes for each (tokens, mask) input.

    The inputs are timed round-robin, one pass each per round, so a burst
    of load on the machine spreads over every length instead of landing on
    one. An input whose median is under ``MIN_MEDIAN_MS`` once it has its
    repeats gets twice as many (up to ``MAX_REPEATS``).
    """
    times = [[] for _ in inputs]
    target = [repeats] * len(inputs)
    with no_grad():
        for tokens, mask in inputs:
            for _ in range(WARMUP_PASSES):
                forward_classify(model, tokens, mask)
        while True:
            for i, ts in enumerate(times):
                if (len(ts) == target[i] < MAX_REPEATS
                        and np.median(ts) < MIN_MEDIAN_MS):
                    target[i] = min(target[i] * 2, MAX_REPEATS)
            pending = [i for i, ts in enumerate(times) if len(ts) < target[i]]
            if not pending:
                return [(float(np.median(ts)), len(ts)) for ts in times]
            for i in pending:
                t0 = time.perf_counter()
                forward_classify(model, *inputs[i])
                times[i].append((time.perf_counter() - t0) * 1e3)


def check_scaling_args(lengths: list[int], repeats: int):
    """Raise ``ConfigError`` unless ``bench_scaling`` can fit exponents to
    these lengths at this repeat count, within ``MAX_LENGTH`` and
    ``MAX_REPEATS``."""
    if not 1 <= repeats <= MAX_REPEATS:
        raise ConfigError(f"repeats must be in [1, {MAX_REPEATS}], got {repeats}")
    if len(lengths) < 3:
        raise ConfigError(f"need >= 3 lengths to fit an exponent, got {lengths}")
    if min(lengths) < 1:
        raise ConfigError(f"lengths must be >= 1, got {lengths}")
    if max(lengths) > MAX_LENGTH:
        raise ConfigError(f"lengths must be <= {MAX_LENGTH}, got {lengths}")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ConfigError(f"lengths must be strictly increasing, got {lengths}")


def bench_scaling(lengths, repeats: int = 5, dtype=np.float32) -> BenchResult:
    """Measure both attention kinds across ``lengths`` and fit exponents.

    When the median lands under 1 ms the repeat count doubles (up to
    ``MAX_REPEATS``) for a steadier median; if it still cannot resolve, a
    warning is recorded instead of failing.
    """
    lengths = [int(x) for x in lengths]
    check_scaling_args(lengths, repeats)
    rng = np.random.default_rng(SEED)
    result = BenchResult()
    for kind in BENCH_KINDS:
        model = build_model(_bench_config(kind, max(lengths)), seed=SEED, dtype=dtype)
        inputs = [(rng.integers(1, 32, size=(1, length)), np.ones((1, length), dtype=bool))
                  for length in lengths]
        timed = _time_lengths(model, inputs, repeats)
        for length, (median, reps) in zip(lengths, timed):
            if median < MIN_MEDIAN_MS:
                result.resolution_warnings.append(
                    f"{kind} at L={length}: median {median:.3f} ms below timer "
                    f"comfort zone even at {reps} repeats")
            result.rows.append(BenchRow(kind=kind, length=length,
                                        median_ms=median, repeats=reps))
        samples = [median for median, _ in timed]
        slope = np.polyfit(np.log(lengths), np.log(samples), 1)[0]
        result.exponents[kind] = float(slope)
    return result
