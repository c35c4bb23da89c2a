"""Scaling benchmark mechanics (thresholds themselves live in acceptance)."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import linattn.bench
from linattn.bench import (MAX_LENGTH, MAX_REPEATS, WARMUP_PASSES, BenchResult, BenchRow,
                           bench_scaling, check_scaling_args, linear_attention_op_count)
from linattn.errors import ConfigError


class TestOpCount:
    def test_doubling_length_doubles_aggregation_work(self):
        base = linear_attention_op_count(256, 16, 16)
        assert linear_attention_op_count(512, 16, 16) / base == 2.0
        assert linear_attention_op_count(1024, 16, 16) / base == 4.0

    def test_formula_terms(self):
        # S build + z build + numerator + denominator
        assert linear_attention_op_count(10, 4, 8) == 10 * 4 * 8 + 10 * 4 + 10 * 4 * 8 + 10 * 4


class TestBenchScaling:
    def test_row_per_kind_and_length(self, monkeypatch):
        monkeypatch.setattr(linattn.bench, "MAX_REPEATS", 4)
        result = bench_scaling([8, 16, 32], repeats=2)
        assert len(result.rows) == 6
        got = {(r.kind, r.length) for r in result.rows}
        expected = {(k, L) for k in ("kernel_linear", "softmax") for L in (8, 16, 32)}
        assert got == expected

    def test_tiny_lengths_trigger_repeat_escalation(self, monkeypatch):
        # A clock that advances 0.1 ms a read times every pass at 0.1 ms,
        # whatever the load on the machine.
        reads = itertools.count()
        monkeypatch.setattr(linattn.bench, "time",
                            SimpleNamespace(perf_counter=lambda: next(reads) * 1e-4))
        monkeypatch.setattr(linattn.bench, "MAX_REPEATS", 8)
        result = bench_scaling([8, 16, 32], repeats=2)
        assert [r.repeats for r in result.rows] == [8] * 6
        # sub-millisecond medians at the cap are warned about, not fatal
        assert len(result.resolution_warnings) == 6
        assert all("below timer" in w for w in result.resolution_warnings)

    def test_lengths_timed_round_robin(self, monkeypatch):
        # Each round times every length once, so load on the machine cannot
        # land on one length alone and bend the fitted slope.
        calls = []
        real = linattn.bench.forward_classify

        def record(model, tokens, mask):
            calls.append((model.config.attention_kind, tokens.shape[1]))
            return real(model, tokens, mask)

        monkeypatch.setattr(linattn.bench, "forward_classify", record)
        lengths = [8, 16, 32]
        monkeypatch.setattr(linattn.bench, "MAX_REPEATS", 3)
        result = bench_scaling(lengths, repeats=3)
        assert [r.repeats for r in result.rows] == [3] * 6
        warmup = [L for L in lengths for _ in range(WARMUP_PASSES)]
        for kind in ("kernel_linear", "softmax"):
            got = [L for k, L in calls if k == kind]
            assert got == warmup + lengths * 3

    def test_lengths_must_increase(self):
        with pytest.raises(ConfigError):
            bench_scaling([64, 64, 128])

    def test_lengths_must_be_positive(self):
        with pytest.raises(ConfigError, match="lengths must be >= 1"):
            bench_scaling([0, 1, 2])

    def test_needs_at_least_one_repeat(self):
        with pytest.raises(ConfigError):
            bench_scaling([8, 16, 32], repeats=0)

    def test_sizes_bounded_inclusive(self):
        check_scaling_args([8, 16, MAX_LENGTH], MAX_REPEATS)
        with pytest.raises(ConfigError, match=f"lengths must be <= {MAX_LENGTH}"):
            check_scaling_args([8, 16, MAX_LENGTH + 1], 1)
        with pytest.raises(ConfigError, match="repeats must be in"):
            check_scaling_args([8, 16, 32], MAX_REPEATS + 1)

    def test_needs_three_lengths(self):
        with pytest.raises(ConfigError):
            bench_scaling([64, 128])

    def test_csv_format(self):
        result = BenchResult(rows=[BenchRow("softmax", 64, 1.25, 5)])
        assert result.csv() == "kind,length,median_ms,repeats\nsoftmax,64,1.250000,5\n"
