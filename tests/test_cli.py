"""CLI surface: subcommands, config files, exit codes, outputs."""

import argparse
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy

import linattn.cli
import linattn.config
import linattn.model
from linattn.cli import main
from linattn.config import (OptimizerConfig, ScheduleConfig, TaskSpec, TrainConfig,
                            parse_config_file)
from linattn.data import gen_matching, save_tsv_dataset
from linattn.errors import ConfigError
from linattn.kernels import KernelSpec, check_fields
from linattn.model import (ModelConfig, build_model, count_params, load_checkpoint,
                           save_checkpoint)
from linattn.tensor import MALLOC_POLICY
from linattn.training import evaluate

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

FAST_CFG = """\
[model]
vocab_size = 24
d_model = 16
n_heads = 2
n_layers = 1
ffn_dim = 32
max_len = 64
classes = 2
attention_kind = kernel_linear
eps = 1e-6
dropout_rate = 0.0

[kernel]
variant = linear_softplus
depth = 1
ortho_reg_weight = 0.01

[task]
source = text_classification
count = 96
eval_count = 64
length = 64
vocab_size = 24
classes = 2

[optimizer]
lr = 2e-3

[schedule]
warmup_steps = 0
total_steps = 6

[train]
micro_batch = 16
seeds = 1, 2
eval_every = 3
"""

OVER_BUDGET_CFG = """\
[model]
vocab_size = 32
d_model = 64
n_heads = 4
n_layers = 2
ffn_dim = 128
max_len = 64
classes = 2
attention_kind = kernel_linear
dropout_rate = 0.0

[kernel]
variant = glu
depth = 3

[task]
source = text_classification
count = 64
eval_count = 32
length = 64
vocab_size = 32

[schedule]
warmup_steps = 0
total_steps = 3

[train]
micro_batch = 16
seeds = 1
"""


@pytest.fixture
def fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return str(p)


# Every flag a subcommand accepts is read by it.
SUBCOMMAND_FLAGS = {
    "train": {"--config", "--seed", "--out-dir", "--precision", "--override-budget"},
    "seeds": {"--config", "--out-dir", "--precision", "--override-budget"},
    "eval": {"--config", "--checkpoint"},
    "params": {"--config"},
    "bench": {"--out-dir", "--precision", "--lengths", "--repeats"},
    "verify": set(),
}

FLAG_VALUES = {"--config": [str(CONFIGS / "match.cfg")], "--seed": ["1"],
               "--out-dir": ["unused"], "--precision": ["f64"], "--override-budget": []}

# Each subcommand without the flag under test, failing fast once parsed
# (missing files, a bad length), so an accepted flag shows as exit 1, not 2.
ARGV_WITHOUT_FLAG = {
    "eval": ["eval", "--config", "/no/such/file.cfg", "--checkpoint", "/no/ckpt"],
    "seeds": ["seeds", "--config", "/no/such/file.cfg"],
    "bench": ["bench", "--lengths", "8,x,32"],
    "verify": ["verify"],
    "params": ["params", "--config", "/no/such/file.cfg"],
}

REMOVED_FLAGS = [(command, flag) for command in ARGV_WITHOUT_FLAG for flag in FLAG_VALUES
                 if flag not in SUBCOMMAND_FLAGS[command]]


class TestFlagSurface:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        parser = linattn.cli._build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
        assert got == SUBCOMMAND_FLAGS
        assert sum(map(len, got.values())) == 16

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_flag_a_subcommand_does_not_read_is_a_usage_error(self, capsys, command, flag):
        assert main(ARGV_WITHOUT_FLAG[command] + [flag] + FLAG_VALUES[flag]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestConfigParsing:
    def test_round_trip_values(self, fast_cfg):
        cfg = parse_config_file(fast_cfg)
        assert cfg.model.d_model == 16
        assert cfg.model.kernel.variant == "linear_softplus"
        assert cfg.model.head_dim == 8  # d_model / n_heads
        assert cfg.seeds == [1, 2]
        assert cfg.schedule.total_steps == 6
        assert cfg.task.source == "text_classification"

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\nvocab_size = 24\nd_model = many\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3"):
            parse_config_file(str(p))

    def test_unknown_key_names_line(self, tmp_path):
        p = tmp_path / "unknown.cfg"
        p.write_text("[model]\nvocab_size = 24\nflux_capacity = 9\n")
        with pytest.raises(ConfigError, match=r"unknown\.cfg:3"):
            parse_config_file(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "sec.cfg"
        p.write_text("[warp]\nspeed = 9\n")
        with pytest.raises(ConfigError, match=r"\[warp\]"):
            parse_config_file(str(p))

    def test_default_section_rejected(self, tmp_path, capsys):
        p = tmp_path / "dflt.cfg"
        p.write_text("[DEFAULT]\nlr = 0.5\n[model]\nvocab_size = 24\n")
        with pytest.raises(ConfigError, match=r"dflt\.cfg: unknown section \[DEFAULT\]"):
            parse_config_file(str(p))
        assert main(["params", "--config", str(p)]) == 1
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_non_utf8_file_names_path(self, tmp_path, capsys):
        p = tmp_path / "latin.cfg"
        p.write_bytes(b"[model]\nvocab_size = 8\xff")
        with pytest.raises(ConfigError, match=r"cannot read config file .*latin\.cfg"):
            parse_config_file(str(p))
        assert main(["params", "--config", str(p)]) == 1
        assert "latin.cfg" in capsys.readouterr().err

    def test_head_dim_is_an_unknown_key(self, tmp_path):
        p = tmp_path / "width.cfg"
        p.write_text("[model]\nd_model = 64\nn_heads = 4\nhead_dim: 16\n")
        with pytest.raises(ConfigError, match=r"width\.cfg:4: unknown key 'head_dim'"):
            parse_config_file(str(p))

    @pytest.mark.parametrize("text, message", [
        ("[model]\nn_heads = 0\n", "n_heads must be >= 1"),
        ("[model]\nd_model = 0\n", "d_model must be >= 1"),
        ("[model]\nd_model = -64\n", "d_model must be >= 1"),
        ("[model]\nd_model = 30\nn_heads = 4\n", "d_model must split into n_heads"),
        ("[model]\nd_model = 4\nn_heads = 4\n", "d_model must split into n_heads"),
        ("[model]\nd_model = 64\nn_heads = 4\n[kernel]\nvariant = aoglu\ngate_rank = 8\n",
         "aoglu gate_rank must satisfy 1 <= r < n/2 at head width n, got r=8, n=16"),
    ], ids=["zero-heads", "zero-width", "negative-width", "indivisible", "width-one",
            "aoglu-rank"])
    def test_bad_head_split_is_a_config_error(self, tmp_path, capsys, text, message):
        p = tmp_path / "split.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=rf"split\.cfg: {re.escape(message)}"):
            parse_config_file(str(p))
        assert main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_syntax_error_names_line(self, tmp_path):
        p = tmp_path / "syntax.cfg"
        p.write_text("[model\nvocab_size = 24\n")
        with pytest.raises(ConfigError, match="syntax"):
            parse_config_file(str(p))

    @pytest.mark.parametrize("section, line, field", [
        ("optimizer", "lr = -1.0", "lr"),
        ("optimizer", "lr = 0", "lr"),
        ("optimizer", "lr = inf", "lr"),
        ("optimizer", "lr = nan", "lr"),
        ("train", "eval_every = -1", "eval_every"),
    ])
    def test_out_of_range_training_value_names_field(self, tmp_path, section, line, field):
        p = tmp_path / "range.cfg"
        p.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=rf"range\.cfg: {field} must be"):
            parse_config_file(str(p))

    @pytest.mark.parametrize("section, line, field", [
        ("model", "eps = nan", "eps"),
        ("model", "eps = inf", "eps"),
        ("kernel", "ortho_reg_weight = nan", "ortho_reg_weight"),
        ("kernel", "ortho_reg_weight = inf", "ortho_reg_weight"),
        ("train", "target_accuracy = nan", "target_accuracy"),
    ])
    def test_non_finite_value_names_field(self, tmp_path, section, line, field):
        p = tmp_path / "finite.cfg"
        p.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=rf"finite\.cfg: {field} must be"):
            parse_config_file(str(p))

    REMOVED = [("kernel", "orthogonal_init = true"), ("kernel", "inner_nonlinearity = gelu"),
               ("kernel", "low_rank_all_layers = false"), ("kernel", "share_query_key = true"),
               ("model", "pooling = mean"), ("optimizer", "beta1 = 0.9"),
               ("optimizer", "beta2 = 0.999"), ("optimizer", "eps = 1e-8"),
               ("optimizer", "weight_decay = 0.0"), ("train", "budget_limit = 0.10"),
               ("task", "motif_len = 3"), ("task", "n_motifs = 6")]

    @pytest.mark.parametrize("section, line", REMOVED, ids=[line for _, line in REMOVED])
    def test_removed_kernel_option_is_an_unknown_key(self, tmp_path, capsys, section, line):
        p = tmp_path / "old.cfg"
        p.write_text(f"; an option that is now a constant\n[{section}]\n{line}\n")
        message = f"old.cfg:3: unknown key '{line.split()[0]}' in [{section}]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_file(str(p))
        assert main(["params", "--config", str(p)]) == 1
        assert message in capsys.readouterr().err

    @staticmethod
    def _readme_config_block() -> dict[str, dict[str, str]]:
        """Each section of the README's ini block: its keys and their notes."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        documented, section = {}, None
        for line in block.splitlines():
            head, _, note = (part.strip() for part in line.partition(";"))
            if head.startswith("["):
                section = head.strip("[]")
                documented[section] = {}
            else:
                documented[section][head] = note
        return documented

    def test_readme_config_block_names_exactly_the_keys(self):
        documented = self._readme_config_block()
        assert set(documented) == set(linattn.config._SECTION_FIELDS)
        for section, keys in documented.items():  # in field order, the order of checks
            assert list(keys) == list(linattn.config._SECTION_FIELDS[section]), section

    def test_readme_config_block_states_each_rule(self):
        documented = self._readme_config_block()
        for section, cls in linattn.config._SECTIONS.items():
            for f in dataclasses.fields(cls):
                if "rule" in f.metadata:
                    note = documented[section][f.name]
                    assert note.split(";")[0].strip() == f.metadata["rule"], (section, f.name)

    # The defaults are a text_classification task of length 128 over 32 ids
    # and 2 classes, on a classify model of max_len 128, 32 ids and 2 classes.
    @pytest.mark.parametrize("text, message", [
        ("[task]\nlength = 256\n", "task.length = 256 needs model.max_len >= 256, got 128"),
        ("[task]\nvocab_size = 40\n", "task.vocab_size = 40 needs model.vocab_size >= 40, got 32"),
        ("[task]\nclasses = 3\n", "task.classes = 3 needs model.classes >= 3, got 2"),
        ("[model]\nvocab_size = 8\nclasses = 10\n[task]\nsource = listops\n",
         "task.source = listops needs model.vocab_size >= 16, got 8"),
        ("[model]\nvocab_size = 16\nclasses = 5\n[task]\nsource = listops\n",
         "task.source = listops needs model.classes >= 10, got 5"),
        ("[task]\nsource = matching\n", "task.source = matching needs model.head = match, "
                                        "got classify"),
        ("[model]\nhead = match\n", "task.source = text_classification needs model.head = "
                                    "classify, got match"),
        ("[task]\ncount = 0\n", "count must be >= 1, got 0"),
        ("[task]\neval_count = 0\n", "eval_count must be >= 1, got 0"),
    ], ids=["length", "vocab", "classes", "listops-vocab", "listops-classes", "matching-head",
            "match-head", "count", "eval-count"])
    def test_task_that_does_not_fit_the_model_is_a_config_error(self, tmp_path, capsys, text,
                                                                message):
        p = tmp_path / "fit.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=rf"fit\.cfg: {re.escape(message)}"):
            parse_config_file(str(p))
        assert main(["params", "--config", str(p)]) == 1
        assert message in capsys.readouterr().err

    def test_defaults_fill_missing_sections(self, tmp_path):
        p = tmp_path / "minimal.cfg"
        p.write_text("[schedule]\nwarmup_steps = 1\ntotal_steps = 5\n")
        cfg = parse_config_file(str(p))
        assert cfg.model.d_model == 64
        assert cfg.micro_batch == 16


# (class, field, a value at the edge of the field's rule, a value just
# past it): every field with a ``ruled`` domain, at each of its edges.
RULE_EDGES = [
    (KernelSpec, "variant", "aoglu", "bogus"),
    (KernelSpec, "depth", 1, 0),
    (KernelSpec, "depth", 3, 4),
    (KernelSpec, "ortho_reg_weight", 0.0, -1e-9),
    (KernelSpec, "ortho_reg_weight", 1e308, math.inf),
    (ModelConfig, "vocab_size", 2, 1),
    (ModelConfig, "n_heads", 1, 0),
    (ModelConfig, "d_model", 1, 0),
    (ModelConfig, "n_layers", 1, 0),
    (ModelConfig, "ffn_dim", 1, 0),
    (ModelConfig, "max_len", 1, 0),
    (ModelConfig, "classes", 2, 1),
    (ModelConfig, "attention_kind", "softmax", "flash"),
    (ModelConfig, "eps", 0.0, -1e-9),
    (ModelConfig, "eps", 1e308, math.inf),
    (ModelConfig, "dropout_rate", 0.0, -1e-9),
    (ModelConfig, "dropout_rate", 0.999, 1.0),
    (ModelConfig, "head", "match", "pair"),
    (TaskSpec, "source", "tsv", "csv"),
    (TaskSpec, "count", 1, 0),
    (TaskSpec, "eval_count", 1, 0),
    (TaskSpec, "data_seed", 0, -1),
    (OptimizerConfig, "lr", 5e-324, 0.0),
    (OptimizerConfig, "lr", 1e308, math.inf),
    (ScheduleConfig, "warmup_steps", 0, -1),
    (ScheduleConfig, "decay", "inv_sqrt", "cosine"),
    (TrainConfig, "micro_batch", 1, 0),
    (TrainConfig, "accumulation_steps", 1, 0),
    (TrainConfig, "seeds", [0], [0, -1]),
    (TrainConfig, "eval_every", 0, -1),
    (TrainConfig, "target_accuracy", 0.0, -1e-9),
    (TrainConfig, "target_accuracy", 1.0, 1.0 + 1e-9),
]
EDGE_IDS = [f"{cls.__name__}.{name}={bad}" for cls, name, _, bad in RULE_EDGES]
SECTION_OF = {cls: section for section, cls in linattn.config._SECTIONS.items()}


class TestFieldRules:
    def test_table_covers_every_ruled_field(self):
        ruled = {(cls, f.name) for cls in SECTION_OF for f in dataclasses.fields(cls)
                 if "rule" in f.metadata}
        assert {(cls, name) for cls, name, _, _ in RULE_EDGES} == ruled

    @pytest.mark.parametrize("cls, name, good, bad", RULE_EDGES, ids=EDGE_IDS)
    def test_edge_value_passes(self, cls, name, good, bad):
        config = cls()
        setattr(config, name, good)
        check_fields(config)

    @pytest.mark.parametrize("cls, name, good, bad", RULE_EDGES, ids=EDGE_IDS)
    def test_value_past_edge_rejected_by_validate(self, cls, name, good, bad):
        config = cls()
        setattr(config, name, bad)
        with pytest.raises(ConfigError, match=rf"^{name} must be .*, got "):
            config.validate()

    @pytest.mark.parametrize("cls, name, good, bad", RULE_EDGES, ids=EDGE_IDS)
    def test_value_past_edge_rejected_in_file(self, tmp_path, cls, name, good, bad):
        p = tmp_path / "edge.cfg"
        text = ", ".join(map(str, bad)) if isinstance(bad, list) else bad
        p.write_text(f"[{SECTION_OF[cls]}]\n{name} = {text}\n")
        with pytest.raises(ConfigError, match=rf"edge\.cfg: {name} must be .*, got "):
            parse_config_file(str(p))

    INT_FIELDS = [(cls, f.name) for cls in (TaskSpec, ScheduleConfig, TrainConfig)
                  for f in dataclasses.fields(cls) if f.type == "int"]

    @pytest.mark.parametrize("cls, name", INT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in INT_FIELDS])
    @pytest.mark.parametrize("value", [True, 2.0])
    def test_int_field_rejects_bool_and_float(self, cls, name, value):
        config = cls()
        setattr(config, name, value)
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got {value}"):
            config.validate()


class TestExitCodes:
    @pytest.mark.parametrize("line", ["max_len = 99999999999", "vocab_size = 10000000000"])
    def test_oversized_model_exit_one(self, tmp_path, capsys, line):
        p = tmp_path / "huge.cfg"
        p.write_text(f"[model]\n{line}\n")
        with pytest.raises(ConfigError, match=r"huge\.cfg: model has \d+ parameters, more than"):
            parse_config_file(str(p))
        assert main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "parameters, more than" in err

    def test_missing_config_file(self, capsys):
        assert main(["params", "--config", "/no/such/file.cfg"]) == 1
        assert "/no/such/file.cfg" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["warp"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["train"], ["seeds"], ["eval", "--checkpoint", "x.bin"], ["params"]],
        ids=["train", "seeds", "eval", "params"])
    def test_missing_config_flag_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["d_model = 0\nn_heads = 0",
                                       "d_model = -16\nn_heads = -1"], ids=["zero", "negative"])
    def test_nonpositive_head_count_exit_one(self, tmp_path, capsys, sizes):
        text = (CONFIGS / "match.cfg").read_text()
        assert text.count("d_model = 32\nn_heads = 2") == 1
        p = tmp_path / "heads.cfg"
        p.write_text(text.replace("d_model = 32\nn_heads = 2", sizes))
        assert main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_heads must be >= 1" in err

    def test_train_ortho_weight_is_an_unknown_key(self, tmp_path, capsys):
        # The penalty weight is [kernel] ortho_reg_weight, which rejects
        # negatives; [train] has no second spelling of it.
        text = (CONFIGS / "match.cfg").read_text()
        assert text.rstrip().splitlines()[-1].startswith("target_accuracy")  # [train] is last
        p = tmp_path / "match.cfg"
        p.write_text(text.rstrip() + "\northo_weight = -0.5\n")
        line = len(p.read_text().splitlines())
        assert main(["train", "--config", str(p), "--out-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert f"match.cfg:{line}: unknown key 'ortho_weight' in [train]" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, expected", [
        ("[model]\nvocab_size = 24\nBogus = 1\n", "k.cfg:3: unknown key 'bogus' in [model]"),
        ("[model]\nvocab_size = 24\nbogus: 1\n", "k.cfg:3: unknown key 'bogus' in [model]"),
        ("[optimizer]\nLR = abc\n", "k.cfg:2: bad value for lr"),
    ], ids=["upper-case-key", "colon-delimiter", "upper-case-bad-value"])
    def test_config_error_names_line_of_any_key_spelling(self, tmp_path, capsys, text, expected):
        p = tmp_path / "k.cfg"
        p.write_text(text)
        assert main(["params", "--config", str(p)]) == 1
        assert expected in capsys.readouterr().err

    def test_negative_seed_flag_exit_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", str(CONFIGS / "match.cfg"), "--seed", "-3",
                     "--out-dir", str(out)])
        assert code == 1
        assert "error: --seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("seeds = 1, 2", "seeds = -2", "seeds must be >= 0"),
        ("classes = 2\n\n[optimizer]", "classes = 2\ndata_seed = -5\n\n[optimizer]",
         "data_seed must be >= 0"),
    ], ids=["train_seeds", "task_data_seed"])
    def test_negative_config_seed_exit_one(self, fast_cfg, tmp_path, capsys, old, new,
                                           message):
        text = open(fast_cfg).read()
        assert text.count(old) == 1
        p = tmp_path / "neg.cfg"
        p.write_text(text.replace(old, new))
        assert main(["train", "--config", str(p), "--out-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"neg.cfg: {message}" in err

    def test_config_parse_error_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\nd_model = many\n")
        assert main(["params", "--config", str(p)]) == 1

    def test_out_of_range_tsv_label_exit_one(self, fast_cfg, tmp_path, capsys):
        rows = tmp_path / "rows.tsv"
        rows.write_text("5\t1 2 3\n" + "1\t4 5 6\n" * 19)
        cfg = tmp_path / "tsv.cfg"
        cfg.write_text(open(fast_cfg).read().replace(
            "source = text_classification", f"source = tsv\npath = {rows}"))
        code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_over_budget_train_refused(self, tmp_path, capsys):
        p = tmp_path / "big.cfg"
        p.write_text(OVER_BUDGET_CFG)
        code = main(["train", "--config", str(p), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "budget" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_metrics_and_checkpoint(self, fast_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", fast_cfg, "--out-dir", str(out), "--seed", "3"])
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            rec = json.loads(line)
            assert rec["seed"] == 3
        assert (out / "checkpoint.bin").exists()
        assert "eval accuracy" in capsys.readouterr().out

    def test_match_config_from_tsv(self, tmp_path, capsys):
        rows = tmp_path / "pairs.tsv"
        save_tsv_dataset(gen_matching(3, 64, length=32, vocab_size=48), rows)
        text = (CONFIGS / "match.cfg").read_text()
        for old, new in (("source = matching", f"source = tsv\npath = {rows}"),
                         ("warmup_steps = 50", "warmup_steps = 0"),
                         ("total_steps = 2000", "total_steps = 3"),
                         ("eval_every = 50", "eval_every = 0"),
                         ("target_accuracy = 0.95", "")):
            text = text.replace(old, new)
        cfg = tmp_path / "match_tsv.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 3

    def test_same_blas_thread_count_repeats_bit_for_bit(self, tmp_path):
        """The determinism contract: same config, seed, precision and BLAS
        thread count give the same checkpoint bytes and metrics, apart from
        timing fields."""
        shrunk = {"count": "64", "eval_count": "32", "warmup_steps": "1", "total_steps": "3"}
        lines = (CONFIGS / "listops.cfg").read_text().splitlines()
        for i, line in enumerate(lines):
            key = line.split("=")[0].strip()
            if key in shrunk:
                lines[i] = f"{key} = {shrunk[key]}"
        cfg = tmp_path / "listops_3.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            done = subprocess.run([sys.executable, "-m", "linattn.cli", "train", "--config",
                                   str(cfg), "--out-dir", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr[-2000:]
            records = [json.loads(line)
                       for line in (out / "metrics.jsonl").read_text().splitlines()]
            for rec in records:
                del rec["wall_time_ms"]
            runs.append(((out / "checkpoint.bin").read_bytes(), records))
        assert len(runs[0][1]) == 3
        assert runs[0] == runs[1]

    def test_precision_flag(self, fast_cfg, tmp_path):
        out = tmp_path / "run64"
        assert main(["train", "--config", fast_cfg, "--out-dir", str(out),
                     "--precision", "f64"]) == 0

    def test_out_dir_under_a_file_exit_one(self, fast_cfg, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["train", "--config", fast_cfg, "--out-dir", str(taken / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_exits_three(self, fast_cfg, tmp_path, capsys):
        bad = (tmp_path / "explode.cfg")
        bad.write_text(open(fast_cfg).read().replace("lr = 2e-3", "lr = 1e18"))
        code = main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "boom")])
        assert code == 3
        assert "diverged" in capsys.readouterr().out


class TestEvalCommand:
    def test_eval_checkpoint(self, fast_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", fast_cfg, "--out-dir", str(out)])
        capsys.readouterr()
        code = main(["eval", "--config", fast_cfg,
                     "--checkpoint", str(out / "checkpoint.bin")])
        assert code == 0
        assert "eval accuracy" in capsys.readouterr().out

    def test_eval_builds_only_the_eval_split(self, fast_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        main(["train", "--config", fast_cfg, "--out-dir", str(out)])
        ckpt = str(out / "checkpoint.bin")
        config = parse_config_file(fast_cfg)
        _, eval_ds = config.task.build()
        accuracy, loss = evaluate(load_checkpoint(ckpt), eval_ds, batch_size=64)
        capsys.readouterr()
        seeds = []
        real = linattn.config.gen_text_classification
        monkeypatch.setattr(linattn.config, "gen_text_classification",
                            lambda seed, *a: seeds.append(seed) or real(seed, *a))
        assert main(["eval", "--config", fast_cfg, "--checkpoint", ckpt]) == 0
        assert seeds == [config.task.data_seed + 1]
        assert (f"eval accuracy {accuracy:.4f}  mean loss {loss:.4f} "
                f"({len(eval_ds)} examples)") in capsys.readouterr().out

    def test_corrupt_checkpoint_exit_one(self, fast_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", fast_cfg, "--out-dir", str(out)])
        ckpt = out / "checkpoint.bin"
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0x80
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["eval", "--config", fast_cfg, "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "checksum" in err and str(ckpt) in err

    def test_missing_checkpoint(self, fast_cfg, capsys):
        assert main(["eval", "--config", fast_cfg, "--checkpoint", "/no/ckpt"]) == 1
        assert "/no/ckpt" in capsys.readouterr().err

    def test_directory_as_checkpoint_exit_one(self, fast_cfg, tmp_path, capsys):
        assert main(["eval", "--config", fast_cfg, "--checkpoint", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_truncated_checkpoint_exit_one(self, fast_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", fast_cfg, "--out-dir", str(out)])
        ckpt = out / "checkpoint.bin"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:len(raw) // 2])
        capsys.readouterr()
        assert main(["eval", "--config", fast_cfg, "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(ckpt) in err

    @pytest.mark.parametrize("field,value", [("vocab_size", 12.0), ("n_layers", 1.0),
                                             ("kernel.depth", 1.0), ("classes", True),
                                             ("d_model", "32")])
    def test_non_integer_header_field_exit_one(self, fast_cfg, tmp_path, capsys, field, value):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(parse_config_file(fast_cfg).model, seed=0), ckpt)
        raw = ckpt.read_bytes()
        (cfg_len,) = struct.unpack_from("<Q", raw, 12)
        header = json.loads(raw[20:20 + cfg_len])
        *section, key = field.split(".")
        (header[section[0]] if section else header)[key] = value
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        body = raw[:12] + struct.pack("<Q", len(text)) + text + raw[20 + cfg_len:-4]
        ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        capsys.readouterr()
        assert main(["eval", "--config", fast_cfg, "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be an integer" in err and str(ckpt) in err


class TestSeedsCommand:
    def test_rows_and_aggregate(self, fast_cfg, tmp_path, capsys):
        out = tmp_path / "seeds"
        code = main(["seeds", "--config", fast_cfg, "--out-dir", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("seed ") == 2
        assert "mean" in text and "best" in text and "std" in text
        assert (out / "summary.json").exists()
        assert (out / "seed1" / "metrics.jsonl").exists()
        assert (out / "seed2" / "metrics.jsonl").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # lr = 1e18
    def test_every_seed_diverged_exits_three_with_null_aggregate(self, tmp_path, capsys):
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(FAST_CFG.replace("lr = 2e-3", "lr = 1e18"))
        out = tmp_path / "seeds"
        assert main(["seeds", "--config", str(cfg), "--out-dir", str(out)]) == 3
        text = capsys.readouterr().out
        assert text.count("DIVERGED") == 2
        assert "all 2 seeds diverged" in text and "aggregate over" not in text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean"] is None and summary["best"] is None and summary["std"] is None
        assert summary["diverged_seeds"] == [1, 2]


class TestBenchCommand:
    def test_csv_rows_per_kind_and_length(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--lengths", "8,16,32", "--repeats", "2",
                     "--out-dir", str(out)])
        assert code == 0
        csv_lines = (out / "bench.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "kind,length,median_ms,repeats"
        assert len(csv_lines) == 1 + 2 * 3
        kinds = {line.split(",")[0] for line in csv_lines[1:]}
        assert kinds == {"kernel_linear", "softmax"}
        assert "fitted exponent" in capsys.readouterr().out

    def test_environment_written_next_to_csv(self, fast_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "bench"
        assert main(["bench", "--lengths", "8,16,32", "--repeats", "2",
                     "--out-dir", str(out)]) == 0
        env = json.loads((out / "env.json").read_text())
        # train and seeds runs record the same environment beside their output.
        for command in ("train", "seeds"):
            run = tmp_path / command
            assert main([command, "--config", fast_cfg, "--out-dir", str(run)]) == 0
            assert json.loads((run / "env.json").read_text()) == env
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] >= 1
        assert env["threads"]["OMP_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert "OPENBLAS_NUM_THREADS" in env["threads"]
        assert env["malloc"] == MALLOC_POLICY

    def test_too_few_lengths(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--lengths", "8,16", "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_decreasing_lengths_exit_one(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--lengths", "32,16,64", "--out-dir", str(out)]) == 1
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_length_exit_one(self, tmp_path, capsys):
        assert main(["bench", "--lengths", "8,x,32", "--out-dir", str(tmp_path)]) == 1
        assert "--lengths" in capsys.readouterr().err

    def test_nonpositive_length_exit_one(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--lengths", "0,1,2", "--out-dir", str(out)]) == 1
        assert "error: lengths must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_repeats_exit_one(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--lengths", "8,16,32", "--repeats", "0",
                     "--out-dir", str(out)]) == 1
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _forbid_sweep(monkeypatch):
        monkeypatch.setattr(linattn.cli, "bench_scaling",
                            lambda *a, **k: pytest.fail("swept before making --out-dir"))

    @pytest.mark.parametrize("flags, message", [
        (["--lengths", "8,16,4097"], "lengths must be <= 4096"),
        (["--lengths", f"8,16,{10**9}"], "lengths must be <= 4096"),
        (["--lengths", "8,16,32", "--repeats", "65"], "repeats must be in [1, 64], got 65"),
        (["--lengths", "8,16,32", "--repeats", str(10**12)], "repeats must be in [1, 64]"),
    ], ids=["length-4097", "length-1e9", "repeats-65", "repeats-1e12"])
    def test_oversized_sizes_exit_one_before_any_work(self, flags, message, tmp_path, capsys,
                                                       monkeypatch):
        self._forbid_sweep(monkeypatch)
        out = tmp_path / "bench"
        assert main(["bench", *flags, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_is_a_file_exit_one(self, tmp_path, capsys, monkeypatch):
        self._forbid_sweep(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["bench", "--lengths", "8,16,32", "--repeats", "1",
                     "--out-dir", str(taken)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_dir_under_a_file_exit_one(self, tmp_path, capsys, monkeypatch):
        self._forbid_sweep(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["bench", "--lengths", "8,16,32", "--repeats", "1",
                     "--out-dir", str(taken / "x")]) == 1
        assert "error:" in capsys.readouterr().err


class TestParamsCommand:
    def test_over_budget_prints_fail(self, tmp_path, capsys):
        p = tmp_path / "big.cfg"
        p.write_text(OVER_BUDGET_CFG)
        assert main(["params", "--config", str(p)]) == 0
        text = capsys.readouterr().out
        assert "FAIL" in text
        ratio = float(text.split("ratio:")[1].split()[0])
        assert ratio >= 0.10

    def test_under_budget_prints_pass(self, fast_cfg, capsys):
        assert main(["params", "--config", fast_cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_counts_by_closed_form_without_building(self, name, capsys, monkeypatch):
        account = count_params(build_model(parse_config_file(CONFIGS / name).model, seed=0))

        def refuse(*args, **kwargs):
            raise AssertionError("linattn params built a model")

        monkeypatch.setattr(linattn.model, "build_model", refuse)
        monkeypatch.setattr(linattn.cli, "build_model", refuse, raising=False)
        assert main(["params", "--config", str(CONFIGS / name)]) == 0
        verdict = "PASS" if account.within_budget else "FAIL"
        assert capsys.readouterr().out.splitlines() == [
            f"base parameters:   {account.base_params}",
            f"kernel parameters: {account.kernel_params}",
            f"ratio:             {account.ratio:.4f}",
            f"{verdict}: kernel/base parameter ratio {account.ratio:.4f} vs limit 0.10"]


class TestVerifyCommand:
    def test_verify_passes_on_fresh_checkout(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
