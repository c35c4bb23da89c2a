"""Training configuration and the key=value config file format.

Config files are INI-style text with sections ``[model]``, ``[kernel]``,
``[task]``, ``[optimizer]``, ``[schedule]`` and ``[train]``. Every key
maps 1:1 onto a field below; unknown keys and malformed values are
rejected with the file line number. See ``configs/`` for working files.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, fields

from .data import (LISTOPS_SYMBOLS, MAX_LISTOPS_DEPTH, MAX_TOKENS, N_MOTIFS, Dataset,
                   gen_listops, gen_matching, gen_text_classification, load_tsv_dataset,
                   motif_layout)
from .errors import ConfigError, DataError
from .kernels import KernelSpec, at_least, check_fields, one_of, ruled
from .model import ModelConfig

TASK_SOURCES = ("listops", "text_classification", "matching", "tsv")

# Each generated source's model needs: vocab size, classes (a number or a [task] key), head.
_TASK_NEEDS = {"listops": (len(LISTOPS_SYMBOLS), 10, "classify"),
               "text_classification": ("vocab_size", "classes", "classify"),
               "matching": ("vocab_size", 2, "match")}


@dataclass
class OptimizerConfig:
    lr: float = ruled("finite and > 0", lambda v: 0 < v < float("inf"), default=5e-4)

    def validate(self):
        check_fields(self)


@dataclass
class ScheduleConfig:
    warmup_steps: int = at_least(0, default=50)
    total_steps: int = 1000
    decay: str = one_of(("linear", "inv_sqrt"), default="linear")

    def validate(self):
        check_fields(self)
        if self.warmup_steps >= self.total_steps:
            raise ConfigError(f"need total_steps > warmup_steps >= 0, got "
                              f"warmup={self.warmup_steps}, total={self.total_steps}")


@dataclass
class TaskSpec:
    """Where training/eval data comes from: a generator or TSV files.

    ``data_seed`` fixes the generated datasets independently of the
    training seed, so multi-seed runs train on identical data. The eval
    split uses ``data_seed + 1``; for TSV sources without ``eval_path``
    the last tenth of the rows (at least 10) is held out.
    """

    source: str = one_of(TASK_SOURCES, default="text_classification")
    data_seed: int = at_least(0, default=1234)
    count: int = at_least(1, default=2000)
    eval_count: int = at_least(1, default=500)
    length: int = at_least(8, default=128)  # a listops expression's shortest budget
    vocab_size: int = 32
    classes: int = at_least(2, default=2)
    max_depth: int = ruled(f"in [1, {MAX_LISTOPS_DEPTH}]",
                           lambda v: 1 <= v <= MAX_LISTOPS_DEPTH, default=4)
    path: str = ""
    eval_path: str = ""

    def validate(self):
        if self.source == "tsv" and not self.path:
            raise ConfigError("tsv task needs a path")
        check_fields(self)
        if self.source in ("text_classification", "matching"):
            motif_layout(self.vocab_size, N_MOTIFS if self.source == "matching" else self.classes)
        if self.source != "tsv":
            sides = 2 if self.source == "matching" else 1
            for key in ("count", "eval_count"):
                tokens = sides * getattr(self, key) * self.length
                if tokens > MAX_TOKENS:
                    raise ConfigError(
                        f"task.{key} = {getattr(self, key)} sequences of task.length = "
                        f"{self.length}{' on both sides of a pair' if sides == 2 else ''} "
                        f"make {tokens} tokens, more than the {MAX_TOKENS} allowed")

    def build(self) -> tuple[Dataset, Dataset]:
        """Materialize (train, eval) datasets."""
        self.validate()
        if self.source != "tsv":
            return self._generate(self.data_seed, self.count), self.build_eval()
        full = load_tsv_dataset(self.path)
        if self.eval_path:
            return full, self.build_eval()
        return self._hold_out(full)

    def build_eval(self) -> Dataset:
        """Materialize the eval split alone, the same one ``build`` returns."""
        self.validate()
        if self.source != "tsv":
            return self._generate(self.data_seed + 1, self.eval_count)
        if self.eval_path:
            return load_tsv_dataset(self.eval_path)
        return self._hold_out(load_tsv_dataset(self.path))[1]

    def _generate(self, seed: int, count: int) -> Dataset:
        if self.source == "listops":
            return gen_listops(seed, count, self.length, self.max_depth)
        if self.source == "text_classification":
            return gen_text_classification(seed, count, self.length, self.vocab_size,
                                           self.classes)
        return gen_matching(seed, count, self.length, self.vocab_size)

    def _hold_out(self, full: Dataset) -> tuple[Dataset, Dataset]:
        """Split off the last tenth of the rows as the eval split."""
        if len(full) < 10:
            raise DataError(f"{self.path}: {len(full)} rows leave no eval split; "
                            f"set eval_path or supply at least 10 rows")
        cut = len(full) - len(full) // 10
        return (Dataset(full.examples[:cut], full.vocab, full.classes, full.kind, full.meta),
                Dataset(full.examples[cut:], full.vocab, full.classes, full.kind, full.meta))


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    task: TaskSpec = field(default_factory=TaskSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    micro_batch: int = at_least(1, default=16)
    accumulation_steps: int = at_least(1, default=1)
    eval_every: int = at_least(0, default=50)
    seeds: list[int] = ruled(">= 0 and distinct",
                             lambda s: all(x >= 0 for x in s) and len(set(s)) == len(s),
                             default_factory=lambda: [1, 2, 3, 4, 5])
    target_accuracy: float | None = ruled("unset or in [0, 1]",
                                          lambda v: v is None or 0 <= v <= 1, default=None)

    def validate(self):
        for section in (self.model, self.task, self.optimizer, self.schedule):
            section.validate()
        if not self.seeds:
            raise ConfigError("need at least one seed")
        check_fields(self)
        check_task_fits_model(self.task, self.model)


def check_task_fits_model(task: TaskSpec, model: ModelConfig):
    """A generated task must fit the model it trains or is scored on. (TSV rows
    are known only once read, and ``check_rows_fit_model`` checks them then;
    rows longer than max_len are truncated when batched.)"""
    if task.source == "tsv":
        return
    *sizes, head = _TASK_NEEDS[task.source]
    if model.head != head:
        raise ConfigError(f"task.source = {task.source} needs model.head = {head}, "
                          f"got {model.head}")
    for key, need in zip(("max_len", "vocab_size", "classes"), ("length", *sizes)):
        what = f"task.source = {task.source}"
        if isinstance(need, str):  # a [task] key
            what, need = f"task.{need} = {getattr(task, need)}", getattr(task, need)
        if getattr(model, key) < need:
            raise ConfigError(f"{what} needs model.{key} >= {need}, got {getattr(model, key)}")


def check_rows_fit_model(ds: Dataset, model: ModelConfig):
    """A TSV dataset, once read, must fit the model: its largest label below
    ``model.classes`` and its largest token id below ``model.vocab_size``
    (``DataError`` naming the file). ``check_task_fits_model`` covers
    generated data."""
    if ds.meta.get("task") != "tsv":
        return
    for what, key, need in (("label", "classes", ds.classes),
                            ("token id", "vocab_size", len(ds.vocab))):
        if need > getattr(model, key):
            raise DataError(f"{ds.meta['path']}: largest {what} {need - 1} needs "
                            f"model.{key} >= {need}, got {getattr(model, key)}")


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

def int_list(text: str) -> list[int]:
    """The integers of a comma- or space-separated list (empty for blank
    text). An empty item, as in ``1,,2`` or ``1,``, raises ValueError."""
    return [int(tok) for tok in re.split(r"\s*,\s*|\s+", text.strip())] if text.strip() else []


_SECTIONS = {"model": ModelConfig, "kernel": KernelSpec, "task": TaskSpec,
             "optimizer": OptimizerConfig, "schedule": ScheduleConfig, "train": TrainConfig}

# Each section's keys; a field holding another section (``train.task``) is no key.
_SECTION_FIELDS = {name: {f.name: f.type for f in fields(cls) if f.name not in _SECTIONS}
                   for name, cls in _SECTIONS.items()}

# The ConfigParser method that converts a value of each annotated field type;
# other types (str) are read as they stand, and ``seeds`` by int_list.
_GETTERS = {"int": "getint", "float": "getfloat", "float | None": "getfloat"}


def _line_of(text: str, section: str, key: str, optionxform) -> int:
    """The line of ``key`` (as the parser stores it) in ``[section]``."""
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif current == section:
            name, *value = re.split("[=:]", stripped, maxsplit=1)
            if value and optionxform(name.strip()) == key:
                return i
    return 0


def parse_config_file(path) -> TrainConfig:
    """Parse a config file into a TrainConfig, reporting bad lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None

    # No header names the empty default section, so [DEFAULT] is an unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None and getattr(exc, "errors", None):
            lineno = exc.errors[0][0]
        where = f"{path}:{lineno}" if lineno else str(path)
        raise ConfigError(f"{where}: {exc.message.splitlines()[0]}") from None

    sections: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"{path}: unknown section [{section}]; "
                              f"expected {sorted(_SECTION_FIELDS)}")
        known = _SECTION_FIELDS[section]
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                lineno = _line_of(text, section, key, parser.optionxform)
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
            try:
                if key == "seeds":
                    values[key] = int_list(raw)
                else:
                    values[key] = getattr(parser, _GETTERS.get(known[key], "get"))(section, key)
            except ValueError as exc:
                lineno = _line_of(text, section, key, parser.optionxform)
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        sections[section] = values

    try:
        config = TrainConfig(
            model=ModelConfig(kernel=KernelSpec(**sections.get("kernel", {})),
                              **sections.get("model", {})),
            task=TaskSpec(**sections.get("task", {})),
            optimizer=OptimizerConfig(**sections.get("optimizer", {})),
            schedule=ScheduleConfig(**sections.get("schedule", {})),
            **sections.get("train", {}),
        )
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config
