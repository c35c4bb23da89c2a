"""Fuzz battery for the external inputs read as text: config files and
TSV datasets. Each valid input is corrupted systematically (truncation,
byte flips, non-UTF-8 bytes, numbers no field accepts, repeated and
``[DEFAULT]`` sections); every case must end in a typed error or a
result, never in an exception of another kind. Checkpoint corruptions are
fuzzed in ``test_model.py``."""

from pathlib import Path

import pytest

from linattn.cli import main
from linattn.config import TaskSpec
from linattn.data import gen_matching, gen_text_classification, save_tsv_dataset
from linattn.errors import ConfigError, DataError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def mutations(raw: bytes, step: int):
    """Systematic corruptions of ``raw``, each named for a failure message:
    truncations and single-byte flips (masks 0x01, 0x80, 0xFF) at every
    ``step``-th offset from a per-input start, and a non-UTF-8 byte spliced in."""
    start = len(raw) % step
    for cut in range(start, len(raw), step):
        yield f"truncated at {cut}", raw[:cut]
    for offset in range(start, len(raw), step):
        for bits in (0x01, 0x80, 0xFF):
            data = bytearray(raw)
            data[offset] ^= bits
            yield f"byte {offset} ^ {bits:#04x}", bytes(data)
        yield f"0xff spliced at {offset}", raw[:offset] + b"\xff" + raw[offset:]


# Values no config or TSV field accepts as they stand: beyond int64, beyond
# float64 (1e309 parses as inf), non-finite and negative.
ODD_NUMBERS = ("99999999999999999999999", str(2**63 - 1), "1e309", "inf", "-inf", "nan", "-1")


class TestConfigFuzz:
    """Mutated shipped configs through ``linattn params`` in-process: exit 0
    or 1, never an exception. ``params`` counts by the closed form, so no
    mutated size can allocate."""

    @staticmethod
    def _config_cases(raw: bytes):
        yield from mutations(raw, step=11)
        lines = raw.decode("utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines):
            if "=" in line:
                key = line.split("=")[0]
                for value in ODD_NUMBERS:
                    yield f"line {i + 1} = {value}", "".join(
                        [*lines[:i], f"{key}= {value}\n", *lines[i + 1:]]).encode()
        text = raw.decode("utf-8")
        yield "duplicate [model]", (text + "\n[model]\nd_model = 8\n").encode()
        yield "duplicate key", text.replace("[model]\n", "[model]\nd_model = 8\n", 1).encode()
        yield "[DEFAULT] section", ("[DEFAULT]\nlr = 0.5\n" + text).encode()
        yield "[DEFAULT] section at the end", (text + "\n[DEFAULT]\nd_model = 8\n").encode()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_mutated_config_exits_zero_or_one(self, name, tmp_path, capsys):
        path = tmp_path / name
        codes = []
        for case, data in self._config_cases((CONFIGS / name).read_bytes()):
            path.write_bytes(data)
            code = main(["params", "--config", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1), case
            assert code == 0 or err.startswith("error:"), case
            codes.append(code)
        assert 0 in codes and 1 in codes


class TestTsvFuzz:
    """Mutated 14-row TSV files through ``TaskSpec.build``: a (train, eval)
    pair or a ``DataError``/``ConfigError``, never another exception."""

    @staticmethod
    def _tsv_cases(raw: bytes):
        yield from mutations(raw, step=3)
        rows = raw.decode("utf-8").splitlines(keepends=True)
        for i, row in enumerate(rows):
            label, tokens = row.split("\t", 1)
            for value in ODD_NUMBERS:
                for mutated in (f"{value}\t{tokens}", f"{label}\t{value} {tokens}"):
                    yield f"row {i + 1}: {mutated[:40]!r}", "".join(
                        [*rows[:i], mutated, *rows[i + 1:]]).encode()

    @pytest.mark.parametrize("kind", ["classify", "match"])
    def test_mutated_tsv_loads_or_raises_typed_error(self, kind, tmp_path):
        path = tmp_path / f"{kind}.tsv"
        if kind == "classify":
            save_tsv_dataset(gen_text_classification(3, 14, length=12, vocab_size=16), path)
        else:
            save_tsv_dataset(gen_matching(3, 14, length=16), path)
        loaded = rejected = 0
        for case, data in self._tsv_cases(path.read_bytes()):
            path.write_bytes(data)
            try:
                TaskSpec(source="tsv", path=str(path)).build()
                loaded += 1
            except (DataError, ConfigError) as exc:
                assert str(path) in str(exc), case
                rejected += 1
        assert loaded and rejected
