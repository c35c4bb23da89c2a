"""Fuzz batteries. The external inputs read as text (config files, TSV
datasets) and the CLI flags are corrupted systematically (truncation, byte
flips, non-UTF-8 bytes, numbers no field accepts, repeated and
``[DEFAULT]`` sections, dropped, repeated and foreign flags); every case
must end in a typed error or a result, never in an exception of another
kind. Checkpoint corruptions are fuzzed in ``test_model.py``. The tape
battery checks seeded random graphs of the autodiff ops against central
differences and float32 against float64, hands every VJP a read-only
gradient, and pins which returned gradients may share memory."""

import inspect
import io
import sys
from pathlib import Path

import numpy as np
import pytest

import linattn.tensor as T
import linattn.training
from linattn.cli import main
from linattn.config import TaskSpec
from linattn.data import (Batch, MatchBatch, gen_matching, gen_text_classification,
                          save_tsv_dataset)
from linattn.errors import ConfigError, DataError
from linattn.kernels import KernelSpec
from linattn.model import ModelConfig, build_model

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


TINY_CFG = """\
[model]
vocab_size = 24
d_model = 16
n_heads = 2
n_layers = 1
ffn_dim = 32
max_len = 16
classes = 2

[task]
source = text_classification
count = 32
eval_count = 16
length = 16
vocab_size = 24
classes = 2

[optimizer]
lr = 2e-3

[schedule]
warmup_steps = 0
total_steps = 2

[train]
micro_batch = 16
seeds = 1
eval_every = 2
"""


class TestCliFlagFuzz:
    """Each subcommand's valid flags, mutated one at a time through
    ``cli.main`` in-process: every case exits 0-3 with an ``error:`` line
    (exit 1) or a usage message (exit 2), never an exception. A flag the
    subcommand does not take is a usage error.

    ``bench`` rejects oversized ``--lengths`` and ``--repeats`` before it
    makes its output directory or allocates anything. ``--lengths`` is
    never dropped, because its default times lengths up to 2048. Values
    hold no NUL byte, which an argv from the operating system cannot carry."""

    @staticmethod
    def _valid_flags(tmp_path) -> dict[str, dict[str, str | None]]:
        """Per subcommand, flag -> value (``None`` for a switch), all valid."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "made")]) == 0
        ckpt = str(tmp_path / "made" / "checkpoint.bin")
        out = str(tmp_path / "out")
        training = {"--config": str(cfg), "--out-dir": out, "--precision": "f64",
                    "--override-budget": None}
        return {"train": {**training, "--seed": "2"},
                "eval": {"--config": str(cfg), "--checkpoint": ckpt},
                "seeds": training,
                "bench": {"--lengths": "4,8,16", "--repeats": "1", "--out-dir": out},
                "verify": {},
                "params": {"--config": str(cfg)}}

    @staticmethod
    def _bad_values(flag: str, tmp_path, flags) -> tuple[str, ...]:
        """Values ``flag`` must reject or survive; none can allocate much."""
        cfg = str(tmp_path / "tiny.cfg")
        paths = ("", str(tmp_path / "missing"), str(tmp_path), "\udcff.cfg")
        return {
            "--config": paths + (flags["eval"]["--checkpoint"],),
            "--checkpoint": paths + (cfg,),
            "--out-dir": ("", cfg, cfg + "/sub", "\udcff"),
            "--precision": ("", "f16", "F32"),
            "--seed": ("", "-1", "1.5", "nan", "0x10", str(2**63), "9" * 23),
            "--repeats": ("", "0", "-1", "1.5", "nan", "65", str(10**12)),
            "--lengths": ("", "x", "4,8", "8,4,16", "0,4,8", "-4,8,16", "4,4,8", "1e2,2e2,3e2",
                          "4,8,4097", f"4,8,{10**9}"),
        }[flag]

    def _cases(self, command: str, tmp_path):
        flags = self._valid_flags(tmp_path)
        valid = flags[command]

        def argv(items):
            out = [command]
            for flag, value in items:
                out += [flag] if value is None else [flag, value]
            return out

        items = list(valid.items())
        yield "valid", argv(items)
        yield "--help", argv(items) + ["--help"]
        yield "stray positional", argv(items) + ["extra"]
        for i, (flag, value) in enumerate(items):
            rest = items[:i] + items[i + 1:]
            if flag != "--lengths":
                yield f"{flag} dropped", argv(rest)
            yield f"{flag} twice", argv(items + [(flag, value)])
            if value is None:
                yield f"{flag} given a value", argv(rest) + [flag, "1"]
                continue
            yield f"{flag} without a value", argv(rest) + [flag]
            for bad in self._bad_values(flag, tmp_path, flags):
                yield f"{flag} {bad!r}", argv(rest + [(flag, bad)])
        foreign = {flag for other in flags.values() for flag in other} - set(valid)
        for flag in sorted(foreign | {"--bogus"}):
            yield f"foreign {flag}", argv(items) + [flag, "1"], 2

    @pytest.mark.parametrize("command", ["train", "eval", "seeds", "bench", "verify", "params"])
    def test_mutated_flags_exit_zero_to_three(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a dropped --out-dir writes to ./runs
        codes = set()
        for case, args, *expected in self._cases(command, tmp_path):
            # The streams of a process under a UTF-8 locale other than C.UTF-8:
            # stdout rejects the surrogates that stand for non-UTF-8 bytes in
            # argv, and stderr escapes them.
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
            stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
            with monkeypatch.context() as m:
                m.setattr(sys, "stdout", stdout)
                m.setattr(sys, "stderr", stderr)
                code = main(args)
            stderr.seek(0)
            err = stderr.read()
            assert code in (0, 1, 2, 3), case
            if code == 1:
                assert err.startswith("error:"), case
            if code == 2:
                assert "usage:" in err, case
            if expected:
                assert code == expected[0], case
            codes.add(code)
        assert {0, 2} <= codes


class TestTapeBattery:
    """Seeded random float64 graphs of 3-9 ops over three small leaves, with
    nodes reused by later ops and a scalar loss over every node: each leaf
    gradient agrees with central differences within 1e-7 + 1e-6 |g|. The
    absolute term covers gradients near 1e-7, where a purely relative
    bound flags rounding. The same graphs in float32 agree with float64 on
    the same inputs within 1e-5 (1 + |g|), about ten times the worst error
    seen over the 300 graphs."""

    N_GRAPHS = 300
    STEP = 1e-6
    UNARY = {"sigmoid": T.sigmoid, "softplus": T.softplus, "gelu": T.gelu,
             "square": T.square, "abs": T.abs, "swapaxes": lambda x: T.swapaxes(x, 0, 1)}
    BINARY = {"add": T.add, "sub": T.sub, "mul": T.mul, "matmul": T.matmul,
              # A denominator bounded away from zero keeps the quotient smooth.
              "div": lambda x, y: T.div(x, T.add(T.square(y), 0.5))}
    LEAF_SHAPES = ((3, 4), (4, 4), (4, 3), (1, 4), (4, 1), (4,))

    @classmethod
    def _pick_op(cls, rng, shapes):
        """One op applicable to the nodes of ``shapes``: (name, operand
        indices, extra arguments)."""
        while True:
            kind = rng.choice(["unary", "binary", "reduce", "concat", "getitem"])
            i = int(rng.integers(len(shapes)))
            si = shapes[i]
            if kind == "unary":
                name = str(rng.choice(list(cls.UNARY)))
                if name != "swapaxes" or len(si) == 2:
                    return name, (i,), ()
            elif kind == "binary":
                name = str(rng.choice(list(cls.BINARY)))
                if name == "matmul":
                    fits = [j for j, sj in enumerate(shapes)
                            if len(si) == len(sj) == 2 and si[1] == sj[0]]
                else:  # the second operand broadcasts to the first
                    fits = [j for j, sj in enumerate(shapes) if len(sj) <= len(si) and all(
                        b in (1, a) for a, b in zip(si[::-1], sj[::-1]))]
                if fits:
                    j = int(rng.choice(fits))
                    pair = (j, i) if name != "matmul" and rng.random() < 0.5 else (i, j)
                    return name, pair, ()
            elif kind == "reduce" and si:
                axis = None if rng.random() < 0.3 else int(rng.integers(len(si)))
                return str(rng.choice(["sum", "mean"])), (i,), (axis, bool(rng.random() < 0.5))
            elif kind == "concat" and si:
                axis = int(rng.integers(len(si)))
                fits = [j for j, sj in enumerate(shapes) if len(sj) == len(si) and all(
                    a == b for k, (a, b) in enumerate(zip(si, sj)) if k != axis)]
                return "concat", (i, int(rng.choice(fits))), (axis,)
            elif kind == "getitem" and si:
                if rng.random() < 0.5 and si[0] > 1:
                    return "getitem", (i,), (slice(int(rng.integers(1, si[0])), None),)
                mask = rng.random(si[0]) < 0.6
                mask[rng.integers(si[0])] = True
                return "getitem", (i,), (mask,)

    @classmethod
    def _apply(cls, name, operands, extra):
        if name in cls.UNARY:
            return cls.UNARY[name](*operands)
        if name in cls.BINARY:
            return cls.BINARY[name](*operands)
        if name in ("sum", "mean"):
            return getattr(T, name)(operands[0], axis=extra[0], keepdims=extra[1])
        if name == "concat":
            return T.concat(operands, axis=extra[0])
        return T.getitem(operands[0], extra[0])

    @classmethod
    def _graph(cls, seed: int, dtype=np.float64):
        """Leaves of ``dtype``, and a loss function that replays one random
        program on them; the loss weights take the leaves' dtype."""
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(cls.LEAF_SHAPES), size=3)
        leaves = [T.Tensor(rng.standard_normal(cls.LEAF_SHAPES[k]).astype(dtype),
                           requires_grad=True) for k in picks]
        program, shapes = [], [leaf.shape for leaf in leaves]
        for _ in range(int(rng.integers(3, 10))):
            name, args, extra = cls._pick_op(rng, shapes)
            program.append((name, args, extra))
            out = cls._apply(name, [T.Tensor(np.zeros(shapes[a])) for a in args], extra)
            shapes.append(out.shape)
        weights = [rng.standard_normal(shape) for shape in shapes]

        def loss(leaves):
            nodes = list(leaves)
            for name, args, extra in program:
                nodes.append(cls._apply(name, [nodes[a] for a in args], extra))
            total = T.sum(T.mul(nodes[0], weights[0]))
            for node, w in zip(nodes[1:], weights[1:]):
                total = T.add(total, T.sum(T.mul(node, w)))
            return total

        return leaves, loss, program

    def test_random_graphs_match_central_differences(self):
        ops = set()
        for seed in range(self.N_GRAPHS):
            leaves, loss, program = self._graph(seed)
            ops.update(name for name, _, _ in program)
            grads = T.backward(loss(leaves), params=leaves)
            for k, leaf in enumerate(leaves):
                g = grads[leaf]
                for idx in np.ndindex(leaf.shape):
                    orig = leaf.data[idx]
                    with T.no_grad():
                        leaf.data[idx] = orig + self.STEP
                        up = loss(leaves).item()
                        leaf.data[idx] = orig - self.STEP
                        down = loss(leaves).item()
                    leaf.data[idx] = orig
                    fd = (up - down) / (2 * self.STEP)
                    assert abs(g[idx] - fd) <= 1e-7 + 1e-6 * abs(g[idx]), (
                        f"seed {seed}, leaf {k}{idx}: tape {g[idx]!r}, central {fd!r}, "
                        f"program {[name for name, _, _ in program]}")
        assert ops == {*self.UNARY, *self.BINARY, "sum", "mean", "concat", "getitem"}

    def test_random_graphs_f32_match_f64(self):
        for seed in range(self.N_GRAPHS):
            leaves, loss, program = self._graph(seed, np.float32)
            g32 = T.backward(loss(leaves), params=leaves)
            wide = [T.Tensor(leaf.data.astype(np.float64), requires_grad=True)
                    for leaf in leaves]
            g64 = T.backward(loss(wide), params=wide)
            for k, (leaf, ref) in enumerate(zip(leaves, wide)):
                assert g32[leaf].dtype == np.float32
                err = np.abs(g32[leaf] - g64[ref])
                assert np.all(err <= 1e-5 * (1 + np.abs(g64[ref]))), (
                    f"seed {seed}, leaf {k}: max error {err.max():.3g}, "
                    f"program {[name for name, _, _ in program]}")

    @staticmethod
    def _read_only_vjps(monkeypatch) -> set[str]:
        """Hand every VJP recorded from here on a read-only view of its
        gradient; returns the set that collects the names of the ops whose
        VJPs ran."""
        ran: set[str] = set()
        make = T._make

        def read_only_make(out, prev, vjp):
            op = vjp.__qualname__.split(".")[0]

            def read_only_vjp(g):
                ran.add(op)
                if isinstance(g, np.ndarray):
                    g = g.view()
                    g.flags.writeable = False
                return vjp(g)

            return make(out, prev, read_only_vjp)

        monkeypatch.setattr(T, "_make", read_only_make)
        return ran

    def test_every_vjp_takes_a_read_only_gradient(self, monkeypatch):
        # The random graphs, then training losses that reach the ops they
        # lack (embedding, layer norm, packing, softmax, cross-entropy).
        ran = self._read_only_vjps(monkeypatch)
        for seed in range(self.N_GRAPHS):
            leaves, loss, _ = self._graph(seed)
            T.backward(loss(leaves), params=leaves)
        rng = np.random.default_rng(0)
        mask = np.arange(8) < np.array([8, 5, 2])[:, None]
        tokens = rng.integers(0, 16, size=mask.shape)
        labels = np.array([0, 1, 1])
        for kind, head in (("kernel_linear", "classify"), ("kernel_quadratic", "classify"),
                           ("softmax", "classify"), ("kernel_linear", "match")):
            cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, ffn_dim=16, max_len=8,
                              kernel=KernelSpec(variant="oglu", depth=2),
                              attention_kind=kind, head=head)
            batch = (Batch(tokens, mask, labels) if head == "classify" else
                     MatchBatch(tokens, mask, tokens[::-1], mask[::-1], labels))
            loss, _ = linattn.training._forward_loss(build_model(cfg, 0), batch, rng)
            T.backward(loss)
        ops = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__
               and not name.startswith("_")} - {"no_grad", "backward", "finite_difference_check"}
        assert ran == ops

    def test_returned_gradients_may_share_memory(self):
        # d/da and d/db of sum(3 (a + b)) are one array: add passes its
        # incoming gradient to both operands unchanged.
        a = T.Tensor(np.ones(3), requires_grad=True)
        b = T.Tensor(np.ones(3), requires_grad=True)
        grads = T.backward(T.sum(T.mul(T.add(a, b), 3.0)))
        assert np.shares_memory(grads[a], grads[b])

    def test_accumulated_gradients_share_no_memory(self, monkeypatch):
        # A loss whose two parameters get one gradient array: summing two
        # micro-batches in place must not add either one's share to the other.
        params = {"a": T.Tensor(np.ones(3), requires_grad=True),
                  "b": T.Tensor(np.ones(3), requires_grad=True)}

        def forward_loss(model, scale, rng):
            loss = T.sum(T.mul(T.add(params["a"], params["b"]), scale))
            return loss, loss

        monkeypatch.setattr(linattn.training, "_forward_loss", forward_loss)
        _, _, grads = linattn.training._accumulated_step(None, params, iter([3.0, 5.0]), 2, None)
        assert not np.shares_memory(grads["a"], grads["b"])
        for g in grads.values():
            np.testing.assert_array_equal(g, np.full(3, 4.0))
