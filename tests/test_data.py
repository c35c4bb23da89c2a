"""Synthetic task generators, TSV ingestion, batching."""

import zlib

import numpy as np
import pytest

import linattn.data
from linattn.data import (LISTOPS_ARITY_RANGE, LISTOPS_OPS, LISTOPS_RECURSE_PROB,
                          MAX_LISTOPS_DEPTH, MAX_TOKENS, MOTIF_LEN, N_MOTIFS, PAD_ID, Batch,
                          MatchBatch, _draw, _draw_rows, _eval_op, _listops_examples,
                          _listops_tables, batch_iter,
                          eval_listops_tokens, gen_listops, gen_matching, gen_text_classification,
                          listops_to_string, load_tsv_dataset, motif_layout, motif_oracle,
                          save_tsv_dataset, LISTOPS_SYMBOLS)
from linattn.config import TaskSpec
from linattn.errors import ConfigError, DataError

SYM = {s: i for i, s in enumerate(LISTOPS_SYMBOLS)}


def encode(expr: str) -> list[int]:
    return [SYM[tok] for tok in expr.split()]


class TestListopsEvaluator:
    def test_nested_max_min(self):
        assert eval_listops_tokens(encode("[MAX 2 4 [MIN 3 1 ] ]")) == 4

    def test_sum_mod_ten(self):
        assert eval_listops_tokens(encode("[SM 9 9 9 ]")) == 7

    def test_unary_reduction(self):
        assert eval_listops_tokens(encode("[MAX 5 ]")) == 5

    def test_median_rounds_down(self):
        assert eval_listops_tokens(encode("[MED 1 4 ]")) == 2
        assert eval_listops_tokens(encode("[MED 0 3 7 ]")) == 3
        assert eval_listops_tokens(encode("[MED 2 9 5 6 ]")) == 5

    def test_ignores_padding(self):
        assert eval_listops_tokens(encode("[SM 4 4 ]") + [PAD_ID, PAD_ID]) == 8


class TestGenListops:
    def test_labels_match_independent_evaluator(self):
        ds = gen_listops(0, 10_000, max_len=96, max_depth=4)
        for tokens, label in ds.examples:
            assert eval_listops_tokens(tokens) == label, listops_to_string(tokens)

    def test_deepest_allowed_nesting_generates_and_evaluates(self):
        ds = gen_listops(1, 4, max_len=20_000, max_depth=MAX_LISTOPS_DEPTH)
        opens = [SYM[f"[{op}"] for op in ("MAX", "MIN", "MED", "SM")]
        nesting = 0
        for tokens, label in ds.examples:
            assert eval_listops_tokens(tokens) == label
            steps = np.isin(tokens, opens).astype(int) - (tokens == SYM["]"])
            nesting = max(nesting, np.cumsum(steps).max())
        assert nesting == MAX_LISTOPS_DEPTH

    def test_lengths_within_budget(self):
        for max_len in (32, 128, 256):
            ds = gen_listops(1, 500, max_len=max_len)
            assert max(len(t) for t, _ in ds.examples) <= max_len

    def test_mean_length_near_half_budget(self):
        ds = gen_listops(2, 2000, max_len=128, max_depth=4)
        mean = np.mean([len(t) for t, _ in ds.examples])
        assert 0.35 * 128 <= mean <= 0.65 * 128

    def test_deterministic(self):
        a = gen_listops(3, 100)
        b = gen_listops(3, 100)
        for (ta, ya), (tb, yb) in zip(a.examples, b.examples):
            assert np.array_equal(ta, tb) and ya == yb

    def test_labels_in_range_and_pad_never_emitted(self):
        ds = gen_listops(4, 1000)
        for tokens, label in ds.examples:
            assert 0 <= label <= 9
            assert PAD_ID not in tokens


def oracle_expr(gen: np.random.Generator, depth_left: int, budget: int, out: list[int]) -> int:
    """Append one random expression of at most ``budget`` token ids to
    ``out``; returns its value. ``gen_listops``'s first generator: one
    recursive call per node, drawing through ``Generator`` itself."""
    lo, hi = LISTOPS_ARITY_RANGE
    if depth_left <= 0 or budget < lo + 2:  # [OP digit digit ] does not fit
        digit = int(gen.integers(0, 10))
        out.append(SYM[str(digit)])
        return digit
    op = LISTOPS_OPS[gen.integers(0, len(LISTOPS_OPS))]
    arity = lo + int(gen.integers(0, min(hi, budget - 2) + 1 - lo))
    start = len(out)
    out.append(SYM[f"[{op}"])
    vals = []
    for i in range(arity):
        used = len(out) - start + 1  # tokens so far plus the closing ]
        child_budget = budget - used - (arity - i - 1)  # leave room for digits
        recurse = child_budget >= lo + 2 and gen.random() < LISTOPS_RECURSE_PROB
        vals.append(oracle_expr(gen, depth_left - 1 if recurse else 0, child_budget, out))
    out.append(SYM["]"])
    return _eval_op(op, vals)


def oracle_examples(bitgen, count: int, max_len: int, max_depth: int) -> list:
    gen = np.random.Generator(bitgen)
    examples = []
    for _ in range(count):
        tokens: list[int] = []
        value = oracle_expr(gen, max_depth, max_len, tokens)
        examples.append((tokens, value))
    return examples


def assert_same_examples(got, want):
    assert len(got) == len(want)
    for i, ((tokens, value), (want_tokens, want_value)) in enumerate(zip(got, want)):
        assert tokens.dtype == np.int64 and tokens.tolist() == want_tokens, i
        assert value == want_value, i


class TestListopsOracle:
    """``gen_listops``'s one loop over byte tables against the recursive
    generator drawing from ``Generator``, shape by shape."""

    def test_random_shapes(self):
        rng = np.random.default_rng(2024)
        for case in range(60):
            seed = int(rng.integers(0, 2**63))
            count = int(rng.integers(1, 12))
            small = case % 3 == 0  # budgets around the root's nesting thresholds
            max_len = int(rng.integers(1, 12) if small else rng.integers(12, 600))
            max_depth = int(rng.integers(0, 12))
            got = gen_listops(seed, count, max_len, max_depth).examples
            want = oracle_examples(np.random.PCG64(seed), count, max_len, max_depth)
            assert_same_examples(got, want)

    def test_known_rejection_is_retried(self, monkeypatch):
        """Seed 0's 32-bit draw 336,999,057, the high half of word
        168,499,528, is rejected by Lemire's method at a range of 10.
        Starting the stream ``j`` words before it makes the loop read it
        as a digit at several ``j``."""
        words = 168_499_528
        tables, retries = [], []

        def counting_tables(raw):
            tables.append(_listops_tables(raw))
            return tables[-1]

        def counting_draw(table, h, p):
            retries.append(table is tables[-1][10])
            return _draw(table, h, p)

        monkeypatch.setattr(linattn.data, "_listops_tables", counting_tables)
        monkeypatch.setattr(linattn.data, "_draw", counting_draw)
        for j in range(40):
            tables.clear()
            got = _listops_examples(np.random.PCG64(0).advance(words - j), 3, 128, 4)
            want = oracle_examples(np.random.PCG64(0).advance(words - j), 3, 128, 4)
            assert_same_examples(got, want)
            assert tables[0][10][2 * j + 1] == 255
        assert sum(retries) >= 3  # the loop never calls _draw for a digit but to retry

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_tiny_chunks_refill_and_redo(self, monkeypatch, chunk):
        """Tables of a few words make nearly every example run past them,
        so the loop refills between examples and grows and redoes mid-way."""
        monkeypatch.setattr(linattn.data, "_LISTOPS_CHUNK", chunk)
        for seed, count, max_len, max_depth, digest in GOLDEN_LISTOPS:
            if count * max_len <= 10**5:
                assert dataset_digest(gen_listops(seed, count, max_len, max_depth)) == digest


class TestListopsTables:
    """The ListOps tables against ``Generator``, whose method algorithms
    NumPy may change between releases while the PCG64 stream stays fixed."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 7])
    def test_matches_generator_call_for_call(self, seed):
        gen = np.random.default_rng(seed)
        tables = _listops_tables(np.random.PCG64(seed).random_raw(20_000))
        # The tables' ranges and uniforms in a random order, so every pairing
        # of a pending 32-bit half with a following call occurs.
        calls = np.random.default_rng([seed, 99]).choice([0, 2, 3, 4, 10], size=15_000).tolist()
        h = p = 0
        for i, n in enumerate(calls):
            if n == 0:  # random() takes the next whole word and leaves a pending half
                assert tables["recurse"][h] == (gen.random() < LISTOPS_RECURSE_PROB), (seed, i)
                h += 2
            else:
                x, h, p = _draw(tables[n], h, p)
                assert x == gen.integers(0, n), (seed, i, n)

    def test_rejection_matches_generator(self):
        """Seed 0's 32-bit draw 336,999,057 (the high half of word
        168,499,528) is rejected by Lemire's method at a range of 10."""
        words = 168_499_528
        tables = _listops_tables(np.random.PCG64(0).advance(words).random_raw(8))
        assert tables[10][1] == 255
        gen = np.random.Generator(np.random.PCG64(0).advance(words))
        h = p = 0
        for i in range(6):
            x, h, p = _draw(tables[10], h, p)
            assert x == gen.integers(0, 10), i

    def test_crafted_rejections_read_255(self):
        """Lemire rejects ``u`` at range n when ``(u * n) mod 2**32`` is below
        ``(2**32 - n) mod n``: 6 at n = 10, 1 at n = 3, 0 at n = 2 and 4."""
        halves = [0, 1, 429_496_730, 1_717_986_919, 2**32 - 1, 1_431_655_766]
        # (u * 10) mod 2**32 reads 0, 10, 4, 6 (kept: the threshold is strict), ...
        words = np.array([lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])],
                         dtype=np.uint64)
        tables = _listops_tables(words)
        assert list(tables[10]) == [255, 0, 255, 4, 9, 3]
        assert list(tables[3]) == [255, 0, 0, 1, 2, 1]
        assert list(tables[4]) == [0, 0, 0, 1, 3, 1]
        assert list(tables[2]) == [0, 0, 0, 0, 1, 0]


def twin_generators(seed: int, pending: bool):
    """Two generators in one state; with ``pending``, one 32-bit draw has
    left the high half of a word waiting in ``bit_generator.state``."""
    gens = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        for gen in gens:
            gen.integers(0, 10)
    assert gens[1].bit_generator.state["has_uint32"] == pending
    return gens


class SpyGenerator:
    """A ``Generator``'s bit generator and ``integers``, which records the
    arguments of each call."""

    def __init__(self, gen: np.random.Generator):
        self.bit_generator, self._gen, self.calls = gen.bit_generator, gen, []

    def integers(self, *args):
        self.calls.append(args)
        return self._gen.integers(*args)


class TestDrawRows:
    """``_draw_rows`` against ``Generator.integers(0, ns)`` on a twin
    generator: the same values, and the same ``bit_generator.state`` after."""

    def check(self, seed: int, pending: bool, ns: np.ndarray) -> list:
        """The arguments of each fallback call ``_draw_rows`` made."""
        gen, twin = twin_generators(seed, pending)
        spy = SpyGenerator(twin)
        want = gen.integers(0, ns)
        got = _draw_rows(spy, ns)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert spy.bit_generator.state == gen.bit_generator.state
        return spy.calls

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("shape", [(8, 125), (7, 143)])
    def test_mixed_ranges(self, pending, shape):
        """Every third range is one and draws nothing, so the two shapes
        use an even and an odd number of 32-bit draws: both leave the
        pending half-word in the state as NumPy does."""
        ns = np.random.default_rng(1).integers(2, 1000, size=shape).astype(np.uint64)
        ns.flat[::3] = 1
        assert self.check(8, pending, ns) == []

    @pytest.mark.parametrize("pending", [False, True])
    def test_rejection_half_the_time(self, pending):
        """At ``n = 2**31 + 1`` Lemire's threshold is ``2**31 - 1``, so about
        half the 32-bit draws are rejected and the block falls back."""
        ns = np.full((3, 667), 2**31 + 1, dtype=np.uint64)
        assert len(self.check(3, pending, ns)) == 1

    @pytest.mark.parametrize("n", [2**32, 2**32 + 1, 2**33, 2**62])
    def test_wide_ranges_fall_back(self, n):
        """NumPy takes a 32-bit draw as it is at ``2**32`` and draws 64-bit
        words above. At ``2**33`` and ``2**62`` the uint64 product ``u * n``
        wraps; at ``2**32 + 1`` it cannot, and Lemire's 32-bit threshold
        reads 0, so only the range check sends that block to ``integers``."""
        ns = np.full((4, 50), n, dtype=np.uint64)
        ns[:, ::7] = 1
        assert len(self.check(5, True, ns)) == 1

    def test_ordinary_block_decodes_itself(self):
        """A block of ``gen_matching``'s shape at ``configs/match.cfg``'s
        sizes never calls ``integers``."""
        side = [41] * 64 + [62]
        ns = np.tile(np.array([6, 5] + side + side, dtype=np.uint64), (128, 1))
        ns[::3, 1] = 1
        assert self.check(1234, True, ns) == []


def scalar_text_classification(seed: int, count: int, length: int, vocab_size: int,
                               classes: int) -> list:
    """``gen_text_classification``'s examples from scalar ``Generator`` calls."""
    filler_hi, motifs = motif_layout(vocab_size, classes)
    rng = np.random.default_rng(seed)
    labels = np.arange(count) % classes
    rng.shuffle(labels)
    return [(scalar_side(rng, length, filler_hi, motifs[y]), int(y)) for y in labels]


def scalar_matching(seed: int, count: int, length: int, vocab_size: int) -> list:
    """``gen_matching``'s examples from scalar ``Generator`` calls."""
    filler_hi, motifs = motif_layout(vocab_size, N_MOTIFS)
    rng = np.random.default_rng(seed)
    labels = np.arange(count) % 2
    rng.shuffle(labels)
    examples = []
    for y in labels:
        i = j = int(rng.integers(0, N_MOTIFS))
        if not y:
            j = int(rng.integers(0, N_MOTIFS - 1))
            j += j >= i
        examples.append((scalar_side(rng, length, filler_hi, motifs[i]),
                         scalar_side(rng, length, filler_hi, motifs[j]), int(y)))
    return examples


def scalar_side(rng, length: int, filler_hi: int, motif) -> np.ndarray:
    tokens = rng.integers(1, filler_hi, size=length)
    at = rng.integers(0, length - MOTIF_LEN + 1)
    tokens[at:at + MOTIF_LEN] = motif
    return tokens


def assert_same_motif_examples(got, want):
    assert len(got) == len(want)
    for i, ((*sides, label), (*want_sides, want_label)) in enumerate(zip(got, want)):
        assert label == want_label, i
        for tokens, want_tokens in zip(sides, want_sides, strict=True):
            assert tokens.dtype == np.int64 and tokens.tolist() == want_tokens.tolist(), i


class TestWideVocab:
    """At a vocab of 2**33 each filler draw is a 64-bit draw, which only
    ``Generator.integers`` makes."""

    @pytest.mark.parametrize("seed, count", [(0, 1), (1, 130)])
    def test_classification_matches_scalar_draws(self, seed, count):
        assert_same_motif_examples(gen_text_classification(seed, count, 8, 2**33, 2).examples,
                                   scalar_text_classification(seed, count, 8, 2**33, 2))

    @pytest.mark.parametrize("seed, count", [(0, 1), (2, 130)])
    def test_matching_matches_scalar_draws(self, seed, count):
        assert_same_motif_examples(gen_matching(seed, count, 8, 2**33).examples,
                                   scalar_matching(seed, count, 8, 2**33))


def dataset_digest(ds) -> int:
    """CRC32 over each example's little-endian int64 tokens (both sides of
    a pair, in order) and label byte."""
    crc = 0
    for *sides, label in ds.examples:
        for tokens in sides:
            crc = zlib.crc32(np.asarray(tokens, dtype="<i8").tobytes(), crc)
        crc = zlib.crc32(bytes([label]), crc)
    return crc


GOLDEN_LISTOPS = [
    (0, 200, 128, 4, 0x7199D046),
    (7, 20, 2048, 8, 0x4E4716F4),
    (3, 500, 8, 1, 0xA6214EF6),
    (11, 300, 16, 3, 0x8D66C663),
    (5, 200, 3, 4, 0x1BB03BF0),   # a bare digit at the root
    (6, 200, 4, 4, 0x14ACB7F4),   # a root arity range of one: no draw
    (7, 200, 5, 4, 0x109747FA),   # ... of two
    (8, 200, 6, 4, 0xDC585847),   # ... of three
    (9, 200, 7, 4, 0x7C4C3C4B),   # ... of four
    (2, 384, 2048, 8, 0xA7E5654B),  # perfbench's listops_long_eval split at seed 1
    (1, 4000, 128, 4, 0x6F4D2AAF),  # perfbench's listops_train split at seed 1
    (1, 4, 20_000, MAX_LISTOPS_DEPTH, 0x4B4DCEB9),  # the deepest nesting allowed
]


class TestListopsGolden:
    """``gen_listops``'s bytes, recorded when it still drew through
    ``np.random.default_rng``: a change here changes every listops dataset,
    its reference losses and the checkpoints trained on it."""

    @pytest.mark.parametrize("seed, count, max_len, max_depth, digest", GOLDEN_LISTOPS)
    def test_digest(self, seed, count, max_len, max_depth, digest):
        assert dataset_digest(gen_listops(seed, count, max_len, max_depth)) == digest


class TestMotifGolden:
    """The motif tasks' bytes, recorded when they still drew through
    ``Generator.integers``: a change here changes every motif dataset, the
    trained-result record and the checkpoints trained on them. The cases
    cover odd and even counts, one example, lengths 8 and 128, three
    classes, the smallest vocab each task allows, and both states of the
    half-word the label shuffle leaves pending."""

    @pytest.mark.parametrize("seed, count, length, vocab_size, digest", [
        (1234, 2000, 64, 48, 0x31694613),  # configs/match.cfg's training split
        (1235, 500, 64, 48, 0xFF2CC036),
        (7, 1, 8, 48, 0x433C71AA),
        (99, 333, 128, 21, 0x2E41FC39),
        (2, 64, 8, 48, 0x40CE08F2),       # a half-word pending after the shuffle
        (5, 101, 128, 1000, 0x0C83F51F),  # pending
        (3, 2, 8, 21, 0x0E58E890),        # pending
        (4, 9, 3, 48, 0xD3E9A32A),        # a position range of one draws nothing
    ])
    def test_matching_digest(self, seed, count, length, vocab_size, digest):
        assert dataset_digest(gen_matching(seed, count, length, vocab_size)) == digest

    @pytest.mark.parametrize("seed, count, length, vocab_size, classes, digest", [
        (1234, 2000, 128, 32, 2, 0xCA616229),  # configs/classify_*.cfg's training split
        (1, 1001, 64, 32, 3, 0x48E1A7C8),
        (2, 1, 8, 9, 2, 0x6E64958E),
        (3, 250, 128, 12, 3, 0x1E2C13EB),
        (4, 64, 8, 1000, 3, 0xDA5D54EB),      # pending
        (6, 77, 128, 32, 2, 0xFE45EFE7),      # pending
        (4, 9, 3, 12, 3, 0x1C5A1912),         # a position range of one
    ])
    def test_classification_digest(self, seed, count, length, vocab_size, classes, digest):
        ds = gen_text_classification(seed, count, length, vocab_size, classes)
        assert dataset_digest(ds) == digest

    def test_length_below_motif_rejected(self):
        for gen in (lambda: gen_matching(0, 4, length=2),
                    lambda: gen_text_classification(0, 4, length=2)):
            with pytest.raises(ConfigError, match=r"^length must be >= 3 to hold a motif, got 2$"):
                gen()


class TestGenTextClassification:
    def test_motif_oracle_is_perfect(self):
        ds = gen_text_classification(0, 2000, length=128, vocab_size=32, classes=2)
        labels = np.array([y for _, y in ds.examples])
        assert np.array_equal(motif_oracle(ds), labels)

    def test_balanced_within_one(self):
        for count in (1000, 1001, 997):
            ds = gen_text_classification(1, count, length=64, vocab_size=32, classes=3)
            hist = np.bincount([y for _, y in ds.examples], minlength=3)
            assert hist.max() - hist.min() <= 1

    def test_deterministic(self):
        a = gen_text_classification(2, 50)
        b = gen_text_classification(2, 50)
        for (ta, ya), (tb, yb) in zip(a.examples, b.examples):
            assert np.array_equal(ta, tb) and ya == yb

    def test_pad_never_emitted(self):
        ds = gen_text_classification(3, 200, length=32)
        assert all(PAD_ID not in t for t, _ in ds.examples)


class TestGenMatching:
    def test_motif_oracle_is_perfect(self):
        ds = gen_matching(0, 1000, length=64)
        labels = np.array([y for *_, y in ds.examples])
        assert np.array_equal(motif_oracle(ds), labels)

    def test_balanced(self):
        ds = gen_matching(1, 999, length=64)
        hist = np.bincount([y for *_, y in ds.examples], minlength=2)
        assert abs(hist[0] - hist[1]) <= 1

    def test_deterministic(self):
        a = gen_matching(2, 40)
        b = gen_matching(2, 40)
        for ea, eb in zip(a.examples, b.examples):
            assert np.array_equal(ea[0], eb[0]) and np.array_equal(ea[1], eb[1])
            assert ea[2] == eb[2]


class TestTaskSpecDomains:
    """``TaskSpec.validate`` owns every generated task's domains; it runs
    before ``build`` draws anything."""

    def test_too_small_parameters_rejected(self):
        for source in ("listops", "text_classification", "matching"):
            for key, value, rule in [("length", 7, ">= 8"), ("classes", 1, ">= 2"),
                                     ("max_depth", 0, r"in \[1, 256\]")]:
                spec = TaskSpec(source=source, vocab_size=48, **{key: value})
                with pytest.raises(ConfigError, match=rf"^{key} must be {rule}, got {value}$"):
                    spec.validate()
                with pytest.raises(ConfigError, match=rf"^{key} must be {rule}"):
                    spec.build()

    def test_vocab_too_small_rejected(self):
        for source, need in [("text_classification", 9), ("matching", 21)]:
            spec = TaskSpec(source=source, length=32, vocab_size=need - 1, classes=2)
            with pytest.raises(ConfigError, match=rf"^vocab_size must be >= {need} for "
                                                  rf".*, got {need - 1}$"):
                spec.validate()
            spec.vocab_size = need
            spec.validate()

    def test_listops_ignores_vocab_size(self):
        TaskSpec(source="listops", vocab_size=2).validate()

    @pytest.mark.parametrize("source, length, sides", [
        ("listops", 128, 1), ("text_classification", 128, 1), ("matching", 64, 2)])
    @pytest.mark.parametrize("key", ["count", "eval_count"])
    def test_split_beyond_max_tokens_rejected(self, source, length, sides, key):
        """The bound is inclusive and counts both sides of a pair; the check
        runs before ``build`` draws or allocates anything."""
        at_bound = MAX_TOKENS // (sides * length)
        assert at_bound * sides * length == MAX_TOKENS
        spec = TaskSpec(source=source, length=length, vocab_size=48, **{key: at_bound})
        spec.validate()
        setattr(spec, key, at_bound + 1)
        tokens = (at_bound + 1) * sides * length
        message = rf"^task\.{key} = {at_bound + 1} sequences of task\.length = {length}"
        with pytest.raises(ConfigError, match=message + rf".* make {tokens} tokens, more than "
                                              rf"the {MAX_TOKENS} allowed$"):
            spec.validate()
        with pytest.raises(ConfigError, match=message):
            spec.build()


class TestTsv:
    def test_single_row(self, tmp_path):
        p = tmp_path / "mini.tsv"
        p.write_text("1\t3 4 5\n")
        ds = load_tsv_dataset(p)
        assert len(ds) == 1
        tokens, label = ds.examples[0]
        assert label == 1 and np.array_equal(tokens, [3, 4, 5])
        assert ds.vocab == range(6)  # max id + 1; ids name nothing, so no string per id

    def test_huge_id_stores_only_its_range(self, tmp_path):
        p = tmp_path / "huge.tsv"
        for top in (2**62, 2**63 - 1):  # int64's largest id too: a range, never its len()
            p.write_text(f"0\t1 {top}\n")
            assert load_tsv_dataset(p).vocab == range(top + 1)

    def test_non_integer_token_names_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t1 2 3\n1\t4 x 6\n")
        with pytest.raises(DataError, match=r"bad\.tsv:2"):
            load_tsv_dataset(p)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "cols.tsv"
        p.write_text("0\t1 2\n0\t1 2\t3 4\n")
        with pytest.raises(DataError, match=r"cols\.tsv:2: expected 2"):
            load_tsv_dataset(p)
        p.write_text("0\t1 2\t3 4\t5\n")
        with pytest.raises(DataError, match=r"cols\.tsv:1: expected 2 \(classify\) or 3"):
            load_tsv_dataset(p)

    def test_token_id_beyond_int64_names_line(self, tmp_path):
        p = tmp_path / "huge.tsv"
        p.write_text("3\t1 2\n4\t5 99999999999999999999\n")
        with pytest.raises(DataError, match=r"huge\.tsv:2"):
            load_tsv_dataset(p)

    @pytest.mark.parametrize("label", [2**63, 2**70])
    def test_label_beyond_int64_names_line(self, tmp_path, label):
        p = tmp_path / "huge.tsv"
        p.write_text(f"3\t1 2\n{label}\t5 6\n")
        with pytest.raises(DataError, match=r"huge\.tsv:2"):
            load_tsv_dataset(p)

    def test_non_utf8_row_names_line(self, tmp_path):
        p = tmp_path / "bytes.tsv"
        p.write_bytes(b"1\t3 4\n0\t5 6\n1\t7 \xff\n")
        with pytest.raises(DataError, match=r"bytes\.tsv:3: not UTF-8"):
            load_tsv_dataset(p)

    def test_crlf_rows(self, tmp_path):
        p = tmp_path / "crlf.tsv"
        p.write_bytes(b"1\t3 4\r\n\r\n0\t5 6\r\n")
        ds = load_tsv_dataset(p)
        assert [label for _, label in ds.examples] == [1, 0]
        assert np.array_equal(ds.examples[1][0], [5, 6])

    @pytest.mark.parametrize("build", ["build", "build_eval"])
    def test_too_few_rows_to_hold_out_names_path(self, tmp_path, build):
        p = tmp_path / "nine.tsv"
        p.write_text("1\t3 4\n" * 9)
        spec = TaskSpec(source="tsv", path=str(p))
        with pytest.raises(DataError, match=r"nine\.tsv: 9 rows .* set eval_path or supply "
                                            r"at least 10 rows"):
            getattr(spec, build)()
        p.write_text("1\t3 4\n" * 10)
        train, held = spec.build()
        assert (len(train), len(held)) == (9, 1)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        with pytest.raises(DataError):
            load_tsv_dataset(p)

    def test_round_trip_classify(self, tmp_path):
        ds = gen_text_classification(5, 50, length=16, vocab_size=32)
        p = tmp_path / "round.tsv"
        save_tsv_dataset(ds, p)
        loaded = load_tsv_dataset(p)
        assert loaded.kind == "classify" and len(loaded) == len(ds)
        for (ta, ya), (tb, yb) in zip(ds.examples, loaded.examples):
            assert np.array_equal(ta, tb) and ya == yb

    def test_round_trip_match(self, tmp_path):
        ds = gen_matching(6, 30, length=16)
        p = tmp_path / "pairs.tsv"
        save_tsv_dataset(ds, p)
        loaded = load_tsv_dataset(p)
        assert loaded.kind == "match"
        for ea, eb in zip(ds.examples, loaded.examples):
            assert np.array_equal(ea[0], eb[0]) and np.array_equal(ea[1], eb[1])
            assert ea[2] == eb[2]


class TestBatchIter:
    def test_partial_final_batch_kept(self):
        ds = gen_text_classification(7, 10, length=16)
        sizes = [len(b.labels) for b in batch_iter(ds, 4, 16, shuffle_seed=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        ds = gen_text_classification(8, 30, length=16)
        a = [b.tokens for b in batch_iter(ds, 8, 16, shuffle_seed=5)]
        b = [b.tokens for b in batch_iter(ds, 8, 16, shuffle_seed=5)]
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_different_seed_different_order(self):
        ds = gen_text_classification(9, 64, length=16)
        a = np.concatenate([b.labels for b in batch_iter(ds, 16, 16, shuffle_seed=1)])
        b = np.concatenate([b.labels for b in batch_iter(ds, 16, 16, shuffle_seed=2)])
        assert not np.array_equal(a, b)

    def test_mask_false_exactly_on_pads(self):
        ds = gen_listops(10, 200, max_len=64)
        for batch in batch_iter(ds, 16, 64, shuffle_seed=3):
            np.testing.assert_array_equal(batch.mask, batch.tokens != PAD_ID)

    def test_truncation_to_max_len(self):
        ds = gen_listops(11, 100, max_len=128)
        for batch in batch_iter(ds, 32, 48, shuffle_seed=0):
            assert batch.tokens.shape[1] <= 48

    def test_match_batches(self):
        ds = gen_matching(12, 20, length=24)
        batches = list(batch_iter(ds, 8, 24, shuffle_seed=0))
        assert all(isinstance(b, MatchBatch) for b in batches)
        assert batches[0].tokens_a.shape == (8, 24)

    def test_bad_batch_size(self):
        ds = gen_listops(13, 10)
        with pytest.raises(ConfigError):
            next(batch_iter(ds, 0, 16))
