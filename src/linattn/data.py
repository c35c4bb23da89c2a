"""Deterministic synthetic datasets and batching.

Three desk-scale sequence tasks:

* nested prefix arithmetic (``gen_listops``): expressions over MAX, MIN,
  MED (median, rounded down) and SM (sum mod 10) whose value 0-9 is the
  label; every generated label is cross-checked against an independent
  recursive evaluator in the tests.
* motif classification (``gen_text_classification``): each class plants
  its own k-gram at a random position; filler tokens are drawn uniformly
  from a disjoint token range, so a motif scan classifies perfectly.
* motif matching (``gen_matching``): positive pairs plant the same motif
  in both sequences, negative pairs plant two different ones.

Token id 0 is reserved for padding and never emitted by a generator. Every
generator is seeded explicitly, so a given (seed, arguments) pair
reproduces the dataset byte for byte. Every generator decodes its draws
from the raw PCG64 stream, whose output NumPy keeps fixed across releases:
ListOps through byte tables of every draw it may take, read by one loop
(``_listops_tables``, ``_listops_example``), the motif tasks a block of
examples at a time (``_draw_rows``), which leaves a block with a rejected
draw or a range of 2**32 or more to ``Generator.integers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

PAD_ID = 0

LISTOPS_OPS = ("MAX", "MIN", "MED", "SM")
LISTOPS_SYMBOLS = ["<pad>", "]"] + [f"[{op}" for op in LISTOPS_OPS] + [str(d) for d in range(10)]
_CLOSE_ID = 1
_OP_BASE = 2
_DIGIT_BASE = _OP_BASE + len(LISTOPS_OPS)

# Tree-shape constants, tuned so the mean expression length sits near
# half the token budget at the default (max_len=128, max_depth=4).
LISTOPS_ARITY_RANGE = (2, 5)
LISTOPS_RECURSE_PROB = 0.55

# The deepest nesting ``[task] max_depth`` allows: ``eval_listops_tokens``
# recurses once per level, well under Python's 1000-frame limit (the
# generator keeps its open operators on a list).
MAX_LISTOPS_DEPTH = 256

# The most tokens a generated split may hold (``count * length``, both
# sides of a matching pair counted): ``TaskSpec.validate`` refuses a larger
# one before anything is drawn or allocated.
MAX_TOKENS = 10**8

# Motif shape: every motif is a MOTIF_LEN-gram; matching draws from N_MOTIFS.
MOTIF_LEN = 3
N_MOTIFS = 6


@dataclass
class Dataset:
    """Token-id examples with a symbol table.

    ``examples`` holds (tokens, label) pairs for ``kind="classify"`` and
    (tokens_a, tokens_b, label) triples for ``kind="match"``; tokens are
    int arrays, labels ints below ``classes``. ``vocab`` names each id
    (listops) or, for a task whose ids name nothing, is the id range.
    """

    examples: list
    vocab: list[str] | range
    classes: int
    kind: str = "classify"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.examples:
            raise DataError("dataset is empty")
        if self.kind not in ("classify", "match"):
            raise DataError(f"unknown dataset kind {self.kind!r}")

    def __len__(self):
        return len(self.examples)


@dataclass
class Batch:
    tokens: np.ndarray   # (B, L) int64, padded with PAD_ID
    mask: np.ndarray     # (B, L) bool, False exactly on pads
    labels: np.ndarray   # (B,) int64


@dataclass
class MatchBatch:
    tokens_a: np.ndarray
    mask_a: np.ndarray
    tokens_b: np.ndarray
    mask_b: np.ndarray
    labels: np.ndarray


# ---------------------------------------------------------------------------
# nested prefix arithmetic
# ---------------------------------------------------------------------------

def _eval_op(op: str, vals: list[int]) -> int:
    if op == "MAX":
        return max(vals)
    if op == "MIN":
        return min(vals)
    if op == "MED":
        s = sorted(vals)
        n = len(s)
        mid = (s[n // 2] + s[(n - 1) // 2]) / 2
        return int(mid)  # median rounded down
    if op == "SM":
        return sum(vals) % 10
    raise DataError(f"unknown operator {op}")


# uint64 operands keep the decoders' arithmetic in uint64 under every NumPy's casting rules.
_LOW32, _TWO32, _THIRTY_TWO = np.uint64(0xFFFFFFFF), np.uint64(2**32), np.uint64(32)

# Raw PCG64 words that ``gen_listops`` decodes into its tables at a time.
_LISTOPS_CHUNK = 4096

_REJECTED = 255  # a table entry whose 32-bit draw Lemire rejects


def _listops_tables(words: np.ndarray) -> dict:
    """Byte tables over the raw words ``words``, indexed by 32-bit draw.

    Draw ``2i`` is word i's low half and ``2i + 1`` its high half, in
    ``next_uint32`` order. ``tables[n]`` holds ``Generator.integers(0, n)``'s
    32-bit Lemire value ``(u * n) >> 32`` for each draw at every range
    ``n`` the generator uses, or ``_REJECTED`` where Lemire rejects the
    draw. ``tables["recurse"][2i]`` is 1 iff ``Generator.random()`` on word
    i, ``(w >> 11) * 2**-53``, is below ``LISTOPS_RECURSE_PROB``.
    """
    lo, hi = LISTOPS_ARITY_RANGE
    ranges = {10, len(LISTOPS_OPS), *range(2, hi + 2 - lo)}  # a range of one draws nothing
    u = words.astype("<u8", copy=False).view("<u4").astype(np.uint64)
    tables = {}
    for n in ranges:
        m = u * np.uint64(n)
        draw = (m >> _THIRTY_TWO).astype(np.uint8)
        draw[(m & _LOW32) < (2**32 - n) % n] = _REJECTED  # fires at n = 10 (below 6) and n = 3 (u = 0)
        tables[n] = draw.tobytes()
    recurse = np.zeros(u.size, dtype=np.uint8)
    recurse[::2] = (words >> np.uint64(11)) * 2.0**-53 < LISTOPS_RECURSE_PROB
    tables["recurse"] = recurse.tobytes()
    return tables


def _draw(table: bytes, h: int, p: int):
    """The next 32-bit draw that ``table`` accepts, from draw state
    ``(h, p)`` (see ``_listops_example``): its value and the new state. A
    rejected draw passes on to the next one, as in ``Generator.integers``."""
    while True:
        if p:
            x = table[p]
            p = 0
        else:
            x = table[h]
            p = h + 1
            h += 2
        if x != _REJECTED:
            return x, h, p


def _median_down(vals: list[int]) -> int:
    s = sorted(vals)
    return (s[len(s) // 2] + s[(len(s) - 1) // 2]) // 2


_OP_VALUES = (max, min, _median_down, lambda vals: sum(vals) % 10)  # in LISTOPS_OPS order


def _listops_example(tables: dict, h: int, p: int, max_len: int, max_depth: int):
    """One expression of at most ``max_len`` token ids, nested at most
    ``max_depth`` deep, read from ``tables`` at draw state ``(h, p)``.
    Returns its token ids, its value and the new draw state.

    ``h`` is the next unread word's low-half index; ``p`` is a pending high
    half's index, or 0 when none is pending. A 32-bit draw takes the
    pending half first, else the next word's low half and leaves its high
    half pending; a ``random()`` draw takes the next whole word and leaves
    the pending half where it is. Raises ``IndexError`` when the example
    runs past the tables.
    """
    lo, hi = LISTOPS_ARITY_RANGE
    digits, ops, recurse = tables[10], tables[len(LISTOPS_OPS)], tables["recurse"]
    arities = tables[hi + 1 - lo]
    digit_base, close, values, rejected = _DIGIT_BASE, _CLOSE_ID, _OP_VALUES, _REJECTED
    out = bytearray()
    append = out.append
    if max_depth <= 0 or max_len < lo + 2:  # [OP digit digit ] does not fit: a bare digit
        x, h, p = _draw(digits, h, p)
        append(_DIGIT_BASE + x)
        return out, x, h, p
    stack = [None]  # the open operators' parents; None below the root
    budget, depth = max_len, max_depth
    while True:
        # Open an operator of at most ``budget`` tokens, ``depth`` levels deep at most.
        if p:
            op = ops[p]
            p = 0
        else:
            op = ops[h]
            p = h + 1
            h += 2
        if budget >= hi + 2:
            if p:
                arity = lo + arities[p]
                p = 0
            else:
                arity = lo + arities[h]
                p = h + 1
                h += 2
        elif budget == lo + 2:
            arity = lo  # a range of one draws nothing
        else:
            x, h, p = _draw(tables[budget - 1 - lo], h, p)
            arity = lo + x
        vals = []
        limit = len(out) + budget
        append(_OP_BASE + op)
        while True:
            left = arity - len(vals)
            if not left:
                append(close)
                x = values[op](vals)
                frame = stack.pop()
                if frame is None:
                    return out, x, h, p
                op, vals, limit, arity, depth = frame
                vals.append(x)
                continue
            budget = limit - len(out) - left  # room for the closing ] and a digit per later child
            if budget >= lo + 2:
                nest = recurse[h]
                h += 2
                if nest and depth > 1:
                    stack.append((op, vals, limit, arity, depth))
                    depth -= 1
                    break
            if p:
                x = digits[p]
                p = 0
            else:
                x = digits[h]
                p = h + 1
                h += 2
            if x == rejected:
                x, h, p = _draw(digits, h, p)
            append(digit_base + x)
            vals.append(x)


def eval_listops_tokens(tokens) -> int:
    """Recursive-descent evaluator over serialized token ids.

    This is the oracle the generator's labels are checked against. It
    parses the token stream and applies the operators (``_eval_op``) on
    its own, so the 10k-example label cross-check pins the generator's
    operator rules and the hand-written ``[MED ...]`` and ``[SM ...]``
    tests pin the evaluator's.
    """
    tokens = [int(t) for t in tokens if t != PAD_ID]
    pos = 0

    def parse() -> int:
        nonlocal pos
        t = tokens[pos]
        if t >= _DIGIT_BASE:
            pos += 1
            return t - _DIGIT_BASE
        op = LISTOPS_SYMBOLS[t][1:]  # strip the "["
        pos += 1
        vals = []
        while tokens[pos] != _CLOSE_ID:
            vals.append(parse())
        pos += 1
        return _eval_op(op, vals)

    value = parse()
    if pos != len(tokens):
        raise DataError(f"trailing tokens after position {pos}")
    return value


def listops_to_string(tokens) -> str:
    return " ".join(LISTOPS_SYMBOLS[int(t)] for t in tokens if t != PAD_ID)


def _listops_examples(bitgen: np.random.PCG64, count: int, max_len: int, max_depth: int) -> list:
    """``count`` (tokens, value) examples drawn from ``bitgen``'s raw words,
    ``_LISTOPS_CHUNK`` words of tables at a time."""
    chunk = _LISTOPS_CHUNK
    words = bitgen.random_raw(chunk)
    tables = _listops_tables(words)
    h = p = 0
    examples = []
    while len(examples) < count:
        try:
            out, value, h, p = _listops_example(tables, h, p, max_len, max_depth)
        except IndexError:
            # The example ran past the tables, and (h, p) is still its
            # start: grow the tables and draw it again.
            refill = max(chunk, words.size)
        else:
            examples.append((np.frombuffer(out, dtype=np.uint8).astype(np.int64), value))
            refill = chunk if words.size - (p or h) // 2 < chunk else 0
        if refill:
            start = (p or h) // 2  # the first word not wholly read
            words = np.concatenate([words[start:], bitgen.random_raw(refill)])
            tables = _listops_tables(words)
            h -= 2 * start
            p = p and p - 2 * start
    return examples


def gen_listops(seed: int, count: int, max_len: int = 128, max_depth: int = 4) -> Dataset:
    """Nested prefix expressions; the label is the expression value (0-9)."""
    examples = _listops_examples(np.random.PCG64(seed), count, max_len, max_depth)
    return Dataset(examples=examples, vocab=list(LISTOPS_SYMBOLS), classes=10,
                   kind="classify", meta={"task": "listops", "max_depth": max_depth})


# ---------------------------------------------------------------------------
# motif classification / matching
# ---------------------------------------------------------------------------

def motif_layout(vocab_size: int, n_motifs: int):
    """Split the vocab into filler ids and per-motif id runs, if it has room."""
    needed = 1 + 2 + n_motifs * MOTIF_LEN  # pad + >=2 filler + motif tokens
    if vocab_size < needed:
        raise ConfigError(f"vocab_size must be >= {needed} for {n_motifs} motifs of "
                          f"length {MOTIF_LEN}, got {vocab_size}")
    motif_base = vocab_size - n_motifs * MOTIF_LEN
    motifs = [tuple(range(motif_base + i * MOTIF_LEN, motif_base + (i + 1) * MOTIF_LEN))
              for i in range(n_motifs)]
    return motif_base, motifs


# Examples the motif tasks decode at once: the temporaries stay this small at any count.
_BLOCK = 128


def _side_ranges(length: int, filler_hi: int) -> list[int]:
    """One sequence's draw ranges: each filler token, then the motif's position."""
    if length < MOTIF_LEN:
        raise ConfigError(f"length must be >= {MOTIF_LEN} to hold a motif, got {length}")
    return [filler_hi - 1] * length + [length - MOTIF_LEN + 1]


def _draw_rows(rng: np.random.Generator, ns: np.ndarray) -> np.ndarray:
    """``rng.integers(0, ns)`` for the uint64 array of ranges ``ns``.

    Below 2**32, NumPy maps each 32-bit draw ``u`` (a half-word pending in
    ``rng.bit_generator.state`` first, then the low and the high half of each
    raw PCG64 word) to ``(u * n) >> 32``; a range of one draws nothing. This
    decodes a block so in under half of ``rng.integers``' time and puts the
    half-word it leaves over back into the state. Lemire rejects a draw
    with odds below n / 2**32, under 3e-8 at the tasks' ranges: then, or at a
    range of 2**32 or more, the saved state goes back and ``rng.integers``
    draws the block. Only the PCG64 stream is under NumPy's compatibility
    policy (NEP 19), so the tests pin this against ``Generator``.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    live = ns > 1
    n = ns[live]
    if n.max(initial=0) < _TWO32:
        pending = saved["has_uint32"]
        words = bitgen.random_raw((n.size - pending + 1) // 2)
        u = np.empty(pending + 2 * words.size, dtype=np.uint64)
        u[:pending] = saved["uinteger"]
        u[pending:] = words.astype("<u8", copy=False).view("<u4")  # low half, then high
        m = u[:n.size] * n
        low = m & _LOW32
        near = np.flatnonzero(low < n)  # Lemire's threshold (2**32 - n) % n is below n
        if not (low[near] < (_TWO32 - n[near]) % n[near]).any():
            out = np.zeros(ns.shape, dtype=np.int64)
            out[live] = m >> _THIRTY_TWO
            state = bitgen.state
            state["has_uint32"] = u.size - n.size
            if words.size:
                state["uinteger"] = int(u[-1])  # as NumPy leaves it, pending or not
            bitgen.state = state
            return out
        bitgen.state = saved
    return rng.integers(0, ns.astype(np.int64))  # uint64 bounds take a slower object path


def _plant_rows(out: np.ndarray, draws: np.ndarray, motifs: np.ndarray):
    """Fill ``out`` with filler ids from a block's ``_side_ranges`` draws
    and write row r's motif ``motifs[r]`` at its drawn position."""
    np.add(draws[:, :-1], 1, out=out)
    rows = np.arange(len(out))[:, None]
    out[rows, draws[:, -1:] + np.arange(MOTIF_LEN)] = motifs


def gen_text_classification(seed: int, count: int, length: int = 128,
                            vocab_size: int = 32, classes: int = 2) -> Dataset:
    """Each class plants its own k-gram motif in uniform filler noise.

    Filler ids and motif ids are disjoint, so the task is perfectly
    separable and a motif scan recovers every label. Labels alternate for
    an exactly balanced histogram. After the label shuffle, each example
    draws ``Generator.integers(1, filler_hi, size=length)`` and then the
    motif's position, ``_BLOCK`` examples to a ``_draw_rows`` call; the
    tokens are rows of one ``(count, length)`` array.
    """
    filler_hi, motifs = motif_layout(vocab_size, classes)
    rng = np.random.default_rng(seed)
    labels = np.arange(count) % classes
    rng.shuffle(labels)
    ranges = np.array(_side_ranges(length, filler_hi), dtype=np.uint64)
    motif_ids = np.array(motifs, dtype=np.int64)
    tokens = np.empty((count, length), dtype=np.int64)
    for start in range(0, count, _BLOCK):
        block = labels[start:start + _BLOCK]
        row_draws = _draw_rows(rng, np.broadcast_to(ranges, (block.size, ranges.size)))
        _plant_rows(tokens[start:start + _BLOCK], row_draws, motif_ids[block])
    return Dataset(examples=list(zip(tokens, labels.tolist())), vocab=range(vocab_size),
                   classes=classes, kind="classify",
                   meta={"task": "text_classification", "motifs": motifs})


def gen_matching(seed: int, count: int, length: int = 128, vocab_size: int = 48) -> Dataset:
    """Sequence pairs; label 1 iff both sides carry the same motif.

    After the label shuffle, each pair draws its motif index i, a second
    index j from the other five for a 0-labelled pair, then side a's
    filler and motif position and side b's, ``_BLOCK`` pairs to a
    ``_draw_rows`` call; each side's tokens are rows of one ``(count,
    length)`` array.
    """
    filler_hi, motifs = motif_layout(vocab_size, N_MOTIFS)
    rng = np.random.default_rng(seed)
    labels = np.arange(count) % 2
    rng.shuffle(labels)
    side = _side_ranges(length, filler_hi)
    ranges = np.array([N_MOTIFS, N_MOTIFS - 1] + side + side, dtype=np.uint64)
    motif_ids = np.array(motifs, dtype=np.int64)
    tokens_a = np.empty((count, length), dtype=np.int64)
    tokens_b = np.empty((count, length), dtype=np.int64)
    for start in range(0, count, _BLOCK):
        same = labels[start:start + _BLOCK] == 1
        ns = np.tile(ranges, (same.size, 1))
        ns[same, 1] = 1  # a positive pair draws no second index
        row_draws = _draw_rows(rng, ns)
        i, j = row_draws[:, 0], row_draws[:, 1]
        j = np.where(same, i, j + (j >= i))
        _plant_rows(tokens_a[start:start + _BLOCK], row_draws[:, 2:len(side) + 2], motif_ids[i])
        _plant_rows(tokens_b[start:start + _BLOCK], row_draws[:, len(side) + 2:], motif_ids[j])
    return Dataset(examples=list(zip(tokens_a, tokens_b, labels.tolist())),
                   vocab=range(vocab_size), classes=2, kind="match",
                   meta={"task": "matching", "motifs": motifs})


def _find_motifs(tokens: np.ndarray, motifs) -> set[int]:
    found = set()
    toks = tokens.tolist()
    for idx, motif in enumerate(motifs):
        m = list(motif)
        k = len(m)
        for start in range(len(toks) - k + 1):
            if toks[start:start + k] == m:
                found.add(idx)
                break
    return found


def motif_oracle(ds: Dataset) -> np.ndarray:
    """Label every example by scanning for planted motifs (no learning)."""
    motifs = ds.meta["motifs"]
    preds = []
    for ex in ds.examples:
        if ds.kind == "classify":
            tokens, _ = ex
            found = _find_motifs(tokens, motifs)
            preds.append(min(found) if found else -1)
        else:
            a, b, _ = ex
            shared = _find_motifs(a, motifs) & _find_motifs(b, motifs)
            preds.append(int(bool(shared)))
    return np.asarray(preds)


# ---------------------------------------------------------------------------
# TSV ingestion / export
# ---------------------------------------------------------------------------

def load_tsv_dataset(path) -> Dataset:
    """Rows are ``label<TAB>ids`` (classify) or ``label<TAB>ids<TAB>ids``
    (match), ids space-separated integers. The first row's column count
    sets the schema; every later row must have the same count. The vocab
    is the id range up to the largest id."""
    examples = []
    max_id = 0
    max_label = 0
    want_cols = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc})") from None
            if not line:
                continue
            cols = line.split("\t")
            if want_cols is None and len(cols) in (2, 3):
                want_cols = len(cols)
            if len(cols) != want_cols:
                expected = want_cols or "2 (classify) or 3 (match)"
                raise DataError(f"{path}:{lineno}: expected {expected} tab-separated "
                                f"columns, got {len(cols)}")
            try:
                label = int(np.int64(int(cols[0])))
                token_cols = [np.asarray([int(t) for t in c.split()], dtype=np.int64)
                              for c in cols[1:]]
            except (ValueError, OverflowError) as exc:  # not an integer, or beyond int64
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if label < 0:
                raise DataError(f"{path}:{lineno}: negative label {label}")
            for toks in token_cols:
                if toks.size == 0:
                    raise DataError(f"{path}:{lineno}: empty token column")
                if toks.min() < 0:
                    raise DataError(f"{path}:{lineno}: negative token id")
                max_id = max(max_id, int(toks.max()))
            max_label = max(max_label, label)
            examples.append((*token_cols, label))
    if not examples:
        raise DataError(f"{path}: no rows")
    return Dataset(examples=examples, vocab=range(max_id + 1), classes=max_label + 1,
                   kind="classify" if want_cols == 2 else "match",
                   meta={"task": "tsv", "path": str(path)})


def save_tsv_dataset(ds: Dataset, path):
    """Inverse of ``load_tsv_dataset`` (labels and space-joined ids)."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in ds.examples:
            *token_cols, label = ex
            cols = [str(label)] + [" ".join(str(int(t)) for t in toks) for toks in token_cols]
            fh.write("\t".join(cols) + "\n")


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _pad_stack(seqs, max_len: int):
    width = min(max(len(s) for s in seqs), max_len)
    tokens = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        s = s[:max_len]
        tokens[i, :len(s)] = s
        mask[i, :len(s)] = True
    return tokens, mask


def batch_iter(ds: Dataset, batch_size: int, max_len: int, shuffle_seed: int | None = None):
    """Deterministically shuffled, padded batches; the final partial batch
    is kept. Sequences longer than ``max_len`` are truncated."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(ds))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        chunk = [ds.examples[i] for i in order[start:start + batch_size]]
        if ds.kind == "classify":
            tokens, mask = _pad_stack([ex[0] for ex in chunk], max_len)
            labels = np.asarray([ex[1] for ex in chunk], dtype=np.int64)
            yield Batch(tokens=tokens, mask=mask, labels=labels)
        else:
            ta, ma = _pad_stack([ex[0] for ex in chunk], max_len)
            tb, mb = _pad_stack([ex[1] for ex in chunk], max_len)
            labels = np.asarray([ex[2] for ex in chunk], dtype=np.int64)
            yield MatchBatch(tokens_a=ta, mask_a=ma, tokens_b=tb, mask_b=mb, labels=labels)
