"""Tokenization, synthetic corpora, delimited ingestion, batching.

Word-level whitespace tokenization keeps the pipeline simple: the
training algorithm only needs a stable token inventory. Every sequence
is wrapped in cls/sep so the special-token experiments have real
structure to act on. All randomness flows through explicit seeds.
"""
from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .model import (ConfigError, _check_bools, _check_ints, _is_real, read_utf8,
                    require_file)

PAD, CLS, SEP, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<cls>", "<sep>", "<unk>")


@dataclass
class Tokenizer:
    token_to_id: dict[str, int]

    @property
    def vocab_size(self) -> int:
        return len(self.token_to_id)

    def fingerprint(self) -> str:
        ordered = sorted(self.token_to_id.items(), key=lambda kv: kv[1])
        blob = "\n".join(f"{tok}\t{idx}" for tok, idx in ordered)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def encode(self, tokens: list[str], max_len: int) -> list[int]:
        """cls + word ids + sep for a token list, at most ``max_len`` ids.

        Words past ``max_len - 2`` are cut, so sep stays last; words not in
        the vocabulary map to unk.
        """
        if max_len < 2:
            raise ValueError("max_len must leave room for cls and sep")
        ids = [self.token_to_id.get(t, UNK) for t in tokens[: max_len - 2]]
        return [CLS] + ids + [SEP]


def build_tokenizer(words: list[str]) -> Tokenizer:
    """Word-level tokenizer from a list of words, each one token.

    The special tokens take the first ids; the other ids follow
    first-occurrence order, which makes the fingerprint stable for a
    fixed word list.
    """
    if not words:
        raise ValueError("cannot build a tokenizer from an empty corpus")
    mapping = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for w in words:
        if w not in mapping:
            mapping[w] = len(mapping)
    return Tokenizer(mapping)


@dataclass
class Example:
    tokens: list[str]
    label: int | None = None
    tags: list[int] | None = None


@dataclass
class Batch:
    """Padded id matrix with its mask, which is true exactly off-padding."""

    token_ids: np.ndarray              # (batch, length) int64
    mask: np.ndarray = field(init=False)   # (batch, length) bool
    labels: np.ndarray                 # (batch,) or (batch, length) int64

    def __post_init__(self):
        self.mask = self.token_ids != PAD
        if not self.mask.any(axis=1).all():
            raise ValueError("every example needs at least one real token")

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


# ---------------------------------------------------------------------------
# synthetic tasks
#
# A run of same-range draws is one call: rng.integers(k, size=m) gives the
# values of m calls of rng.integers(k) and leaves the generator in the same
# state (TestDrawRule in tests/test_data.py checks this), so an example is
# the one that a draw per word makes.

CUES_PER_CLASS = 6
FILLER_COUNT = 40
MIN_WORDS, MAX_WORDS = 6, 12     # per classification example, unless its cues need more
FILLERS = tuple(f"filler{i}" for i in range(FILLER_COUNT))


def _cue_words(classes: int) -> list[tuple[str, ...]]:
    return [tuple(f"cue{c}_{i}" for i in range(CUES_PER_CLASS)) for c in range(classes)]


def synthetic_vocabulary(classes: int = 2) -> list[str]:
    return [w for cues in _cue_words(classes) for w in cues] + list(FILLERS)


def generate_synthetic_classification(n: int, seed: int, noise: float,
                                      classes: int = 2) -> list[Example]:
    """Filler sequences with planted cue tokens; label = cue-class majority.

    The planted majority is strict, so with noise 0 a bag-of-cues counter
    classifies the set perfectly; labels are flipped to a different class
    with probability ``noise``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= noise < 0.5:
        raise ValueError("noise must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    cue_words = _cue_words(classes)
    examples = []
    for _ in range(n):
        true_class = int(rng.integers(classes))
        majority = int(rng.integers(2, 5))
        counts = [int(rng.integers(0, majority)) for _ in range(classes)]
        counts[true_class] = majority
        picks = iter(rng.integers(CUES_PER_CLASS, size=sum(counts)).tolist())
        cues = [cue_words[c][next(picks)] for c in range(classes) for _ in range(counts[c])]
        length = max(int(rng.integers(MIN_WORDS, MAX_WORDS + 1)), len(cues))
        tokens = cues + [FILLERS[i] for i in
                         rng.integers(FILLER_COUNT, size=length - len(cues)).tolist()]
        rng.shuffle(tokens)
        label = true_class
        if noise > 0 and rng.random() < noise:
            label = int((true_class + 1 + rng.integers(classes - 1)) % classes)
        examples.append(Example(tokens=tokens, label=label))
    return examples


TAG_TYPES = ("T0", "T1")
ENTITY_WORDS_PER_TYPE = 5
TAG_MIN_WORDS, TAG_MAX_WORDS = 8, 14
ENTITY_WORDS = {t: tuple(f"ent{t}_{i}" for i in range(ENTITY_WORDS_PER_TYPE))
                for t in TAG_TYPES}


def tagging_tag_names() -> list[str]:
    names = ["O"]
    for t in TAG_TYPES:
        names.extend([f"B-{t}", f"I-{t}"])
    return names


def tagging_vocabulary() -> list[str]:
    return [w for t in TAG_TYPES for w in ENTITY_WORDS[t]] + list(FILLERS)


def generate_synthetic_tagging(n: int, seed: int) -> list[Example]:
    """Filler sequences with planted entity spans carrying BIO tags.

    Entity words are type-distinctive and spans are separated by at least
    one filler, so spans can be recovered from the surface tokens alone.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    names = tagging_tag_names()
    tag_id = {name: i for i, name in enumerate(names)}
    examples = []
    for _ in range(n):
        length = int(rng.integers(TAG_MIN_WORDS, TAG_MAX_WORDS + 1))
        tokens = [FILLERS[i] for i in rng.integers(FILLER_COUNT, size=length).tolist()]
        tags = [tag_id["O"]] * length
        spans = int(rng.integers(0, 3))
        cursor = 0
        for _ in range(spans):
            span_len = int(rng.integers(1, 3))
            if cursor + span_len + 1 > length:
                break
            start = cursor + int(rng.integers(0, max(length - cursor - span_len, 1)))
            if start + span_len >= length:
                start = length - span_len - 1
            if start < cursor:
                break
            t = TAG_TYPES[int(rng.integers(len(TAG_TYPES)))]
            for j in range(span_len):
                tokens[start + j] = ENTITY_WORDS[t][int(rng.integers(ENTITY_WORDS_PER_TYPE))]
                tags[start + j] = tag_id[("I-" if j else "B-") + t]
            cursor = start + span_len + 1
        examples.append(Example(tokens=tokens, tags=tags))
    return examples


def spans_from_tags(tags, names: list[str] | None = None) -> set[tuple[int, int, str]]:
    """(start, end, type) spans from BIO ids; stray I- starts a new span."""
    names = names or tagging_tag_names()
    spans = set()
    start, kind = None, None
    for i, t in enumerate(list(tags) + [0]):
        label = names[t] if t < len(names) else "O"
        if label.startswith("B-") or (label.startswith("I-") and kind != label[2:]):
            if start is not None:
                spans.add((start, i, kind))
            start, kind = i, label[2:]
        elif label == "O" and start is not None:
            spans.add((start, i, kind))
            start, kind = None, None
    return spans


def span_f1(gold_seqs, pred_seqs) -> tuple[float, float, float]:
    """Exact-match span precision/recall/F1 over aligned tag sequences."""
    tp = fp = fn = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        g, p = spans_from_tags(gold), spans_from_tags(pred)
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# file ingestion

class DatasetFormatError(ValueError):
    """Delimited file that is not UTF-8, or has a malformed row, a missing column or no words."""


def _column(path, header: list[str] | None, column: int | str) -> int:
    """A column_map entry as a row index; names are looked up in the header."""
    if not isinstance(column, str):
        return column
    if header is None:
        raise DatasetFormatError(
            f"{path}: column {column!r} is named but the file has no header")
    if column not in header:
        raise DatasetFormatError(f"{path}: header {header!r} has no column {column!r}")
    return header.index(column)


def load_delimited(path, column_map: dict[str, int | str], delimiter: str = "\t",
                   has_header: bool = False) -> list[Example]:
    """UTF-8 delimited rows -> examples; malformed rows report line numbers.

    ``column_map`` gives the text and label columns by index, or by name
    when the first line is a header. Labels are integers. A file that
    fails any of this, or holds no word, raises DatasetFormatError.
    """
    examples = []
    reader = csv.reader(io.StringIO(read_utf8(path, DatasetFormatError), newline=""),
                        delimiter=delimiter)
    header = next(reader, []) if has_header else None
    tc = _column(path, header, column_map["text"])
    lc = _column(path, header, column_map["label"])
    for row in reader:
        if not row:
            continue
        try:
            text, raw_label = row[tc], row[lc]
        except IndexError:
            raise DatasetFormatError(
                f"{path}:{reader.line_num}: missing required columns in {row!r}")
        try:
            label = int(raw_label)
        except ValueError:
            raise DatasetFormatError(f"{path}:{reader.line_num}: unknown label {raw_label!r}")
        examples.append(Example(tokens=text.split(), label=label))
    if not any(ex.tokens for ex in examples):
        raise DatasetFormatError(f"{path}: no example with any words")
    return examples


# ---------------------------------------------------------------------------
# batching

@dataclass
class EncodedExample:
    ids: list[int]
    label: int | None = None
    tags: list[int] | None = None


def encode_examples(tokenizer: Tokenizer, examples, max_len: int) -> list[EncodedExample]:
    out = []
    for ex in examples:
        ids = tokenizer.encode(ex.tokens, max_len=max_len)
        if ex.tags is not None:
            tags = [0] + list(ex.tags)[: max_len - 2] + [0]   # cls/sep tagged O
            out.append(EncodedExample(ids=ids, tags=tags))
        else:
            out.append(EncodedExample(ids=ids, label=ex.label))
    return out


def make_batches(encoded, batch_size: int, seed: int | None = None,
                 shuffle: bool = False) -> list[Batch]:
    """Pad to the per-batch max length; the final partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    order = np.arange(len(encoded))
    if shuffle:
        np.random.default_rng(seed).shuffle(order)
    batches = []
    for start in range(0, len(encoded), batch_size):
        chunk = [encoded[i] for i in order[start:start + batch_size].tolist()]
        width = max(len(ex.ids) for ex in chunk)
        ids = _padded([ex.ids for ex in chunk], width, PAD)
        if chunk[0].tags is not None:
            labels = _padded([ex.tags for ex in chunk], width, 0)
        else:
            labels = np.array([ex.label for ex in chunk], dtype=np.int64)
        batches.append(Batch(token_ids=ids, labels=labels))
    return batches


def _padded(rows: list[list[int]], width: int, fill: int) -> np.ndarray:
    """(len(rows), width) int64 matrix: each row left-aligned, then ``fill``."""
    out = np.full((len(rows), width), fill, dtype=np.int64)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    out[np.arange(width) < lengths[:, None]] = np.fromiter(chain.from_iterable(rows),
                                                          dtype=np.int64)
    return out


def label_histogram(examples) -> dict[int, int]:
    hist: dict[int, int] = {}
    for ex in examples:
        if ex.label is not None:
            hist[ex.label] = hist.get(ex.label, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# dataset assembly

@dataclass(frozen=True)
class DatasetSpec:
    """What data to run on and how to split it; frozen, so ``build_dataset`` trusts its checks."""

    source: str = "synthetic-classification"   # | "synthetic-tagging" | "delimited"
    n: int = 2000
    noise: float = 0.2
    classes: int = 2
    path: str | None = None
    column_map: dict = field(default_factory=lambda: {"text": 0, "label": 1})
    delimiter: str = "\t"
    has_header: bool = False
    dev_fraction: float = 0.2
    test_fraction: float = 0.0
    split_seed: int = 13

    def __post_init__(self):
        # two classes at least: the noise path draws from the other classes - 1
        _check_ints(self, (("n", 1), ("classes", 2), ("split_seed", 0)))
        _check_bools(self, ("has_header",))
        if self.source not in ("synthetic-classification", "synthetic-tagging", "delimited"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        if self.source == "delimited" and self.path is None:
            raise ConfigError("delimited source needs a path")
        if not _is_real(self.noise) or not 0.0 <= self.noise < 0.5:
            raise ConfigError(f"noise must be a number in [0, 0.5), got {self.noise!r}")
        for name in ("dev_fraction", "test_fraction"):
            value = getattr(self, name)
            if not _is_real(value) or not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")
        if self.dev_fraction + self.test_fraction > 1.0:
            raise ConfigError(f"dev_fraction {self.dev_fraction} and test_fraction "
                              f"{self.test_fraction} add up to more than 1")


def build_dataset(spec: DatasetSpec, seed: int):
    """Returns (tokenizer, train, dev, test) example lists, splits disjoint."""
    if spec.source == "synthetic-classification":
        examples = generate_synthetic_classification(
            spec.n, seed=seed, noise=spec.noise, classes=spec.classes)
        vocab = synthetic_vocabulary(spec.classes)
    elif spec.source == "synthetic-tagging":
        examples = generate_synthetic_tagging(spec.n, seed=seed)
        vocab = tagging_vocabulary()
    else:   # "delimited"; DatasetSpec refuses any other source and no path
        require_file(spec.path)
        examples = load_delimited(spec.path, spec.column_map,
                                  delimiter=spec.delimiter, has_header=spec.has_header)
        vocab = sorted({t for ex in examples for t in ex.tokens})

    tokenizer = build_tokenizer(vocab)
    order = np.arange(len(examples))
    np.random.default_rng(spec.split_seed).shuffle(order)
    n_test = int(round(spec.test_fraction * len(examples)))
    n_dev = int(round(spec.dev_fraction * len(examples)))
    test = [examples[i] for i in order[:n_test]]
    dev = [examples[i] for i in order[n_test:n_test + n_dev]]
    train = [examples[i] for i in order[n_test + n_dev:]]
    return tokenizer, train, dev, test
