"""Global accumulated perturbation table: one row per vocabulary token.

Rows are written back from the final token-level perturbations of each
batch (colliding occurrences are averaged so the result is independent
of position order) and read out to initialize the next batch. The table
persists to a small binary format and can be folded into an embedding
table to warm-start ordinary fine-tuning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import container
from .data import PAD
from .tensor import _check_ids

VOCAB_MAGIC = b"TAVV"
VOCAB_VERSION = 1


class VocabularyFormatError(ValueError):
    """Corrupt, mis-versioned, or mismatched vocabulary file."""


class FingerprintMismatch(VocabularyFormatError):
    """Vocabulary was built against a different tokenizer."""


@dataclass
class PerturbationVocabulary:
    table: np.ndarray                       # (N, D) float64
    meta: dict = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]


def init_vocabulary(n: int, d: int, sigma: float, rng: np.random.Generator,
                    meta: dict | None = None) -> PerturbationVocabulary:
    """Uniform(-sigma, sigma)/sqrt(D) table with the padding row zeroed."""
    if n <= 0 or d <= 0:
        raise ValueError("vocabulary dimensions must be positive")
    table = rng.uniform(-sigma, sigma, size=(n, d)) / math.sqrt(d)
    table[PAD] = 0.0
    full_meta = {"sigma": sigma, "steps_seen": 0}
    if meta:
        full_meta.update(meta)
    return PerturbationVocabulary(table=table, meta=full_meta)


def gather(vocab: PerturbationVocabulary, token_ids: np.ndarray,
           mask: np.ndarray) -> np.ndarray:
    """Per-position rows of the table; padded positions come back zero."""
    ids = np.asarray(token_ids)
    _check_ids("gather", ids, vocab.vocab_size)
    out = vocab.table[ids]             # integer-array indexing copies
    out[~np.asarray(mask, dtype=bool)] = 0.0
    return out


def scatter(vocab: PerturbationVocabulary, token_ids: np.ndarray, mask: np.ndarray,
            eta_final: np.ndarray, *, special_token_policy,
            epsilon: float) -> PerturbationVocabulary:
    """Write final perturbation slices back by token id.

    Repeated ids within the batch are averaged; the padding row and any
    policy-excluded ids are never touched. Row norms are clamped to
    ``epsilon``.
    """
    ids = np.asarray(token_ids).reshape(-1)
    _check_ids("scatter", ids, vocab.vocab_size)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    slices = np.asarray(eta_final).reshape(-1, vocab.dim)

    keep = mask & (ids != PAD) & special_token_policy.permits(ids)
    if not keep.any():
        return vocab

    rows, slot = np.unique(ids[keep], return_inverse=True)
    sums = np.zeros((rows.size, vocab.dim))
    np.add.at(sums, slot, slices[keep])
    means = sums / np.bincount(slot)[:, None]

    norms = np.sqrt((means ** 2).sum(axis=1, keepdims=True))
    over = norms > epsilon * (1.0 + 1e-12)
    means = np.where(over, means * (epsilon / np.maximum(norms, 1e-300)), means)
    vocab.table[rows] = means
    vocab.meta["steps_seen"] = vocab.meta.get("steps_seen", 0) + 1
    return vocab


def save_vocabulary(vocab: PerturbationVocabulary, path) -> None:
    """magic + version + dims + little-endian float64 rows + JSON trailer."""
    container.write(path, VOCAB_MAGIC, VOCAB_VERSION,
                    [container.u32(vocab.vocab_size, vocab.dim), container.f8(vocab.table),
                     container.json_object(vocab.meta)])


def load_vocabulary(path, expect_dim: int | None = None,
                    expect_fingerprint: str | None = None) -> PerturbationVocabulary:
    reader = container.Reader(path, VOCAB_MAGIC, VOCAB_VERSION, VocabularyFormatError,
                              "vocabulary")
    vocab = PerturbationVocabulary(table=reader.f8(reader.u32s(2)), meta=reader.json_object())
    reader.end()
    if expect_fingerprint is not None and vocab.meta.get("fingerprint") != expect_fingerprint:
        raise FingerprintMismatch(
            f"{path}: tokenizer fingerprint {vocab.meta.get('fingerprint')!r} "
            f"does not match expected {expect_fingerprint!r}")
    if expect_dim is not None and vocab.dim != expect_dim:
        raise VocabularyFormatError(
            f"{path}: dimension mismatch, file has D={vocab.dim}, expected D={expect_dim}")
    return vocab


def apply_to_embedding(weights: np.ndarray, vocab: PerturbationVocabulary) -> np.ndarray:
    """New N x D embedding weights with the learned perturbations added on."""
    if weights.shape != vocab.table.shape:
        raise ValueError(
            f"apply_to_embedding: embedding {weights.shape} vs "
            f"vocabulary {vocab.table.shape}")
    return weights + vocab.table
