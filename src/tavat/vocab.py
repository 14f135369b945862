"""Global accumulated perturbation table: one row per vocabulary token.

The table and its file format; ``adv`` draws it, reads each batch's
initial token-level perturbations out of it and writes the final ones
back, by the formulas of the other perturbations. It persists to a
small binary format and can be folded into an embedding table to
warm-start ordinary fine-tuning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import container

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


def save_vocabulary(vocab: PerturbationVocabulary, path) -> None:
    """magic + version + dims + little-endian float64 rows + JSON trailer."""
    container.write(path, VOCAB_MAGIC, VOCAB_VERSION,
                    [container.u32(vocab.vocab_size, vocab.dim), container.f8(vocab.table),
                     container.json_object(vocab.meta)])


def load_vocabulary(path, expect_dim: int | None = None,
                    expect_fingerprint: str | None = None) -> PerturbationVocabulary:
    reader = container.Reader(path, VOCAB_MAGIC, VOCAB_VERSION, VocabularyFormatError,
                              "vocabulary")
    vocab = PerturbationVocabulary(table=reader.f8(reader.u32s(2)).copy(), meta=reader.json_object())
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
