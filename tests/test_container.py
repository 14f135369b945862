"""Checkpoint and vocabulary files: atomic replacement and typed load errors."""
import builtins
import errno
import json
import os
import struct
from dataclasses import asdict

import numpy as np
import pytest

from tavat import container
from tavat.model import (CheckpointFormatError, ModelConfig, TextModel, load_checkpoint,
                         save_checkpoint)
from tavat.adv import init_vocabulary
from tavat.vocab import VocabularyFormatError, load_vocabulary, save_vocabulary


def tiny_model(seed):
    cfg = ModelConfig(vocab_size=6, dim=4, blocks=1, heads=2, ffn_dim=8, max_len=5,
                      classes=2, use_positional=True)
    return TextModel(cfg, rng=np.random.default_rng(seed))


def tiny_vocab(seed):
    return init_vocabulary(5, 3, 0.2, np.random.default_rng(seed),
                           meta={"epsilon": 0.5, "task": "demo", "fingerprint": "ab12"})


FORMATS = {
    "checkpoint": (tiny_model, save_checkpoint),
    "vocabulary": (tiny_vocab, save_vocabulary),
}


class _FailingFile:
    """A writable file that takes ``budget`` bytes, then fails as a full disk does."""

    def __init__(self, fh, budget):
        self._fh, self._left = fh, budget

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(bytes(data[:self._left]))
            self._left = 0
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_interrupted_save_keeps_the_previous_file(kind, tmp_path, monkeypatch):
    make, save = FORMATS[kind]
    path = tmp_path / f"{kind}.bin"
    save(make(1), path)
    first = path.read_bytes()

    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailingFile(fh, len(first) // 2) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="injected"):
        save(make(2), path)
    monkeypatch.undo()

    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_resave_writes_through_a_symlink_and_keeps_the_mode(kind, tmp_path):
    make, save = FORMATS[kind]
    target, link = tmp_path / f"{kind}.bin", tmp_path / "link.bin"
    save(make(1), target)
    target.chmod(0o600)
    link.symlink_to(target)
    save(make(2), link)
    assert link.is_symlink() and (target.stat().st_mode & 0o777) == 0o600
    save(make(2), tmp_path / "direct.bin")
    assert target.read_bytes() == (tmp_path / "direct.bin").read_bytes()


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_save_fsyncs_the_file_then_its_directory(kind, tmp_path, monkeypatch):
    make, save = FORMATS[kind]
    path = tmp_path / f"{kind}.bin"
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    save(make(1), path)
    # the temp file's inode is the target's after the rename
    assert synced == [path.stat().st_ino, tmp_path.stat().st_ino]


@pytest.mark.parametrize("array", [np.arange(6.0).reshape(2, 3), np.arange(6.0, dtype=">f8"),
                                   np.arange(6, dtype=np.float32), np.arange(12.0).reshape(3, 4).T,
                                   [1, 2, 3]])
def test_f8_is_little_endian_float64_in_row_major_order(array):
    values = [float(x) for x in np.ravel(array)]
    assert container.f8(array) == struct.pack(f"<{len(values)}d", *values)


def _flipped_files(raw, float_spans, path):
    """Write each single-bit flip of every byte outside the float64 spans to path."""
    in_float = np.zeros(len(raw), dtype=bool)
    for start, stop in float_spans:
        in_float[start:stop] = True
    for pos in np.flatnonzero(~in_float):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            yield pos, bit


def test_every_checkpoint_bit_flip_is_rejected_or_consistent(tmp_path):
    """Outside the tensor data, every flip raises the typed error: each hyperparameter
    either sizes a tensor or is checked, so no flipped header names a valid model."""
    model = tiny_model(3)
    good = tmp_path / "good.bin"
    save_checkpoint(model, good)
    raw = good.read_bytes()

    hyper = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    offset, spans = 4 + 4 + 4 + len(hyper) + 4, []
    for name, p in model.params.items():
        offset += 4 + len(name.encode("utf-8")) + 4 + 4 * p.ndim
        spans.append((offset, offset + 8 * p.size))
        offset += 8 * p.size
    assert offset == len(raw)

    path = tmp_path / "flipped.bin"
    for pos, bit in _flipped_files(raw, spans, path):
        try:
            load_checkpoint(path)
        except CheckpointFormatError:
            continue
        pytest.fail(f"flip of bit {bit} at byte {pos} loaded")


def test_every_vocabulary_bit_flip_is_rejected_or_loads(tmp_path):
    vocab = tiny_vocab(3)
    good = tmp_path / "good.bin"
    save_vocabulary(vocab, good)
    raw = good.read_bytes()
    header = 4 + 4 + 8
    path = tmp_path / "flipped.bin"
    for pos, bit in _flipped_files(raw, [(header, header + 8 * vocab.table.size)], path):
        try:
            loaded = load_vocabulary(path)
        except VocabularyFormatError:
            continue
        np.testing.assert_array_equal(loaded.table, vocab.table)
        assert isinstance(loaded.meta, dict), (pos, bit)
