"""The framing that checkpoint and vocabulary files share.

A file is a 4-byte magic, a u32 version, then the format's fields in
order: little-endian u32 integers, length-prefixed UTF-8 strings and
JSON objects, and little-endian float64 arrays. A write goes to a
sibling temp file that is fsynced and renamed over the target, then the
directory is fsynced, so a reader sees the old file or the new one,
never part of one, and the rename survives a power loss. A read is one
bounds-checked cursor that raises the format's own error on any fault.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import struct
from contextlib import suppress
from pathlib import Path

import numpy as np


def u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def text(value: str) -> bytes:
    encoded = value.encode("utf-8")
    return u32(len(encoded)) + encoded


def json_object(value: dict) -> bytes:
    return text(json.dumps(value, sort_keys=True))


def f8(array: np.ndarray) -> bytes:
    return np.asarray(array, dtype="<f8").tobytes()


def replace_atomically(path, chunks) -> None:
    """Replace ``path`` with the concatenated byte ``chunks``, all or nothing.

    The chunks go to a sibling temp file that is fsynced and renamed over
    the target, then the directory is fsynced; on any failure the temp file
    is removed and the target keeps its old bytes. As an in-place rewrite
    would, this writes through a symlink and keeps an existing file's
    permission bits.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        with suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # the rename is on disk only once the directory is
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write(path, magic: bytes, version: int, fields: list[bytes]) -> None:
    """Atomically replace ``path`` with magic, version and the encoded fields."""
    replace_atomically(path, (magic, u32(version), *fields))


class Reader:
    """Cursor over one file's fields; checks magic, then version, before the body."""

    def __init__(self, path, magic: bytes, version: int, error: type[ValueError],
                 kind: str):
        with open(path, "rb") as fh:
            self._raw = memoryview(fh.read())
        self._path = path
        self._error = error
        self._kind = kind
        if self._raw[:len(magic)] != magic:
            raise error(f"{path}: not a {kind} (bad magic)")
        self._pos = len(magic)
        found = self.u32()
        if found != version:
            raise error(f"{path}: unsupported {kind} version {found}")

    def _fail(self, why: str) -> ValueError:
        return self._error(f"{self._path}: truncated or corrupt {self._kind} ({why})")

    def _take(self, n: int) -> memoryview:
        end = self._pos + n
        if end > len(self._raw):
            raise self._fail(f"{n} bytes needed at offset {self._pos}")
        chunk = self._raw[self._pos:end]
        self._pos = end
        return chunk

    def u32s(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self._take(4 * count))

    def u32(self) -> int:
        return self.u32s(1)[0]

    def text(self) -> str:
        raw = self._take(self.u32())
        try:
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._fail("bad UTF-8") from exc

    def json_object(self) -> dict:
        raw = self.text()
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError) as exc:     # JSONDecodeError is a ValueError
            raise self._fail("bad JSON") from exc
        if not isinstance(value, dict):
            raise self._fail("JSON field is not an object")
        return value

    def f8(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next float64 array of this shape: a read-only view of the file's bytes."""
        flat = np.frombuffer(self._take(8 * math.prod(shape)), dtype="<f8")
        try:
            return flat.reshape(shape)
        except ValueError as exc:       # e.g. more dimensions than numpy allows
            raise self._fail(f"shape {shape}") from exc

    def end(self) -> None:
        if self._pos != len(self._raw):
            raise self._error(f"{self._path}: trailing bytes after the last field")
