"""Little-endian binary reader/writer helpers for the container formats."""

from __future__ import annotations

import io
import math
import struct
from contextlib import contextmanager
from typing import BinaryIO, Iterator

import numpy as np

from .errors import BadMagicError, FormatError, TruncatedPayloadError, VersionMismatchError


class ByteReader:
    """Sequential reader over an open binary file, tracking the offset; every
    size is checked against the bytes left before anything is allocated."""

    def __init__(self, f: BinaryIO):
        self._f = f
        self._pos = 0
        self._size = f.seek(0, io.SEEK_END)
        f.seek(0)

    @property
    def offset(self) -> int:
        return self._pos

    @property
    def left(self) -> int:
        return self._size - self._pos

    def take(self, n: int, what: str) -> bytes:
        return self.array((n,), "u1", what).tobytes()

    def expect_magic(self, magic: bytes) -> None:
        start = self._pos
        got = self.take(len(magic), "magic")
        if got != magic:
            raise BadMagicError(f"expected magic {magic!r}, found {got!r}", start)

    def expect_version(self, supported: int) -> None:
        start = self._pos
        version = self.u32("version")
        if version != supported:
            raise VersionMismatchError(
                f"unsupported container version {version}, reader supports {supported}", start
            )

    def expect_end(self) -> None:
        if self.left:
            raise FormatError(f"{self.left} trailing bytes", self._pos)

    def u8(self, what: str = "u8") -> int:
        return self.take(1, what)[0]

    def u16(self, what: str = "u16") -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str = "u32") -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def array(self, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
        """Read a payload straight into a fresh, aligned, read-only array."""
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        if nbytes > self.left:
            raise TruncatedPayloadError(f"file ends inside {what}", self._pos)
        out = np.empty(shape, dtype)
        if self._f.readinto(out) != nbytes:  # the file shrank while being read
            raise TruncatedPayloadError(f"file ends inside {what}", self._pos)
        self._pos += nbytes
        out.flags.writeable = False
        return out


@contextmanager
def open_reader(path) -> Iterator[ByteReader]:
    """A ByteReader over the file at path; a pipe cannot seek, so it is read whole first."""
    with open(path, "rb") as f:
        yield ByteReader(f if f.seekable() else io.BytesIO(f.read()))


class ByteWriter:
    """Accumulates little-endian fields into a byte string."""

    def __init__(self):
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def f32_array(self, values: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype="<f4").tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)
