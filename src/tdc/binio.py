"""Container framing and little-endian fields.

Every container (TDCF, TDCS, TDCP) is a 4-byte magic, a u32 version and a
body that must end where the file ends.  read_container and write_container
own that framing; the ByteReader and ByteWriter they yield move each body
field and payload straight between the file and its array.
"""

from __future__ import annotations

import io
import math
import os
import stat
import struct
from contextlib import contextmanager
from typing import BinaryIO, Iterator

import numpy as np

from .errors import BadMagicError, FormatError, TruncatedPayloadError, VersionMismatchError

FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude that rounds to float32 inf; writers keep |x| below it


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

    def u8(self, what: str = "u8") -> int:
        return self.take(1, what)[0]

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
def read_container(path, magic: bytes, version: int) -> Iterator[ByteReader]:
    """A ByteReader over the container at path, positioned at its body.

    Raises BadMagicError or VersionMismatchError for a wrong frame, and a
    FormatError if the body that the block reads leaves bytes unread.  A pipe
    cannot seek, so it is read whole first.
    """
    with open(path, "rb") as f:
        r = ByteReader(f if f.seekable() else io.BytesIO(f.read()))
        found = r.take(len(magic), "magic")
        if found != magic:
            raise BadMagicError(f"expected magic {magic!r}, found {found!r}", 0)
        found = r.u32("version")
        if found != version:
            raise VersionMismatchError(
                f"unsupported container version {found}, reader supports {version}", len(magic)
            )
        yield r
        if r.left:
            raise FormatError(f"{r.left} trailing bytes", r.offset)


class ByteWriter:
    """Writes little-endian fields to an open binary file as they come."""

    def __init__(self, f: BinaryIO):
        self._f = f

    def u8(self, value: int) -> None:
        self._f.write(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._f.write(struct.pack("<I", value))

    def array(self, values: np.ndarray, dtype: str) -> None:
        """Write values in C order as dtype; an array already in that form is not copied."""
        self._f.write(np.ascontiguousarray(values, dtype=dtype).data)


@contextmanager
def write_container(path, magic: bytes, version: int) -> Iterator[ByteWriter]:
    """A ByteWriter over a new file at path, the magic and version written; a write that fails leaves no file."""
    with open(path, "wb") as f:
        try:
            f.write(magic + struct.pack("<I", version))
            yield ByteWriter(f)
            f.flush()  # so that a write failing at close is a failure of the block too
        except BaseException:
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode) and not os.path.islink(path):  # a device, FIFO or link stays
                os.unlink(path)
            raise
