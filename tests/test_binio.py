"""The container reader reads payloads straight from the file.

A header that declares more payload than the file holds fails before any
allocation, and read_tdcf allocates each payload once, in the array that
VideoTimeline keeps.
"""

import io
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import tdc
from tdc import binio
from tdc.compressor import Provenance
from tdc.errors import TruncatedPayloadError

from conftest import random_timeline

MIB = 1 << 20


@contextmanager
def peak_bytes():
    """Yield a list that holds the tracemalloc peak of the block after it ends."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def huge_tdcf(path):
    tdc.write_tdcf(random_timeline(np.random.default_rng(0), 2, visual_tokens=2, audio_tokens=2, dim=3), path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")  # frame count
    path.write_bytes(bytes(raw))
    # magic, version, frame count, visual tag, tokens, dim
    return tdc.read_tdcf, 4 + 4 + 4 + 1 + 4 + 4


def huge_tdcs(path):
    stream = tdc.TDCStream(
        tokens=np.ones((2, 3)),
        provenance=np.array([Provenance.SEP, Provenance.DYNAMIC], dtype=np.uint8),
        frame_index=np.zeros(2, dtype=np.int32),
        window_index=np.zeros(2, dtype=np.int32),
    )
    tdc.write_stream(stream, path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")  # token count
    path.write_bytes(bytes(raw))
    # magic, version, token count, token dim
    return tdc.read_stream, 4 + 4 + 4 + 4


@pytest.mark.parametrize("make", [huge_tdcf, huge_tdcs], ids=["tdcf", "tdcs"])
def test_declared_payload_beyond_file_fails_before_allocating(tmp_path, make):
    reader, payload_at = make(tmp_path / "huge")
    with peak_bytes() as peak, pytest.raises(TruncatedPayloadError) as err:
        reader(tmp_path / "huge")
    assert err.value.offset == payload_at
    assert peak[0] < MIB


def test_read_tdcf_allocates_each_payload_once(tmp_path, monkeypatch):
    path = tmp_path / "t.tdcf"
    tdc.write_tdcf(random_timeline(np.random.default_rng(3), 200, visual_tokens=40, audio_tokens=20, dim=64), path)
    size = path.stat().st_size
    read = []

    def recording_array(self, *args):
        read.append(original(self, *args))
        return read[-1]

    original = binio.ByteReader.array
    monkeypatch.setattr(binio.ByteReader, "array", recording_array)
    with peak_bytes() as peak:
        tl = tdc.read_tdcf(path)
    assert peak[0] <= size + MIB, f"peak {peak[0]} for a {size}-byte file"
    held = (tl.visual_tokens, tl.audio_tokens, tl.descriptors)
    payloads = [arr for arr in read if arr.dtype == np.float32]  # the rest are header fields
    assert len(payloads) == len(held)
    for payload, arr in zip(payloads, held):
        assert arr.dtype == np.float32 and arr.flags.aligned and not arr.flags.writeable
        assert np.shares_memory(payload, arr)



def test_file_that_shrinks_while_read_is_truncated_payload():
    f = io.BytesIO(bytes(64))
    r = binio.ByteReader(f)
    f.truncate(30)  # the size was taken when the reader was made
    assert r.take(8, "header") == bytes(8)
    with pytest.raises(TruncatedPayloadError, match="inside payload") as err:
        r.array((2, 4), "<f4", "payload")
    assert err.value.offset == 8
