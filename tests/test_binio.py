"""Container framing, and payloads moved straight between file and array.

Every container fails the same way on a bad magic, version or trailing byte.
A header that declares more payload than the file holds fails before any
allocation, read_tdcf allocates each payload once, in the array that
VideoTimeline keeps, and the writers copy no payload into a byte string.
"""

import io
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import tdc
from tdc import binio
from tdc.cli import main
from tdc.compressor import Provenance
from tdc.errors import BadMagicError, FormatError, NumericError, TruncatedPayloadError, VersionMismatchError

from conftest import SIGNALLING_NAN, random_timeline

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


def two_token_stream(tokens=np.ones((2, 3))):
    return tdc.TDCStream(
        tokens=tokens,
        provenance=np.array([Provenance.SEP, Provenance.DYNAMIC], dtype=np.uint8),
        frame_index=np.zeros(2, dtype=np.int32),
        window_index=np.zeros(2, dtype=np.int32),
    )


def tiny_params():
    return tdc.init_params(tdc.QFormerConfig(model_dim=2, heads=1, layers=1, queries=1, visual_dim=1, audio_dim=1))


def write_small_tdcf(path):
    tdc.write_tdcf(random_timeline(np.random.default_rng(0), 2, visual_tokens=2, audio_tokens=2, dim=3), path)
    return tdc.read_tdcf


def write_small_tdcs(path):
    tdc.write_stream(two_token_stream(), path)
    return tdc.read_stream


def write_small_tdcp(path):
    tdc.save_params(tiny_params(), path)
    return tdc.load_params


def huge_tdcf(path):
    write_small_tdcf(path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")  # frame count
    path.write_bytes(bytes(raw))
    # magic, version, frame count, visual tag, tokens, dim
    return tdc.read_tdcf, TruncatedPayloadError, 4 + 4 + 4 + 1 + 4 + 4


def tdcf_of_dim_zero(path, tokens):
    """A 2-frame TDCF, valid but for an audio stream of ``tokens`` rows of dim 0."""
    tdc.write_tdcf(random_timeline(np.random.default_rng(0), 2, visual_tokens=2, audio_tokens=0, dim=3), path)
    raw = bytearray(path.read_bytes())
    tokens_at = 4 + 4 + 4 + (1 + 4 + 4 + 2 * 2 * 3 * 4) + 1  # after the 2x2x3 visual stream and audio tag
    raw[tokens_at : tokens_at + 8] = tokens.to_bytes(4, "little") + bytes(4)
    path.write_bytes(bytes(raw))
    return tokens_at + 4  # the dim


def huge_tdcf_of_dim_zero(path):
    return tdc.read_tdcf, FormatError, tdcf_of_dim_zero(path, 2**32 - 1)


def huge_tdcs(path):
    write_small_tdcs(path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")  # token count
    path.write_bytes(bytes(raw))
    # magic, version, token count, token dim
    return tdc.read_stream, TruncatedPayloadError, 4 + 4 + 4 + 4


def tdcs_of_dim_zero(path, count):
    """A TDCS that declares ``count`` tokens of dim 0, followed by up to 3 provenance bytes."""
    path.write_bytes(b"TDCS" + b"".join(n.to_bytes(4, "little") for n in (1, count, 0)) + bytes(min(count, 3)))
    return 4 + 4 + 4  # magic, version, token count: the dim


def huge_tdcs_of_dim_zero(path):
    return tdc.read_stream, FormatError, tdcs_of_dim_zero(path, 2**32 - 1)


@pytest.mark.parametrize(
    "make",
    [huge_tdcf, huge_tdcf_of_dim_zero, huge_tdcs, huge_tdcs_of_dim_zero],
    ids=["tdcf", "tdcf-dim0", "tdcs", "tdcs-dim0"],
)
def test_declared_payload_beyond_file_fails_before_allocating(tmp_path, make):
    reader, error, offset = make(tmp_path / "huge")
    with peak_bytes() as peak, pytest.raises(error) as err:
        reader(tmp_path / "huge")
    assert err.value.offset == offset
    assert peak[0] < MIB


@pytest.mark.parametrize(
    "argv",
    [["compress", "--k", "1", "--output", "out.tdcs"], ["lvcot", "--k", "1", "--segments", "1", "--text", "q"]],
    ids=["compress", "lvcot"],
)
def test_tokens_of_dim_zero_exit_2_before_allocating(tmp_path, capsys, monkeypatch, argv):
    # rows of dim 0 take no bytes in the file, but each becomes a model_dim-wide
    # float64 row once projected: 32 MiB per frame here, 2 TiB at 2**32-1 rows
    path = tmp_path / "huge.tdcf"
    dim_at = tdcf_of_dim_zero(path, 2**16)
    monkeypatch.chdir(tmp_path)
    with peak_bytes() as peak:
        code = main([*argv, "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and f"(byte offset {dim_at})" in err, err
    assert peak[0] < MIB
    assert not (tmp_path / "out.tdcs").exists()


def tdcf_with_empty_stream(path, empty):
    """A 2-frame TDCF whose ``empty`` stream (visual or audio) has 0 tokens of dim 10**5."""
    visual, audio = (0, 2) if empty == "visual" else (2, 0)
    tdc.write_tdcf(random_timeline(np.random.default_rng(0), 2, visual_tokens=visual, audio_tokens=audio, dim=3), path)
    raw = bytearray(path.read_bytes())
    # the dim field follows the magic, version, frame count, tag and tokens of its stream
    dim_at = 4 + 4 + 4 + 1 + 4
    if empty == "audio":
        dim_at += 4 + 2 * 2 * 3 * 4 + 1 + 4  # past the 2x2x3 visual stream
    raw[dim_at : dim_at + 4] = (10**5).to_bytes(4, "little")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "empty, argv, code",
    [
        ("audio", ["compress", "--k", "1", "--output", "out.tdcs"], 0),
        ("audio", ["lvcot", "--k", "1", "--segments", "1", "--text", "q"], 0),
        ("visual", ["compress", "--k", "1", "--output", "out.tdcs"], 1),
        ("visual", ["compress", "--k", "1", "--output", "out.tdcs", "--query-type", "learned"], 1),
        ("visual", ["lvcot", "--k", "1", "--segments", "1", "--text", "q", "--query-type", "learned"], 1),
    ],
    ids=["audio-compress", "audio-lvcot", "visual-compress", "visual-compress-learned", "visual-lvcot-learned"],
)
def test_dim_of_an_empty_stream_sizes_no_projection(tmp_path, capsys, monkeypatch, empty, argv, code):
    # no byte backs the dim of a stream of 0 tokens: a (10**5, model_dim)
    # float64 projection sized from it would take 49 MiB
    path = tmp_path / "empty.tdcf"
    tdcf_with_empty_stream(path, empty)
    monkeypatch.chdir(tmp_path)
    with peak_bytes() as peak:
        got = main([*argv, "--input", str(path)])
    err = capsys.readouterr().err
    assert got == code, err
    assert peak[0] < 8 * MIB
    if code:
        assert err.startswith("tdc: usage error:") and err.count("\n") == 1
        assert not (tmp_path / "out.tdcs").exists()


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


@pytest.mark.parametrize(
    "write", [write_small_tdcf, write_small_tdcs, write_small_tdcp], ids=["tdcf", "tdcs", "tdcp"]
)
def test_every_container_checks_its_framing(tmp_path, write):
    path = tmp_path / "c"
    reader = write(path)
    raw = path.read_bytes()
    bad = tmp_path / "bad"
    cases = [
        (b"NOPE" + raw[4:], BadMagicError, "expected magic", 0),
        (raw[:4] + (99).to_bytes(4, "little") + raw[8:], VersionMismatchError, "version 99", 4),
        (raw + b"\x00", FormatError, "1 trailing bytes", len(raw)),
    ]
    for data, error, message, offset in cases:
        bad.write_bytes(data)
        with pytest.raises(error, match=message) as err:
            reader(bad)
        assert err.value.offset == offset


def test_stream_provenance_code_that_names_no_provenance_is_format_error(tmp_path):
    path = tmp_path / "s.tdcs"
    tdc.write_stream(two_token_stream(), path)
    raw = bytearray(path.read_bytes())
    raw[-1] = 200  # the last token's provenance byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="token 1 has provenance code 200") as err:
        tdc.read_stream(path)
    assert err.value.offset == len(raw) - 1


@pytest.mark.parametrize(
    "patches, first",
    [({(1, 1): np.nan}, (1, 1)), ({(1, 1): np.nan, (0, 2): -np.inf}, (0, 2)), ({(1, 0): SIGNALLING_NAN}, (1, 0))],
    ids=["nan", "nan-after-inf", "signalling-nan"],
)
def test_stream_token_that_is_not_finite_is_format_error_at_its_bytes(tmp_path, patches, first):
    # no stream can hold such a token, so no writer produces one
    path = tmp_path / "s.tdcs"
    tdc.write_stream(two_token_stream(), path)  # two tokens of dim 3
    raw = bytearray(path.read_bytes())
    for (row, col), value in patches.items():
        at = 16 + 4 * (3 * row + col)
        raw[at : at + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))
    row, col = first
    with pytest.raises(FormatError, match=f"^token {row} holds {np.float32(patches[first])}, which is not finite") as err:
        tdc.read_stream(path)
    assert err.value.offset == 16 + 4 * (3 * row + col)


def test_stream_tokens_of_dim_zero_are_format_error_at_the_dim(tmp_path):
    # read_tdcf refuses the same shape; no byte backs such a token
    path = tmp_path / "s.tdcs"
    dim_at = tdcs_of_dim_zero(path, 3)
    with pytest.raises(FormatError, match="3 tokens of dim 0") as err:
        tdc.read_stream(path)
    assert err.value.offset == dim_at
    tdcs_of_dim_zero(path, 0)  # an empty stream of dim 0 reads as one
    tokens, prov = tdc.read_stream(path)
    assert tokens.shape == (0, 0) and prov.shape == (0,)


def overflowing_stream(path):
    tdc.write_stream(two_token_stream(np.array([[1.0, 2.0, 3.0], [4.0, 1e39, 6.0]])), path)


def overflowing_params(path):
    params = tiny_params()
    params.tensors["sep"][0, 0] = 1e39
    tdc.save_params(params, path)


@pytest.mark.parametrize("save", [overflowing_stream, overflowing_params], ids=["tdcs", "tdcp"])
def test_value_beyond_float32_leaves_existing_file_alone(tmp_path, save):
    path = tmp_path / "out"
    path.write_bytes(b"earlier contents")
    with pytest.raises(NumericError):
        save(path)
    assert path.read_bytes() == b"earlier contents"


def test_writers_copy_no_payload_into_a_byte_string(tmp_path):
    tl = random_timeline(np.random.default_rng(3), 200, visual_tokens=40, audio_tokens=20, dim=64)
    with peak_bytes() as peak:
        tdc.write_tdcf(tl, tmp_path / "t.tdcf")
    assert peak[0] < MIB, f"peak {peak[0]} writing a {(tmp_path / 't.tdcf').stat().st_size}-byte TDCF"

    params = tdc.init_params(tdc.QFormerConfig(visual_dim=64, audio_dim=64))
    plan = tdc.make_windows(tdc.ScenePartition(tl.frame_count, ()), 8)
    stream = tdc.assemble_tdc(tl, plan, params)
    path = tmp_path / "s.tdcs"
    with peak_bytes() as peak:
        tdc.write_stream(stream, path)
    # it casts one row chunk at a time: less than a whole float32 copy of the tokens
    assert peak[0] <= 0.75 * path.stat().st_size, f"peak {peak[0]} for a {path.stat().st_size}-byte TDCS"
