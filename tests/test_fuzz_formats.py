"""Fuzzing of the three container readers (TDCF, TDCP, TDCS) and of the CLI.

Every corruption of a small valid file -- truncation, a single bit flip, an
overwritten u32 field -- must either parse or raise FormatError with an
offset inside the file.  Any other exception, or a hang, fails.  Every
subcommand that reads a timeline must meet a corrupted TDCF with exit 0
and one JSON record, or with exit 2 (I/O) or 3 (numeric) and one stderr line.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tdc
from tdc.cli import main
from tdc.compressor import Provenance
from tdc.errors import FormatError

from conftest import random_timeline


def _tdcf(path):
    tl = random_timeline(np.random.default_rng(0), 3, visual_tokens=2, audio_tokens=2, dim=3)
    tdc.write_tdcf(tl, path)
    # magic, version, frame count; then per stream a u8 tag, u32 tokens, u32 dim
    # and frames * tokens * dim floats (the descriptor stream has one token)
    fields, at = [4, 8], 12
    for tokens in (2, 2, 1):
        fields += [at + 1, at + 5]
        at += 9 + 4 * 3 * tokens * 3
    return tdc.read_tdcf, fields


def _tdcp(path):
    cfg = tdc.QFormerConfig(model_dim=2, heads=1, layers=1, queries=1, visual_dim=1, audio_dim=1)
    tdc.save_params(tdc.init_params(cfg), path)
    # version, then after the two u8 flags the seven dims
    return tdc.load_params, [4] + [10 + 4 * i for i in range(7)]


def _tdcs(path):
    rng = np.random.default_rng(1)
    n = 5
    stream = tdc.TDCStream(
        tokens=rng.standard_normal((n, 3)),
        provenance=np.array([Provenance.STATIC_VISUAL, Provenance.SEP] + [Provenance.DYNAMIC] * 3, dtype=np.uint8),
        frame_index=np.zeros(n, dtype=np.int32),
        window_index=np.zeros(n, dtype=np.int32),
    )
    tdc.write_stream(stream, path)
    # version, token count, token dim
    return tdc.read_stream, [4, 8, 12]


FORMATS = {"tdcf": _tdcf, "tdcp": _tdcp, "tdcs": _tdcs}
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(params=sorted(FORMATS))
def valid_file(request, tmp_path_factory):
    """(reader, valid file bytes, u32 header field offsets, scratch path)."""
    directory = tmp_path_factory.mktemp(request.param)
    reader, fields = FORMATS[request.param](directory / "valid")
    data = (directory / "valid").read_bytes()
    reader(directory / "valid")  # the unmodified file parses
    return reader, data, fields, directory / "fuzzed"


def parses_or_fails_at_an_offset_inside(reader, data, path):
    path.write_bytes(data)
    try:
        reader(path)
    except FormatError as exc:
        assert 0 <= exc.offset <= len(data), f"offset {exc.offset} outside a {len(data)}-byte file"


def truncations(raw):
    return st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut])


def bit_flips(raw, fields):
    # some flips are aimed at a header field, where they change the layout
    byte = st.one_of(st.sampled_from(fields).flatmap(lambda f: st.integers(f, f + 3)), st.integers(0, len(raw) - 1))

    def flip(at, bit):
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        return bytes(flipped)

    return st.builds(flip, byte, st.integers(0, 7))


def u32_overwrites(raw, fields):
    value = st.one_of(st.sampled_from([0, 1, 2, 1000, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))

    def overwrite(at, v):
        changed = bytearray(raw)
        changed[at : at + 4] = v.to_bytes(4, "little")
        return bytes(changed)

    return st.builds(overwrite, st.sampled_from(fields), value)


@FUZZ
@given(st.data())
def test_truncated_file(valid_file, data):
    reader, raw, _, path = valid_file
    parses_or_fails_at_an_offset_inside(reader, data.draw(truncations(raw)), path)


@FUZZ
@given(st.data())
def test_single_bit_flip(valid_file, data):
    reader, raw, fields, path = valid_file
    parses_or_fails_at_an_offset_inside(reader, data.draw(bit_flips(raw, fields)), path)


@FUZZ
@given(st.data())
def test_overwritten_u32_field(valid_file, data):
    reader, raw, fields, path = valid_file
    parses_or_fails_at_an_offset_inside(reader, data.draw(u32_overwrites(raw, fields)), path)


# one query token and one span, so the small valid file is a valid input
CLI_ARGS = {
    "segment": [],
    "budget": ["--k", "1"],
    "compress": ["--k", "1"],
    "lvcot": ["--k", "1", "--segments", "1", "--text", "q"],
}


@pytest.fixture(scope="module")
def valid_tdcf(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "valid.tdcf"
    _, fields = _tdcf(path)
    return path.read_bytes(), fields


@pytest.mark.parametrize("command", sorted(CLI_ARGS))
@FUZZ
@given(st.data())
def test_cli_on_corrupted_timeline(command, valid_tdcf, tmp_path, capsys, data):
    raw, fields = valid_tdcf
    fuzzed = data.draw(st.one_of(truncations(raw), bit_flips(raw, fields), u32_overwrites(raw, fields)))
    path, out = tmp_path / "fuzzed.tdcf", tmp_path / "out.tdcs"
    path.write_bytes(fuzzed)
    out.unlink(missing_ok=True)
    argv = [command, "--input", str(path), *CLI_ARGS[command]]
    if command == "compress":
        argv += ["--output", str(out)]
    code = main(argv)
    printed = capsys.readouterr()
    assert code in (0, 2, 3), printed.err
    assert printed.err.count("\n") == (code != 0), printed.err
    assert len(printed.out.splitlines()) == (code == 0)
    assert out.exists() == (code == 0 and command == "compress")
