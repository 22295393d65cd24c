"""Fuzzing of the three container readers (TDCF, TDCP, TDCS).

Every corruption of a small valid file -- truncation, a single bit flip, an
overwritten u32 field -- must either parse or raise FormatError with an
offset inside the file.  Any other exception, or a hang, fails.  The CLI
meets the same corruptions of a timeline in test_cli's contract test.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tdc
from tdc.compressor import Provenance
from tdc.errors import FormatError

from conftest import bit_flips, random_timeline, tdcf_fields, truncations, u32_overwrites


def _tdcf(path):
    tl = random_timeline(np.random.default_rng(0), 3, visual_tokens=2, audio_tokens=2, dim=3)
    tdc.write_tdcf(tl, path)
    return tdc.read_tdcf, tdcf_fields(tl)


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
