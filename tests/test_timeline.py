import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdc
from tdc.errors import (
    ArgumentError,
    BadMagicError,
    FormatError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from tdc.binio import FLOAT32_OVERFLOW
from tdc.timeline import MAX_INSTRUCTION_TOKENS, VOCAB_SIZE

from conftest import random_timeline


def test_tokenize_empty_string():
    assert tdc.tokenize_text("").ids == ()


def test_tokenize_deterministic():
    assert tdc.tokenize_text("pass the ball").ids == tdc.tokenize_text("pass the ball").ids


def test_tokenize_repeated_word_hashes_identically():
    ids = tdc.tokenize_text("a b a").ids
    assert len(ids) == 3 and ids[0] == ids[2]
    assert all(0 <= i < VOCAB_SIZE for i in ids)


def test_tokenize_refuses_a_word_utf8_cannot_encode():
    with pytest.raises(ArgumentError, match=r"^instruction word 'b\\ud800' is not UTF-8 text$"):
        tdc.tokenize_text("a b\ud800 c")


def test_instruction_tokens_reject_out_of_vocab():
    with pytest.raises(ArgumentError):
        tdc.InstructionTokens((VOCAB_SIZE,))


def test_instruction_tokens_are_capped():
    assert len(tdc.tokenize_text(" ".join(["w"] * MAX_INSTRUCTION_TOKENS)).ids) == MAX_INSTRUCTION_TOKENS
    with pytest.raises(ArgumentError, match=f"257 tokens, more than {MAX_INSTRUCTION_TOKENS}"):
        tdc.tokenize_text(" ".join(["w"] * (MAX_INSTRUCTION_TOKENS + 1)))


def test_synth_deterministic():
    spec = tdc.SynthSpec(seed=42, frames=12, boundaries=(5,))
    a, b = tdc.synth_generate(spec), tdc.synth_generate(spec)
    for name in ("visual_tokens", "audio_tokens", "descriptors"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_synth_default_shapes():
    tl = tdc.synth_generate(tdc.SynthSpec(seed=0, frames=10))
    assert tl.visual_tokens.shape == (10, 144, 32)
    assert tl.audio_tokens.shape == (10, 50, 32)
    assert tl.descriptors.shape == (10, 32)


def test_synth_rejects_bad_boundaries():
    with pytest.raises(ArgumentError):
        tdc.synth_generate(tdc.SynthSpec(frames=10, boundaries=(10,)))
    with pytest.raises(ArgumentError):
        tdc.synth_generate(tdc.SynthSpec(frames=10, boundaries=(4, 4)))
    # unit 1-vectors are ±1, so one dim cannot keep planted scenes apart; with no cut it can
    with pytest.raises(ArgumentError, match="^dim must be >= 2 to plant cuts that the segmenter finds, got 1$"):
        tdc.SynthSpec(frames=12, boundaries=(4, 8), dim=1)
    assert tdc.synth_generate(tdc.SynthSpec(frames=12, dim=1)).descriptors.shape == (12, 1)


def test_synth_planted_cuts_are_global_similarity_minima():
    tl = tdc.synth_generate(tdc.SynthSpec(seed=5, frames=60, boundaries=(20, 40)))
    sims = tdc.frame_similarities(tl)
    # the two lowest similarities sit exactly at the planted cut positions
    assert set(np.argsort(sims)[:2] + 1) == {20, 40}


@pytest.mark.parametrize("seed", range(5))
def test_synth_within_scene_similarity_dominates_cross_boundary(seed):
    tl = tdc.synth_generate(tdc.SynthSpec(seed=seed, frames=30, boundaries=(10, 20)))
    sims = tdc.frame_similarities(tl)
    cross = sims[[9, 19]]
    within = np.delete(sims, [9, 19])
    assert within.min() > cross.max()


def test_slice_matches_source():
    tl = tdc.synth_generate(tdc.SynthSpec(seed=1, frames=10, boundaries=(4,)))
    sub = tl.slice(3, 7)
    assert sub.frame_count == 4
    np.testing.assert_array_equal(sub.visual_tokens, tl.visual_tokens[3:7])
    with pytest.raises(ArgumentError):
        tl.slice(7, 3)


def test_timeline_arrays_are_frozen():
    tl = tdc.synth_generate(tdc.SynthSpec(seed=0, frames=2))
    with pytest.raises(ValueError):
        tl.descriptors[0, 0] = 1.0


def test_timeline_refuses_a_finite_value_past_float32_range_by_index():
    # the float32 cast would store inf, with numpy's overflow warning, which the test run makes an error
    big = np.nextafter(FLOAT32_OVERFLOW, 0.0)  # rounds to the largest float32
    visual = np.array([[[1.0, -big]], [[np.nan, np.inf]]])
    audio, desc = np.zeros((2, 0, 3)), np.ones((2, 4))
    tl = tdc.VideoTimeline(visual, audio, desc)
    assert tl.visual_tokens[0, 0, 1] == -np.finfo(np.float32).max
    assert np.isnan(tl.visual_tokens[1, 0, 0]) and tl.visual_tokens[1, 0, 1] == np.inf
    visual[1, 0, 0] = 1e39
    with pytest.raises(ArgumentError, match=r"^visual_tokens\[1, 0, 0\] = 1e\+39 is past float32 range$"):
        tdc.VideoTimeline(visual, audio, desc)
    visual[1, 0, 0], desc[1, 2] = 0.0, -FLOAT32_OVERFLOW
    with pytest.raises(ArgumentError, match=r"^descriptors\[1, 2\] = -3.4028235677973366e\+38 is past"):
        tdc.VideoTimeline(visual, audio, desc)


@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_tdcf_round_trip_bitwise(tmp_path_factory, seed, frames):
    rng = np.random.default_rng(seed)
    tl = random_timeline(rng, frames, visual_tokens=rng.integers(1, 5), audio_tokens=rng.integers(0, 4), dim=rng.integers(1, 6))
    path = tmp_path_factory.mktemp("tdcf") / "t.tdcf"
    tdc.write_tdcf(tl, path)
    back = tdc.read_tdcf(path)
    assert back.visual_tokens.tobytes() == tl.visual_tokens.tobytes()
    assert back.audio_tokens.tobytes() == tl.audio_tokens.tobytes()
    assert back.descriptors.tobytes() == tl.descriptors.tobytes()


def test_tdcf_header_bytes(tmp_path):
    path = tmp_path / "t.tdcf"
    tdc.write_tdcf(tdc.synth_generate(tdc.SynthSpec(seed=0, frames=2)), path)
    raw = path.read_bytes()
    assert raw[:4] == b"\x54\x44\x43\x46"  # "TDCF"
    assert raw[4:8] == (1).to_bytes(4, "little")


def test_tdcf_parse_errors_carry_offsets(tmp_path):
    path = tmp_path / "t.tdcf"
    tdc.write_tdcf(tdc.synth_generate(tdc.SynthSpec(seed=0, frames=2)), path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.tdcf"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(BadMagicError) as err:
        tdc.read_tdcf(bad)
    assert err.value.offset == 0

    bad.write_bytes(raw[:4] + (9).to_bytes(4, "little") + raw[8:])
    with pytest.raises(VersionMismatchError) as err:
        tdc.read_tdcf(bad)
    assert err.value.offset == 4

    bad.write_bytes(raw[:-4])
    with pytest.raises(TruncatedPayloadError) as err:
        tdc.read_tdcf(bad)
    assert err.value.offset <= len(raw) - 4

    bad.write_bytes(raw + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        tdc.read_tdcf(bad)


@pytest.mark.parametrize("count", [0, 2])
def test_tdcf_descriptor_count_is_refused_at_its_field(tmp_path, count):
    path = tmp_path / "t.tdcf"
    tdc.write_tdcf(tdc.synth_generate(tdc.SynthSpec(seed=0, frames=2, dim=4)), path)
    raw = path.read_bytes()
    tokens_at = len(raw) - 2 * 4 * 4 - 8  # the descriptor stream's tokens field: two frames of dim 4 follow
    assert raw[tokens_at - 1 : tokens_at + 4] == bytes([2]) + (1).to_bytes(4, "little")
    bad = tmp_path / "bad.tdcf"
    bad.write_bytes(raw[:tokens_at] + count.to_bytes(4, "little") + raw[tokens_at + 4 :])
    with pytest.raises(FormatError, match=f"^descriptor stream must have 1 token per frame, found {count}") as err:
        tdc.read_tdcf(bad)
    assert type(err.value) is FormatError and err.value.offset == tokens_at
