import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdc
from tdc.errors import ArgumentError, NumericError
from tdc.segmenter import ScenePartition, select_cuts

from conftest import brute_force_cuts, random_timeline


def descriptor_timeline(desc):
    """Timeline whose token matrices are irrelevant; only descriptors matter."""
    desc = np.asarray(desc, dtype=np.float32)
    frames = desc.shape[0]
    return tdc.VideoTimeline(
        np.ones((frames, 2, 3), dtype=np.float32),
        np.ones((frames, 1, 3), dtype=np.float32),
        desc,
    )


def test_similarities_empty_for_single_frame():
    tl = descriptor_timeline([[1.0, 0.0]])
    assert tdc.frame_similarities(tl).shape == (0,)


def test_similarities_all_ones_for_identical_frames():
    tl = descriptor_timeline(np.tile([1.0, 2.0, 3.0], (6, 1)))
    np.testing.assert_allclose(tdc.frame_similarities(tl), 1.0)


def test_similarities_reject_zero_descriptor():
    tl = descriptor_timeline([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError, match="^frame 1 has a zero-norm descriptor$"):
        tdc.frame_similarities(tl)


def cosine_loop(desc):
    """Per-pair reference for the vectorised similarities: one cosine per pair."""
    desc = np.asarray(desc, dtype=np.float64)
    out = []
    for u, v in zip(desc[:-1], desc[1:]):
        out.append(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))
    return np.array(out)


@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(1, 40), dim=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_similarities_match_per_pair_loop(seed, frames, dim):
    rng = np.random.default_rng(seed)
    desc = rng.standard_normal((frames, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(frames, 1))
    tl = descriptor_timeline(desc)
    # summation order differs from the loop, so agreement is to rounding only
    np.testing.assert_allclose(tdc.frame_similarities(tl), cosine_loop(tl.descriptors), rtol=0, atol=1e-12)


def test_identical_frames_give_single_scene():
    tl = descriptor_timeline(np.tile([0.5, 0.5], (20, 1)))
    part = tdc.segment_scenes(tl, tdc.SegmenterConfig(tau=0.99))
    assert part.boundaries == ()
    assert part.scenes == ((0, 20),)


def test_planted_boundaries_recovered(three_scene_timeline):
    part = tdc.segment_scenes(three_scene_timeline)
    assert part.boundaries == (20, 40)
    assert part.scenes == ((0, 20), (20, 40), (40, 60))


def test_cap_saturation_with_alternating_frames():
    # 100 frames alternating between orthogonal descriptors: every similarity
    # is 0, ties resolve toward earlier indices, the cap keeps 23 cuts.
    desc = np.zeros((100, 2), dtype=np.float32)
    desc[0::2, 0] = 1.0
    desc[1::2, 1] = 1.0
    tl = descriptor_timeline(desc)
    part = tdc.segment_scenes(tl, tdc.SegmenterConfig(max_scenes=24, tau=0.99))
    assert part.scene_count == 24
    assert part.boundaries == tuple(range(1, 24))


def test_scene_partition_validation():
    with pytest.raises(ArgumentError):
        ScenePartition(10, (0,))
    with pytest.raises(ArgumentError):
        ScenePartition(10, (3, 3))
    part = ScenePartition(10, (4, 7))
    assert part.scenes == ((0, 4), (4, 7), (7, 10))


@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(1, 64),
    tau=st.floats(-0.5, 1.0),
    max_scenes=st.integers(1, 30),
)
@settings(max_examples=150, deadline=None)
def test_matches_brute_force_oracle(seed, frames, tau, max_scenes):
    rng = np.random.default_rng(seed)
    tl = random_timeline(rng, frames)
    sims = tdc.frame_similarities(tl)
    cfg = tdc.SegmenterConfig(max_scenes=max_scenes, tau=tau)
    part = tdc.segment_scenes(tl, cfg)
    assert part.boundaries == brute_force_cuts(sims, tau, max_scenes)
    assert part.cut_similarities == tuple(float(sims[b - 1]) for b in part.boundaries)
    # partition covers [0, frames) disjointly with nonempty scenes
    assert part.scene_count <= max_scenes
    covered = []
    for start, stop in part.scenes:
        assert start < stop
        covered.extend(range(start, stop))
    assert covered == list(range(frames))


@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_monotonicity_in_cap_and_threshold(seed, frames):
    rng = np.random.default_rng(seed)
    tl = random_timeline(rng, frames)
    sims = tdc.frame_similarities(tl)
    lower = select_cuts(sims, tdc.SegmenterConfig(max_scenes=4, tau=0.5))
    higher = select_cuts(sims, tdc.SegmenterConfig(max_scenes=12, tau=0.5))
    assert set(lower) <= set(higher)
    loose = select_cuts(sims, tdc.SegmenterConfig(max_scenes=12, tau=0.9))
    tight = select_cuts(sims, tdc.SegmenterConfig(max_scenes=12, tau=0.2))
    assert set(tight) <= set(loose)


def test_config_validation():
    with pytest.raises(ArgumentError):
        tdc.SegmenterConfig(max_scenes=0)
    with pytest.raises(ArgumentError):
        tdc.SegmenterConfig(tau=1.5)
    # tau=1 is the cap-only mode and must be constructible
    tdc.SegmenterConfig(tau=1.0)
