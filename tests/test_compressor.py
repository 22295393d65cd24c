import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tdc
from tdc import compressor, kernels, qformer
from tdc.binio import FLOAT32_OVERFLOW
from tdc.compressor import Provenance
from tdc.errors import ArgumentError, NumericError, ShapeError
from tdc.segmenter import ScenePartition

from conftest import random_timeline, unfolded_forward, walk_stream_counts, with_queries


def small_setup(seed=0, frames=9, boundaries=(4,), query_type="avgpool", text_conditioning=False):
    rng = np.random.default_rng(seed)
    tl = random_timeline(rng, frames, visual_tokens=6, audio_tokens=4, dim=8)
    cfg = tdc.QFormerConfig(
        model_dim=16, heads=2, layers=1, queries=3, visual_dim=8, audio_dim=8,
        query_type=query_type, text_conditioning=text_conditioning, seed=seed,
    )
    params = tdc.init_params(cfg)
    plan = tdc.make_windows(ScenePartition(frames, boundaries), 4)
    return tl, params, plan


def test_make_windows_examples():
    plan = tdc.make_windows(ScenePartition(10, ()), 4)
    assert [(w.static_frame, tuple(w.dynamic_frames)) for w in plan.windows] == [
        (0, (1, 2, 3)),
        (4, (5, 6, 7)),
        (8, (9,)),
    ]
    partition = ScenePartition(10, (3, 7))
    plan = tdc.make_windows(partition, 100)
    assert [w.static_frame for w in plan.windows] == [0, 3, 7]
    assert plan.partition is partition and plan.length == 100
    plan = tdc.make_windows(ScenePartition(60, ()), 8)
    sizes = [w.stop - w.static_frame for w in plan.windows]
    assert sizes == [8] * 7 + [4]
    with pytest.raises(ArgumentError):
        tdc.make_windows(ScenePartition(10, ()), 0)


def test_windows_cover_each_frame_once():
    plan = tdc.make_windows(ScenePartition(23, (5, 9, 20)), 3)
    seen = []
    for w in plan.windows:
        seen.append(w.static_frame)
        seen.extend(w.dynamic_frames)
        assert len(w.dynamic_frames) <= 3 - 1
    assert sorted(seen) == list(range(23))


@pytest.mark.parametrize("length", [0, -3])
def test_window_plan_length_must_be_positive(length):
    partition = ScenePartition(6, (3,))
    with pytest.raises(ArgumentError, match=f"window length must be >= 1, got {length}"):
        tdc.WindowPlan(partition, length)
    assert tdc.WindowPlan(partition, 3) == tdc.make_windows(partition, 3)


def test_window_is_a_run_of_frames():
    w = tdc.Window(4, 8)
    assert w.dynamic_frames == range(5, 8) and w.rows(10, 2) == 10 + 1 + 3 * 2
    lone = tdc.Window(3, 4)
    assert list(lone.dynamic_frames) == [] and lone.rows(10, 2) == 10 + 1
    assert [f.name for f in fields(tdc.Window)] == ["static_frame", "stop"]


def test_window_plan_is_its_partition_and_length():
    partition = ScenePartition(10, (3, 7))
    plan = tdc.WindowPlan(partition, 4)
    assert [f.name for f in fields(tdc.WindowPlan)] == ["partition", "length"]
    # the windows are computed once per plan
    assert plan.windows is plan.windows
    with pytest.raises(FrozenInstanceError):
        plan.length = 2
    assert plan == tdc.WindowPlan(ScenePartition(10, (3, 7)), 4)
    assert plan != tdc.WindowPlan(partition, 3) and plan != tdc.WindowPlan(ScenePartition(10, (3,)), 4)


@st.composite
def partitions(draw):
    frames = draw(st.integers(1, 60))
    cuts = draw(st.sets(st.integers(1, frames - 1), max_size=frames - 1)) if frames > 1 else set()
    return ScenePartition(frames, tuple(sorted(cuts)))


@settings(max_examples=200, deadline=None)
@given(partition=partitions(), length=st.integers(1, 10))
def test_window_plan_tiles_each_scene_in_order(partition, length):
    windows = tdc.WindowPlan(partition, length).windows
    scene_ends = [stop for _, stop in partition.scenes]
    start, covered = 0, []
    for w in windows:
        # each window starts where the last one stopped, and stops at or before the end of its scene
        assert w.static_frame == start
        end = next(e for e in scene_ends if e > start)
        assert start < w.stop <= end
        # at most `length` frames; only a scene's last window may have fewer
        n = w.stop - w.static_frame
        assert n <= length and (n == length or w.stop == end)
        assert len(w.dynamic_frames) == n - 1
        covered += [w.static_frame, *w.dynamic_frames]
        start = w.stop
    assert covered == list(range(partition.frame_count))
    # oracle: a plain loop over each scene's window starts, each window's dynamic frames as a tuple
    oracle = [(s, tuple(range(s + 1, min(s + length, stop)))) for a, stop in partition.scenes for s in range(a, stop, length)]
    assert [(w.static_frame, tuple(w.dynamic_frames)) for w in windows] == oracle


def test_build_queries_identical_tokens():
    tl, params, _ = small_setup()
    v = np.full((6, 8), 0.0)
    v[:] = np.arange(8.0)
    queries = tdc.build_queries(params, v)
    np.testing.assert_allclose(queries.pooled, np.tile(np.arange(8.0), (3, 1)))
    # the query rows are the projected pooled tokens: the same window as learned queries set to them
    learned = with_queries(params, np.tile(np.arange(8.0) @ params["visual_proj"], (3, 1)))
    np.testing.assert_allclose(queries.x, tdc.build_queries(learned, None).x, rtol=0, atol=1e-12)


def test_build_queries_dense_grouping(default_params):
    # 144 static tokens pooled into 16 queries of 9 projected tokens each
    rng = np.random.default_rng(3)
    static = rng.standard_normal((144, 32))
    queries = tdc.build_queries(default_params, static)
    # text conditioning is off, so the window's rows are the 16 queries alone
    assert queries.pooled.shape == (16, 32) and queries.x.shape == (16, 64)
    np.testing.assert_allclose(queries.pooled[5], static[45:54].mean(axis=0))
    projected = static @ default_params["visual_proj"]
    groups = np.stack([projected[9 * g : 9 * g + 9].mean(axis=0) for g in range(16)])
    learned = with_queries(default_params, groups)
    np.testing.assert_allclose(queries.x, tdc.build_queries(learned, None).x, rtol=0, atol=1e-12)


def test_build_queries_learned_ignores_static():
    tl, params, _ = small_setup(query_type="learned")
    rng = np.random.default_rng(4)
    q1 = tdc.build_queries(params, rng.standard_normal((6, 8)))
    q2 = tdc.build_queries(params, None)
    assert q1.pooled is None and q2.pooled is None
    np.testing.assert_array_equal(q1.x, q2.x)
    # the rows that layer 0's self-attention normalises are the learned queries
    t = params.tensors
    _, ln1 = kernels.layer_norm(t["learned_queries"], t["layers.0.self_norm.gamma"], t["layers.0.self_norm.beta"])
    np.testing.assert_array_equal(q1.self_attn.ln[0], ln1[0])
    # so forward ignores the static frame too
    v, a = rng.standard_normal((6, 8)), rng.standard_normal((4, 8))
    np.testing.assert_array_equal(tdc.forward(params, q1, v, a)[0], tdc.forward(params, q2, v, a)[0])


def test_build_queries_rejects_too_few_tokens():
    tl, params, _ = small_setup()
    with pytest.raises(ArgumentError):
        tdc.build_queries(params, np.ones((2, 8)))


def count_calls(monkeypatch, module, names):
    """Count the calls to each named function of module, which still runs."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def record_forward_runs(monkeypatch, tl):
    """The frames of tl that each qformer.forward call compresses, one list per call in call order."""
    runs, real = [], qformer.forward

    def recorded(params, queries, visual, audio):
        assert visual.ndim == 3, "dynamic frames are forwarded as a stack"
        run = [int(np.flatnonzero((tl.visual_tokens == v).all(axis=(1, 2)))[0]) for v in visual]
        np.testing.assert_array_equal(audio, tl.audio_tokens[run])
        runs.append(run)
        return real(params, queries, visual, audio)

    monkeypatch.setattr(qformer, "forward", recorded)
    return runs


def test_assemble_builds_queries_once_per_window_and_forwards_each_run_of_dynamic_frames_once(monkeypatch):
    tl, params, _ = small_setup(frames=14, text_conditioning=True)
    # windows [0..3], [4], [5..8], [9..12], [13]: three with dynamic frames, 9 dynamic frames
    plan = tdc.make_windows(ScenePartition(14, (4, 5, 9)), 4)
    calls = count_calls(monkeypatch, qformer, ("build_queries",))
    runs = record_forward_runs(monkeypatch, tl)
    stream = tdc.assemble_tdc(tl, plan, params, text=tdc.tokenize_text("find the cat"))
    assert calls == {"build_queries": 3}
    assert runs == [[1, 2, 3], [6, 7, 8], [10, 11, 12]]
    assert sorted(f for run in runs for f in run) == [f for w in plan.windows for f in w.dynamic_frames]
    assert max(map(len, runs)) <= compressor.STACK_FRAMES
    assert np.sum(stream.provenance == int(Provenance.DYNAMIC)) == 9 * params.cfg.queries


def test_a_window_longer_than_the_stack_cap_is_compressed_in_several_stacks(monkeypatch):
    tl, params, _ = small_setup(frames=20, boundaries=(), text_conditioning=True)
    plan = tdc.make_windows(ScenePartition(20, ()), 20)
    text = tdc.tokenize_text("find the cat")
    queries = qformer.build_queries(params, tl.visual_tokens[0], text)
    alone = [qformer.forward(params, queries, tl.visual_tokens[f], tl.audio_tokens[f])[0] for f in range(1, 20)]
    runs = record_forward_runs(monkeypatch, tl)
    stream = tdc.assemble_tdc(tl, plan, params, text=text)
    assert runs == [list(range(1, 9)), list(range(9, 17)), list(range(17, 20))]
    dynamic = stream.provenance == int(Provenance.DYNAMIC)
    k = params.cfg.queries
    assert np.array_equal(stream.tokens[dynamic], np.concatenate(alone))
    np.testing.assert_array_equal(stream.frame_index[dynamic], np.repeat(np.arange(1, 20), k))

    monkeypatch.undo()
    visual = tl.visual_tokens.copy()
    visual[10, 0, 0] = np.nan  # inside the second stack, frames 9 to 16
    bad = tdc.VideoTimeline(visual, tl.audio_tokens, tl.descriptors)
    row = tl.visual_tokens_per_frame + tl.audio_tokens_per_frame + 1 + (10 - 1) * k
    with pytest.raises(NumericError, match=f"^stream token {row} from frame 10 is not finite$"):
        tdc.assemble_tdc(bad, plan, params, text=text)


def test_one_frame_windows_build_no_queries(monkeypatch):
    # 2 static tokens cannot pool into K = 3 queries, but a window without dynamic frames pools nothing
    tl = random_timeline(np.random.default_rng(9), 4, visual_tokens=2, audio_tokens=1, dim=8)
    _, params, _ = small_setup()
    with pytest.raises(ArgumentError, match="cannot split 2 items into 3 groups"):
        tdc.assemble_tdc(tl, tdc.make_windows(ScenePartition(4, ()), 2), params)
    calls = count_calls(monkeypatch, qformer, ("build_queries", "forward"))
    stream = tdc.assemble_tdc(tl, tdc.make_windows(ScenePartition(4, ()), 1), params)
    assert calls == {"build_queries": 0, "forward": 0}
    assert walk_stream_counts(stream) == (2 + 1 + 1,) * 4


def test_audio_dim_zero_compresses_and_back_propagates():
    cfg = tdc.QFormerConfig(
        model_dim=16, heads=2, layers=2, queries=3, visual_dim=8, audio_dim=0, text_conditioning=True
    )
    params = tdc.init_params(cfg)
    rng = np.random.default_rng(10)
    tl = tdc.VideoTimeline(
        rng.standard_normal((6, 5, 8)).astype(np.float32),
        np.zeros((6, 0, 0), dtype=np.float32),
        rng.standard_normal((6, 8)).astype(np.float32),
    )
    stream = tdc.assemble_tdc(tl, tdc.make_windows(ScenePartition(6, ()), 3), params, text=tdc.tokenize_text("where"))
    assert walk_stream_counts(stream) == (5 + 1 + 2 * 3,) * 2
    assert np.isfinite(stream.tokens).all()
    batch = tdc.make_train_batch(cfg, seed=1, frames=3, visual_tokens=5, audio_tokens=0)
    trained, loss = tdc.train_step(params, batch, 0.05)
    assert np.isfinite(loss) and trained["audio_proj"].shape == (0, 16)
    assert np.abs(trained["visual_proj"] - params["visual_proj"]).max() > 0.0


def test_compress_frame_is_pure_and_text_sensitive():
    tl, params, _ = small_setup(text_conditioning=True)
    rng = np.random.default_rng(5)
    static = rng.standard_normal((6, 8))
    v = rng.standard_normal((6, 8))
    a = rng.standard_normal((4, 8))
    queries = tdc.build_queries(params, static)
    out1 = tdc.forward(params, queries, v, a)[0]
    out2 = tdc.forward(params, tdc.build_queries(params, static), v, a)[0]
    np.testing.assert_array_equal(out1, out2)
    out_text = tdc.forward(params, tdc.build_queries(params, static, tdc.tokenize_text("find the cat")), v, a)[0]
    assert np.abs(out_text - out1).max() > 0.0


def test_stream_order_and_counts():
    tl, params, plan = small_setup(frames=9, boundaries=(4,))
    stream = tdc.assemble_tdc(tl, plan, params)
    # windows: [0..3], [4..7], [8]; per window 6 visual + 4 audio + 1 sep + 3*k dynamic
    assert walk_stream_counts(stream) == (6 + 4 + 1 + 9, 6 + 4 + 1 + 9, 6 + 4 + 1)
    # provenance order inside each window
    for w in range(3):
        codes = stream.provenance[stream.window_index == w]
        v, a = 6, 4
        assert list(codes[:v]) == [int(Provenance.STATIC_VISUAL)] * v
        assert list(codes[v : v + a]) == [int(Provenance.STATIC_AUDIO)] * a
        assert codes[v + a] == int(Provenance.SEP)
        assert all(c == int(Provenance.DYNAMIC) for c in codes[v + a + 1 :])
    # sep rows carry no frame index
    assert set(stream.frame_index[stream.provenance == int(Provenance.SEP)]) == {-1}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    frames=st.integers(1, 9),
    visual_tokens=st.integers(1, 4),
    audio_tokens=st.integers(0, 3),
    query_type=st.sampled_from(qformer.QUERY_TYPES),
    text_on=st.booleans(),
    window_length=st.integers(1, 4),
    max_scenes=st.integers(1, 3),
    tau=st.floats(-1.0, 1.0),
)
def test_each_window_equals_that_window_assembled_alone(
    data, seed, frames, visual_tokens, audio_tokens, query_type, text_on, window_length, max_scenes, tau
):
    # every channel of a window's rows depends on that window's frames alone (the guard for window reuse)
    tl = random_timeline(np.random.default_rng(seed), frames, visual_tokens, audio_tokens, dim=4)
    # avgpool pools the static frame's visual tokens into K queries, so K <= m_v there
    k = data.draw(st.integers(1, visual_tokens if query_type == "avgpool" else 3), label="queries")
    cfg = tdc.QFormerConfig(
        model_dim=8, heads=2, layers=2, queries=k, visual_dim=4, audio_dim=4,
        query_type=query_type, text_conditioning=text_on, seed=seed,
    )
    ctx = tdc.CompressionContext(tdc.init_params(cfg), tdc.SegmenterConfig(max_scenes, tau), window_length)
    text = tdc.tokenize_text("where is the ball") if text_on else None
    plan, stream = ctx.compress(tl, text)
    start = 0
    for w, window in enumerate(plan.windows):
        s, n = window.static_frame, window.stop - window.static_frame
        alone = tdc.assemble_tdc(tl.slice(s, s + n), tdc.make_windows(ScenePartition(n, ()), n), ctx.params, text)
        rows = slice(start, start + len(alone))
        assert stream.tokens[rows].tobytes() == alone.tokens.tobytes()
        assert np.array_equal(stream.provenance[rows], alone.provenance)
        assert np.array_equal(stream.frame_index[rows], np.where(alone.frame_index < 0, -1, alone.frame_index + s))
        assert np.array_equal(stream.window_index[rows], np.full(len(alone), w))
        start += len(alone)
    assert start == len(stream)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    frames=st.integers(1, 12),
    window_length=st.integers(1, 5),
    k=st.integers(1, 3),
    audio_tokens=st.integers(0, 3),
    heads=st.sampled_from([1, 2, 4]),
    layers=st.integers(1, 3),
    query_type=st.sampled_from(qformer.QUERY_TYPES),
    text=st.sampled_from([None, "", "where does the dog run"]),
)
def test_stream_equals_an_independent_rebuild_of_every_row(
    data, seed, frames, window_length, k, audio_tokens, heads, layers, query_type, text
):
    # the oracle for every fast path: each row rebuilt on its own from the planted cuts, in float64
    cuts = tuple(c for c in range(1, frames) if data.draw(st.booleans(), label=f"cut at {c}"))
    visual_tokens = data.draw(st.integers(k, k + 3), label="visual_tokens")
    rng = np.random.default_rng(seed)
    # descriptors with the planted cuts, and frame tokens that differ from frame to frame
    spec = tdc.SynthSpec(seed=seed, frames=frames, boundaries=cuts, visual_tokens=1, audio_tokens=0, dim=8)
    tl = tdc.VideoTimeline(
        rng.standard_normal((frames, visual_tokens, 5)), rng.standard_normal((frames, audio_tokens, 3)),
        tdc.synth_generate(spec).descriptors,
    )
    cfg = tdc.QFormerConfig(
        model_dim=8, heads=heads, layers=layers, queries=k, query_type=query_type,
        text_conditioning=text is not None, visual_dim=5, audio_dim=3, seed=seed,
    )
    params = tdc.init_params(cfg)
    tokens = None if text is None else tdc.tokenize_text(text)
    plan, stream = tdc.CompressionContext(params, window_length=window_length).compress(tl, tokens)
    assert plan.partition.boundaries == cuts

    visual, audio = tl.visual_tokens.astype(np.float64), tl.audio_tokens.astype(np.float64)
    edges = (0, *cuts, frames)
    blocks, prov, frame_index, window_index = [], [], [], []
    scenes = zip(edges, edges[1:])
    windows = [(s, min(s + window_length, stop)) for start, stop in scenes for s in range(start, stop, window_length)]
    for w, (s, stop) in enumerate(windows):
        rows = [visual[s] @ params["visual_proj"], audio[s] @ params["audio_proj"], params["sep"]]
        rows += [unfolded_forward(params, visual[s], visual[f], audio[f], tokens) for f in range(s + 1, stop)]
        blocks += rows
        prov += [Provenance.STATIC_VISUAL] * visual_tokens + [Provenance.STATIC_AUDIO] * audio_tokens + [Provenance.SEP]
        prov += [Provenance.DYNAMIC] * (k * (stop - s - 1))
        frame_index += [s] * (visual_tokens + audio_tokens) + [-1] + [f for f in range(s + 1, stop) for _ in range(k)]
        window_index += [w] * sum(len(r) for r in rows)
    expected = np.vstack(blocks)
    assert stream.tokens.shape == expected.shape
    np.testing.assert_allclose(stream.tokens, expected, rtol=0, atol=1e-10)
    assert stream.provenance.tolist() == prov
    assert stream.frame_index.tolist() == frame_index
    assert stream.window_index.tolist() == window_index


def test_single_frame_window_has_no_dynamic_tokens(default_params):
    tl = tdc.synth_generate(tdc.SynthSpec(seed=2, frames=1))
    plan = tdc.make_windows(ScenePartition(1, ()), 8)
    stream = tdc.assemble_tdc(tl, plan, default_params)
    assert len(stream) == 144 + 50 + 1
    assert not np.any(stream.provenance == int(Provenance.DYNAMIC))


def test_default_window_token_count(default_params, single_scene_timeline):
    plan = tdc.make_windows(ScenePartition(60, ()), 8)
    stream = tdc.assemble_tdc(single_scene_timeline, plan, default_params)
    counts = walk_stream_counts(stream)
    assert counts == (307,) * 7 + (243,)
    assert len(stream) == 2392


def test_every_frame_appears_exactly_once():
    tl, params, plan = small_setup(frames=11, boundaries=(3, 8))
    stream = tdc.assemble_tdc(tl, plan, params)
    frames = stream.frame_index[stream.provenance != int(Provenance.SEP)]
    static_frames = set(
        stream.frame_index[stream.provenance == int(Provenance.STATIC_VISUAL)]
    )
    dynamic_frames = set(stream.frame_index[stream.provenance == int(Provenance.DYNAMIC)])
    assert static_frames | dynamic_frames == set(range(11))
    assert static_frames & dynamic_frames == set()


def test_stream_length_invariant_to_params():
    tl, params_a, plan = small_setup(seed=6)
    _, params_b, _ = small_setup(seed=7)
    s_a = tdc.assemble_tdc(tl, plan, params_a)
    s_b = tdc.assemble_tdc(tl, plan, params_b)
    assert len(s_a) == len(s_b)
    assert np.abs(s_a.tokens - s_b.tokens).max() > 0.0


def test_budget_matches_stream_walk_on_random_configs():
    rng = np.random.default_rng(8)
    for _ in range(25):
        frames = int(rng.integers(1, 16))
        tl = random_timeline(
            rng, frames,
            visual_tokens=int(rng.integers(2, 8)),
            audio_tokens=int(rng.integers(0, 5)),
            dim=6,
        )
        cfg = tdc.QFormerConfig(
            model_dim=8, heads=2, layers=1, queries=int(rng.integers(1, 3)),
            visual_dim=6, audio_dim=6, seed=int(rng.integers(0, 100)),
        )
        params = tdc.init_params(cfg)
        part = tdc.segment_scenes(tl, tdc.SegmenterConfig(max_scenes=int(rng.integers(1, 6)), tau=float(rng.uniform(0, 1))))
        plan = tdc.make_windows(part, int(rng.integers(1, 6)))
        stream = tdc.assemble_tdc(tl, plan, params)
        report = tdc.token_budget(tl, plan, cfg)
        assert report.per_window == walk_stream_counts(stream)
        assert report.total == len(stream)
        assert report.naive == frames * (tl.visual_tokens_per_frame + tl.audio_tokens_per_frame)
        assert report.ratio == pytest.approx(report.naive / report.total)


def test_budget_single_scene_defaults(single_scene_timeline):
    plan = tdc.make_windows(ScenePartition(60, ()), 8)
    report = tdc.token_budget(single_scene_timeline, plan, tdc.QFormerConfig())
    assert report.total == 2392
    assert report.naive == 11640
    assert report.ratio == pytest.approx(4.87, abs=0.01)


def test_no_audio_reduces_window_counts_by_fifty(default_params):
    tl = tdc.synth_generate(tdc.SynthSpec(seed=4, frames=16))
    no_audio = tdc.VideoTimeline(
        tl.visual_tokens, np.zeros((16, 0, 32), dtype=np.float32), tl.descriptors
    )
    plan = tdc.make_windows(ScenePartition(16, ()), 8)
    with_audio = tdc.token_budget(tl, plan, default_params.cfg)
    without = tdc.token_budget(no_audio, plan, default_params.cfg)
    assert [a - b for a, b in zip(with_audio.per_window, without.per_window)] == [50, 50]
    stream = tdc.assemble_tdc(no_audio, plan, default_params)
    assert len(stream) == without.total


def test_more_queries_strictly_increase_budget(single_scene_timeline):
    plan = tdc.make_windows(ScenePartition(60, ()), 8)
    k16 = tdc.token_budget(single_scene_timeline, plan, tdc.QFormerConfig(queries=16))
    k32 = tdc.token_budget(single_scene_timeline, plan, tdc.QFormerConfig(queries=32))
    for a, b, w in zip(k16.per_window, k32.per_window, plan.windows):
        assert b - a == len(w.dynamic_frames) * 16


def test_assemble_does_not_copy_the_timeline_to_float64():
    # many tokens per frame and one long window per scene: the stream is small,
    # so a whole-timeline float64 copy would dominate the peak
    frames, tokens = 64, 1024
    tl = random_timeline(np.random.default_rng(0), frames, visual_tokens=tokens, audio_tokens=4, dim=8)
    params = tdc.init_params(
        tdc.QFormerConfig(model_dim=16, heads=2, layers=1, queries=4, visual_dim=8, audio_dim=8)
    )
    plan = tdc.make_windows(ScenePartition(frames, (frames // 2,)), frames)
    tracemalloc.start()
    try:
        tdc.assemble_tdc(tl, plan, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float64_visual = tl.visual_tokens.size * 8
    assert peak < float64_visual, f"peak {peak} bytes, float64 visual copy {float64_visual}"


def test_plan_timeline_mismatch():
    tl, params, _ = small_setup(frames=9)
    plan = tdc.make_windows(ScenePartition(5, ()), 4)
    with pytest.raises(ShapeError):
        tdc.assemble_tdc(tl, plan, params)


@pytest.mark.parametrize("window", [1, 4], ids=["static-only", "with-dynamic"])
@pytest.mark.parametrize("which", ["visual", "audio"])
def test_assemble_rejects_frame_dims_the_config_does_not_match(which, window):
    # windows of length 1 have no dynamic frames: the static block meets the check alone
    tl, _, _ = small_setup()  # both timeline dims are 8
    cfg = tdc.QFormerConfig(model_dim=16, heads=2, layers=1, queries=3, visual_dim=8, audio_dim=8)
    params = tdc.init_params(replace(cfg, **{f"{which}_dim": 5}))
    plan = tdc.make_windows(ScenePartition(9, (4,)), window)
    with pytest.raises(ShapeError, match=f"^{which} dim 8 does not match config 5$"):
        tdc.assemble_tdc(tl, plan, params)


def test_static_block_is_the_projected_static_frame():
    tl, params, plan = small_setup()
    stream = tdc.assemble_tdc(tl, plan, params)
    for code, tokens, proj in (
        (Provenance.STATIC_VISUAL, tl.visual_tokens, params["visual_proj"]),
        (Provenance.STATIC_AUDIO, tl.audio_tokens, params["audio_proj"]),
    ):
        rows = stream.provenance == int(code)
        expected = np.concatenate([tokens[w.static_frame].astype(np.float64) @ proj for w in plan.windows])
        assert np.array_equal(stream.tokens[rows], expected)


def test_stream_file_round_trip(tmp_path):
    tl, params, plan = small_setup()
    stream = tdc.assemble_tdc(tl, plan, params)
    path = tmp_path / "s.tdcs"
    tdc.write_stream(stream, path)
    assert path.read_bytes()[:4] == b"TDCS"
    tokens, prov = tdc.read_stream(path)
    assert tokens.shape == stream.tokens.shape
    np.testing.assert_array_equal(prov, stream.provenance)
    np.testing.assert_array_equal(tokens, stream.tokens.astype(np.float32))


def stream_of(tokens):
    """A hand-built stream of the rows of ``tokens``, frame i on row i."""
    rows = len(tokens)
    return tdc.TDCStream(
        tokens=tokens,
        provenance=np.full(rows, Provenance.DYNAMIC, dtype=np.uint8),
        frame_index=np.arange(rows, dtype=np.int32),
        window_index=np.zeros(rows, dtype=np.int32),
    )


def test_stream_of_more_than_two_chunks_round_trips(tmp_path):
    # two whole row chunks and a partial third
    stream = stream_of(np.random.default_rng(0).standard_normal((2 * compressor.CHUNK_ROWS + 37, 3)))
    path = tmp_path / "s.tdcs"
    tdc.write_stream(stream, path)
    tokens, prov = tdc.read_stream(path)
    assert tokens.tobytes() == stream.tokens.astype(np.float32).tobytes()
    np.testing.assert_array_equal(prov, stream.provenance)


def test_overflow_in_the_last_chunk_is_refused_when_the_stream_is_made():
    tokens = np.random.default_rng(0).standard_normal((2 * compressor.CHUNK_ROWS + 37, 3))
    row = len(tokens) - 2
    tokens[row, 1] = -1e39
    with pytest.raises(NumericError, match=f"^stream token {row} from frame {row} overflows float32$"):
        stream_of(tokens)


@pytest.mark.parametrize(
    "bad, problem",
    [(np.nan, "is not finite"), (-np.inf, "is not finite"), (1e39, "overflows float32"),
     (FLOAT32_OVERFLOW, "overflows float32"), (-FLOAT32_OVERFLOW, "overflows float32")],
    ids=["nan", "-inf", "1e39", "limit", "-limit"],
)
def test_a_token_past_float32_range_is_refused_when_the_stream_is_made(bad, problem):
    tokens = np.ones((5, 3))
    tokens[3, 2] = bad
    with pytest.raises(NumericError, match=f"^stream token 3 from frame 3 {problem}$"):
        stream_of(tokens)


def test_the_largest_token_below_the_float32_limit_is_kept(tmp_path):
    top = np.nextafter(FLOAT32_OVERFLOW, 0.0)
    stream = stream_of(np.array([[top, -top, 0.0]]))
    path = tmp_path / "s.tdcs"
    tdc.write_stream(stream, path)
    tokens, _ = tdc.read_stream(path)
    big = np.finfo(np.float32).max
    assert stream.tokens.tolist() == [[top, -top, 0.0]] and tokens.tolist() == [[big, -big, 0.0]]


@pytest.mark.parametrize("name", ["tokens", "provenance", "frame_index", "window_index"])
def test_a_stream_freezes_its_arrays_in_place(name):
    tl, params, plan = small_setup()
    with pytest.raises(ValueError, match="read-only"):
        getattr(tdc.assemble_tdc(tl, plan, params), name)[0] = 0
    tokens = np.ones((2, 3))
    assert stream_of(tokens).tokens is tokens and not tokens.flags.writeable


def traced(fn):
    """fn()'s result and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# what a call holds besides its arrays: frames, iterators, an open file's buffer
# and the small objects that CPython keeps in its free lists; bounded whatever
# the stream's size (at most about 30 KiB measured)
CALL_SLACK = 64 << 10


@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(1, 48),
    visual_tokens=st.integers(1, 5),
    audio_tokens=st.integers(0, 4),
    visual_dim=st.integers(1, 5),
    audio_dim=st.integers(1, 5),
    heads=st.integers(1, 2),
    head_dim=st.integers(1, 4),
    layers=st.integers(1, 2),
    queries=st.integers(1, 4),
    query_type=st.sampled_from(qformer.QUERY_TYPES),
    text_on=st.booleans(),
    window=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
# many small frames: a block list and its vstack copy each outweigh the stream
@example(
    frames=3000, visual_tokens=1, audio_tokens=0, visual_dim=1, audio_dim=1, heads=1, head_dim=1, layers=1,
    queries=1, query_type="avgpool", text_on=False, window=8, seed=0,
)
# a stream of 9,500 rows and 0.7 MB: any whole copy of it outweighs the allowance
@example(
    frames=2000, visual_tokens=5, audio_tokens=4, visual_dim=3, audio_dim=2, heads=2, head_dim=4, layers=2,
    queries=4, query_type="learned", text_on=True, window=8, seed=1,
)
def test_assemble_and_write_hold_the_stream_plus_one_chunk_and_one_window(
    tmp_path_factory, frames, visual_tokens, audio_tokens, visual_dim, audio_dim, heads, head_dim, layers,
    queries, query_type, text_on, window, seed,
):
    rng = np.random.default_rng(seed)
    tl = tdc.VideoTimeline(
        rng.standard_normal((frames, visual_tokens, visual_dim)).astype(np.float32),
        rng.standard_normal((frames, audio_tokens, audio_dim)).astype(np.float32),
        rng.standard_normal((frames, 2)).astype(np.float32),
    )
    # avgpool pools the static frame's visual tokens into K queries, so K <= m_v there
    k = min(queries, visual_tokens) if query_type == "avgpool" else queries
    d = heads * head_dim
    params = tdc.init_params(tdc.QFormerConfig(
        model_dim=d, heads=heads, layers=layers, queries=k, visual_dim=visual_dim, audio_dim=audio_dim,
        query_type=query_type, text_conditioning=text_on, seed=seed,
    ))
    cuts = rng.choice(np.arange(1, frames), size=min(frames - 1, int(rng.integers(0, 6))), replace=False)
    plan = tdc.make_windows(ScenePartition(frames, tuple(sorted(int(c) for c in cuts))), window)
    plan.windows  # the plan's own windows are not the call's to hold
    text = tdc.tokenize_text("where is the ball") if text_on else None

    # one window's working set: its static frame projected, its queries and
    # one frame's forward, all held at once (this also warms any cache)
    v, a = tl.visual_tokens[0], tl.audio_tokens[0]
    _, window_set = traced(lambda: (
        qformer.project(params, v, a),
        (window_queries := qformer.build_queries(params, v, text)),
        qformer.forward(params, window_queries, v, a)[0],
    ))
    # one row chunk as the checks scan it: its float64 magnitudes, their mask and the row mask
    chunk = compressor.CHUNK_ROWS * (9 * d + 1)

    stream, peak = traced(lambda: tdc.assemble_tdc(tl, plan, params, text=text))
    stream_bytes = sum(x.nbytes for x in (stream.tokens, stream.provenance, stream.frame_index, stream.window_index))
    allowance = chunk + window_set + CALL_SLACK
    assert peak <= stream_bytes + allowance, (
        f"assemble_tdc peak {peak} for a {stream_bytes}-byte stream: {peak - stream_bytes} over it, allowed {allowance}"
    )

    path = tmp_path_factory.mktemp("bound") / "s.tdcs"
    _, peak = traced(lambda: tdc.write_stream(stream, path))
    assert peak <= chunk + CALL_SLACK, f"write_stream peak {peak}, allowed {chunk + CALL_SLACK}"


def test_a_long_window_holds_no_more_than_one_stack_of_frames():
    # one scene, so that a window of 200 frames runs 199 dynamic frames as 25 stacks
    tl = tdc.synth_generate(tdc.SynthSpec(seed=5, frames=400))
    params = tdc.init_params(tdc.QFormerConfig(text_conditioning=True))
    text = tdc.tokenize_text("where is the ball")

    def working_set(window):
        plan = tdc.make_windows(ScenePartition(400, ()), window)
        stream, peak = traced(lambda: tdc.assemble_tdc(tl, plan, params, text=text))
        return peak - sum(x.nbytes for x in (stream.tokens, stream.provenance, stream.frame_index, stream.window_index))

    one_stack = working_set(compressor.STACK_FRAMES + 1)
    long = working_set(200)
    assert long <= 1.25 * one_stack, f"window 200 holds {long} bytes past its stream, one full stack {one_stack}"
