import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdc
from tdc import kernels, qformer
from tdc.compressor import Provenance
from tdc.errors import NumericError, OrchestrationError


class CountingEcho(tdc.EchoAnswerer):
    def __init__(self):
        self.calls = 0

    def answer(self, prompt, stream):
        self.calls += 1
        return super().answer(prompt, stream)


def small_context(seed=1, text_conditioning=False):
    cfg = tdc.QFormerConfig(
        model_dim=16, heads=2, layers=1, queries=3, visual_dim=8, audio_dim=8,
        text_conditioning=text_conditioning, seed=seed,
    )
    return tdc.CompressionContext(params=tdc.init_params(cfg), window_length=4)


def small_timeline(frames, boundaries=(), seed=0):
    return tdc.synth_generate(
        tdc.SynthSpec(
            seed=seed, frames=frames, boundaries=boundaries,
            visual_tokens=6, audio_tokens=4, dim=8,
        )
    )


class RecordingMock(tdc.MockAnswerer):
    def __init__(self, script):
        super().__init__(script)
        self.prompts = []

    def answer(self, prompt, stream):
        self.prompts.append(prompt)
        return super().answer(prompt, stream)


def test_golden_trace_with_mock_answerer():
    tl = small_timeline(90, boundaries=(30, 60), seed=9)
    mock = RecordingMock(["A", "B", "C", "D"])
    trace = tdc.run_lvcot(tl, "who scores first?", mock, tdc.LVCoTConfig(segments=3), small_context())
    assert trace.spans == ((0, 30), (30, 60), (60, 90))
    assert trace.segment_answers == ("A", "B", "C")
    assert trace.final_answer == "D"
    assert mock.calls == 4
    for tag in ("[0s-30s]: A", "[30s-60s]: B", "[60s-90s]: C"):
        assert tag in trace.final_prompt
    assert "who scores first?" in trace.final_prompt
    # every span goes with the same prompt, which asks the question; the last call gets the final prompt
    span_prompt, *rest = mock.prompts
    assert rest == [span_prompt, span_prompt, trace.final_prompt]
    assert "who scores first?" in span_prompt


def test_trace_is_deterministic():
    tl = small_timeline(30, seed=2)
    cfg = tdc.LVCoTConfig(segments=3)
    t1 = tdc.run_lvcot(tl, "q", tdc.EchoAnswerer(), cfg, small_context())
    t2 = tdc.run_lvcot(tl, "q", tdc.EchoAnswerer(), cfg, small_context())
    assert t1 == t2


def test_single_segment_has_one_reasoning_line():
    tl = small_timeline(12, seed=3)
    trace = tdc.run_lvcot(tl, "q", tdc.EchoAnswerer(), tdc.LVCoTConfig(segments=1), small_context())
    notes = [line for line in trace.final_prompt.splitlines() if line.startswith("[")]
    assert len(notes) == 1 and notes[0].startswith("[0s-12s]:")


def test_answerer_called_exactly_m_plus_one_times():
    tl = small_timeline(20, seed=4)
    echo = CountingEcho()
    tdc.run_lvcot(tl, "q", echo, tdc.LVCoTConfig(segments=4), small_context())
    assert echo.calls == 5


def test_exhausted_script_names_the_failing_call():
    tl = small_timeline(20, seed=5)
    with pytest.raises(OrchestrationError, match="segment 2"):
        tdc.run_lvcot(tl, "q", tdc.MockAnswerer(["A", "B"]), tdc.LVCoTConfig(segments=3), small_context())
    with pytest.raises(OrchestrationError, match="final"):
        tdc.run_lvcot(tl, "q", tdc.MockAnswerer(["A", "B", "C"]), tdc.LVCoTConfig(segments=3), small_context())


def test_mock_script_consumed_exactly():
    mock = tdc.MockAnswerer(["x", "y"])
    stream = None
    assert mock.answer("p", stream) == "x"
    assert mock.answer("p", stream) == "y"
    with pytest.raises(OrchestrationError):
        mock.answer("p", stream)


def test_segment_streams_cover_every_frame_once():
    tl = small_timeline(23, boundaries=(11,), seed=6)
    ctx = small_context()
    spans = kernels.contiguous_groups(tl.frame_count, 3)
    seen = []
    for start, stop in spans:
        _, stream = ctx.compress(tl.slice(start, stop))
        mask = stream.provenance != int(Provenance.SEP)
        seen.extend(start + f for f in set(stream.frame_index[mask]))
    assert sorted(seen) == list(range(23))


def test_nonfinite_stream_never_reaches_the_answerer():
    tl = small_timeline(12, seed=8)
    visual = tl.visual_tokens.copy()
    visual[9, 0, 0] = np.nan
    tl = tdc.VideoTimeline(visual, tl.audio_tokens, tl.descriptors)
    echo = CountingEcho()
    with pytest.raises(NumericError, match=r"segment 1 \(6s-12s.*frame 3 "):
        tdc.run_lvcot(tl, "q", echo, tdc.LVCoTConfig(segments=2), small_context())
    assert echo.calls == 1  # only the finite first span was answered


def test_zero_descriptor_names_its_segment_and_keeps_its_class():
    tl = small_timeline(12, seed=8)
    desc = tl.descriptors.copy()
    desc[9] = 0.0
    tl = tdc.VideoTimeline(tl.visual_tokens, tl.audio_tokens, desc)
    echo = CountingEcho()
    with pytest.raises(NumericError, match=r"^segment 1 \(6s-12s.*: frame 3 has a zero-norm descriptor$"):
        tdc.run_lvcot(tl, "q", echo, tdc.LVCoTConfig(segments=2), small_context())
    assert echo.calls == 1


def test_question_feeds_text_conditioning():
    tl = small_timeline(12, seed=7)
    cfg = tdc.LVCoTConfig(segments=2)
    plain = tdc.run_lvcot(tl, "q", tdc.EchoAnswerer(), cfg, small_context(text_conditioning=False))
    conditioned = tdc.run_lvcot(tl, "q", tdc.EchoAnswerer(), cfg, small_context(text_conditioning=True))
    # stream contents change under conditioning, stream sizes do not
    assert plain.final_answer != conditioned.final_answer
    assert plain.spans == conditioned.spans


class RecordingEcho(tdc.EchoAnswerer):
    """Keeps every stream it is asked about, and the first value of ``counter`` at each call."""

    def __init__(self, counter=(0,)):
        self.streams, self.computed, self._counter = [], [], counter

    def answer(self, prompt, stream):
        self.streams.append(stream)
        self.computed.append(self._counter[0])
        return super().answer(prompt, stream)


def assert_same_stream(got, want):
    for name in ("tokens", "provenance", "frame_index", "window_index"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    frames=st.integers(1, 24),
    window_length=st.integers(1, 10),
    k=st.integers(1, 3),
    query_type=st.sampled_from(qformer.QUERY_TYPES),
    text_on=st.booleans(),
)
def test_every_answerer_stream_equals_its_compression_run_alone(data, seed, frames, window_length, k, query_type, text_on):
    # the final stream reuses span windows; each stream must be the one its timeline gives alone
    cuts = tuple(c for c in range(1, frames) if data.draw(st.booleans(), label=f"cut at {c}"))
    segments = data.draw(st.integers(1, min(frames, 4)), label="segments")
    tl = tdc.synth_generate(tdc.SynthSpec(seed=seed, frames=frames, boundaries=cuts, visual_tokens=4, audio_tokens=2, dim=8))
    cfg = tdc.QFormerConfig(
        model_dim=8, heads=2, layers=1, queries=k, query_type=query_type,
        text_conditioning=text_on, visual_dim=8, audio_dim=8, seed=seed,
    )
    ctx = tdc.CompressionContext(params=tdc.init_params(cfg), window_length=window_length)
    question = "where does the dog run"
    text = tdc.tokenize_text(question)
    echo = RecordingEcho()
    trace = tdc.run_lvcot(tl, question, echo, tdc.LVCoTConfig(segments=segments), ctx)
    *span_streams, final = echo.streams
    assert len(span_streams) == len(trace.spans) == segments
    for (a, b), stream in zip(trace.spans, span_streams):
        assert_same_stream(stream, ctx.compress(tl.slice(a, b), text)[1])
    assert_same_stream(final, ctx.compress(tl, text)[1])


@pytest.fixture
def computed_windows(monkeypatch):
    """A counter of the windows compressed (one ``project`` each) and of ``forward`` calls, in that order."""
    count = [0, 0]
    project, forward = qformer.project, qformer.forward

    def counting_project(*args):
        count[0] += 1
        return project(*args)

    def counting_forward(*args):
        count[1] += 1
        return forward(*args)

    monkeypatch.setattr(qformer, "project", counting_project)
    monkeypatch.setattr(qformer, "forward", counting_forward)
    return count


def test_final_stream_computes_no_window_when_span_edges_are_scene_cuts(computed_windows):
    tl = small_timeline(30, boundaries=(10, 20), seed=9)
    ctx = small_context(text_conditioning=True)
    plan, alone = ctx.compress(tl, tdc.tokenize_text("q"))
    assert plan.partition.boundaries == (10, 20)
    computed_windows[:] = [0, 0]
    echo = RecordingEcho(computed_windows)
    tdc.run_lvcot(tl, "q", echo, tdc.LVCoTConfig(segments=3), ctx)
    # each span compressed its 3 windows; the final stream took all 9 from them
    assert echo.computed == [3, 6, 9, 9]
    assert computed_windows == [9, 9]
    assert_same_stream(echo.streams[-1], alone)
    # the reused windows live for one call: a second run, asked another question, computes
    # as many again, and its final stream holds none of the first run's rows
    again = RecordingEcho(computed_windows)
    tdc.run_lvcot(tl, "r", again, tdc.LVCoTConfig(segments=3), ctx)
    assert computed_windows == [18, 18]
    assert_same_stream(again.streams[-1], ctx.compress(tl, tdc.tokenize_text("r"))[1])


def test_a_window_over_every_span_matches_none_and_the_final_stream_is_unchanged(computed_windows):
    tl = small_timeline(12, seed=3)
    ctx = tdc.CompressionContext(params=small_context().params, window_length=12)
    plan, alone = ctx.compress(tl, tdc.tokenize_text("q"))
    assert [(w.static_frame, w.stop) for w in plan.windows] == [(0, 12)]
    computed_windows[:] = [0, 0]
    echo = RecordingEcho(computed_windows)
    tdc.run_lvcot(tl, "q", echo, tdc.LVCoTConfig(segments=3), ctx)
    # three span windows of 4 frames, then the one 12-frame window, computed: 11 frames in 2 stacks
    assert echo.computed == [1, 2, 3, 4]
    assert computed_windows == [4, 3 + 2]
    assert_same_stream(echo.streams[-1], alone)
