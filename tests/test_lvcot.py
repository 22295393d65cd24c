import numpy as np
import pytest

import tdc
from tdc import kernels
from tdc.compressor import Provenance
from tdc.errors import ArgumentError, NumericError, OrchestrationError


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


def test_split_spans_exact_division():
    assert kernels.contiguous_groups(90, 3) == ((0, 30), (30, 60), (60, 90))


def test_split_spans_larger_first():
    assert kernels.contiguous_groups(10, 3) == ((0, 4), (4, 7), (7, 10))


def test_split_spans_single_segment():
    assert kernels.contiguous_groups(7, 1) == ((0, 7),)


def test_split_spans_rejects_more_segments_than_seconds():
    with pytest.raises(ArgumentError):
        kernels.contiguous_groups(2, 3)
    with pytest.raises(ArgumentError):
        kernels.contiguous_groups(5, 0)


@pytest.mark.parametrize("seconds,segments", [(10, 3), (17, 4), (99, 7), (5, 5)])
def test_split_spans_partition_properties(seconds, segments):
    spans = kernels.contiguous_groups(seconds, segments)
    assert spans[0][0] == 0 and spans[-1][1] == seconds
    sizes = [b - a for a, b in spans]
    assert all(s >= 1 for s in sizes)
    assert max(sizes) - min(sizes) <= 1
    for (_, b), (a, _) in zip(spans, spans[1:]):
        assert b == a


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
