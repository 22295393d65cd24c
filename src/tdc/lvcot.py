"""Training-free chunked question answering over long timelines.

The video is split into M time-equivalent spans.  The answerer summarizes
each span's stream against the question; the final call sees the
whole-video stream plus every interval-tagged intermediate answer.  Every
stream comes from the caller's ``CompressionContext``, run on the span as
if it were a whole timeline, so spans are hard boundaries for scene
segmentation.  The whole-video stream takes each window that matches a
span window, the same static frame and stop, from that span's stream
instead of compressing it again; the streams are the same either way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .compressor import CompressionContext, TDCStream
from .errors import NumericError, OrchestrationError
from .kernels import contiguous_groups
from .timeline import VideoTimeline, tokenize_text

DEFAULT_SEGMENTS = 3
SEGMENT_TEMPLATE = "Summarize the information in this segment relevant to: {question}"
FINAL_TEMPLATE = "Answer the question using the whole video and the notes above: {question}"


class Answerer(Protocol):
    def answer(self, prompt: str, stream: TDCStream) -> str: ...


class MockAnswerer:
    """Returns scripted answers in call order; errors when the script runs out."""

    def __init__(self, script: list[str]):
        self._script = list(script)
        self.calls = 0

    def answer(self, prompt: str, stream: TDCStream) -> str:
        if self.calls >= len(self._script):
            raise OrchestrationError(
                f"mock answer script exhausted after {len(self._script)} answers"
            )
        out = self._script[self.calls]
        self.calls += 1
        return out


class EchoAnswerer:
    """Deterministic digest of the prompt and stream contents, for trace tests."""

    def answer(self, prompt: str, stream: TDCStream) -> str:
        content = zlib.crc32(np.ascontiguousarray(stream.tokens, dtype="<f8"))
        return (
            f"echo[{len(stream)} tokens|{len(prompt)} chars|"
            f"p{zlib.crc32(prompt.encode('utf-8')):08x}|s{content:08x}]"
        )


@dataclass(frozen=True)
class LVCoTConfig:
    segments: int = DEFAULT_SEGMENTS


@dataclass(frozen=True)
class LVCoTTrace:
    spans: tuple[tuple[int, int], ...]
    segment_answers: tuple[str, ...]
    final_prompt: str
    final_answer: str


def run_lvcot(
    tl: VideoTimeline,
    question: str,
    answerer: Answerer,
    cfg: LVCoTConfig,
    ctx: CompressionContext,
) -> LVCoTTrace:
    """Split, summarize each span, then answer over the whole video."""
    spans = contiguous_groups(tl.frame_count, cfg.segments)
    text = tokenize_text(question)
    prompt = SEGMENT_TEMPLATE.format(question=question)

    answers: list[str] = []
    reuse = {}  # each span window's token rows, read-only views, by its absolute (static frame, stop)
    for i, (start, stop) in enumerate(spans):
        try:
            plan, stream = ctx.compress(tl.slice(start, stop), text)
        except NumericError as exc:
            raise NumericError(f"segment {i} ({start}s-{stop}s, frames counted from its start): {exc}") from exc
        edges = np.searchsorted(stream.window_index, range(len(plan.windows) + 1))
        for w, a, b in zip(plan.windows, edges, edges[1:]):
            reuse[start + w.static_frame, start + w.stop] = stream.tokens[a:b]
        try:
            answers.append(answerer.answer(prompt, stream))
        except OrchestrationError as exc:
            raise OrchestrationError(f"segment {i} ({start}s-{stop}s) failed: {exc}") from exc

    notes = [f"[{start}s-{stop}s]: {answer}" for (start, stop), answer in zip(spans, answers)]
    final_prompt = "\n".join(notes + [FINAL_TEMPLATE.format(question=question)])
    _, full_stream = ctx.compress(tl, text, reuse=reuse)
    try:
        final_answer = answerer.answer(final_prompt, full_stream)
    except OrchestrationError as exc:
        raise OrchestrationError(f"final call failed: {exc}") from exc

    return LVCoTTrace(
        spans=spans,
        segment_answers=tuple(answers),
        final_prompt=final_prompt,
        final_answer=final_answer,
    )
