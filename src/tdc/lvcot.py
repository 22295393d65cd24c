"""Training-free chunked question answering over long timelines.

The video is split into M time-equivalent spans.  Each span is compressed
and summarized by the answerer against the question; the final call sees
the whole-video stream plus every interval-tagged intermediate answer.
Spans are hard boundaries: scene segmentation runs within each span
independently.  The final call re-encodes the full video rather than
reusing cached segment streams.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .compressor import DEFAULT_WINDOW, TDCStream, assemble_tdc, make_windows
from .errors import NumericError, OrchestrationError
from .kernels import contiguous_groups
from .qformer import QFormerParams
from .segmenter import SegmenterConfig, segment_scenes
from .timeline import InstructionTokens, VideoTimeline, tokenize_text

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
        content = zlib.crc32(np.ascontiguousarray(stream.tokens, dtype="<f8").tobytes())
        return (
            f"echo[{len(stream)} tokens|{len(prompt)} chars|"
            f"p{zlib.crc32(prompt.encode('utf-8')):08x}|s{content:08x}]"
        )


@dataclass(frozen=True)
class LVCoTConfig:
    segments: int = DEFAULT_SEGMENTS


@dataclass(frozen=True)
class CompressionContext:
    """Everything needed to turn a timeline slice into a token stream."""

    params: QFormerParams
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    window_length: int = DEFAULT_WINDOW


@dataclass(frozen=True)
class LVCoTTrace:
    spans: tuple[tuple[int, int], ...]
    segment_prompts: tuple[str, ...]
    segment_answers: tuple[str, ...]
    final_prompt: str
    final_answer: str


def interval_tag(start: int, stop: int) -> str:
    return f"[{start}s-{stop}s]:"


def _stream_for(tl: VideoTimeline, ctx: CompressionContext, text: InstructionTokens) -> TDCStream:
    partition = segment_scenes(tl, ctx.segmenter)
    plan = make_windows(partition, ctx.window_length)
    return assemble_tdc(tl, plan, ctx.params, text=text)


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

    prompts: list[str] = []
    answers: list[str] = []
    for i, (start, stop) in enumerate(spans):
        prompt = SEGMENT_TEMPLATE.format(question=question)
        try:
            stream = _stream_for(tl.slice(start, stop), ctx, text)
        except NumericError as exc:
            raise NumericError(
                f"segment {i} ({start}s-{stop}s, frames counted from its start): {exc}"
            ) from exc
        try:
            answers.append(answerer.answer(prompt, stream))
        except OrchestrationError as exc:
            raise OrchestrationError(f"segment {i} ({start}s-{stop}s) failed: {exc}") from exc
        prompts.append(prompt)

    notes = [
        f"{interval_tag(start, stop)} {answer}"
        for (start, stop), answer in zip(spans, answers)
    ]
    final_prompt = "\n".join(notes + [FINAL_TEMPLATE.format(question=question)])
    full_stream = _stream_for(tl, ctx, text)
    try:
        final_answer = answerer.answer(final_prompt, full_stream)
    except OrchestrationError as exc:
        raise OrchestrationError(f"final call failed: {exc}") from exc

    return LVCoTTrace(
        spans=spans,
        segment_prompts=tuple(prompts),
        segment_answers=tuple(answers),
        final_prompt=final_prompt,
        final_answer=final_answer,
    )
