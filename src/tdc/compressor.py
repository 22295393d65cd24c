"""Stream assembly: window plans, static-token retention, stacked query
compression, separator insertion, and exact token budgets.
``CompressionContext.compress`` is the one path from a timeline to a stream.
A window plan is its scene partition and window length; each window is a run
of frames, its static frame and then its dynamic frames.

Within every window the emitted order is: the static frame's projected
visual tokens, its projected audio tokens, one separator token, then K
compressed tokens per dynamic frame in frame order.  Windows follow
timeline order; no separator is inserted between windows.  A window builds
its queries once and compresses its dynamic frames with one ``qformer.forward``
per run of at most ``STACK_FRAMES`` frames; a window without dynamic frames builds none.
The stream is one buffer of the rows ``token_budget`` counts, which a
checked ``QFormerParams`` fills exactly, block by block.  A ``TDCStream`` is
checked once, when it is made, against the float32 range of the TDCS file,
and then frozen; so ``write_stream`` only casts and writes it in row chunks,
and ``read_stream`` refuses a token that no stream holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from . import qformer
from .binio import FLOAT32_OVERFLOW, read_container, write_container
from .errors import ArgumentError, FormatError, NumericError, ShapeError
from .segmenter import SegmenterConfig, segment_scenes
from .timeline import InstructionTokens, ScenePartition, VideoTimeline

STREAM_MAGIC = b"TDCS"
STREAM_VERSION = 1
DEFAULT_WINDOW = 8
CHUNK_ROWS = 1024  # token rows checked, cast and written at a time
STACK_FRAMES = 8  # at most this many of a window's dynamic frames go through one qformer.forward


class Provenance(IntEnum):
    STATIC_VISUAL = 0
    STATIC_AUDIO = 1
    SEP = 2
    DYNAMIC = 3


@dataclass(frozen=True)
class Window:
    static_frame: int
    stop: int

    @property
    def dynamic_frames(self) -> range:
        return range(self.static_frame + 1, self.stop)

    def rows(self, m: int, k: int) -> int:
        """Stream rows: the static frame's m visual and audio tokens, one separator, K per dynamic frame."""
        return m + 1 + len(self.dynamic_frames) * k


@dataclass(frozen=True)
class WindowPlan:
    """A scene partition and a window length: each scene is tiled in order with
    windows of ``length`` frames, of which only its last may run short."""

    partition: ScenePartition
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ArgumentError(f"window length must be >= 1, got {self.length}")

    @cached_property
    def windows(self) -> tuple[Window, ...]:
        n = self.length
        return tuple(Window(s, min(s + n, stop)) for start, stop in self.partition.scenes for s in range(start, stop, n))


@dataclass(frozen=True, eq=False)
class TDCStream:
    """Ordered compressed token sequence with per-token provenance, refused with a NumericError
    naming the first row past float32 range; its four arrays are then frozen in place, not copied."""

    tokens: np.ndarray  # (n, model_dim) float64
    provenance: np.ndarray  # (n,) uint8, Provenance codes
    frame_index: np.ndarray  # (n,) int32, -1 for separators
    window_index: np.ndarray  # (n,) int32

    def __post_init__(self):
        for start in range(0, len(self), CHUNK_ROWS):
            ok = (np.abs(self.tokens[start : start + CHUNK_ROWS]) < FLOAT32_OVERFLOW).all(axis=1)
            if not ok.all():
                row = start + int(np.argmin(ok))
                frame = int(self.frame_index[row])
                where = "the separator" if frame < 0 else f"frame {frame}"
                problem = "is not finite" if not np.isfinite(self.tokens[row]).all() else "overflows float32"
                raise NumericError(f"stream token {row} from {where} {problem}")
        for arr in (self.tokens, self.provenance, self.frame_index, self.window_index):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class CompressionContext:
    """Everything needed to turn a timeline into a token stream."""

    params: qformer.QFormerParams
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    window_length: int = DEFAULT_WINDOW

    def compress(self, tl: VideoTimeline, text: InstructionTokens | None = None) -> tuple[WindowPlan, TDCStream]:
        """Cut the timeline into scenes, tile them with windows and assemble the stream."""
        plan = make_windows(segment_scenes(tl, self.segmenter), self.window_length)
        return plan, assemble_tdc(tl, plan, self.params, text=text)


@dataclass(frozen=True)
class BudgetReport:
    per_window: tuple[int, ...]
    total: int
    naive: int
    ratio: float


def make_windows(partition: ScenePartition, window_length: int = DEFAULT_WINDOW) -> WindowPlan:
    """The plan of ``partition`` with windows of ``window_length`` frames."""
    return WindowPlan(partition, window_length)


def assemble_tdc(
    tl: VideoTimeline,
    plan: WindowPlan,
    params: qformer.QFormerParams,
    text: InstructionTokens | None = None,
) -> TDCStream:
    """Build the full compressed stream for a planned timeline, in one buffer of
    ``token_budget``'s total rows into which each block is written as it is made.

    Raises ShapeError if the plan and the timeline differ in frame count, and
    NumericError, naming the first frame, if a token is not finite or overflows float32.
    """
    if plan.partition.frame_count != tl.frame_count:
        raise ShapeError(f"plan covers {plan.partition.frame_count} frames, timeline has {tl.frame_count}")
    # float32 frames: project and forward convert what they read
    visual, audio = tl.visual_tokens, tl.audio_tokens
    n, d = token_budget(tl, plan, params.cfg).total, params.cfg.model_dim
    tokens, provenance, frames, windows = np.empty((n, d)), np.empty(n, np.uint8), np.empty(n, np.int32), np.empty(n, np.int32)
    at = 0
    # a non-finite input is reported once, by the stream that the rows make
    with np.errstate(invalid="ignore", over="ignore"):
        for w, window in enumerate(plan.windows):
            for frame, code, block in _window_blocks(params, visual, audio, window, text):
                rows = slice(at, at + len(block))
                tokens[rows], provenance[rows] = block, code
                frames[rows], windows[rows] = frame, w
                at = rows.stop
    return TDCStream(tokens, provenance, frames, windows)


def _window_blocks(params, visual, audio, window: Window, text):
    """(frames, provenance, block) of each block of a window's rows, in stream order:
    a DYNAMIC block is one run of at most ``STACK_FRAMES`` frames, with each row's frame."""
    s, m_v, dynamic = window.static_frame, visual.shape[1], window.dynamic_frames
    static = qformer.project(params, visual[s], audio[s])
    yield s, Provenance.STATIC_VISUAL, static[:m_v]
    yield s, Provenance.STATIC_AUDIO, static[m_v:]
    yield -1, Provenance.SEP, params["sep"]
    if dynamic:
        queries = qformer.build_queries(params, visual[s], text)
    for run in (dynamic[i : i + STACK_FRAMES] for i in range(0, len(dynamic), STACK_FRAMES)):
        block = qformer.forward(params, queries, visual[run.start : run.stop], audio[run.start : run.stop])[0]
        yield np.repeat(run, block.shape[1]), Provenance.DYNAMIC, block.reshape(-1, block.shape[2])


def token_budget(tl: VideoTimeline, plan: WindowPlan, cfg: qformer.QFormerConfig) -> BudgetReport:
    """Exact per-window and total token counts versus the dense baseline."""
    m = tl.visual_tokens_per_frame + tl.audio_tokens_per_frame
    per_window = tuple(w.rows(m, cfg.queries) for w in plan.windows)
    total = sum(per_window)
    naive = tl.frame_count * m
    return BudgetReport(per_window=per_window, total=total, naive=naive, ratio=naive / total)


def write_stream(stream: TDCStream, path) -> None:
    """Serialize the token matrix with a one-byte-per-token provenance channel.

    A stream holds only tokens that float32 keeps finite, so the tokens are
    cast and written in row chunks with no check of their own.
    """
    with write_container(path, STREAM_MAGIC, STREAM_VERSION) as w:
        w.u32(len(stream))
        w.u32(stream.tokens.shape[1])
        for start in range(0, len(stream), CHUNK_ROWS):
            w.array(stream.tokens[start : start + CHUNK_ROWS], "<f4")
        w.array(stream.provenance, "u1")


def read_stream(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (tokens float32 (n, dim), provenance uint8 (n,)), refusing
    what no stream holds: a token that is not finite or an unknown provenance code."""
    with read_container(path, STREAM_MAGIC, STREAM_VERSION) as r:
        count = r.u32("token count")
        dim = r.u32("token dim")
        if count and not dim:  # such rows take no bytes, so any count would fit the file
            raise FormatError(f"{count} tokens of dim 0", r.offset - 4)
        tokens_at = r.offset
        tokens = r.array((count, dim), "<f4", "token payload")
        bad = np.flatnonzero(~np.isfinite(tokens))  # in float32, the same rule as a stream's
        if bad.size:
            at = int(bad[0])
            raise FormatError(f"token {at // dim} holds {tokens.flat[at]}, which is not finite", tokens_at + 4 * at)
        prov_at = r.offset
        prov = r.array((count,), "u1", "provenance payload")
        bad = np.flatnonzero(prov >= len(Provenance))
        if bad.size:
            at = int(bad[0])
            raise FormatError(f"token {at} has provenance code {prov[at]}, which names no Provenance", prov_at + at)
    return tokens, prov
