"""Stream assembly: window plans, static-token retention, per-frame query
compression, separator insertion, and exact token budgets.
``CompressionContext.compress`` is the one path from a timeline to a stream.
A window plan is its scene partition and window length; each window is a run
of frames, its static frame and then its dynamic frames.

Within every window the emitted order is: the static frame's projected
visual tokens, its projected audio tokens, one separator token, then K
compressed tokens per dynamic frame in frame order.  Windows follow
timeline order; no separator is inserted between windows.  A window builds
its queries once and compresses each dynamic frame with one
``qformer.forward``; a window without dynamic frames builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from . import qformer
from .binio import read_container, write_container
from .errors import ArgumentError, FormatError, NumericError, ShapeError
from .segmenter import SegmenterConfig, segment_scenes
from .timeline import InstructionTokens, ScenePartition, VideoTimeline

STREAM_MAGIC = b"TDCS"
STREAM_VERSION = 1
DEFAULT_WINDOW = 8


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

    @property
    def frame_count(self) -> int:
        return self.stop - self.static_frame


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
    """Ordered compressed token sequence with per-token provenance."""

    tokens: np.ndarray  # (n, model_dim) float64
    provenance: np.ndarray  # (n,) uint8, Provenance codes
    frame_index: np.ndarray  # (n,) int32, -1 for separators
    window_index: np.ndarray  # (n,) int32

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
    """Build the full compressed stream for a planned timeline.

    Raises NumericError, naming the first frame, if any token is not finite.
    """
    if plan.partition.frame_count != tl.frame_count:
        raise ShapeError(f"plan covers {plan.partition.frame_count} frames, timeline has {tl.frame_count}")
    # float32 frames: project and forward convert what they read
    visual, audio = tl.visual_tokens, tl.audio_tokens
    m_v = visual.shape[1]
    sep = params["sep"]

    blocks: list[np.ndarray] = []
    runs: list[tuple[int, int, int, int]] = []  # (window, frame, provenance, rows) in stream order

    # a non-finite input is reported once, by the stream check below
    with np.errstate(invalid="ignore", over="ignore"):
        for w, window in enumerate(plan.windows):
            s = window.static_frame
            static = qformer.project(params, visual[s], audio[s])
            blocks += [static, sep]
            runs += [(w, s, Provenance.STATIC_VISUAL, m_v), (w, s, Provenance.STATIC_AUDIO, len(static) - m_v)]
            runs.append((w, -1, Provenance.SEP, len(sep)))
            if window.dynamic_frames:
                queries = qformer.build_queries(params, visual[s], text)
            for f in window.dynamic_frames:
                blocks.append(qformer.forward(params, queries, visual[f], audio[f]))
                runs.append((w, f, Provenance.DYNAMIC, len(blocks[-1])))

    window_of, frame_of, code_of, rows = np.array(runs, dtype=np.int32).T
    stream = TDCStream(
        tokens=np.vstack(blocks),
        provenance=np.repeat(code_of.astype(np.uint8), rows),
        frame_index=np.repeat(frame_of, rows),
        window_index=np.repeat(window_of, rows),
    )
    _check_finite(stream.tokens, stream, "is not finite")
    return stream


def _check_finite(tokens: np.ndarray, stream: TDCStream, problem: str) -> None:
    """Raise NumericError naming the first of the stream's token rows that is not finite."""
    finite = np.isfinite(tokens).all(axis=1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        frame = int(stream.frame_index[row])
        where = "the separator" if frame < 0 else f"frame {frame}"
        raise NumericError(f"stream token {row} from {where} {problem}")


def token_budget(tl: VideoTimeline, plan: WindowPlan, cfg: qformer.QFormerConfig) -> BudgetReport:
    """Exact per-window and total token counts versus the dense baseline."""
    m_v = tl.visual_tokens_per_frame
    m_a = tl.audio_tokens_per_frame
    # static visual and audio, one separator, K per dynamic frame
    per_window = tuple(m_v + m_a + 1 + (w.frame_count - 1) * cfg.queries for w in plan.windows)
    total = sum(per_window)
    naive = tl.frame_count * (m_v + m_a)
    return BudgetReport(per_window=per_window, total=total, naive=naive, ratio=naive / total)


def write_stream(stream: TDCStream, path) -> None:
    """Serialize the token matrix with a one-byte-per-token provenance channel.

    Raises NumericError, and writes nothing, if a token overflows float32.
    """
    with np.errstate(over="ignore"):
        tokens = stream.tokens.astype("<f4")
    _check_finite(tokens, stream, "overflows float32")
    with write_container(path, STREAM_MAGIC, STREAM_VERSION) as w:
        w.u32(len(stream))
        w.u32(stream.tokens.shape[1])
        w.array(tokens, "<f4")
        w.array(stream.provenance, "u1")


def read_stream(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (tokens float32 (n, dim), provenance uint8 (n,))."""
    with read_container(path, STREAM_MAGIC, STREAM_VERSION) as r:
        count = r.u32("token count")
        dim = r.u32("token dim")
        tokens = r.array((count, dim), "<f4", "token payload")
        prov_at = r.offset
        prov = r.array((count,), "u1", "provenance payload")
        bad = np.flatnonzero(prov >= len(Provenance))
        if bad.size:
            at = int(bad[0])
            raise FormatError(f"token {at} has provenance code {prov[at]}, which names no Provenance", prov_at + at)
    return tokens, prov
