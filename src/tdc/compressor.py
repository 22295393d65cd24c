"""Stream assembly: windowing within scenes, static-token retention,
per-frame query compression, separator insertion, and exact token budgets.

Within every window the emitted order is: the static frame's projected
visual tokens, its projected audio tokens, one separator token, then K
compressed tokens per dynamic frame in frame order.  Windows follow
timeline order; no separator is inserted between windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import qformer
from .binio import ByteReader, ByteWriter
from .errors import ArgumentError, NumericError, ShapeError
from .segmenter import ScenePartition
from .timeline import InstructionTokens, VideoTimeline

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
    scene_index: int
    static_frame: int
    dynamic_frames: tuple[int, ...]

    @property
    def frame_count(self) -> int:
        return 1 + len(self.dynamic_frames)


@dataclass(frozen=True)
class WindowPlan:
    frame_count: int
    window_length: int
    windows: tuple[Window, ...]


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
class BudgetReport:
    per_window: tuple[int, ...]
    total: int
    naive: int
    ratio: float


def make_windows(partition: ScenePartition, window_length: int = DEFAULT_WINDOW) -> WindowPlan:
    """Tile each scene with consecutive windows; the last may run short."""
    if window_length < 1:
        raise ArgumentError(f"window length must be >= 1, got {window_length}")
    windows = []
    for scene_index, (start, stop) in enumerate(partition.scenes):
        for w_start in range(start, stop, window_length):
            w_stop = min(w_start + window_length, stop)
            windows.append(
                Window(scene_index, w_start, tuple(range(w_start + 1, w_stop)))
            )
    return WindowPlan(partition.frame_count, window_length, tuple(windows))


def _window_token_count(n_frames: int, visual_tokens: int, audio_tokens: int, k: int) -> int:
    return visual_tokens + audio_tokens + 1 + (n_frames - 1) * k


def assemble_tdc(
    tl: VideoTimeline,
    plan: WindowPlan,
    params: qformer.QFormerParams,
    text: InstructionTokens | None = None,
) -> TDCStream:
    """Build the full compressed stream for a planned timeline.

    Raises NumericError, naming the first frame, if any token is not finite.
    """
    cfg = params.cfg
    if plan.frame_count != tl.frame_count:
        raise ShapeError(
            f"plan covers {plan.frame_count} frames, timeline has {tl.frame_count}"
        )
    visual = tl.visual_tokens.astype(np.float64)
    audio = tl.audio_tokens.astype(np.float64)
    if visual.shape[2] != cfg.visual_dim:
        raise ShapeError(f"visual dim {visual.shape[2]} does not match config {cfg.visual_dim}")
    if audio.shape[1] > 0 and audio.shape[2] != cfg.audio_dim:
        raise ShapeError(f"audio dim {audio.shape[2]} does not match config {cfg.audio_dim}")

    w_v = params["visual_proj"]
    w_a = params["audio_proj"]
    sep = params["sep"]

    chunks: list[np.ndarray] = []
    prov: list[np.ndarray] = []
    frames: list[np.ndarray] = []
    windows: list[np.ndarray] = []

    def emit(block: np.ndarray, code: Provenance, frame: int, window: int) -> None:
        n = block.shape[0]
        chunks.append(block)
        prov.append(np.full(n, int(code), dtype=np.uint8))
        frames.append(np.full(n, frame, dtype=np.int32))
        windows.append(np.full(n, window, dtype=np.int32))

    # a non-finite input is reported once, by the stream check below
    with np.errstate(invalid="ignore", over="ignore"):
        for w_idx, window in enumerate(plan.windows):
            s = window.static_frame
            queries = qformer.build_queries(params, visual[s])
            emit(visual[s] @ w_v, Provenance.STATIC_VISUAL, s, w_idx)
            if audio.shape[1] > 0:
                emit(audio[s] @ w_a, Provenance.STATIC_AUDIO, s, w_idx)
            emit(sep.copy(), Provenance.SEP, -1, w_idx)
            for f in window.dynamic_frames:
                out = qformer.forward(params, queries, visual[f], audio[f], text=text)
                emit(out, Provenance.DYNAMIC, f, w_idx)

    stream = TDCStream(
        tokens=np.vstack(chunks),
        provenance=np.concatenate(prov),
        frame_index=np.concatenate(frames),
        window_index=np.concatenate(windows),
    )
    if not np.isfinite(stream.tokens).all():
        row = int(np.flatnonzero(~np.isfinite(stream.tokens).all(axis=1))[0])
        frame = int(stream.frame_index[row])
        where = "the separator" if frame < 0 else f"frame {frame}"
        raise NumericError(f"stream token {row} from {where} is not finite")
    return stream


def token_budget(tl: VideoTimeline, plan: WindowPlan, cfg: qformer.QFormerConfig) -> BudgetReport:
    """Exact per-window and total token counts versus the dense baseline."""
    m_v = tl.visual_tokens_per_frame
    m_a = tl.audio_tokens_per_frame
    per_window = tuple(
        _window_token_count(w.frame_count, m_v, m_a, cfg.queries) for w in plan.windows
    )
    total = sum(per_window)
    naive = tl.frame_count * (m_v + m_a)
    return BudgetReport(per_window=per_window, total=total, naive=naive, ratio=naive / total)


def write_stream(stream: TDCStream, path) -> None:
    """Serialize the token matrix with a one-byte-per-token provenance channel."""
    w = ByteWriter()
    w.raw(STREAM_MAGIC)
    w.u32(STREAM_VERSION)
    w.u32(len(stream))
    w.u32(stream.tokens.shape[1])
    w.f32_array(stream.tokens)
    w.raw(stream.provenance.astype(np.uint8).tobytes())
    Path(path).write_bytes(w.getvalue())


def read_stream(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (tokens float32 (n, dim), provenance uint8 (n,))."""
    r = ByteReader(Path(path).read_bytes())
    r.expect_magic(STREAM_MAGIC)
    r.expect_version(STREAM_VERSION)
    count = r.u32("token count")
    dim = r.u32("token dim")
    tokens = r.f32_array(count * dim, "token payload").reshape(count, dim)
    prov = np.frombuffer(r.take(count, "provenance payload"), dtype=np.uint8)
    r.expect_end()
    return tokens, prov
