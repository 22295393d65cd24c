"""Per-second multimodal token timelines, a binary container, and synthetic data.

A timeline holds, for each of T seconds (one frame per second): a visual
token matrix, an audio token matrix, and a single descriptor vector used
only for inter-frame similarity.  Token data lives in float32 (the storage
dtype); numeric modules upcast to float64 on entry.

TDCF container layout (all integers little-endian):

    magic    4 bytes  b"TDCF"
    version  u32      1
    frames   u32      T
    three streams in fixed order (visual, audio, descriptor), each:
        tag      u8   0 = visual, 1 = audio, 2 = descriptor
        tokens   u32  rows per frame (1 for the descriptor stream)
        dim      u32
        data     T * tokens * dim float32, row-major
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import ByteReader, ByteWriter
from .errors import ArgumentError, FormatError, ShapeError

MAGIC = b"TDCF"
VERSION = 1
VOCAB_SIZE = 1024

# tokens-per-frame defaults for the dense 1-fps encoding
VISUAL_TOKENS_PER_FRAME = 144
AUDIO_TOKENS_PER_FRAME = 50
DEFAULT_DIM = 32
DEFAULT_NOISE = 0.01


@dataclass(frozen=True)
class InstructionTokens:
    """Hashed instruction-text token ids, vocab [0, 1024)."""

    ids: tuple[int, ...] = ()

    def __post_init__(self):
        for i in self.ids:
            if not 0 <= i < VOCAB_SIZE:
                raise ArgumentError(f"token id {i} outside [0, {VOCAB_SIZE})")

    def __len__(self) -> int:
        return len(self.ids)


def tokenize_text(s: str) -> InstructionTokens:
    """Deterministically hash whitespace-split words into [0, 1024)."""
    ids = tuple(zlib.crc32(w.encode("utf-8")) % VOCAB_SIZE for w in s.split())
    return InstructionTokens(ids)


@dataclass(frozen=True, eq=False)
class VideoTimeline:
    """Immutable per-second token data for a 1-fps video of T seconds."""

    visual_tokens: np.ndarray  # (T, M_v, D_v) float32
    audio_tokens: np.ndarray  # (T, M_a, D_a) float32
    descriptors: np.ndarray  # (T, D_d) float32

    def __post_init__(self):
        for name in ("visual_tokens", "audio_tokens", "descriptors"):
            arr = getattr(self, name)
            if arr.dtype != np.float32:
                object.__setattr__(self, name, arr.astype(np.float32))
        v, a, d = self.visual_tokens, self.audio_tokens, self.descriptors
        if v.ndim != 3 or a.ndim != 3 or d.ndim != 2:
            raise ShapeError(
                f"expected visual (T,M,D), audio (T,M,D), descriptors (T,D); got "
                f"{v.shape}, {a.shape}, {d.shape}"
            )
        if not (v.shape[0] == a.shape[0] == d.shape[0]):
            raise ShapeError(
                f"frame counts differ: visual {v.shape[0]}, audio {a.shape[0]}, "
                f"descriptors {d.shape[0]}"
            )
        if v.shape[0] < 1:
            raise ArgumentError("timeline must contain at least one frame")
        for name in ("visual_tokens", "audio_tokens", "descriptors"):
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def frame_count(self) -> int:
        return self.visual_tokens.shape[0]

    @property
    def visual_tokens_per_frame(self) -> int:
        return self.visual_tokens.shape[1]

    @property
    def audio_tokens_per_frame(self) -> int:
        return self.audio_tokens.shape[1]

    def slice(self, start: int, stop: int) -> "VideoTimeline":
        """Sub-timeline over frames [start, stop)."""
        if not 0 <= start < stop <= self.frame_count:
            raise ArgumentError(
                f"slice [{start}, {stop}) outside [0, {self.frame_count})"
            )
        return VideoTimeline(
            self.visual_tokens[start:stop],
            self.audio_tokens[start:stop],
            self.descriptors[start:stop],
        )


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic timeline with planted scene cuts."""

    seed: int = 0
    frames: int = 60
    boundaries: tuple[int, ...] = ()
    visual_tokens: int = VISUAL_TOKENS_PER_FRAME
    audio_tokens: int = AUDIO_TOKENS_PER_FRAME
    visual_dim: int = DEFAULT_DIM
    audio_dim: int = DEFAULT_DIM
    descriptor_dim: int = DEFAULT_DIM
    noise: float = DEFAULT_NOISE


def _scene_of_frame(boundaries: tuple[int, ...], t: int) -> int:
    return int(np.searchsorted(np.asarray(boundaries), t, side="right"))


def _descriptor_centers(rng: np.random.Generator, n_scenes: int, dim: int) -> np.ndarray:
    """Unit centers, resampled so adjacent scenes stay well separated.

    Keeps |cos| between consecutive centers below 0.3 so that planted cuts
    sit far below any sensible similarity threshold.
    """
    centers = np.empty((n_scenes, dim))
    for s in range(n_scenes):
        for _ in range(1000):
            c = rng.standard_normal(dim)
            c /= np.linalg.norm(c)
            if s == 0 or abs(float(c @ centers[s - 1])) <= 0.3:
                break
        centers[s] = c
    return centers


def synth_generate(spec: SynthSpec) -> VideoTimeline:
    """Generate a timeline with planted scene structure, deterministic per recipe."""
    t_total = spec.frames
    if t_total < 1:
        raise ArgumentError(f"frames must be >= 1, got {t_total}")
    bounds = tuple(spec.boundaries)
    if list(bounds) != sorted(set(bounds)):
        raise ArgumentError(f"boundaries must be strictly increasing, got {bounds}")
    for b in bounds:
        if not 0 < b < t_total:
            raise ArgumentError(f"boundary {b} outside (0, {t_total})")
    n_scenes = len(bounds) + 1

    rng = np.random.default_rng(spec.seed)
    centers_d = _descriptor_centers(rng, n_scenes, spec.descriptor_dim)

    centers_v = rng.standard_normal((n_scenes, spec.visual_dim))
    centers_a = rng.standard_normal((n_scenes, spec.audio_dim))
    token_offsets_v = 0.5 * rng.standard_normal((spec.visual_tokens, spec.visual_dim))
    token_offsets_a = 0.5 * rng.standard_normal((spec.audio_tokens, spec.audio_dim))

    visual = np.empty((t_total, spec.visual_tokens, spec.visual_dim))
    audio = np.empty((t_total, spec.audio_tokens, spec.audio_dim))
    desc = np.empty((t_total, spec.descriptor_dim))
    for t in range(t_total):
        s = _scene_of_frame(bounds, t)
        visual[t] = centers_v[s] + token_offsets_v + spec.noise * rng.standard_normal(
            (spec.visual_tokens, spec.visual_dim)
        )
        audio[t] = centers_a[s] + token_offsets_a + spec.noise * rng.standard_normal(
            (spec.audio_tokens, spec.audio_dim)
        )
        desc[t] = centers_d[s] + spec.noise * rng.standard_normal(spec.descriptor_dim)

    return VideoTimeline(
        visual.astype(np.float32), audio.astype(np.float32), desc.astype(np.float32)
    )


def _write_stream(w: ByteWriter, tag: int, data: np.ndarray) -> None:
    frames = data.shape[0]
    tokens = 1 if data.ndim == 2 else data.shape[1]
    dim = data.shape[-1]
    w.u8(tag)
    w.u32(tokens)
    w.u32(dim)
    w.f32_array(data.reshape(frames * tokens, dim))


def write_tdcf(tl: VideoTimeline, path) -> None:
    """Serialize a timeline; read_tdcf(write_tdcf(tl)) is bitwise identical."""
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u32(tl.frame_count)
    _write_stream(w, 0, tl.visual_tokens)
    _write_stream(w, 1, tl.audio_tokens)
    _write_stream(w, 2, tl.descriptors)
    Path(path).write_bytes(w.getvalue())


def _read_stream(r: ByteReader, expected_tag: int, frames: int, what: str) -> np.ndarray:
    tag_offset = r.offset
    tag = r.u8(f"{what} tag")
    if tag != expected_tag:
        raise FormatError(f"expected stream tag {expected_tag} ({what}), found {tag}", tag_offset)
    tokens = r.u32(f"{what} tokens-per-frame")
    dim = r.u32(f"{what} dim")
    flat = r.f32_array(frames * tokens * dim, f"{what} payload")
    if expected_tag == 2:
        if tokens != 1:
            raise FormatError(f"descriptor stream must have 1 token per frame, found {tokens}", tag_offset)
        return flat.reshape(frames, dim)
    return flat.reshape(frames, tokens, dim)


def read_tdcf(path) -> VideoTimeline:
    """Parse a TDCF file, raising a distinct error per malformation."""
    r = ByteReader(Path(path).read_bytes())
    r.expect_magic(MAGIC)
    r.expect_version(VERSION)
    frames_offset = r.offset
    frames = r.u32("frame count")
    if frames < 1:
        raise FormatError(f"frame count must be >= 1, found {frames}", frames_offset)
    visual = _read_stream(r, 0, frames, "visual")
    audio = _read_stream(r, 1, frames, "audio")
    desc = _read_stream(r, 2, frames, "descriptor")
    r.expect_end()
    return VideoTimeline(visual, audio, desc)
