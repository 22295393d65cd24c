"""Per-second multimodal token timelines, their scene partitions, a binary
container, and synthetic data.

A timeline holds, for each of T seconds (one frame per second): a visual
token matrix, an audio token matrix, and a single descriptor vector used
only for inter-frame similarity.  Token data lives in float32 (the storage
dtype): read_tdcf reads each payload straight into a frozen float32 array
that VideoTimeline keeps, other arrays are cast and frozen in one copy (a
finite value past float32 range is refused, by index; NaN and inf are kept),
and numeric code converts to float64 only the frames it reads.  A ScenePartition
cuts [0, T) into scenes; the segmenter finds one from the descriptors, and
the synthetic generator plants one.

TDCF container layout (all integers little-endian):

    magic    4 bytes  b"TDCF"
    version  u32      1
    frames   u32      T
    three streams in fixed order (visual, audio, descriptor), each:
        tag      u8   0 = visual, 1 = audio, 2 = descriptor
        tokens   u32  rows per frame (1 for the descriptor stream)
        dim      u32  >= 1 when tokens >= 1
        data     T * tokens * dim float32, row-major
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .binio import ByteReader, ByteWriter, read_container, write_container
from .errors import ArgumentError, FormatError, ShapeError

MAGIC = b"TDCF"
VERSION = 1
VOCAB_SIZE = 1024

# tokens-per-frame defaults for the dense 1-fps encoding
VISUAL_TOKENS_PER_FRAME = 144
AUDIO_TOKENS_PER_FRAME = 50
DEFAULT_DIM = 32
DEFAULT_NOISE = 0.01
# every text token is a self-attention row of every compressed frame, so
# attention memory grows with its square: with the default config, 256 words
# peak at about 13 MiB
MAX_INSTRUCTION_TOKENS = 256


@dataclass(frozen=True)
class InstructionTokens:
    """Hashed instruction-text token ids, vocab [0, 1024), at most MAX_INSTRUCTION_TOKENS."""

    ids: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.ids) > MAX_INSTRUCTION_TOKENS:
            raise ArgumentError(f"instruction text has {len(self.ids)} tokens, more than {MAX_INSTRUCTION_TOKENS}")
        for i in self.ids:
            if not 0 <= i < VOCAB_SIZE:
                raise ArgumentError(f"token id {i} outside [0, {VOCAB_SIZE})")


def tokenize_text(s: str) -> InstructionTokens:
    """Deterministically hash whitespace-split words into [0, 1024).  A word that
    UTF-8 cannot encode, such as the lone surrogate that an undecodable argv byte
    becomes, is an ArgumentError naming it."""
    try:
        ids = tuple(zlib.crc32(w.encode("utf-8")) % VOCAB_SIZE for w in s.split())
    except UnicodeEncodeError as exc:
        raise ArgumentError(f"instruction word {exc.object!r} is not UTF-8 text") from exc
    return InstructionTokens(ids)


@dataclass(frozen=True, eq=False)
class VideoTimeline:
    """Immutable per-second token data for a 1-fps video of T seconds."""

    visual_tokens: np.ndarray  # (T, M_v, D_v) float32
    audio_tokens: np.ndarray  # (T, M_a, D_a) float32
    descriptors: np.ndarray  # (T, D_d) float32

    def __post_init__(self):
        # one float32 copy, frozen; arrays that already are both are shared
        for name in ("visual_tokens", "audio_tokens", "descriptors"):
            arr = getattr(self, name)
            if arr.dtype != np.float32 or arr.flags.writeable:
                with np.errstate(over="ignore"):  # the cast takes a finite |x| >= binio.FLOAT32_OVERFLOW to inf
                    cast = arr.astype(np.float32)
                past = np.isinf(cast) & np.isfinite(arr)
                if past.any():
                    at = tuple(int(i) for i in np.unravel_index(past.argmax(), past.shape))
                    raise ArgumentError(f"{name}{list(at)} = {arr[at]} is past float32 range")
                cast.flags.writeable = False
                object.__setattr__(self, name, cast)
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
class ScenePartition:
    """Sorted cut indices partitioning [0, frame_count) into scenes.

    ``cut_similarities`` holds the similarity that placed each cut when the
    partition comes from segment_scenes, and is empty otherwise.
    """

    frame_count: int
    boundaries: tuple[int, ...]
    cut_similarities: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.frame_count < 1:
            raise ArgumentError(f"frame_count must be >= 1, got {self.frame_count}")
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ArgumentError(f"boundaries must be strictly increasing, got {self.boundaries}")
        for b in self.boundaries:
            if not 0 < b < self.frame_count:
                raise ArgumentError(f"boundary {b} outside (0, {self.frame_count})")

    @property
    def scene_count(self) -> int:
        return len(self.boundaries) + 1

    @property
    def scenes(self) -> tuple[tuple[int, int], ...]:
        edges = (0, *self.boundaries, self.frame_count)
        return tuple((edges[i], edges[i + 1]) for i in range(len(edges) - 1))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic timeline with planted scene cuts.

    ``dim`` is the visual, audio and descriptor embedding width alike.
    """

    seed: int = 0
    frames: int = 60
    boundaries: tuple[int, ...] = ()
    visual_tokens: int = VISUAL_TOKENS_PER_FRAME
    audio_tokens: int = AUDIO_TOKENS_PER_FRAME
    dim: int = DEFAULT_DIM
    noise: float = DEFAULT_NOISE

    def __post_init__(self):
        ScenePartition(self.frames, self.boundaries)  # checks frames and boundaries
        if self.dim < 1:
            raise ArgumentError(f"dim must be >= 1, got {self.dim}")
        if self.dim < 2 and self.boundaries:  # unit 1-vectors are ±1: no two scene centers stay apart
            raise ArgumentError(f"dim must be >= 2 to plant cuts that the segmenter finds, got {self.dim}")
        if not 0.0 <= self.noise < math.inf:
            raise ArgumentError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


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
    """Generate a timeline with planted scene structure, deterministic per recipe.
    Raises ArgumentError, before anything is allocated, for a float64 array past any
    address space, and if the noise puts a generated value past float32 range."""
    partition = ScenePartition(spec.frames, spec.boundaries)
    t_total, dim = spec.frames, spec.dim
    # numpy refuses a byte count past intp with a ValueError; (T, dim), of no 0 axis, holds any axis past it
    for shape in ((t_total, spec.visual_tokens, dim), (t_total, spec.audio_tokens, dim), (t_total, dim)):
        if 8 * math.prod(shape) > np.iinfo(np.intp).max:
            raise ArgumentError(f"a float64 array of shape {shape} is past any address space")
    rng = np.random.default_rng(spec.seed)
    centers_d = _descriptor_centers(rng, partition.scene_count, dim)

    centers_v = rng.standard_normal((partition.scene_count, dim))
    centers_a = rng.standard_normal((partition.scene_count, dim))
    token_offsets_v = 0.5 * rng.standard_normal((spec.visual_tokens, dim))
    token_offsets_a = 0.5 * rng.standard_normal((spec.audio_tokens, dim))

    visual = np.empty((t_total, spec.visual_tokens, dim))
    audio = np.empty((t_total, spec.audio_tokens, dim))
    desc = np.empty((t_total, dim))
    with np.errstate(over="ignore"):  # a value past float32 range is VideoTimeline's to refuse
        for s, (start, stop) in enumerate(partition.scenes):
            for t in range(start, stop):
                visual[t] = centers_v[s] + token_offsets_v + spec.noise * rng.standard_normal(
                    (spec.visual_tokens, dim)
                )
                audio[t] = centers_a[s] + token_offsets_a + spec.noise * rng.standard_normal(
                    (spec.audio_tokens, dim)
                )
                desc[t] = centers_d[s] + spec.noise * rng.standard_normal(dim)
    try:
        return VideoTimeline(visual, audio, desc)
    except ArgumentError as exc:  # the one refusal of these shapes: a value past float32 range
        raise ArgumentError(f"noise {spec.noise} puts generated tokens past float32 range: {exc}") from exc


def _write_stream(w: ByteWriter, tag: int, data: np.ndarray) -> None:
    w.u8(tag)
    w.u32(1 if data.ndim == 2 else data.shape[1])
    w.u32(data.shape[-1])
    w.array(data, "<f4")


def write_tdcf(tl: VideoTimeline, path) -> None:
    """Serialize a timeline; read_tdcf(write_tdcf(tl)) is bitwise identical."""
    with write_container(path, MAGIC, VERSION) as w:
        w.u32(tl.frame_count)
        _write_stream(w, 0, tl.visual_tokens)
        _write_stream(w, 1, tl.audio_tokens)
        _write_stream(w, 2, tl.descriptors)


def _read_stream(r: ByteReader, expected_tag: int, frames: int, what: str) -> np.ndarray:
    tag_offset = r.offset
    tag = r.u8(f"{what} tag")
    if tag != expected_tag:
        raise FormatError(f"expected stream tag {expected_tag} ({what}), found {tag}", tag_offset)
    tokens = r.u32(f"{what} tokens-per-frame")
    if expected_tag == 2 and tokens != 1:
        raise FormatError(f"descriptor stream must have 1 token per frame, found {tokens}", tag_offset + 1)
    dim_offset = r.offset
    dim = r.u32(f"{what} dim")
    if tokens and not dim:  # rows the file holds no bytes for
        raise FormatError(f"{what} stream has {tokens} tokens per frame of dim 0", dim_offset)
    data = r.array((frames, tokens, dim), "<f4", f"{what} payload")
    return data.reshape(frames, dim) if expected_tag == 2 else data


def read_tdcf(path) -> VideoTimeline:
    """Parse a TDCF file, raising a distinct error per malformation."""
    with read_container(path, MAGIC, VERSION) as r:
        frames_offset = r.offset
        frames = r.u32("frame count")
        if frames < 1:
            raise FormatError(f"frame count must be >= 1, found {frames}", frames_offset)
        visual = _read_stream(r, 0, frames, "visual")
        audio = _read_stream(r, 1, frames, "audio")
        desc = _read_stream(r, 2, frames, "descriptor")
    return VideoTimeline(visual, audio, desc)
