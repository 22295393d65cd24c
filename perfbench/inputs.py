"""Seeded timeline inputs with planted scene cuts, written as TDCF files.

The benchmark writes its own inputs, with its own TDCF writer, so that the
package's reader and segmenter are measured on files they did not produce.

Each planted cut is either *strong* (consecutive scene descriptors are
orthogonal, similarity near 0) or *weak* (similarity near 0.6).  Both fall
below the default threshold of 0.85, so every cut is a candidate; when the
24-scene cap binds, the segmenter keeps the strong ones.  Fixing which cuts
are strong fixes the scene partition, so every seed gives the same windows,
token counts and forward calls, with different values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

VISUAL_TOKENS = 144
AUDIO_TOKENS = 50
DIM = 32
NOISE = 0.01
WEAK_COS = 0.6
_CHUNK_FRAMES = 200


@dataclass(frozen=True)
class TimelineDesign:
    """Frame count, planted cut positions, and which of them are strong."""

    frames: int
    cut_every: int
    weak_cuts: frozenset[int] = frozenset()  # cut positions planted as weak

    @property
    def cuts(self) -> tuple[int, ...]:
        return tuple(range(self.cut_every, self.frames, self.cut_every))

    def is_strong(self, cut: int) -> bool:
        return cut not in self.weak_cuts

    def scenes(self, start: int, stop: int, max_scenes: int) -> list[tuple[int, int]]:
        """Scenes the threshold-then-cap rule must find in frames [start, stop).

        Every planted cut inside the span is a candidate; if more than
        max_scenes - 1 exist, the strong ones are kept.  Designs are chosen
        so that the strong cuts alone fit under the cap.
        """
        inside = [c for c in self.cuts if start < c < stop]
        if len(inside) > max_scenes - 1:
            inside = [c for c in inside if self.is_strong(c)]
            if len(inside) > max_scenes - 1:
                raise ValueError("design has more strong cuts than the scene cap allows")
        edges = [start, *inside, stop]
        return list(zip(edges[:-1], edges[1:]))


def _descriptor_centers(rng: np.random.Generator, design: TimelineDesign) -> np.ndarray:
    cuts = design.cuts
    centers = np.empty((len(cuts) + 1, DIM))
    c = rng.standard_normal(DIM)
    centers[0] = c / np.linalg.norm(c)
    for i, cut in enumerate(cuts):
        prev = centers[i]
        r = rng.standard_normal(DIM)
        r -= (r @ prev) * prev
        r /= np.linalg.norm(r)
        centers[i + 1] = r if design.is_strong(cut) else WEAK_COS * prev + np.sqrt(1 - WEAK_COS**2) * r
    return centers


def _scene_ids(design: TimelineDesign) -> np.ndarray:
    return np.searchsorted(np.asarray(design.cuts, dtype=np.int64), np.arange(design.frames), side="right")


def _stream_header(tag: int, tokens: int, dim: int) -> bytes:
    return struct.pack("<BII", tag, tokens, dim)


def write_timeline(path, design: TimelineDesign, seed: int) -> None:
    """Write a TDCF file for `design`.

    Frames are generated and written in chunks, so memory stays small even
    for hour-long timelines.  The same (design, seed) gives the same bytes.
    """
    scene = _scene_ids(design)
    n_scenes = len(design.cuts) + 1
    rng = np.random.default_rng([seed, 0xD5C])
    centers_d = _descriptor_centers(rng, design)
    streams = (
        (0, VISUAL_TOKENS, rng.standard_normal((n_scenes, DIM)), 0.5 * rng.standard_normal((VISUAL_TOKENS, DIM))),
        (1, AUDIO_TOKENS, rng.standard_normal((n_scenes, DIM)), 0.5 * rng.standard_normal((AUDIO_TOKENS, DIM))),
    )
    with open(path, "wb") as f:
        f.write(b"TDCF" + struct.pack("<II", 1, design.frames))
        for tag, tokens, centers, offsets in streams:
            f.write(_stream_header(tag, tokens, DIM))
            noise_rng = np.random.default_rng([seed, 0xD5C, tag])
            for a in range(0, design.frames, _CHUNK_FRAMES):
                b = min(a + _CHUNK_FRAMES, design.frames)
                block = centers[scene[a:b], None, :] + offsets + NOISE * noise_rng.standard_normal((b - a, tokens, DIM))
                f.write(block.astype("<f4").tobytes())
        f.write(_stream_header(2, 1, DIM))
        noise_rng = np.random.default_rng([seed, 0xD5C, 2])
        desc = centers_d[scene] + NOISE * noise_rng.standard_normal((design.frames, DIM))
        f.write(desc.astype("<f4").tobytes())


def read_payloads(path, design: TimelineDesign) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visual, audio and descriptor float32 arrays of a file written by write_timeline.

    Parsed with the known layout of this writer, not with the package's
    reader, so the checker does not depend on the code under test.
    """
    data = np.fromfile(path, dtype=np.uint8)
    arrays, offset = [], 12
    for tokens in (VISUAL_TOKENS, AUDIO_TOKENS, 1):
        offset += 9  # stream header: tag, tokens per frame, dim
        size = 4 * design.frames * tokens * DIM
        arrays.append(data[offset : offset + size].view("<f4").reshape(design.frames, tokens, DIM))
        offset += size
    visual, audio, descriptors = arrays
    return visual, audio, descriptors[:, 0]
