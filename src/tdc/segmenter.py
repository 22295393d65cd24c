"""Scene segmentation from consecutive-frame descriptor similarities.

A cut at frame index c means frame c starts a new scene.  Candidate cuts
are the positions whose similarity falls below the threshold; when more
candidates exist than the scene cap allows, the lowest-similarity ones are
kept, ties broken toward the earlier index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .timeline import ScenePartition, VideoTimeline

DEFAULT_MAX_SCENES = 24
DEFAULT_TAU = 0.85


@dataclass(frozen=True)
class SegmenterConfig:
    max_scenes: int = DEFAULT_MAX_SCENES
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if self.max_scenes < 1:
            raise ArgumentError(f"max_scenes must be >= 1, got {self.max_scenes}")
        # tau = 1 is allowed on purpose: it makes every dip a candidate, so the
        # scene cap alone decides (cap-only mode).
        if not -1.0 <= self.tau <= 1.0:
            raise ArgumentError(f"tau must be in [-1, 1], got {self.tau}")


def frame_similarities(tl: VideoTimeline) -> np.ndarray:
    """Cosine similarity of each consecutive descriptor pair, clipped into [-1, 1]; length T-1."""
    # casting a signalling NaN sets the invalid flag; the norm check reports it
    with np.errstate(invalid="ignore"):
        desc = tl.descriptors.astype(np.float64)
    norms = np.linalg.norm(desc, axis=1)
    # finite nonzero norms bound every dot product, so each similarity is finite
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise NumericError(f"frame {bad} has a descriptor that is not finite")
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise NumericError(f"frame {bad} has a zero-norm descriptor")
    sims = np.einsum("ij,ij->i", desc[:-1], desc[1:]) / (norms[:-1] * norms[1:])
    return np.clip(sims, -1.0, 1.0)


def select_cuts(similarities: np.ndarray, cfg: SegmenterConfig) -> tuple[int, ...]:
    """Apply the threshold-then-cap rule to a similarity vector."""
    sims = np.asarray(similarities, dtype=np.float64)
    candidates = np.flatnonzero(sims < cfg.tau)
    if candidates.size > cfg.max_scenes - 1:
        # stable sort on similarity keeps the earlier index first among ties
        order = np.argsort(sims[candidates], kind="stable")
        candidates = candidates[order[: cfg.max_scenes - 1]]
    return tuple(sorted(int(i) + 1 for i in candidates))


def segment_scenes(tl: VideoTimeline, cfg: SegmenterConfig | None = None) -> ScenePartition:
    """Partition the timeline into at most cfg.max_scenes consistent scenes."""
    cfg = cfg or SegmenterConfig()
    sims = frame_similarities(tl)
    cuts = select_cuts(sims, cfg)
    return ScenePartition(tl.frame_count, cuts, tuple(float(sims[c - 1]) for c in cuts))
