"""Outputs pinned against a stored reference, so refactors show no change.

The reference files hold, on a tiny config, assembled streams for
{avgpool, learned} x {text off, text on} and the first train_step losses in
both query modes (written before the compressor and training paths were
refactored), and for the same four cases each tensor's gradient from a
3-frame-stack backward, dotted with a seeded probe (written before the
query transformer's sub-blocks were each written once).  Regenerate them
only for a change that is meant to alter outputs, and say so:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

from pathlib import Path

import numpy as np
import pytest

import tdc
from tdc.segmenter import ScenePartition

REFERENCE = Path(__file__).with_name("data") / "pinned_outputs.npz"
GRAD_REFERENCE = REFERENCE.with_name("pinned_grads.npz")
ATOL = 1e-10
CASES = [(q, text) for q in ("avgpool", "learned") for text in (False, True)]
TRAIN_STEPS = 3


def tiny_config(query_type, text_conditioning):
    return tdc.QFormerConfig(
        model_dim=16, heads=2, layers=2, queries=2, visual_dim=8, audio_dim=8,
        query_type=query_type, text_conditioning=text_conditioning, seed=5,
    )


def stream_for(query_type, text_conditioning):
    rng = np.random.default_rng(11)
    tl = tdc.VideoTimeline(
        rng.standard_normal((5, 6, 8)).astype(np.float32),
        rng.standard_normal((5, 4, 8)).astype(np.float32),
        rng.standard_normal((5, 8)).astype(np.float32),
    )
    params = tdc.init_params(tiny_config(query_type, text_conditioning))
    plan = tdc.make_windows(ScenePartition(5, (3,)), 4)
    return tdc.assemble_tdc(tl, plan, params, text=tdc.tokenize_text("where is the red ball"))


def train_losses(query_type):
    cfg = tiny_config(query_type, True)
    params = tdc.init_params(cfg)
    batch = tdc.make_train_batch(cfg, seed=2, frames=3, visual_tokens=6, audio_tokens=4)
    losses = []
    for _ in range(TRAIN_STEPS):
        params, loss = tdc.train_step(params, batch, 0.05)
        losses.append(loss)
    return losses


def grad_probes(query_type, text_conditioning):
    """One float per tensor: its gradient from a 3-frame-stack backward, dotted with a seeded probe."""
    params = tdc.init_params(tiny_config(query_type, text_conditioning))
    rng = np.random.default_rng(13)
    static = rng.standard_normal((6, 8))
    visual = rng.standard_normal((3, 6, 8))
    audio = rng.standard_normal((3, 4, 8))
    text = tdc.tokenize_text("where is the red ball")
    out, cache = tdc.forward(params, tdc.build_queries(params, static, text), visual, audio)
    grads = tdc.backward(params, cache, rng.standard_normal(out.shape))
    return np.array([np.sum(g * rng.standard_normal(g.shape)) for g in grads.values()])


def compute() -> dict[str, np.ndarray]:
    out = {}
    for query_type, text in CASES:
        stream = stream_for(query_type, text)
        out[f"stream_{query_type}_{int(text)}"] = stream.tokens
        out[f"provenance_{query_type}_{int(text)}"] = stream.provenance
    out["train_losses"] = np.array([train_losses(q) for q in ("avgpool", "learned")])
    return out


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as data:
        return dict(data)


@pytest.fixture(scope="module")
def grad_reference():
    with np.load(GRAD_REFERENCE) as data:
        return dict(data)


@pytest.mark.parametrize("query_type, text", CASES)
def test_stream_matches_reference(reference, query_type, text):
    stream = stream_for(query_type, text)
    key = f"{query_type}_{int(text)}"
    np.testing.assert_array_equal(stream.provenance, reference[f"provenance_{key}"])
    np.testing.assert_allclose(stream.tokens, reference[f"stream_{key}"], rtol=0, atol=ATOL)


def test_train_losses_match_reference(reference):
    losses = np.array([train_losses(q) for q in ("avgpool", "learned")])
    np.testing.assert_allclose(losses, reference["train_losses"], rtol=0, atol=ATOL)


@pytest.mark.parametrize("query_type, text", CASES)
def test_gradients_match_reference(grad_reference, query_type, text):
    np.testing.assert_allclose(
        grad_probes(query_type, text), grad_reference[f"{query_type}_{int(text)}"], rtol=0, atol=ATOL
    )


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **compute())
    np.savez_compressed(GRAD_REFERENCE, **{f"{q}_{int(text)}": grad_probes(q, text) for q, text in CASES})
    for path in (REFERENCE, GRAD_REFERENCE):
        print(f"wrote {path} ({path.stat().st_size} bytes)")
