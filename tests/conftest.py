from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

import tdc
from tdc import kernels, qformer


# a NaN with the quiet bit clear, which a flipped exponent bit can leave in a file
SIGNALLING_NAN = np.array([0x7FA00000], dtype=np.uint32).view(np.float32)[0]


# the edges of a window's and a frame's shapes: an empty instruction (0 text
# rows even with text conditioning on), one query, one head, one visual token
EDGES = ["base", "empty-text", "one-query", "one-head", "one-visual-token"]


def random_timeline(rng, frames, visual_tokens=6, audio_tokens=4, dim=8):
    """Small random timeline for format and oracle tests."""
    return tdc.VideoTimeline(
        rng.standard_normal((frames, visual_tokens, dim)).astype(np.float32),
        rng.standard_normal((frames, audio_tokens, dim)).astype(np.float32),
        rng.standard_normal((frames, dim)).astype(np.float32),
    )


def tdcf_fields(tl):
    """Offsets of the u32 header fields of tl's TDCF file: version, frame count, then each stream's tokens and dim."""
    fields, at = [4, 8], 12
    for stream in (tl.visual_tokens, tl.audio_tokens, tl.descriptors):
        fields += [at + 1, at + 5]  # after the stream's u8 tag
        at += 9 + stream.nbytes
    return fields


# corruptions of a valid file's bytes `raw`, whose u32 header fields start at the offsets `fields`
def truncations(raw):
    return st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut])


def bit_flips(raw, fields):
    # some flips are aimed at a header field, where they change the layout
    byte = st.one_of(st.sampled_from(fields).flatmap(lambda f: st.integers(f, f + 3)), st.integers(0, len(raw) - 1))

    def flip(at, bit):
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        return bytes(flipped)

    return st.builds(flip, byte, st.integers(0, 7))


def u32_overwrites(raw, fields):
    value = st.one_of(st.sampled_from([0, 1, 2, 1000, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))

    def overwrite(at, v):
        changed = bytearray(raw)
        changed[at : at + 4] = v.to_bytes(4, "little")
        return bytes(changed)

    return st.builds(overwrite, st.sampled_from(fields), value)


def with_queries(params, queries):
    """Learned-query copy of params whose query set is `queries`; its forward
    (which ignores the static frame) runs the model on that query matrix."""
    cfg = replace(params.cfg, query_type="learned")
    return tdc.QFormerParams(cfg, {**params.tensors, "learned_queries": np.asarray(queries, dtype=np.float64)})


def split_heads(x, heads):
    """(..., n, d) rows as (..., heads, n, d // heads): each head's slice of the columns."""
    *lead, n, d = x.shape
    return np.moveaxis(x.reshape(*lead, n, heads, d // heads), -2, -3)


def head_contexts(cache, layer):
    """Each head's cross-attention context in ``layer`` of a forward cache, (H, K, d_h):
    the context over frame tokens, mapped through the head's folded value weights."""
    gv = cache.queries.g[layer][1]
    ctx = cache.layers[layer].cross.ctx
    return ctx.reshape(*ctx.shape[:-1], len(gv), -1).swapaxes(-3, -2) @ gv.swapaxes(-1, -2)


def _merge_heads(x):
    *lead, h, n, dh = x.shape
    return np.moveaxis(x, -3, -2).reshape(*lead, n, h * dh)


def _norm(x, t, prefix):
    return kernels.layer_norm(x, t[prefix + ".gamma"], t[prefix + ".beta"])[0]


def _attention(q_in, kv_in, t, prefix, heads):
    q = split_heads(q_in @ t[prefix + ".wq"], heads)
    k = split_heads(kv_in @ t[prefix + ".wk"], heads)
    v = split_heads(kv_in @ t[prefix + ".wv"], heads)
    probs = kernels.softmax_rows(q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1]))
    return _merge_heads(probs @ v) @ t[prefix + ".wo"]


def unfolded_forward(params, static, visual, audio, text=None):
    """The float64 reference forward of one frame or a stack, written the direct way
    from the static frame (see test_cross_attention_fold)."""
    cfg, t = params.cfg, params.tensors
    k = cfg.queries
    kv = qformer.project(params, visual, audio)
    ids = list(text.ids) if cfg.text_conditioning and text is not None else []
    pooled = kernels.pool_matrix(len(static), k) @ static if cfg.query_type == "avgpool" else None
    q = t["learned_queries"] if pooled is None else pooled @ t["visual_proj"]
    rows = np.vstack([q, t["text_embed"][ids]])
    x = np.broadcast_to(rows, kv.shape[:-2] + rows.shape).copy()
    for i in range(cfg.layers):
        p = f"layers.{i}."
        h = _norm(x, t, p + "self_norm")
        x = x + _attention(h, h, t, p + "self", cfg.heads)
        x[..., :k, :] += _attention(_norm(x[..., :k, :], t, p + "cross_norm"), kv, t, p + "cross", cfg.heads)
        h = _norm(x, t, p + "ffn_norm")
        x = x + kernels.gelu(h @ t[p + "ffn.w1"] + t[p + "ffn.b1"])[0] @ t[p + "ffn.w2"] + t[p + "ffn.b2"]
    return _norm(x[..., :k, :], t, "final_norm")


def brute_force_cuts(similarities, tau, max_scenes):
    """Independent segmentation oracle: sort-based threshold-then-cap rule."""
    ranked = sorted(
        (float(s), i) for i, s in enumerate(similarities) if float(s) < tau
    )
    kept = ranked[: max_scenes - 1]
    return tuple(sorted(i + 1 for _, i in kept))


def walk_stream_counts(stream):
    """Counting oracle: tally tokens per window by scanning the stream records."""
    counts = {}
    for w in stream.window_index:
        counts[int(w)] = counts.get(int(w), 0) + 1
    return tuple(counts[w] for w in sorted(counts))


@pytest.fixture(scope="session")
def three_scene_timeline():
    return tdc.synth_generate(tdc.SynthSpec(seed=7, frames=60, boundaries=(20, 40)))


@pytest.fixture(scope="session")
def single_scene_timeline():
    return tdc.synth_generate(tdc.SynthSpec(seed=3, frames=60))


@pytest.fixture(scope="session")
def default_params():
    return tdc.init_params(tdc.QFormerConfig(seed=1))
