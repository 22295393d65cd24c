"""Output checks that share no code with the package under test.

The expected stream layout comes from the planted scenes of the input
design, the token values from a float64 reference of the compressor written
here from the architecture description (pre-norm self-attention over
[queries ; text], query-only cross-attention over projected visual+audio
tokens, tanh-gelu FFN, final norm) and batched over the frames of a window.
Stored streams are float32, so values are compared with TOL.
"""

from __future__ import annotations

import zlib

import numpy as np

# absolute and relative tolerance on every compared token value; float32
# rounding of a unit-scale value is about 6e-8, so 1e-4 leaves room for a
# faster path with another summation order and still catches any flipped,
# swapped or stale token
TOL = 1e-4
LN_EPS = 1e-5
VOCAB = 1024
STATIC_VISUAL, STATIC_AUDIO, SEP, DYNAMIC = 0, 1, 2, 3


def text_ids(question: str) -> list[int]:
    """Instruction token ids: crc32 of each whitespace-split word, mod 1024."""
    return [zlib.crc32(w.encode("utf-8")) % VOCAB for w in question.split()]


def close(actual, expected, tol: float = TOL) -> bool:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= tol * (1.0 + np.abs(e))))


class Model:
    """Read-only view of compressor parameters for the reference forward."""

    def __init__(self, tensors, cfg):
        self.t = tensors
        self.heads = cfg.heads
        self.k = cfg.queries
        self.text_conditioning = cfg.text_conditioning
        self.layers = sum(1 for name in tensors if name.endswith(".ffn.w1"))

    def queries(self, static_visual: np.ndarray) -> np.ndarray:
        """Average-pooled projected static tokens, larger groups first."""
        proj = np.asarray(static_visual, dtype=np.float64) @ self.t["visual_proj"]
        return np.stack([g.mean(axis=0) for g in np.array_split(proj, self.k)])

    def forward(self, queries, ids, visual, audio) -> np.ndarray:
        """(n, K, d) outputs for n frames sharing queries and text."""
        t = self.t
        n = visual.shape[0]
        use_text = self.text_conditioning and len(ids) > 0
        x0 = np.concatenate([queries, t["text_embed"][list(ids)]]) if use_text else queries
        x = np.repeat(x0[None], n, axis=0)
        kv = np.concatenate([_dense(visual, t["visual_proj"]), _dense(audio, t["audio_proj"])], axis=1)
        k = self.k
        for i in range(self.layers):
            p = f"layers.{i}."
            h = _ln(x, t[p + "self_norm.gamma"], t[p + "self_norm.beta"])
            x = x + self._attn(h, h, t, p + "self.")
            h = _ln(x, t[p + "cross_norm.gamma"], t[p + "cross_norm.beta"])
            x = np.concatenate([x[:, :k] + self._attn(h[:, :k], kv, t, p + "cross."), x[:, k:]], axis=1)
            h = _ln(x, t[p + "ffn_norm.gamma"], t[p + "ffn_norm.beta"])
            u = _dense(h, t[p + "ffn.w1"]) + t[p + "ffn.b1"]
            g = 0.5 * u * (1.0 + np.tanh(0.7978845608028654 * (u + 0.044715 * u * u * u)))
            x = x + _dense(g, t[p + "ffn.w2"]) + t[p + "ffn.b2"]
        return _ln(x[:, :k], t["final_norm.gamma"], t["final_norm.beta"])

    def _attn(self, q_in, kv_in, t, p):
        n, r, d = q_in.shape
        m = kv_in.shape[1]
        dh = d // self.heads
        q = _dense(q_in, t[p + "wq"]).reshape(n, r, self.heads, dh).transpose(0, 2, 1, 3)
        kk = _dense(kv_in, t[p + "wk"]).reshape(n, m, self.heads, dh).transpose(0, 2, 3, 1)
        v = _dense(kv_in, t[p + "wv"]).reshape(n, m, self.heads, dh).transpose(0, 2, 1, 3)
        s = q @ kk / np.sqrt(dh)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
        return _dense(ctx.transpose(0, 2, 1, 3).reshape(n, r, d), t[p + "wo"])


def _dense(x, w):
    """x (..., a) @ w (a, b) as one 2-D product."""
    x = np.asarray(x, dtype=np.float64)
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _ln(x, gamma, beta):
    c = x - x.mean(axis=-1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + LN_EPS) * gamma + beta


def windows_of(scenes, window_length: int) -> list[tuple[int, int]]:
    """(static frame, dynamic frame count) per window, scenes tiled in order."""
    return [
        (s, min(s + window_length, stop) - s - 1)
        for start, stop in scenes
        for s in range(start, stop, window_length)
    ]


def layout(windows, visual_tokens: int, audio_tokens: int, k: int) -> np.ndarray:
    """Provenance codes the stream must carry, window after window."""
    codes = [STATIC_VISUAL, STATIC_AUDIO, SEP, DYNAMIC]
    return np.concatenate(
        [np.repeat(codes, [visual_tokens, audio_tokens, 1, n * k]) for _, n in windows]
    ).astype(np.uint8)


def parse_tdcs(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(float32 tokens (n, dim), uint8 provenance (n,)) of a TDCS file."""
    if data[:4] != b"TDCS":
        raise ValueError(f"bad stream magic {data[:4]!r}")
    version, count, dim = np.frombuffer(data, dtype="<u4", count=3, offset=4)
    if version != 1:
        raise ValueError(f"stream version {version}")
    end = 16 + 4 * int(count) * int(dim)
    if len(data) != end + int(count):
        raise ValueError(f"stream of {count}x{dim} tokens has {len(data)} bytes")
    tokens = np.frombuffer(data, dtype="<f4", count=int(count) * int(dim), offset=16)
    prov = np.frombuffer(data, dtype=np.uint8, offset=end)
    return tokens.reshape(int(count), int(dim)), prov


def check_stream(tokens, prov, visual, audio, windows, model: Model, ids, cache=None) -> list[str]:
    """Failures of one compressed stream whose windows index visual/audio frames.

    Checks, in order: provenance layout and token count, finiteness, static
    blocks, the separator row, and every dynamic token against the
    reference forward.  `cache` keeps reference tokens per window, for
    streams over the same frames with the same model and text.
    """
    cache = {} if cache is None else cache
    t = model.t
    n_v, n_a, k = visual.shape[1], audio.shape[1], model.k
    want = layout(windows, n_v, n_a, k)
    if prov.shape != want.shape or not np.array_equal(prov, want):
        return [f"provenance layout: {prov.shape[0]} tokens, expected {want.shape[0]} in the planned order"]
    if tokens.shape != (want.shape[0], t["sep"].shape[1]):
        return [f"token matrix shape {tokens.shape}"]
    if not np.all(np.isfinite(tokens)):
        return ["non-finite token"]
    failures = []
    pos = 0
    for w, (frame, n) in enumerate(windows):
        static = visual[frame]
        blocks = [
            ("static visual", static.astype(np.float64) @ t["visual_proj"]),
            ("static audio", audio[frame].astype(np.float64) @ t["audio_proj"]),
            ("separator", t["sep"]),
        ]
        if n:
            if (frame, n) not in cache:
                dyn = model.forward(
                    model.queries(static), ids, visual[frame + 1 : frame + 1 + n], audio[frame + 1 : frame + 1 + n]
                )
                cache[frame, n] = dyn.reshape(n * k, -1)
            blocks.append(("dynamic", cache[frame, n]))
        for what, expected in blocks:
            rows = expected.shape[0]
            if not close(tokens[pos : pos + rows], expected):
                failures.append(f"window {w} (frame {frame}): {what} tokens differ")
            pos += rows
    return failures


def budget(windows, visual_tokens: int, audio_tokens: int, k: int) -> list[int]:
    """Exact tokens per window: static frame in full, separator, K per dynamic frame."""
    return [visual_tokens + audio_tokens + 1 + n * k for _, n in windows]


def train_loss(model: Model, batch) -> float:
    """Reconstruction loss of the toy training objective, from the reference forward."""
    queries = model.queries(batch.static_visual)
    ids = list(batch.text.ids) if batch.text is not None else []
    out = model.forward(queries, ids, np.stack(batch.dynamic_visual), np.stack(batch.dynamic_audio))
    err = out.mean(axis=1) @ batch.readout - batch.target
    return float((err * err).mean(axis=1).mean())
