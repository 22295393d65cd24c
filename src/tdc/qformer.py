"""Query-transformer compressor: cross-attention of a small query set over
projected visual+audio tokens, with optional instruction-text conditioning.

Architecture (per layer, pre-norm residual blocks):
    1. self-attention over [queries ; text embeddings] (queries only when
       text conditioning is off or the text is empty),
    2. cross-attention in which only the query rows attend over the
       projected key/value tokens [visual @ W_v ; audio @ W_a],
    3. a gelu FFN with hidden width 4x the model dim.
A final layer norm is applied and the first K rows are the output.  No
positional encoding is applied anywhere; key/value tokens form a set.

One forward and one analytic backward serve a single frame and a stack of
frames that share the queries and text.  The backward treats the query
matrix as an input (its gradient is reported separately) except in
learned-query mode, where the query input is the ``learned_queries``
parameter itself and receives that gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import kernels
from .binio import ByteReader, ByteWriter
from .errors import ArgumentError, FormatError, NumericError, ShapeError
from .timeline import VOCAB_SIZE, InstructionTokens

PARAMS_MAGIC = b"TDCP"
PARAMS_VERSION = 1
LN_EPS = 1e-5
GRAD_CHECK_THRESHOLD = 1e-5
GRAD_CHECK_STEP = 1e-5  # central-difference step
QUERY_TYPES = ("avgpool", "learned")


@dataclass(frozen=True)
class QFormerConfig:
    model_dim: int = 64
    heads: int = 4
    layers: int = 2
    queries: int = 16
    query_type: str = "avgpool"
    text_conditioning: bool = False
    visual_dim: int = 32
    audio_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1 or self.model_dim < 1:
            raise ArgumentError(f"model_dim {self.model_dim} and heads {self.heads} must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ArgumentError(
                f"heads ({self.heads}) must divide model_dim ({self.model_dim})"
            )
        if self.layers < 1:
            raise ArgumentError(f"layers must be >= 1, got {self.layers}")
        if self.queries < 1:
            raise ArgumentError(f"queries must be >= 1, got {self.queries}")
        if self.query_type not in QUERY_TYPES:
            raise ArgumentError(f"query_type must be one of {QUERY_TYPES}, got {self.query_type!r}")
        if min(self.visual_dim, self.audio_dim) < 1:
            raise ArgumentError("input dims must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    @property
    def ffn_dim(self) -> int:
        return 4 * self.model_dim


def small_config(**overrides) -> QFormerConfig:
    """Config small enough for elementwise finite-difference checking."""
    base = dict(
        model_dim=16,
        heads=2,
        layers=1,
        queries=4,
        visual_dim=8,
        audio_dim=6,
        query_type="learned",
        text_conditioning=True,
    )
    base.update(overrides)
    return QFormerConfig(**base)


def expected_shapes(cfg: QFormerConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor-name -> shape map; fixes init and checkpoint order."""
    d, f = cfg.model_dim, cfg.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "visual_proj": (cfg.visual_dim, d),
        "audio_proj": (cfg.audio_dim, d),
        "text_embed": (VOCAB_SIZE, d),
        "learned_queries": (cfg.queries, d),
        "sep": (1, d),
    }
    for i in range(cfg.layers):
        p = f"layers.{i}."
        shapes[p + "self_norm.gamma"] = (d,)
        shapes[p + "self_norm.beta"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "self." + w] = (d, d)
        shapes[p + "cross_norm.gamma"] = (d,)
        shapes[p + "cross_norm.beta"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "cross." + w] = (d, d)
        shapes[p + "ffn_norm.gamma"] = (d,)
        shapes[p + "ffn_norm.beta"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
    shapes["final_norm.gamma"] = (d,)
    shapes["final_norm.beta"] = (d,)
    return shapes


@dataclass(frozen=True, eq=False)
class QFormerParams:
    cfg: QFormerConfig
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


# embeddings that live in model space rather than projecting into it
_EMBEDDING_NAMES = ("text_embed", "learned_queries", "sep")


def init_params(cfg: QFormerConfig) -> QFormerParams:
    """Seeded Gaussian init, std 1/sqrt(fan_in); norms at identity, biases zero."""
    rng = np.random.default_rng(cfg.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            tensors[name] = np.ones(shape)
        elif leaf in ("beta", "b1", "b2"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = cfg.model_dim if name in _EMBEDDING_NAMES else shape[0]
            tensors[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
    return QFormerParams(cfg, tensors)


@dataclass(eq=False)
class GradientBundle:
    """One gradient tensor per parameter tensor, plus the query-input gradient."""

    tensors: dict[str, np.ndarray]
    queries: np.ndarray

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def build_queries(params: QFormerParams, static_visual) -> np.ndarray:
    """Query tokens for one window: pooled projected static tokens, or learned."""
    cfg = params.cfg
    if cfg.query_type == "learned":
        return params["learned_queries"].copy()
    static = kernels.as_matrix(static_visual, "static visual tokens")
    if static.shape[1] != cfg.visual_dim:
        raise ShapeError(
            f"static visual dim {static.shape[1]} does not match config {cfg.visual_dim}"
        )
    if cfg.queries > static.shape[0]:
        raise ArgumentError(
            f"cannot pool {static.shape[0]} static tokens into {cfg.queries} queries"
        )
    return (kernels.pool_matrix(static.shape[0], cfg.queries) @ static) @ params["visual_proj"]


# ---------------------------------------------------------------------------
# forward / backward internals


class _AttnCache(NamedTuple):
    q_in: np.ndarray
    kv_in: np.ndarray
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    probs: np.ndarray  # (..., H, n_q, n_kv)
    ctx: np.ndarray  # (..., H, n_q, head_dim), pre-output-projection
    merged: np.ndarray


class _LayerCache(NamedTuple):
    ln1: tuple
    self_attn: _AttnCache
    ln2: tuple
    cross: _AttnCache
    ln3: tuple
    h3: np.ndarray
    u: np.ndarray
    g: np.ndarray


class _ForwardCache(NamedTuple):
    visual: np.ndarray
    audio: np.ndarray
    ids: tuple[int, ...]
    kv: np.ndarray
    n_rows: int
    layers: list[_LayerCache]
    final_ln: tuple


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *lead, h, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * dh)


def _rows(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def _weight_grad(x: np.ndarray, d_y: np.ndarray) -> np.ndarray:
    """Gradient of W in y = x @ W, summed over every row of every frame."""
    return _rows(x).T @ _rows(d_y)


def _attn_forward(q_in, kv_in, wq, wk, wv, wo, heads):
    dh = wq.shape[1] // heads
    qh = _split_heads(q_in @ wq, heads)
    kh = _split_heads(kv_in @ wk, heads)
    vh = _split_heads(kv_in @ wv, heads)
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(dh)
    probs = kernels.softmax_rows(scores)
    ctx = probs @ vh
    merged = _merge_heads(ctx)
    return merged @ wo, _AttnCache(q_in, kv_in, qh, kh, vh, probs, ctx, merged)


def _attn_backward(d_out, cache: _AttnCache, wq, wk, wv, wo):
    scale = 1.0 / np.sqrt(cache.qh.shape[-1])
    d_wo = _weight_grad(cache.merged, d_out)
    d_ctx = _split_heads(d_out @ wo.T, cache.qh.shape[-3])
    d_probs = d_ctx @ cache.vh.swapaxes(-1, -2)
    d_vh = cache.probs.swapaxes(-1, -2) @ d_ctx
    d_scores = cache.probs * (d_probs - (d_probs * cache.probs).sum(axis=-1, keepdims=True))
    d_scores *= scale
    d_qh = d_scores @ cache.kh
    d_kh = d_scores.swapaxes(-1, -2) @ cache.qh
    d_qf = _merge_heads(d_qh)
    d_kf = _merge_heads(d_kh)
    d_vf = _merge_heads(d_vh)
    weight_grads = {
        "wq": _weight_grad(cache.q_in, d_qf),
        "wk": _weight_grad(cache.kv_in, d_kf),
        "wv": _weight_grad(cache.kv_in, d_vf),
        "wo": d_wo,
    }
    d_q_in = d_qf @ wq.T
    d_kv_in = d_kf @ wk.T + d_vf @ wv.T
    return d_q_in, d_kv_in, weight_grads


def _check_inputs(params: QFormerParams, queries, visual, audio, text):
    cfg = params.cfg
    q = np.asarray(queries, dtype=np.float64)
    if q.shape != (cfg.queries, cfg.model_dim):
        raise ShapeError(
            f"queries shape {q.shape} does not match ({cfg.queries}, {cfg.model_dim})"
        )
    v = np.asarray(visual, dtype=np.float64)
    a = np.asarray(audio, dtype=np.float64)
    if v.ndim not in (2, 3) or a.ndim != v.ndim or a.shape[:-2] != v.shape[:-2]:
        raise ShapeError(f"visual {v.shape} and audio {a.shape} are not both (m, d) or both (F, m, d)")
    if v.shape[-1] != cfg.visual_dim:
        raise ShapeError(f"visual dim {v.shape[-1]} does not match config {cfg.visual_dim}")
    if a.shape[-2] > 0 and a.shape[-1] != cfg.audio_dim:
        raise ShapeError(f"audio dim {a.shape[-1]} does not match config {cfg.audio_dim}")
    if v.shape[-2] + a.shape[-2] == 0:
        raise ShapeError("cross-attention needs at least one visual or audio token")
    ids: tuple[int, ...] = ()
    if cfg.text_conditioning and text is not None:
        ids = tuple(text.ids)
    return q, v, a, ids


def forward(params: QFormerParams, queries, visual, audio, text=None, return_cache=False):
    """Compress one frame, visual (m_v, d_v) and audio (m_a, d_a), into (K, d);
    or a stack (F, m_v, d_v), (F, m_a, d_a) sharing queries and text into (F, K, d).

    With ``return_cache`` the result is (output, cache) for ``backward``.
    """
    cfg = params.cfg
    t = params.tensors
    q, v, a, ids = _check_inputs(params, queries, visual, audio, text)
    k = cfg.queries
    lead = v.shape[:-2]

    emb = t["text_embed"][np.asarray(ids, dtype=np.intp)] if ids else np.zeros((0, cfg.model_dim))
    x = np.broadcast_to(np.vstack([q, emb]), lead + (k + len(ids), cfg.model_dim))
    kv_a = a @ t["audio_proj"] if a.shape[-2] else np.zeros(lead + (0, cfg.model_dim))
    kv = np.concatenate([v @ t["visual_proj"], kv_a], axis=-2)

    layer_caches: list[_LayerCache] = []
    for i in range(cfg.layers):
        p = f"layers.{i}."
        h1, ln1 = kernels.layer_norm(x, t[p + "self_norm.gamma"], t[p + "self_norm.beta"], LN_EPS)
        sa, self_cache = _attn_forward(
            h1, h1, t[p + "self.wq"], t[p + "self.wk"], t[p + "self.wv"], t[p + "self.wo"], cfg.heads
        )
        x = x + sa

        h2, ln2 = kernels.layer_norm(x, t[p + "cross_norm.gamma"], t[p + "cross_norm.beta"], LN_EPS)
        ca, cross_cache = _attn_forward(
            h2[..., :k, :], kv, t[p + "cross.wq"], t[p + "cross.wk"], t[p + "cross.wv"], t[p + "cross.wo"], cfg.heads
        )
        x = x.copy()
        x[..., :k, :] += ca

        h3, ln3 = kernels.layer_norm(x, t[p + "ffn_norm.gamma"], t[p + "ffn_norm.beta"], LN_EPS)
        u = h3 @ t[p + "ffn.w1"] + t[p + "ffn.b1"]
        g = kernels.gelu(u)
        x = x + g @ t[p + "ffn.w2"] + t[p + "ffn.b2"]

        layer_caches.append(_LayerCache(ln1, self_cache, ln2, cross_cache, ln3, h3, u, g))

    out, final_ln = kernels.layer_norm(x[..., :k, :], t["final_norm.gamma"], t["final_norm.beta"], LN_EPS)
    if return_cache:
        return out, _ForwardCache(v, a, ids, kv, x.shape[-2], layer_caches, final_ln)
    return out


def backward(params: QFormerParams, cache: _ForwardCache, upstream) -> GradientBundle:
    """Analytic gradients of <upstream, output> for the forward call that made ``cache``.

    A stack's gradients are sums over its frames.  The query matrix is
    treated as an input; its gradient is returned in ``bundle.queries``.  In
    learned-query mode that input *is* the ``learned_queries`` parameter,
    which therefore also receives the gradient.
    """
    cfg = params.cfg
    t = params.tensors
    k, d = cfg.queries, cfg.model_dim
    lead = cache.kv.shape[:-2]
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != lead + (k, d):
        raise ShapeError(f"upstream shape {up.shape} does not match output shape {lead + (k, d)}")
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}

    d_rows, d_gamma, d_beta = kernels.layer_norm_grad(up, cache.final_ln, t["final_norm.gamma"])
    grads["final_norm.gamma"] += d_gamma
    grads["final_norm.beta"] += d_beta

    d_x = np.zeros(lead + (cache.n_rows, d))
    d_x[..., :k, :] = d_rows
    d_kv = np.zeros_like(cache.kv)

    for i in reversed(range(cfg.layers)):
        p = f"layers.{i}."
        lc = cache.layers[i]

        # FFN block
        d_f = d_x
        d_g = d_f @ t[p + "ffn.w2"].T
        grads[p + "ffn.w2"] += _weight_grad(lc.g, d_f)
        grads[p + "ffn.b2"] += _rows(d_f).sum(axis=0)
        d_u = d_g * kernels.gelu_grad(lc.u)
        grads[p + "ffn.w1"] += _weight_grad(lc.h3, d_u)
        grads[p + "ffn.b1"] += _rows(d_u).sum(axis=0)
        d_h3 = d_u @ t[p + "ffn.w1"].T
        d_x3, d_gamma, d_beta = kernels.layer_norm_grad(d_h3, lc.ln3, t[p + "ffn_norm.gamma"])
        grads[p + "ffn_norm.gamma"] += d_gamma
        grads[p + "ffn_norm.beta"] += d_beta
        d_x = d_x + d_x3

        # cross-attention block (query rows only)
        d_q_in, d_kv_in, wgrads = _attn_backward(
            d_x[..., :k, :], lc.cross, t[p + "cross.wq"], t[p + "cross.wk"], t[p + "cross.wv"], t[p + "cross.wo"]
        )
        for w, g_ in wgrads.items():
            grads[p + "cross." + w] += g_
        d_kv += d_kv_in
        d_h2 = np.zeros_like(d_x)
        d_h2[..., :k, :] = d_q_in
        d_x2, d_gamma, d_beta = kernels.layer_norm_grad(d_h2, lc.ln2, t[p + "cross_norm.gamma"])
        grads[p + "cross_norm.gamma"] += d_gamma
        grads[p + "cross_norm.beta"] += d_beta
        d_x = d_x + d_x2

        # self-attention block: q_in and kv_in are the same tensor
        d_q_in, d_kv_in, wgrads = _attn_backward(
            d_x, lc.self_attn, t[p + "self.wq"], t[p + "self.wk"], t[p + "self.wv"], t[p + "self.wo"]
        )
        for w, g_ in wgrads.items():
            grads[p + "self." + w] += g_
        d_h1 = d_q_in + d_kv_in
        d_x1, d_gamma, d_beta = kernels.layer_norm_grad(d_h1, lc.ln1, t[p + "self_norm.gamma"])
        grads[p + "self_norm.gamma"] += d_gamma
        grads[p + "self_norm.beta"] += d_beta
        d_x = d_x + d_x1

    # every frame starts from the same query and text rows
    d_x = d_x.reshape(-1, cache.n_rows, d).sum(axis=0)
    d_queries = d_x[:k]
    if cache.ids:
        np.add.at(grads["text_embed"], np.asarray(cache.ids, dtype=np.intp), d_x[k:])
    m_v = cache.visual.shape[-2]
    grads["visual_proj"] += _weight_grad(cache.visual, d_kv[..., :m_v, :])
    if cache.audio.shape[-2]:
        grads["audio_proj"] += _weight_grad(cache.audio, d_kv[..., m_v:, :])
    if cfg.query_type == "learned":
        grads["learned_queries"] += d_queries
    return GradientBundle(tensors=grads, queries=d_queries)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    per_tensor: dict[str, float]
    max_relative_error: float
    threshold: float
    passed: bool


def grad_check(cfg: QFormerConfig | None = None, seed: int = 0) -> GradCheckReport:
    """Compare the analytic backward against central finite differences.

    Relative error per tensor is max|analytic - fd| / max(|analytic|, |fd|, 1e-8)
    over its entries.  Rows of the text-embedding table that the probe text
    never references are skipped: the loss provably does not depend on them,
    so both sides are identically zero.  The probe is a single frame.
    """
    cfg = cfg or small_config()
    params = init_params(replace(cfg, seed=seed))
    rng = np.random.default_rng([seed, 0xC0FFEE])
    visual = rng.standard_normal((7, cfg.visual_dim))
    audio = rng.standard_normal((5, cfg.audio_dim))
    text = None
    used_rows: set[int] = set()
    if cfg.text_conditioning:
        ids = tuple(int(i) for i in rng.integers(0, VOCAB_SIZE, size=3))
        text = InstructionTokens(ids)
        used_rows = set(ids)
    # learned queries alias the parameter, so the probes below perturb them too
    if cfg.query_type == "learned":
        queries = params["learned_queries"]
    else:
        queries = rng.standard_normal((cfg.queries, cfg.model_dim))
    upstream = rng.standard_normal((cfg.queries, cfg.model_dim))

    def loss() -> float:
        return float(np.sum(upstream * forward(params, queries, visual, audio, text=text)))

    _, cache = forward(params, queries, visual, audio, text=text, return_cache=True)
    analytic = backward(params, cache, upstream).tensors

    per_tensor: dict[str, float] = {}
    for name, tensor in params.tensors.items():
        fd = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            if name == "text_embed" and idx[0] not in used_rows:
                continue
            original = tensor[idx]
            tensor[idx] = original + GRAD_CHECK_STEP
            hi = loss()
            tensor[idx] = original - GRAD_CHECK_STEP
            lo = loss()
            tensor[idx] = original
            fd[idx] = (hi - lo) / (2.0 * GRAD_CHECK_STEP)
        scale = max(np.abs(analytic[name]).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-8)
        per_tensor[name] = float(np.abs(analytic[name] - fd).max(initial=0.0) / scale)

    worst = max(per_tensor.values())
    return GradCheckReport(
        per_tensor=per_tensor,
        max_relative_error=worst,
        threshold=GRAD_CHECK_THRESHOLD,
        passed=worst <= GRAD_CHECK_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# toy training demo


@dataclass(frozen=True, eq=False)
class TrainBatch:
    """One static frame, several dynamic frames, and a fixed linear readout."""

    static_visual: np.ndarray
    dynamic_visual: tuple[np.ndarray, ...]
    dynamic_audio: tuple[np.ndarray, ...]
    text: InstructionTokens | None
    readout: np.ndarray  # (model_dim, visual_dim), not trained
    target: np.ndarray  # (visual_dim,) mean dynamic-frame visual token


def make_train_batch(
    cfg: QFormerConfig,
    seed: int = 0,
    frames: int = 4,
    visual_tokens: int = 144,
    audio_tokens: int = 50,
) -> TrainBatch:
    """Synthetic window batch: shared scene center plus per-frame jitter."""
    if frames < 2:
        raise ArgumentError(f"need a static frame plus >= 1 dynamic frames, got {frames}")
    rng = np.random.default_rng([seed, 0x7EA1])
    center = rng.standard_normal(cfg.visual_dim)
    base_v = center + 0.5 * rng.standard_normal((visual_tokens, cfg.visual_dim))
    static = base_v + 0.1 * rng.standard_normal(base_v.shape)
    dynamic_visual = tuple(
        base_v + 0.3 * rng.standard_normal(base_v.shape) for _ in range(frames - 1)
    )
    dynamic_audio = tuple(
        rng.standard_normal((audio_tokens, cfg.audio_dim)) for _ in range(frames - 1)
    )
    text = None
    if cfg.text_conditioning:
        ids = tuple(int(i) for i in rng.integers(0, VOCAB_SIZE, size=4))
        text = InstructionTokens(ids)
    readout = rng.standard_normal((cfg.model_dim, cfg.visual_dim)) / np.sqrt(cfg.model_dim)
    target = np.mean([f.mean(axis=0) for f in dynamic_visual], axis=0)
    return TrainBatch(static, dynamic_visual, dynamic_audio, text, readout, target)


def train_step(params: QFormerParams, batch: TrainBatch, lr: float):
    """One full-batch gradient-descent step on the reconstruction objective.

    A fixed linear readout maps the mean of the K output tokens to a
    prediction of the mean dynamic-frame visual token; the loss is the mean
    squared error averaged over dynamic frames, which go through forward and
    backward as one stack.  Returns (new params, loss); a loss that is not
    finite raises NumericError.
    """
    if lr < 0:
        raise ArgumentError(f"learning rate must be >= 0, got {lr}")
    cfg = params.cfg
    k = cfg.queries
    with np.errstate(invalid="ignore", over="ignore"):
        queries = build_queries(params, batch.static_visual)
        visual, audio = np.stack(batch.dynamic_visual), np.stack(batch.dynamic_audio)
        out, cache = forward(params, queries, visual, audio, text=batch.text, return_cache=True)
        err = out.mean(axis=-2) @ batch.readout - batch.target  # (frames, visual_dim)
        loss = float(np.sum(err * err)) / err.size
    if not np.isfinite(loss):
        raise NumericError(f"training loss is not finite: {loss}")
    d_out = np.broadcast_to(
        ((2.0 / (err.size * k)) * (err @ batch.readout.T))[:, None, :], out.shape
    )
    bundle = backward(params, cache, d_out)
    grads = bundle.tensors
    if cfg.query_type == "avgpool":
        # chain the query construction: Q = (P @ static) @ W_v
        static = np.asarray(batch.static_visual, dtype=np.float64)
        pool = kernels.pool_matrix(static.shape[0], k)
        grads["visual_proj"] += static.T @ (pool.T @ bundle.queries)
    new_tensors = {name: arr - lr * grads[name] for name, arr in params.tensors.items()}
    return QFormerParams(cfg, new_tensors), loss


# ---------------------------------------------------------------------------
# checkpoint container (TDCP)


def save_params(params: QFormerParams, path) -> None:
    """Write a TDCP checkpoint: config header plus named float32 tensors."""
    cfg = params.cfg
    w = ByteWriter()
    w.raw(PARAMS_MAGIC)
    w.u32(PARAMS_VERSION)
    w.u8(QUERY_TYPES.index(cfg.query_type))
    w.u8(int(cfg.text_conditioning))
    for value in (cfg.model_dim, cfg.heads, cfg.layers, cfg.queries, VOCAB_SIZE, cfg.visual_dim, cfg.audio_dim):
        w.u32(value)
    w.u32(len(params.tensors))
    for name, tensor in params.tensors.items():
        encoded = name.encode("utf-8")
        w.u16(len(encoded))
        w.raw(encoded)
        w.u8(tensor.ndim)
        for dim in tensor.shape:
            w.u32(dim)
        w.f32_array(tensor)
    Path(path).write_bytes(w.getvalue())


def load_params(path) -> QFormerParams:
    """Read a TDCP checkpoint back into float64 parameter tensors."""
    r = ByteReader(Path(path).read_bytes())
    r.expect_magic(PARAMS_MAGIC)
    r.expect_version(PARAMS_VERSION)
    header_offset = r.offset
    query_type_idx = r.u8("query type")
    if query_type_idx >= len(QUERY_TYPES):
        raise FormatError(f"unknown query type code {query_type_idx}", header_offset)
    text_flag = r.u8("text flag")
    model_dim = r.u32("model_dim")
    heads = r.u32("heads")
    layers = r.u32("layers")
    queries = r.u32("queries")
    vocab_offset = r.offset
    vocab = r.u32("vocab")
    if vocab != VOCAB_SIZE:
        raise FormatError(f"text vocabulary {vocab} is not {VOCAB_SIZE}", vocab_offset)
    visual_dim = r.u32("visual_dim")
    audio_dim = r.u32("audio_dim")
    try:
        cfg = QFormerConfig(
            model_dim=model_dim,
            heads=heads,
            layers=layers,
            queries=queries,
            query_type=QUERY_TYPES[query_type_idx],
            text_conditioning=bool(text_flag),
            visual_dim=visual_dim,
            audio_dim=audio_dim,
        )
    except ArgumentError as exc:
        raise FormatError(f"invalid config header: {exc}", header_offset) from exc
    count = r.u32("tensor count")
    shapes = expected_shapes(cfg)
    if count != len(shapes):
        raise FormatError(f"expected {len(shapes)} tensors, header declares {count}", r.offset - 4)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_offset = r.offset
        name_len = r.u16("tensor name length")
        name_start = r.offset
        raw_name = r.take(name_len, "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("tensor name is not valid UTF-8", name_start + exc.start) from exc
        if name not in shapes:
            raise FormatError(f"unexpected tensor {name!r}", name_offset)
        ndim = r.u8("tensor rank")
        shape = tuple(r.u32("tensor dim") for _ in range(ndim))
        if shape != shapes[name]:
            raise FormatError(
                f"tensor {name!r} has shape {shape}, expected {shapes[name]}", name_offset
            )
        flat = r.f32_array(int(np.prod(shape, dtype=np.int64)), f"tensor {name!r} payload")
        tensors[name] = flat.reshape(shape).astype(np.float64)
    r.expect_end()
    if set(tensors) != set(shapes):
        raise FormatError("duplicate tensor names in checkpoint", r.offset)
    return QFormerParams(cfg, {name: tensors[name] for name in shapes})
