"""Query-transformer compressor: cross-attention of a small query set over
projected visual+audio tokens, with optional instruction-text conditioning.

Architecture (per layer, pre-norm residual blocks):
    1. self-attention over [queries ; text embeddings] (queries only when
       text conditioning is off or the text is empty),
    2. cross-attention in which only the query rows attend over the
       projected tokens [visual @ W_v ; audio @ W_a],
    3. a gelu FFN with hidden width 4x the model dim.
The last layer computes only the K query rows: there the text rows serve
only as self-attention keys and values.  A final layer norm of those K rows
is the output.  No positional encoding is applied anywhere; key/value
tokens form a set.

Cross-attention builds no key or value tokens: per head its weights fold
into the projections, Gk = wkᵀ @ [W_v ; W_a]ᵀ, Gv likewise and Gvo = Gvᵀ @ wo.
A frame's tokens x, visual then audio with fixed columns, are scored by the
factor qs @ Gk into one (m_v + m_a, K·H) buffer, a softmax down each column;
the context xᵀ @ probs is divided by the column sums and Gvo maps it to the
output.  A modality with 0 tokens adds no score row and zero context columns.

Only cross-attention reads a frame, so ``build_queries`` runs once per window
what reads none: the queries, layer 0's self-attention over [queries ; text],
its cross-attention query side and its FFN of the text rows, and every
layer's folds.  One forward and one backward serve a frame and a stack of a
window's frames, whose gradients the backward sums where the window's work feeds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import kernels
from .binio import FLOAT32_OVERFLOW, read_container, write_container
from .errors import ArgumentError, FormatError, NumericError, ShapeError
from .timeline import VOCAB_SIZE, InstructionTokens

PARAMS_MAGIC = b"TDCP"
PARAMS_VERSION = 2
# the u32 fields of the TDCP header, in file order after its query-type and text-flag bytes
PARAMS_HEADER = ("model_dim", "heads", "layers", "queries", "vocab", "visual_dim", "audio_dim")
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
        # each message begins with the field at fault, by which load_params locates it
        if self.model_dim < 1:
            raise ArgumentError(f"model_dim must be >= 1, got {self.model_dim}")
        if self.heads < 1:
            raise ArgumentError(f"heads must be >= 1, got {self.heads}")
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
        if self.visual_dim < 1:
            raise ArgumentError(f"visual_dim must be >= 1, got {self.visual_dim}")
        if self.audio_dim < 0:
            raise ArgumentError(f"audio_dim must be >= 0, got {self.audio_dim}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")

    @property
    def ffn_dim(self) -> int:
        return 4 * self.model_dim


# small enough for elementwise finite-difference checking
GRAD_CHECK_CONFIG = QFormerConfig(
    model_dim=16, heads=2, layers=1, queries=4, query_type="learned", text_conditioning=True, visual_dim=8, audio_dim=6
)
GRAD_CHECK_THRESHOLD = 1e-5
GRAD_CHECK_STEP = 1e-5  # central-difference step


def expected_shapes(cfg: QFormerConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor-name -> shape map; fixes init order and the checkpoint layout."""
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
        for block in ("self", "cross"):
            shapes[p + block + "_norm.gamma"] = (d,)
            shapes[p + block + "_norm.beta"] = (d,)
            for w in ("wq", "wk", "wv", "wo"):
                shapes[p + block + "." + w] = (d, d)
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
    """A config and tensors of exactly the names and shapes of ``expected_shapes``, else a
    ShapeError naming the first misfit; no name can be replaced after that check."""

    cfg: QFormerConfig
    tensors: Mapping[str, np.ndarray]

    def __post_init__(self):
        shapes = expected_shapes(self.cfg)
        found = {name: np.shape(tensor) for name, tensor in self.tensors.items()}
        if found != shapes:
            name = next(n for n in {**shapes, **found} if found.get(n) != shapes.get(n))
            raise ShapeError(f"tensor {name!r} is {found.get(name, 'missing')}, the config expects {shapes.get(name, 'none')}")
        object.__setattr__(self, "tensors", MappingProxyType(dict(self.tensors)))

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


def _frame_tokens(params: QFormerParams, visual, audio):
    """The one check of one frame's or a stack's tokens, (m, d) or (F, m, d): float64 (visual, audio)
    at the config's widths, no token 0 wide; audio of 0 tokens may arrive at any width."""
    cfg = params.cfg
    v = np.asarray(visual, dtype=np.float64)
    a = np.asarray(audio, dtype=np.float64)
    if v.ndim not in (2, 3) or a.ndim != v.ndim or a.shape[:-2] != v.shape[:-2]:
        raise ShapeError(f"visual {v.shape} and audio {a.shape} are not both (m, d) or both (F, m, d)")
    if v.shape[-1] != cfg.visual_dim:
        raise ShapeError(f"visual dim {v.shape[-1]} does not match config {cfg.visual_dim}")
    if a.shape[-2] > 0 and a.shape[-1] != cfg.audio_dim:
        raise ShapeError(f"audio dim {a.shape[-1]} does not match config {cfg.audio_dim}")
    if a.shape[-2] and not a.shape[-1]:  # keys of score 0 and value 0 that would still take attention mass
        raise ShapeError(f"{a.shape[-2]} audio tokens per frame of dim 0")
    return v, a.reshape(*a.shape[:-1], cfg.audio_dim)


def project(params: QFormerParams, visual, audio) -> np.ndarray:
    """Frame tokens in model space: float64 [visual @ W_v ; audio @ W_a]."""
    v, a = _frame_tokens(params, visual, audio)
    return np.concatenate([v @ params["visual_proj"], a @ params["audio_proj"]], axis=-2)


# ---------------------------------------------------------------------------
# forward / backward internals


class _SelfCache(NamedTuple):
    ln: tuple
    h: np.ndarray  # (..., n, d) the normed rows, of which the first r query all n
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    probs: np.ndarray  # (..., H, r, n)
    merged: np.ndarray  # (..., r, d), the heads' context before the output projection


class _CrossCache(NamedTuple):
    v: np.ndarray  # (..., m_v, d_v) visual frame tokens
    a: np.ndarray  # (..., m_a, d_a) audio frame tokens
    e: np.ndarray  # (..., m_v + m_a, K·H) exp-scores, a column per query and head: visual rows, then audio rows
    sums: np.ndarray  # (..., 1, K·H) the column sums of e
    ctx: np.ndarray  # (..., K, H·(d_v + d_a)) each query's heads' [probs_v @ v | probs_a @ a], side by side


class _LayerCache(NamedTuple):
    self_attn: _SelfCache
    query: tuple  # cross-attention's query side: norm cache, normed rows (..., K, d), heads qs (..., H, K, d_h)
    cross: _CrossCache
    ffn: tuple  # norm cache, normed rows, u = h @ w1 + b1, gelu(u) and its tanh t


class WindowQueries(NamedTuple):  # what every frame of a window shares, from build_queries
    pooled: np.ndarray | None  # (K, d_v) pooled static tokens; None for learned queries
    ids: tuple[int, ...]  # the instruction-text ids, () without text conditioning
    x: np.ndarray  # (K, d) query rows after layer 0's self-attention; in a deeper model, text rows after layer 0 follow
    self_attn: _SelfCache  # layer 0's self-attention
    query: tuple  # layer 0's cross-attention query side
    f: np.ndarray  # (K·H, d_v + d_a) its score factor qs @ Gk, a row per query and head
    text_ffn: tuple  # layer 0's FFN of the text rows (of no rows in a 1-layer model)
    w_t: np.ndarray  # (d, d_v + d_a): [W_v ; W_a]ᵀ
    g: list  # per layer, its folds Gk, Gv (H, d_h, d_v + d_a) and Gvo (H·(d_v + d_a), d)


class _ForwardCache(NamedTuple):
    queries: WindowQueries
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


def _frame_sum(x: np.ndarray, trailing: int = 2) -> np.ndarray:
    """A frame's x, or a stack's summed over its frames: the sum over all but x's trailing axes."""
    return x.sum(axis=tuple(range(x.ndim - trailing)))


def _weight_grad(x: np.ndarray, d_y: np.ndarray) -> np.ndarray:
    """Gradient of W in y = x @ W, summed over every row of every frame."""
    return _rows(x).T @ _rows(d_y)


def _norm(x, t, prefix):
    """Layer norm ``prefix`` of x: (output, cache for _norm_backward)."""
    return kernels.layer_norm(x, t[prefix + ".gamma"], t[prefix + ".beta"])


def _norm_backward(d_y, cache, t, prefix, grads):
    """Input gradient of layer norm ``prefix``; adds its gamma and beta gradients into grads."""
    d_x, d_gamma, d_beta = kernels.layer_norm_grad(d_y, cache, t[prefix + ".gamma"])
    grads[prefix + ".gamma"] += d_gamma
    grads[prefix + ".beta"] += d_beta
    return d_x


def _self_forward(x, r, t, prefix, heads):
    """Self-attention block ``prefix`` of the first r rows over all rows x: (rows out, cache)."""
    h, ln = _norm(x, t, prefix + "self_norm")
    w = {name: t[prefix + "self." + name] for name in ("wq", "wk", "wv", "wo")}
    qh, kh, vh = (_split_heads(y, heads) for y in (h[..., :r, :] @ w["wq"], h @ w["wk"], h @ w["wv"]))
    probs = kernels.softmax_rows(qh @ kh.swapaxes(-1, -2) / np.sqrt(qh.shape[-1]))
    merged = _merge_heads(probs @ vh)
    return x[..., :r, :] + merged @ w["wo"], _SelfCache(ln, h, qh, kh, vh, probs, merged)


def _self_backward(d_y, cache: _SelfCache, t, prefix, grads):
    """Input gradient of self-attention block ``prefix``; adds its weight gradients into grads."""
    ln, h, qh, kh, vh, probs, merged = cache
    w = {name: t[prefix + "self." + name] for name in ("wq", "wk", "wv", "wo")}
    r = qh.shape[-2]
    d_ctx = _split_heads(d_y @ w["wo"].T, qh.shape[-3])
    d_probs = d_ctx @ vh.swapaxes(-1, -2)
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_scores *= 1.0 / np.sqrt(qh.shape[-1])
    d_qf = _merge_heads(d_scores @ kh)
    d_kf = _merge_heads(d_scores.swapaxes(-1, -2) @ qh)
    d_vf = _merge_heads(probs.swapaxes(-1, -2) @ d_ctx)
    for name, x, d in (("wq", h[..., :r, :], d_qf), ("wk", h, d_kf), ("wv", h, d_vf), ("wo", merged, d_y)):
        grads[prefix + "self." + name] += _weight_grad(x, d)
    d_h = d_kf @ w["wk"].T + d_vf @ w["wv"].T
    d_h[..., :r, :] += d_qf @ w["wq"].T
    d_x = _norm_backward(d_h, ln, t, prefix + "self_norm", grads)
    d_x[..., :r, :] += d_y
    return d_x


def _ffn_forward(x, t, prefix):
    """FFN block ``prefix`` of the rows x: (rows out, cache)."""
    h, ln = _norm(x, t, prefix + "ffn_norm")
    u = h @ t[prefix + "ffn.w1"] + t[prefix + "ffn.b1"]
    g, tanh = kernels.gelu(u)
    return x + g @ t[prefix + "ffn.w2"] + t[prefix + "ffn.b2"], (ln, h, u, g, tanh)


def _ffn_backward(d_y, cache, t, prefix, grads):
    """Input gradient of FFN block ``prefix``, residual included; adds its weight gradients into grads."""
    ln, h, u, g, tanh = cache
    grads[prefix + "ffn.w2"] += _weight_grad(g, d_y)
    grads[prefix + "ffn.b2"] += _rows(d_y).sum(axis=0)
    d_u = (d_y @ t[prefix + "ffn.w2"].T) * kernels.gelu_grad(u, tanh)
    grads[prefix + "ffn.w1"] += _weight_grad(h, d_u)
    grads[prefix + "ffn.b1"] += _rows(d_u).sum(axis=0)
    return d_y + _norm_backward(d_u @ t[prefix + "ffn.w1"].T, ln, t, prefix + "ffn_norm", grads)


def _fold_backward(d_g, w_t, t, name, grads):
    """Adds the gradients of weight ``name`` and of the projections, given d_g (H, d_h, c), that of its fold wᵀ @ w_t."""
    d_g = d_g.reshape(-1, d_g.shape[-1])
    grads[name] += w_t @ d_g.T
    d_w = (t[name] @ d_g).T
    grads["visual_proj"] += d_w[: len(grads["visual_proj"])]
    grads["audio_proj"] += d_w[len(grads["visual_proj"]) :]


def _query_forward(x, gk, t, prefix, heads):
    """Cross-attention ``prefix``'s query side of the K rows x: (score factor qs @ Gk (..., K·H, c), cache)."""
    h, ln = _norm(x, t, prefix + "cross_norm")
    qs = _split_heads(h @ t[prefix + "cross.wq"], heads) * (1.0 / np.sqrt(gk.shape[-2]))
    f = (qs @ gk).swapaxes(-3, -2)
    return f.reshape(*f.shape[:-3], -1, f.shape[-1]), (ln, h, qs)


def _query_backward(d_f, cache, w_t, gk, t, prefix, grads):
    """Input gradient of cross-attention ``prefix``'s query side, given d_f, that of its score factor."""
    ln, h, qs = cache
    d_f = d_f.reshape(*d_f.shape[:-2], qs.shape[-2], qs.shape[-3], -1).swapaxes(-3, -2)
    _fold_backward(_frame_sum(qs.swapaxes(-1, -2) @ d_f, 3), w_t, t, prefix + "cross.wk", grads)
    d_qf = _merge_heads(d_f @ gk.swapaxes(-1, -2)) * (1.0 / np.sqrt(qs.shape[-1]))
    grads[prefix + "cross.wq"] += _weight_grad(h, d_qf)
    return _norm_backward(d_qf @ t[prefix + "cross.wq"].T, ln, t, prefix + "cross_norm", grads)


def _blocks(x_v, x_a, f):
    """[x_v @ f_vᵀ ; x_a @ f_aᵀ], f's columns split after x_v's, each block into its rows of one buffer: from
    frame tokens v, a and f (..., n, d_v + d_a) the scores (..., m_v + m_a, n); from vᵀ, aᵀ and scores sᵀ the
    token sums [vᵀ @ s_v ; aᵀ @ s_a] (..., d_v + d_a, n)."""
    w, m = x_v.shape[-1], x_v.shape[-2]
    out = np.empty((*x_v.shape[:-2], m + x_a.shape[-2], f.shape[-2]))
    np.matmul(x_v, f[..., :w].swapaxes(-1, -2), out=out[..., :m, :])
    np.matmul(x_a, f[..., w:].swapaxes(-1, -2), out=out[..., m:, :])
    return out


def _cross_forward(f, v, a, gvo):
    """Cross-attention of the query rows with score factor f over a frame's tokens v, a: (output, cache).
    Each softmax runs down a column of the scores; its division waits for the (c, K·H) context."""
    e = _blocks(v, a, f)
    e -= e.max(axis=-2, keepdims=True)
    np.exp(e, out=e)
    sums = np.ones((1, e.shape[-2])) @ e  # the column sums, as a matmul: a reduction down columns is slower
    ctx = _blocks(v.swapaxes(-1, -2), a.swapaxes(-1, -2), e.swapaxes(-1, -2))
    ctx /= sums
    ctx = ctx.swapaxes(-1, -2).reshape(*ctx.shape[:-2], -1, len(gvo))
    return ctx @ gvo, _CrossCache(v, a, e, sums, ctx)


def _cross_backward(d_y, cache: _CrossCache, w_t, g, t, prefix, grads):
    """Gradient of cross-attention ``prefix``'s score factor; adds those of wo, wv and the projections into grads."""
    v, a, e, sums, ctx = cache
    _, gv, gvo = g
    d_gvo = _weight_grad(ctx, d_y).reshape(len(gv), -1, d_y.shape[-1])
    grads[prefix + "cross.wo"] += (gv @ d_gvo).reshape(-1, d_y.shape[-1])
    d_gv = t[prefix + "cross.wo"].reshape(len(gv), -1, d_y.shape[-1]) @ d_gvo.swapaxes(-1, -2)
    _fold_backward(d_gv, w_t, t, prefix + "cross.wv", grads)
    # per column, with probs = e / sums: d_s = probs * (d_probs - sum(d_probs * probs)), sum(d_probs * probs) = d_ctx . ctx
    inv = 1.0 / sums.swapaxes(-1, -2)
    d_ctx = (d_y @ gvo.T).reshape(*e.shape[:-2], -1, gv.shape[-1])
    dot = (d_ctx * ctx.reshape(d_ctx.shape)).sum(axis=-1, keepdims=True)
    d_s = _blocks(v, a, d_ctx * inv)
    d_s -= (dot * inv).swapaxes(-1, -2)
    d_s *= e
    return _blocks(v.swapaxes(-1, -2), a.swapaxes(-1, -2), d_s.swapaxes(-1, -2)).swapaxes(-1, -2)


def build_queries(params: QFormerParams, static_visual, text=None) -> WindowQueries:
    """What every frame of one window shares.  avgpool mode pools the static
    frame's visual tokens, static_visual (m_s, d_v), into K groups projected by
    W_v; learned mode takes ``learned_queries``.  Only cross-attention reads a
    frame, so everything before it runs here: layer 0's self-attention over
    [queries ; text], its cross-attention query side and its FFN of the text
    rows, and each layer's folds of its cross-attention weights."""
    cfg = params.cfg
    t = params.tensors
    k, heads, d = cfg.queries, cfg.heads, cfg.model_dim
    q, pooled = t["learned_queries"], None
    if cfg.query_type == "avgpool":
        static = np.asarray(static_visual, dtype=np.float64)
        if static.ndim != 2 or static.shape[1] != cfg.visual_dim:
            raise ShapeError(f"static visual tokens {static.shape} are not (m, {cfg.visual_dim})")
        # pool_matrix rejects fewer static tokens than queries
        pooled = kernels.pool_matrix(static.shape[0], k) @ static
        q = pooled @ t["visual_proj"]
    ids = tuple(text.ids) if cfg.text_conditioning and text is not None else ()
    rows = np.vstack([q, t["text_embed"][np.asarray(ids, dtype=np.intp)]])
    # only the query rows reach the output, so the last layer computes those alone
    x, self_cache = _self_forward(rows, k if cfg.layers == 1 else len(rows), t, "layers.0.", heads)
    w_t = np.concatenate([t["visual_proj"], t["audio_proj"]]).T
    g = []
    for i in range(cfg.layers):
        gk, gv = ((t[f"layers.{i}.cross.{w}"].T @ w_t).reshape(heads, -1, w_t.shape[-1]) for w in ("wk", "wv"))
        g.append((gk, gv, (gv.swapaxes(-1, -2) @ t[f"layers.{i}.cross.wo"].reshape(heads, -1, d)).reshape(-1, d)))
    f, query = _query_forward(x[:k], g[0][0], t, "layers.0.", heads)
    x[k:], text_ffn = _ffn_forward(x[k:], t, "layers.0.")  # no rows in a 1-layer model
    return WindowQueries(pooled, ids, x, self_cache, query, f, text_ffn, w_t, g)


def forward(params: QFormerParams, queries: WindowQueries, visual, audio) -> tuple[np.ndarray, _ForwardCache]:
    """Compress one frame of a window, visual (m_v, d_v) and audio (m_a, d_a),
    into (K, d); or a stack of its frames (F, m_v, d_v), (F, m_a, d_a) into
    (F, K, d).  Returns (output, cache for ``backward``), as every block does.

    ``queries`` is the window's ``build_queries``: each frame starts from its
    rows and score factor at layer 0's cross-attention.
    """
    cfg = params.cfg
    t = params.tensors
    v, a = _frame_tokens(params, visual, audio)
    if v.shape[-2] + a.shape[-2] == 0:
        raise ShapeError("cross-attention needs at least one visual or audio token")
    k = cfg.queries
    x = np.empty(v.shape[:-2] + queries.x.shape)
    x[...] = queries.x
    self_cache, query, f = queries.self_attn, queries.query, queries.f

    layer_caches: list[_LayerCache] = []
    for i in range(cfg.layers):
        p = f"layers.{i}."
        if i:
            x, self_cache = _self_forward(x, k if i == cfg.layers - 1 else x.shape[-2], t, p, cfg.heads)
            f, query = _query_forward(x[..., :k, :], queries.g[i][0], t, p, cfg.heads)
        ca, cross = _cross_forward(f, v, a, queries.g[i][2])
        x[..., :k, :] += ca
        n = x.shape[-2] if i else k  # the text rows ran layer 0's FFN in build_queries
        x[..., :n, :], ffn = _ffn_forward(x[..., :n, :], t, p)
        layer_caches.append(_LayerCache(self_cache, query, cross, ffn))

    out, final_ln = _norm(x, t, "final_norm")
    return out, _ForwardCache(queries, layer_caches, final_ln)


def backward(params: QFormerParams, cache: _ForwardCache, upstream) -> dict[str, np.ndarray]:
    """Analytic gradients of <upstream, output> for the forward call that made
    ``cache``: one array per parameter tensor, summed over a stack's frames.

    The query gradient reaches ``visual_proj`` through the pooled static
    tokens, or ``learned_queries`` in learned-query mode.
    """
    cfg = params.cfg
    t = params.tensors
    k = cfg.queries
    queries = cache.queries
    out_shape = cache.final_ln[0].shape
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != out_shape:
        raise ShapeError(f"upstream shape {up.shape} does not match output shape {out_shape}")
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    d_x = _norm_backward(up, cache.final_ln, t, "final_norm", grads)

    for i, lc in reversed(list(enumerate(cache.layers))):
        p = f"layers.{i}."
        n = d_x.shape[-2] if i else k
        d_x[..., :n, :] = _ffn_backward(d_x[..., :n, :], lc.ffn, t, p, grads)
        d_f = _cross_backward(d_x[..., :k, :], lc.cross, queries.w_t, queries.g[i], t, p, grads)
        if i == 0:  # the window's rows and score factor are every frame's
            d_x, d_f = _frame_sum(d_x), _frame_sum(d_f)
            d_x[k:] = _ffn_backward(d_x[k:], queries.text_ffn, t, p, grads)
        d_x[..., :k, :] += _query_backward(d_f, lc.query, queries.w_t, queries.g[i][0], t, p, grads)
        d_x = _self_backward(d_x, lc.self_attn, t, p, grads)

    np.add.at(grads["text_embed"], np.asarray(queries.ids, dtype=np.intp), d_x[k:])
    if queries.pooled is None:
        grads["learned_queries"] += d_x[:k]
    else:
        grads["visual_proj"] += queries.pooled.T @ d_x[:k]
    return grads


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    per_tensor: dict[str, float]
    max_relative_error: float


def grad_check(cfg: QFormerConfig = GRAD_CHECK_CONFIG, seed: int = 0) -> GradCheckReport:
    """Compare the analytic backward against central finite differences.

    Relative error per tensor is max|analytic - fd| / max(|analytic|, |fd|, 1e-8)
    over its entries.  Rows of the text-embedding table that the probe text
    never references are skipped: the loss provably does not depend on them,
    so both sides are identically zero.  The probe is a single frame with its
    own static frame, so the query path is checked in both query modes.
    """
    params = init_params(replace(cfg, seed=seed))
    rng = np.random.default_rng([seed, 0xC0FFEE])
    visual = rng.standard_normal((7, cfg.visual_dim))
    audio = rng.standard_normal((5, cfg.audio_dim))
    text = None
    if cfg.text_conditioning:
        text = InstructionTokens(tuple(int(i) for i in rng.integers(0, VOCAB_SIZE, size=3)))
    upstream = rng.standard_normal((cfg.queries, cfg.model_dim))
    static = rng.standard_normal((2 * cfg.queries + 1, cfg.visual_dim))

    def loss() -> float:
        return float(np.sum(upstream * forward(params, build_queries(params, static, text), visual, audio)[0]))

    _, cache = forward(params, build_queries(params, static, text), visual, audio)
    analytic = backward(params, cache, upstream)

    per_tensor: dict[str, float] = {}
    for name, tensor in params.tensors.items():
        fd = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            if name == "text_embed" and (text is None or idx[0] not in text.ids):
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

    return GradCheckReport(per_tensor=per_tensor, max_relative_error=max(per_tensor.values()))


# ---------------------------------------------------------------------------
# toy training demo


@dataclass(frozen=True, eq=False)
class TrainBatch:
    """One static frame, several dynamic frames, and a fixed linear readout."""

    static_visual: np.ndarray  # (m_v, visual_dim)
    dynamic_visual: np.ndarray  # (F, m_v, visual_dim), stacked as forward takes it
    dynamic_audio: np.ndarray  # (F, m_a, audio_dim)
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
    if seed < 0:
        raise ArgumentError(f"batch seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 0x7EA1])
    center = rng.standard_normal(cfg.visual_dim)
    base_v = center + 0.5 * rng.standard_normal((visual_tokens, cfg.visual_dim))
    static = base_v + 0.1 * rng.standard_normal(base_v.shape)
    dynamic_visual = base_v + 0.3 * rng.standard_normal((frames - 1, *base_v.shape))
    dynamic_audio = rng.standard_normal((frames - 1, audio_tokens, cfg.audio_dim))
    text = None
    if cfg.text_conditioning:
        ids = tuple(int(i) for i in rng.integers(0, VOCAB_SIZE, size=4))
        text = InstructionTokens(ids)
    readout = rng.standard_normal((cfg.model_dim, cfg.visual_dim)) / np.sqrt(cfg.model_dim)
    target = dynamic_visual.mean(axis=1).mean(axis=0)
    return TrainBatch(static, dynamic_visual, dynamic_audio, text, readout, target)


def train_step(params: QFormerParams, batch: TrainBatch, lr: float):
    """One full-batch gradient-descent step on the reconstruction objective.

    A fixed linear readout maps the mean of the K output tokens to a
    prediction of the mean dynamic-frame visual token; the loss is the mean
    squared error averaged over dynamic frames, which go through forward and
    backward as one stack.  Returns (new params, loss); a loss that is not
    finite raises NumericError.
    """
    if not np.isfinite(lr) or lr < 0:
        raise ArgumentError(f"learning rate must be finite and >= 0, got {lr}")
    cfg = params.cfg
    with np.errstate(invalid="ignore", over="ignore"):
        queries = build_queries(params, batch.static_visual, batch.text)
        out, cache = forward(params, queries, batch.dynamic_visual, batch.dynamic_audio)
        err = out.mean(axis=-2) @ batch.readout - batch.target  # (frames, visual_dim)
        loss = float(np.sum(err * err)) / err.size
    if not np.isfinite(loss):
        raise NumericError(f"training loss is not finite: {loss}")
    d_out = np.broadcast_to((2.0 / (err.size * cfg.queries)) * (err @ batch.readout.T)[:, None, :], out.shape)
    grads = backward(params, cache, d_out)
    for name, arr in params.tensors.items():  # arr - lr * g, bit for bit, in g's own array
        grads[name] *= -lr
        grads[name] += arr
    return QFormerParams(cfg, grads), loss


# ---------------------------------------------------------------------------
# checkpoint container (TDCP)


def save_params(params: QFormerParams, path) -> None:
    """Write a TDCP checkpoint: config header, then the float32 tensors in expected_shapes order.
    Raises NumericError, and writes nothing, if a tensor is not finite in float32."""
    cfg, names = params.cfg, expected_shapes(params.cfg)
    for name in names:
        if not (np.abs(params[name]) < FLOAT32_OVERFLOW).all():
            raise NumericError(f"tensor {name!r} is not finite in float32")
    with write_container(path, PARAMS_MAGIC, PARAMS_VERSION) as w:
        w.u8(QUERY_TYPES.index(cfg.query_type))
        w.u8(int(cfg.text_conditioning))
        for field in PARAMS_HEADER:
            w.u32(VOCAB_SIZE if field == "vocab" else getattr(cfg, field))
        for name in names:
            w.array(params[name], "<f4")


def load_params(path) -> QFormerParams:
    """Read a TDCP checkpoint back into float64 parameter tensors, refusing a
    value that is not finite with a FormatError at its bytes."""
    with read_container(path, PARAMS_MAGIC, PARAMS_VERSION) as r:
        header_offset = r.offset
        query_type_idx = r.u8("query type")
        if query_type_idx >= len(QUERY_TYPES):
            raise FormatError(f"unknown query type code {query_type_idx}", header_offset)
        text_flag = r.u8("text flag")
        if text_flag > 1:
            raise FormatError(f"text flag {text_flag} is neither 0 nor 1", header_offset + 1)
        at = {field: r.offset + 4 * i for i, field in enumerate(PARAMS_HEADER)}
        header = {field: r.u32(field) for field in PARAMS_HEADER}
        layers, model_dim, vocab = header["layers"], header["model_dim"], header.pop("vocab")
        # each layer stores eight (d, d) float32 attention matrices; bound the
        # count by the bytes left before expected_shapes loops over the layers
        if layers * 8 * 4 * model_dim * model_dim > r.left:
            raise FormatError(f"{layers} layers of width {model_dim} overrun the {r.left} bytes left", at["layers"])
        if vocab != VOCAB_SIZE:
            raise FormatError(f"text vocabulary {vocab} is not {VOCAB_SIZE}", at["vocab"])
        try:
            cfg = QFormerConfig(**header, query_type=QUERY_TYPES[query_type_idx], text_conditioning=bool(text_flag))
        except ArgumentError as exc:  # its message begins with the field at fault
            field = str(exc).split()[0]
            raise FormatError(f"invalid config header: {exc}", at.get(field, header_offset)) from exc
        tensors = {}
        for name, shape in expected_shapes(cfg).items():
            start = r.offset
            raw = r.array(shape, "<f4", f"tensor {name!r}")
            bad = np.flatnonzero(~np.isfinite(raw))  # save_params writes none: it is corruption
            if bad.size:
                i = int(bad[0])
                raise FormatError(f"tensor {name!r} holds {raw.flat[i]}, which is not finite", start + 4 * i)
            tensors[name] = raw.astype(np.float64)
    return QFormerParams(cfg, tensors)
