import numpy as np
import pytest

import tdc
from tdc import kernels, qformer
from tdc.errors import ArgumentError, FormatError, NumericError, ShapeError, TruncatedPayloadError


def tiny_config(**overrides):
    base = dict(model_dim=8, heads=2, layers=1, queries=2, visual_dim=4, audio_dim=3, seed=0)
    base.update(overrides)
    return tdc.QFormerConfig(**base)


def random_inputs(cfg, seed=0, visual_rows=6, audio_rows=4):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((cfg.queries, cfg.model_dim)),
        rng.standard_normal((visual_rows, cfg.visual_dim)),
        rng.standard_normal((audio_rows, cfg.audio_dim)),
    )


def test_init_is_deterministic_per_seed():
    a = tdc.init_params(tdc.QFormerConfig(seed=9))
    b = tdc.init_params(tdc.QFormerConfig(seed=9))
    c = tdc.init_params(tdc.QFormerConfig(seed=10))
    assert all(np.array_equal(a[k], b[k]) for k in a.tensors)
    assert any(not np.array_equal(a[k], c[k]) for k in a.tensors)


def test_head_dim_and_divisibility():
    assert tdc.QFormerConfig(model_dim=64, heads=4).head_dim == 16
    with pytest.raises(ArgumentError):
        tdc.QFormerConfig(model_dim=64, heads=5)


def test_forward_shape_contract():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    q, _, _ = random_inputs(cfg)
    rng = np.random.default_rng(1)
    for m_v, m_a, words in [(1, 0, ""), (5, 3, "a"), (12, 7, "one two three four")]:
        out = tdc.forward(
            params,
            q,
            rng.standard_normal((m_v, cfg.visual_dim)),
            rng.standard_normal((m_a, cfg.audio_dim)),
            text=tdc.tokenize_text(words),
        )
        assert out.shape == (cfg.queries, cfg.model_dim)
        assert np.all(np.isfinite(out))


def test_forward_rejects_bad_shapes():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    q, v, a = random_inputs(cfg)
    with pytest.raises(ShapeError):
        tdc.forward(params, q[:, :-1], v, a)
    with pytest.raises(ShapeError):
        tdc.forward(params, q, v[:, :-1], a)
    with pytest.raises(ShapeError):
        tdc.forward(params, q, np.zeros((0, cfg.visual_dim)), np.zeros((0, cfg.audio_dim)))


def test_joint_kv_permutation_invariance():
    # with a shared projection the concatenated kv rows can be shuffled across
    # the visual/audio boundary; the attention output must not move
    cfg = tiny_config(visual_dim=4, audio_dim=4)
    params = tdc.init_params(cfg)
    params.tensors["audio_proj"][:] = params.tensors["visual_proj"]
    q, v, a = random_inputs(cfg, seed=3, visual_rows=6, audio_rows=5)
    rows = np.vstack([v, a])
    perm = np.random.default_rng(4).permutation(rows.shape[0])
    shuffled = rows[perm]
    out1 = tdc.forward(params, q, v, a)
    out2 = tdc.forward(params, q, shuffled[:6], shuffled[6:])
    np.testing.assert_allclose(out1, out2, atol=1e-9)


def test_within_modality_permutation_invariance(default_params):
    cfg = default_params.cfg
    rng = np.random.default_rng(5)
    q = rng.standard_normal((cfg.queries, cfg.model_dim))
    v = rng.standard_normal((9, cfg.visual_dim))
    a = rng.standard_normal((5, cfg.audio_dim))
    out1 = tdc.forward(default_params, q, v, a)
    out2 = tdc.forward(default_params, q, v[rng.permutation(9)], a[rng.permutation(5)])
    np.testing.assert_allclose(out1, out2, atol=1e-9)


def test_query_order_equivariance():
    cfg = tiny_config(queries=4)
    params = tdc.init_params(cfg)
    q, v, a = random_inputs(cfg, seed=6)
    perm = np.array([2, 0, 3, 1])
    out = tdc.forward(params, q, v, a)
    out_perm = tdc.forward(params, q[perm], v, a)
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)


def test_zeroed_value_and_ffn_output_weights_reduce_to_ln_of_queries():
    cfg = tdc.QFormerConfig(seed=2, text_conditioning=True)
    params = tdc.init_params(cfg)
    for i in range(cfg.layers):
        params.tensors[f"layers.{i}.self.wv"][:] = 0.0
        params.tensors[f"layers.{i}.cross.wv"][:] = 0.0
        params.tensors[f"layers.{i}.ffn.w2"][:] = 0.0
    rng = np.random.default_rng(7)
    q = rng.standard_normal((cfg.queries, cfg.model_dim))
    text = tdc.tokenize_text("some instruction words")
    out1 = tdc.forward(params, q, rng.standard_normal((10, 32)), rng.standard_normal((6, 32)), text=text)
    out2 = tdc.forward(params, q, rng.standard_normal((4, 32)), rng.standard_normal((9, 32)), text=text)
    # residual-only reference: the final norm applied to the raw queries
    ref, _ = kernels.layer_norm(q, params["final_norm.gamma"], params["final_norm.beta"], eps=qformer.LN_EPS)
    np.testing.assert_allclose(out1, ref, atol=1e-12)
    np.testing.assert_allclose(out2, ref, atol=1e-12)


def test_text_conditioning_changes_output():
    cfg = tiny_config(text_conditioning=True)
    params = tdc.init_params(cfg)
    q, v, a = random_inputs(cfg, seed=8)
    out_off = tdc.forward(params, q, v, a, text=None)
    out_on = tdc.forward(params, q, v, a, text=tdc.tokenize_text("watch the dog"))
    assert np.abs(out_on - out_off).max() > 0.0


def test_convex_hull_of_cross_attention_heads(default_params):
    cfg = default_params.cfg
    rng = np.random.default_rng(9)
    q = rng.standard_normal((cfg.queries, cfg.model_dim))
    v = rng.standard_normal((8, cfg.visual_dim))
    a = rng.standard_normal((5, cfg.audio_dim))
    _, cache = tdc.forward(default_params, q, v, a, return_cache=True)
    for lc in cache.layers:
        ctx, vh = lc.cross.ctx, lc.cross.vh
        assert (ctx <= vh.max(axis=1, keepdims=True) + 1e-9).all()
        assert (ctx >= vh.min(axis=1, keepdims=True) - 1e-9).all()


def test_zero_upstream_gives_zero_bundle():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    q, v, a = random_inputs(cfg)
    bundle = tdc.backward(params, q, v, a, np.zeros((cfg.queries, cfg.model_dim)))
    assert all(np.all(g == 0.0) for g in bundle.tensors.values())
    assert np.all(bundle.queries == 0.0)


def test_unused_learned_queries_get_zero_gradient():
    cfg = tiny_config(query_type="avgpool")
    params = tdc.init_params(cfg)
    q, v, a = random_inputs(cfg, seed=11)
    up = np.random.default_rng(12).standard_normal((cfg.queries, cfg.model_dim))
    bundle = tdc.backward(params, q, v, a, up)
    assert np.all(bundle["learned_queries"] == 0.0)
    assert np.abs(bundle["visual_proj"]).max() > 0.0


def test_grad_check_passes_and_is_deterministic():
    r1 = tdc.grad_check(seed=0)
    r2 = tdc.grad_check(seed=0)
    assert r1.passed and r1.max_relative_error <= 1e-5
    assert r1.per_tensor == r2.per_tensor


def test_grad_check_fault_injection_isolates_tensor():
    report = tdc.grad_check(seed=1, corrupt="layers.0.ffn.w1")
    assert not report.passed
    assert max(report.per_tensor, key=report.per_tensor.get) == "layers.0.ffn.w1"
    others = {k: v for k, v in report.per_tensor.items() if k != "layers.0.ffn.w1"}
    assert max(others.values()) <= 1e-5


def test_avgpool_query_path_gradient_matches_finite_differences():
    # full-pipeline check of the one path grad_check cannot see: W_v feeding
    # the pooled queries as well as the key/value projection
    cfg = tiny_config(query_type="avgpool")
    params = tdc.init_params(cfg)
    rng = np.random.default_rng(13)
    static = rng.standard_normal((5, cfg.visual_dim))
    v = rng.standard_normal((6, cfg.visual_dim))
    a = rng.standard_normal((4, cfg.audio_dim))
    up = rng.standard_normal((cfg.queries, cfg.model_dim))

    def loss():
        queries = tdc.build_queries(params, static)
        return float(np.sum(up * tdc.forward(params, queries, v, a)))

    queries = tdc.build_queries(params, static)
    bundle = tdc.backward(params, queries, v, a, up)
    pool = kernels.pool_matrix(static.shape[0], cfg.queries)
    analytic = bundle["visual_proj"] + static.T @ (pool.T @ bundle.queries)

    w = params.tensors["visual_proj"]
    fd = np.zeros_like(w)
    h = 1e-6
    for idx in np.ndindex(w.shape):
        orig = w[idx]
        w[idx] = orig + h
        hi = loss()
        w[idx] = orig - h
        lo = loss()
        w[idx] = orig
        fd[idx] = (hi - lo) / (2 * h)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_train_step_zero_lr_is_noop():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    batch = qformer.make_train_batch(cfg, seed=0, frames=3, visual_tokens=6, audio_tokens=4)
    new_params, loss = tdc.train_step(params, batch, 0.0)
    assert loss >= 0.0
    assert all(np.array_equal(params[k], new_params[k]) for k in params.tensors)
    with pytest.raises(ArgumentError):
        tdc.train_step(params, batch, -0.1)


def test_train_step_reduces_loss_in_both_query_modes():
    for query_type in ("avgpool", "learned"):
        cfg = tiny_config(query_type=query_type, text_conditioning=True)
        params = tdc.init_params(cfg)
        batch = qformer.make_train_batch(cfg, seed=1, frames=3, visual_tokens=6, audio_tokens=4)
        first = None
        for _ in range(50):
            params, loss = tdc.train_step(params, batch, 0.05)
            first = loss if first is None else first
        assert loss < first


def test_train_step_nonfinite_loss_raises():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    batch = qformer.make_train_batch(cfg, seed=2, frames=3, visual_tokens=6, audio_tokens=4)
    params.tensors["final_norm.gamma"][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        tdc.train_step(params, batch, 0.1)


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(query_type="learned", text_conditioning=True, seed=21)
    params = tdc.init_params(cfg)
    path = tmp_path / "p.tdcp"
    tdc.save_params(params, path)
    first = path.read_bytes()
    loaded = tdc.load_params(path)
    assert loaded.cfg == tdc.QFormerConfig(**{**cfg.__dict__, "seed": 0})
    for name, tensor in params.tensors.items():
        np.testing.assert_array_equal(loaded[name], tensor.astype(np.float32).astype(np.float64))
    tdc.save_params(loaded, path)
    assert path.read_bytes() == first


def test_checkpoint_parse_errors(tmp_path):
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.tdcp"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        tdc.load_params(bad)
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedPayloadError):
        tdc.load_params(bad)


def test_checkpoint_non_utf8_tensor_name(tmp_path):
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)
    raw = bytearray(path.read_bytes())
    name_at = raw.index(b"visual_proj")
    raw[name_at] = 0xFF
    bad = tmp_path / "bad.tdcp"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="UTF-8") as err:
        tdc.load_params(bad)
    assert err.value.offset == name_at
