import warnings
from dataclasses import replace

import numpy as np
import pytest

import tdc
from tdc import kernels, qformer
from tdc.errors import ArgumentError, FormatError, NumericError, ShapeError, TruncatedPayloadError

from conftest import EDGES, SIGNALLING_NAN, head_contexts, split_heads, with_queries


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


def test_heads_must_divide_model_dim():
    with pytest.raises(ArgumentError):
        tdc.QFormerConfig(model_dim=64, heads=5)


def test_forward_shape_contract():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    q, _, _ = random_inputs(cfg)
    rng = np.random.default_rng(1)
    params = with_queries(params, q)
    for m_v, m_a, words in [(1, 0, ""), (5, 3, "a"), (12, 7, "one two three four")]:
        out = tdc.forward(
            params,
            tdc.build_queries(params, None, tdc.tokenize_text(words)),
            rng.standard_normal((m_v, cfg.visual_dim)),
            rng.standard_normal((m_a, cfg.audio_dim)),
        )[0]
        assert out.shape == (cfg.queries, cfg.model_dim)
        assert np.all(np.isfinite(out))


def test_forward_rejects_bad_shapes():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    _, v, a = random_inputs(cfg)
    with pytest.raises(ShapeError):
        tdc.build_queries(params, v[:, :-1])
    queries = tdc.build_queries(params, v)
    with pytest.raises(ShapeError):
        tdc.forward(params, queries, v[:, :-1], a)
    with pytest.raises(ShapeError):
        tdc.forward(params, queries, np.zeros((0, cfg.visual_dim)), np.zeros((0, cfg.audio_dim)))
    # 50 audio tokens of width 0 would be keys of score 0 and value 0 that still take attention mass
    params = tdc.init_params(tiny_config(audio_dim=0))
    queries = tdc.build_queries(params, v)
    for call in (lambda a: tdc.forward(params, queries, v, a), lambda a: qformer.project(params, v, a)):
        with pytest.raises(ShapeError, match="^50 audio tokens per frame of dim 0$"):
            call(np.zeros((50, 0)))


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
    params = with_queries(params, q)
    queries = tdc.build_queries(params, None)
    out1 = tdc.forward(params, queries, v, a)[0]
    out2 = tdc.forward(params, queries, shuffled[:6], shuffled[6:])[0]
    np.testing.assert_allclose(out1, out2, atol=1e-9)


def test_within_modality_permutation_invariance(default_params):
    cfg = default_params.cfg
    rng = np.random.default_rng(5)
    params = with_queries(default_params, rng.standard_normal((cfg.queries, cfg.model_dim)))
    v = rng.standard_normal((9, cfg.visual_dim))
    a = rng.standard_normal((5, cfg.audio_dim))
    queries = tdc.build_queries(params, None)
    out1 = tdc.forward(params, queries, v, a)[0]
    out2 = tdc.forward(params, queries, v[rng.permutation(9)], a[rng.permutation(5)])[0]
    np.testing.assert_allclose(out1, out2, atol=1e-9)


def test_query_order_equivariance():
    cfg = tiny_config(queries=4)
    params = tdc.init_params(cfg)
    q, v, a = random_inputs(cfg, seed=6)
    perm = np.array([2, 0, 3, 1])
    params, params_perm = with_queries(params, q), with_queries(params, q[perm])
    out = tdc.forward(params, tdc.build_queries(params, None), v, a)[0]
    out_perm = tdc.forward(params_perm, tdc.build_queries(params_perm, None), v, a)[0]
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
    params = with_queries(params, q)
    queries = tdc.build_queries(params, None, text)
    out1 = tdc.forward(params, queries, rng.standard_normal((10, 32)), rng.standard_normal((6, 32)))[0]
    out2 = tdc.forward(params, queries, rng.standard_normal((4, 32)), rng.standard_normal((9, 32)))[0]
    # residual-only reference: the final norm applied to the raw queries
    ref, _ = kernels.layer_norm(q, params["final_norm.gamma"], params["final_norm.beta"])
    np.testing.assert_allclose(out1, ref, atol=1e-12)
    np.testing.assert_allclose(out2, ref, atol=1e-12)


def test_text_conditioning_changes_output():
    cfg = tiny_config(text_conditioning=True)
    params = tdc.init_params(cfg)
    _, v, a = random_inputs(cfg, seed=8)
    out_off = tdc.forward(params, tdc.build_queries(params, v, None), v, a)[0]
    out_on = tdc.forward(params, tdc.build_queries(params, v, tdc.tokenize_text("watch the dog")), v, a)[0]
    assert np.abs(out_on - out_off).max() > 0.0


def test_convex_hull_of_cross_attention_heads(default_params):
    cfg = default_params.cfg
    rng = np.random.default_rng(9)
    params = with_queries(default_params, rng.standard_normal((cfg.queries, cfg.model_dim)))
    v = rng.standard_normal((8, cfg.visual_dim))
    a = rng.standard_normal((5, cfg.audio_dim))
    _, cache = tdc.forward(params, tdc.build_queries(params, None), v, a)
    kv = qformer.project(params, v, a)
    for i in range(len(cache.layers)):
        # each head's values, and its context before the output projection
        vh = split_heads(kv @ params[f"layers.{i}.cross.wv"], cfg.heads)
        ctx = head_contexts(cache, i)
        assert (ctx <= vh.max(axis=1, keepdims=True) + 1e-9).all()
        assert (ctx >= vh.min(axis=1, keepdims=True) - 1e-9).all()


def test_zero_upstream_gives_zero_bundle():
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    _, v, a = random_inputs(cfg)
    _, cache = tdc.forward(params, tdc.build_queries(params, v), v, a)
    grads = tdc.backward(params, cache, np.zeros((cfg.queries, cfg.model_dim)))
    assert grads.keys() == params.tensors.keys()
    assert all(np.all(g == 0.0) for g in grads.values())


def test_unused_learned_queries_get_zero_gradient():
    cfg = tiny_config(query_type="avgpool")
    params = tdc.init_params(cfg)
    _, v, a = random_inputs(cfg, seed=11)
    up = np.random.default_rng(12).standard_normal((cfg.queries, cfg.model_dim))
    _, cache = tdc.forward(params, tdc.build_queries(params, v), v, a)
    grads = tdc.backward(params, cache, up)
    assert np.all(grads["learned_queries"] == 0.0)
    assert np.abs(grads["visual_proj"]).max() > 0.0


@pytest.mark.parametrize("frames", [(), (3,)], ids=["frame", "stack"])
@pytest.mark.parametrize(
    "query_type, m_v, m_a, audio_dim, audio_width",
    [
        pytest.param("avgpool", 6, 0, 0, 0, id="0-0"),
        pytest.param("avgpool", 6, 0, 0, 32, id="0-32"),
        pytest.param("avgpool", 6, 0, 6, 6, id="6-6"),
        pytest.param("avgpool", 6, 0, 6, 32, id="6-32"),
        pytest.param("learned", 0, 5, 6, 6, id="learned-no-visual"),
    ],
)
def test_backward_without_audio_tokens(query_type, m_v, m_a, audio_dim, audio_width, frames):
    # a modality of 0 tokens (audio of any width): every product over its 0 tokens
    # is exactly zero, so its projection's gradient is zero and keeps its shape
    cfg = tiny_config(query_type=query_type, audio_dim=audio_dim, text_conditioning=True)
    params = tdc.init_params(cfg)
    rng = np.random.default_rng(15)
    static = rng.standard_normal((4, cfg.visual_dim))
    v = rng.standard_normal(frames + (m_v, cfg.visual_dim))
    audio = rng.standard_normal(frames + (m_a, audio_width))
    queries = tdc.build_queries(params, static, tdc.tokenize_text("no sound"))
    out, cache = tdc.forward(params, queries, v, audio)
    grads = tdc.backward(params, cache, rng.standard_normal(out.shape))
    assert out.shape == frames + (cfg.queries, cfg.model_dim)
    assert {n: g.shape for n, g in grads.items()} == {n: t.shape for n, t in params.tensors.items()}
    empty, full = ("visual_proj", "audio_proj") if m_v == 0 else ("audio_proj", "visual_proj")
    assert not grads[empty].any()
    assert np.abs(grads[full]).max() > 0.0
    # project's rows are exactly those of the modality with tokens
    rows = audio @ params["audio_proj"] if m_v == 0 else v @ params["visual_proj"]
    np.testing.assert_array_equal(qformer.project(params, v, audio), rows)


@pytest.mark.parametrize("query_type", ["avgpool", "learned"])
def test_frame_stack_matches_single_frames(query_type):
    # a stack of frames sharing the static frame and text gives each frame's
    # own output, and gradients summed over the frames
    cfg = tiny_config(query_type=query_type, text_conditioning=True)
    params = tdc.init_params(cfg)
    rng = np.random.default_rng(14)
    static = rng.standard_normal((5, cfg.visual_dim))
    v = rng.standard_normal((3, 6, cfg.visual_dim))
    a = rng.standard_normal((3, 4, cfg.audio_dim))
    up = rng.standard_normal((3, cfg.queries, cfg.model_dim))
    text = tdc.tokenize_text("find the red ball")

    queries = tdc.build_queries(params, static, text)
    out, cache = tdc.forward(params, queries, v, a)
    stacked = tdc.backward(params, cache, up)
    assert out.shape == (3, cfg.queries, cfg.model_dim)
    singles = []
    for f in range(3):
        out_f, cache_f = tdc.forward(params, queries, v[f], a[f])
        np.testing.assert_allclose(out[f], out_f, rtol=0, atol=1e-12)
        singles.append(tdc.backward(params, cache_f, up[f]))
    for name in params.tensors:
        np.testing.assert_allclose(
            stacked[name], sum(b[name] for b in singles), rtol=0, atol=1e-12, err_msg=name
        )
    assert np.abs(stacked["text_embed"]).max() > 0.0
    with pytest.raises(ShapeError):
        tdc.backward(params, cache, up[0])


def test_backward_reads_the_gelu_tanh_its_forward_kept(monkeypatch):
    # three FFN blocks (the text rows', and each layer's of the frames) take
    # gelu_grad from the tanh in their caches: backward computes no tanh
    cfg = tiny_config(layers=2, text_conditioning=True)
    params = tdc.init_params(cfg)
    rng = np.random.default_rng(16)
    queries = tdc.build_queries(params, rng.standard_normal((5, cfg.visual_dim)), tdc.tokenize_text("count the calls"))
    out, cache = tdc.forward(params, queries, rng.standard_normal((3, 6, cfg.visual_dim)), rng.standard_normal((3, 4, cfg.audio_dim)))
    tanh, calls = np.tanh, []
    monkeypatch.setattr(np, "tanh", lambda *args, **kwargs: calls.append(args[0].shape) or tanh(*args, **kwargs))
    tdc.backward(params, cache, rng.standard_normal(out.shape))
    assert calls == []


@pytest.mark.parametrize("audio_tokens", [0, 5])
@pytest.mark.parametrize("text_conditioning", [False, True], ids=["text-off", "text-on"])
@pytest.mark.parametrize("query_type", qformer.QUERY_TYPES)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_frame_stack_rows_equal_single_frames_bitwise(layers, query_type, text_conditioning, audio_tokens):
    # a window's frames give the same numbers one at a time as in one stack
    for edge in EDGES:
        cfg = tiny_config(
            layers=layers, query_type=query_type, text_conditioning=text_conditioning,
            heads=1 if edge == "one-head" else 2, queries=1 if edge == "one-query" else 2,
        )
        params = tdc.init_params(cfg)
        rng = np.random.default_rng(layers)
        text = tdc.tokenize_text("" if edge == "empty-text" else "where is it")
        queries = tdc.build_queries(params, rng.standard_normal((5, cfg.visual_dim)), text)
        v = rng.standard_normal((4, 1 if edge == "one-visual-token" else 6, cfg.visual_dim))
        a = rng.standard_normal((4, audio_tokens, cfg.audio_dim))
        stacked = tdc.forward(params, queries, v, a)[0]
        for f in range(4):
            np.testing.assert_array_equal(tdc.forward(params, queries, v[f], a[f])[0], stacked[f], err_msg=edge)


def test_grad_check_passes_and_is_deterministic():
    # the whole model, query path included, in both query modes
    for query_type in qformer.QUERY_TYPES:
        cfg = replace(qformer.GRAD_CHECK_CONFIG, query_type=query_type)
        r1 = tdc.grad_check(cfg, seed=0)
        r2 = tdc.grad_check(cfg, seed=0)
        assert r1.max_relative_error <= 1e-5, query_type
        assert r1.per_tensor == r2.per_tensor
        assert r1.per_tensor.keys() == qformer.expected_shapes(cfg).keys()


def test_grad_check_full_row_layer_feeds_trimmed_last_layer():
    # layer 0 computes every [query; text] row, the last layer only the query
    # rows; criterion 05's one-layer configs never chain the two
    cfg = replace(qformer.GRAD_CHECK_CONFIG, layers=2, model_dim=8, query_type="avgpool")
    report = tdc.grad_check(cfg, seed=3)
    assert report.max_relative_error <= 1e-5, report.per_tensor


@pytest.mark.parametrize("query_type", qformer.QUERY_TYPES)
def test_grad_check_layer_between_first_and_last(query_type):
    # layer 1 computes every row and is not the last: the text rows, which ran
    # layer 0's FFN once for the window, join each frame's rows there
    cfg = replace(qformer.GRAD_CHECK_CONFIG, layers=3, model_dim=8, query_type=query_type)
    assert cfg.text_conditioning
    report = tdc.grad_check(cfg, seed=4)
    assert report.max_relative_error <= 1e-5, report.per_tensor


def test_grad_check_fault_injection_isolates_tensor(monkeypatch):
    real_backward = qformer.backward

    def corrupted(params, cache, upstream):
        grads = real_backward(params, cache, upstream)
        g = grads["layers.0.ffn.w1"]
        grads["layers.0.ffn.w1"] = g + 1e-2 * (1.0 + np.abs(g))
        return grads

    monkeypatch.setattr(qformer, "backward", corrupted)
    report = tdc.grad_check(seed=1)
    assert report.max_relative_error > qformer.GRAD_CHECK_THRESHOLD
    assert max(report.per_tensor, key=report.per_tensor.get) == "layers.0.ffn.w1"
    others = {k: v for k, v in report.per_tensor.items() if k != "layers.0.ffn.w1"}
    assert max(others.values()) <= 1e-5


def test_avgpool_query_path_gradient_matches_finite_differences():
    # full-pipeline check on a multi-frame stack: W_v feeds the pooled
    # queries as well as the key/value projection of every frame
    cfg = tiny_config(query_type="avgpool")
    params = tdc.init_params(cfg)
    rng = np.random.default_rng(13)
    static = rng.standard_normal((5, cfg.visual_dim))
    v = rng.standard_normal((3, 6, cfg.visual_dim))
    a = rng.standard_normal((3, 4, cfg.audio_dim))
    up = rng.standard_normal((3, cfg.queries, cfg.model_dim))

    def loss():
        return float(np.sum(up * tdc.forward(params, tdc.build_queries(params, static), v, a)[0]))

    _, cache = tdc.forward(params, tdc.build_queries(params, static), v, a)
    analytic = tdc.backward(params, cache, up)["visual_proj"]

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


@pytest.mark.parametrize("query_type", qformer.QUERY_TYPES)
def test_train_step_leaves_its_params_alone_and_shares_no_array_with_them(query_type):
    cfg = tiny_config(query_type=query_type, text_conditioning=True)
    params = tdc.init_params(cfg)
    before = {name: arr.copy() for name, arr in params.tensors.items()}
    batch = qformer.make_train_batch(cfg, seed=4, frames=3, visual_tokens=6, audio_tokens=4)
    new_params, _ = tdc.train_step(params, batch, 0.05)
    # oracle: the gradient of the same loss, taken apart from the step
    queries = qformer.build_queries(params, batch.static_visual, batch.text)
    out, cache = qformer.forward(params, queries, batch.dynamic_visual, batch.dynamic_audio)
    err = out.mean(axis=-2) @ batch.readout - batch.target
    d_out = np.broadcast_to((2.0 / (err.size * cfg.queries)) * (err @ batch.readout.T)[:, None, :], out.shape)
    grads = qformer.backward(params, cache, d_out)
    for name, arr in params.tensors.items():
        assert arr.tobytes() == before[name].tobytes(), name
        assert new_params[name].tobytes() == (arr - 0.05 * grads[name]).tobytes(), name
        assert not any(np.shares_memory(new_params[name], old) for old in params.tensors.values()), name


@pytest.mark.parametrize("lr", [np.nan, np.inf])
def test_train_step_rejects_a_learning_rate_that_is_not_finite(lr):
    cfg = tiny_config()
    params = tdc.init_params(cfg)
    batch = qformer.make_train_batch(cfg, seed=0, frames=3, visual_tokens=6, audio_tokens=4)
    with pytest.raises(ArgumentError, match="learning rate"):
        tdc.train_step(params, batch, lr)


def test_make_train_batch_rejects_a_negative_seed():
    with pytest.raises(ArgumentError, match="seed"):
        qformer.make_train_batch(tiny_config(), seed=-1, frames=3)


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
    with pytest.raises(NumericError):
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


def test_checkpoint_is_its_header_then_its_tensors_in_canonical_order(tmp_path):
    params = tdc.init_params(tiny_config(query_type="learned", text_conditioning=True))
    path = tmp_path / "p.tdcp"
    tdc.save_params(params, path)
    raw = path.read_bytes()
    shapes = qformer.expected_shapes(params.cfg)
    header = 38  # magic, version, query type and text flag, seven u32 dims
    assert len(raw) == header + 4 * sum(int(np.prod(shape)) for shape in shapes.values())
    assert raw[header:] == b"".join(params[name].astype("<f4").tobytes() for name in shapes)


@pytest.mark.parametrize(
    "cfg, name, shape, match",
    [
        (tiny_config(), "sep", None, r"^tensor 'sep' is missing, the config expects \(1, 8\)$"),
        (tiny_config(), "extra", (3,), r"^tensor 'extra' is \(3,\), the config expects none$"),
        (tiny_config(), "visual_proj", (8, 4), r"^tensor 'visual_proj' is \(8, 4\), the config expects \(4, 8\)$"),
        # a separator of other than one row, or other than model_dim wide, would misfit every window's plan
        (tiny_config(), "sep", (2, 8), r"^tensor 'sep' is \(2, 8\), the config expects \(1, 8\)$"),
        (tiny_config(), "sep", (0, 8), r"^tensor 'sep' is \(0, 8\), the config expects \(1, 8\)$"),
        (tiny_config(), "sep", (1, 7), r"^tensor 'sep' is \(1, 7\), the config expects \(1, 8\)$"),
        # one query too many would run as a text row: the stream moves, and no error is raised
        (tdc.QFormerConfig(), "learned_queries", (17, 64), r"^tensor 'learned_queries' is \(17, 64\), the config expects \(16, 64\)$"),
        # the rest fail inside numpy, with IndexError, ValueError or KeyError, if let through
        (tdc.QFormerConfig(), "text_embed", (10, 64), r"^tensor 'text_embed' is \(10, 64\), the config expects \(1024, 64\)$"),
        (tdc.QFormerConfig(), "audio_proj", (31, 64), r"^tensor 'audio_proj' is \(31, 64\), the config expects \(32, 64\)$"),
        (tdc.QFormerConfig(), "layers.0.ffn.b1", (255,), r"^tensor 'layers.0.ffn.b1' is \(255,\), the config expects \(256,\)$"),
        (tdc.QFormerConfig(), "layers.1.cross.wo", None, r"^tensor 'layers.1.cross.wo' is missing, the config expects \(64, 64\)$"),
        # layer_norm takes gamma and beta as given: this check is the only one of their length
        (tiny_config(), "layers.0.self_norm.gamma", (7,), r"^tensor 'layers.0.self_norm.gamma' is \(7,\), the config expects \(8,\)$"),
    ],
    ids=[
        "missing", "extra", "transposed", "sep-more-rows", "sep-fewer-rows", "sep-other-width",
        "one-query-too-many", "short-text-embed", "short-audio-proj", "short-ffn-bias", "missing-layer-1",
        "short-norm-gamma",
    ],
)
def test_params_that_do_not_fit_the_config_are_a_shape_error_when_made(cfg, name, shape, match):
    tensors = dict(tdc.init_params(cfg).tensors)
    if shape is None:
        del tensors[name]
    else:
        tensors[name] = np.zeros(shape)
    with pytest.raises(ShapeError, match=match):
        qformer.QFormerParams(cfg, tensors)


def test_params_tensors_take_no_new_array_but_are_edited_in_place():
    cfg = tiny_config()
    tensors = dict(tdc.init_params(cfg).tensors)
    sep = tensors["sep"]
    params = qformer.QFormerParams(cfg, tensors)
    with pytest.raises(TypeError):
        params.tensors["sep"] = np.zeros((1, 8))
    tensors["sep"] = np.zeros((2, 8))  # the dict it was made from is not its mapping
    assert params["sep"] is sep
    params.tensors["sep"][:] = 2.0  # as grad_check edits an entry
    assert (sep == 2.0).all()


def test_checkpoint_without_audio_round_trips(tmp_path):
    params = tdc.init_params(tiny_config(audio_dim=0))
    path = tmp_path / "p.tdcp"
    tdc.save_params(params, path)
    loaded = tdc.load_params(path)
    assert loaded.cfg.audio_dim == 0 and loaded["audio_proj"].shape == (0, params.cfg.model_dim)
    tdc.save_params(loaded, path)
    assert tdc.load_params(path).cfg == loaded.cfg


@pytest.mark.parametrize(
    "value", [1e39, 2.0**128 - 2.0**103, np.nan, -np.inf], ids=["beyond", "threshold", "nan", "-inf"]
)
def test_checkpoint_value_beyond_float32_is_numeric_error_and_no_file(tmp_path, value):
    params = tdc.init_params(tiny_config())
    params.tensors["sep"][0, 0] = value
    path = tmp_path / "p.tdcp"
    with pytest.raises(NumericError, match="^tensor 'sep' is not finite in float32$"):
        tdc.save_params(params, path)
    assert not path.exists()


def test_save_keeps_the_largest_value_that_rounds_to_a_finite_float32(tmp_path):
    params = tdc.init_params(tiny_config())
    below = np.nextafter(2.0**128 - 2.0**103, 0.0)
    params.tensors["sep"][0, :3] = below, -below, 0.0
    path = tmp_path / "p.tdcp"
    tdc.save_params(params, path)
    limit = float(np.finfo(np.float32).max)
    assert tdc.load_params(path)["sep"][0, :3].tolist() == [limit, -limit, 0.0]


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


@pytest.mark.parametrize("i, field", enumerate(qformer.PARAMS_HEADER), ids=qformer.PARAMS_HEADER)
def test_checkpoint_cut_inside_a_header_field_is_truncated_at_that_field(tmp_path, i, field):
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)
    at = 4 + 4 + 1 + 1 + 4 * i  # magic, version, query type, text flag, the u32 fields before it
    bad = tmp_path / "cut.tdcp"
    bad.write_bytes(path.read_bytes()[: at + 2])
    with pytest.raises(TruncatedPayloadError, match=rf"^file ends inside {field} \(byte offset {at}\)$") as err:
        tdc.load_params(bad)
    assert err.value.offset == at


@pytest.mark.parametrize(
    "field, value, problem",
    [("heads", 3, r"heads \(3\) must divide model_dim \(8\)"), ("model_dim", 0, "model_dim must be >= 1"),
     ("heads", 0, "heads must be >= 1"), ("layers", 0, "layers must be >= 1"),
     ("queries", 0, "queries must be >= 1"), ("visual_dim", 0, "visual_dim must be >= 1")],
    ids=["heads-not-dividing", "model_dim-0", "heads-0", "layers-0", "queries-0", "visual_dim-0"],
)
def test_checkpoint_config_error_is_reported_at_its_field(tmp_path, field, value, problem):
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)  # model_dim 8, heads 2
    raw = bytearray(path.read_bytes())
    at = 4 + 4 + 1 + 1 + 4 * qformer.PARAMS_HEADER.index(field)  # magic, version, two flags, the fields before it
    assert {"model_dim": 10, "heads": 14, "layers": 18, "queries": 22, "visual_dim": 30}[field] == at
    raw[at : at + 4] = value.to_bytes(4, "little")
    bad = tmp_path / "bad.tdcp"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"^invalid config header: {problem}") as err:
        tdc.load_params(bad)
    assert err.value.offset == at


def test_checkpoint_vocab_other_than_1024_is_format_error(tmp_path):
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)
    raw = bytearray(path.read_bytes())
    # magic, version, query type, text flag, model_dim, heads, layers, queries
    vocab_at = 4 + 4 + 1 + 1 + 4 * 4
    assert int.from_bytes(raw[vocab_at : vocab_at + 4], "little") == 1024
    raw[vocab_at : vocab_at + 4] = (16).to_bytes(4, "little")
    bad = tmp_path / "bad.tdcp"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="vocabulary 16") as err:
        tdc.load_params(bad)
    assert err.value.offset == vocab_at


def test_checkpoint_layer_count_beyond_file_is_format_error_at_layers(tmp_path):
    # the bound comes before expected_shapes loops once per declared layer,
    # which hung on a flipped high bit (2**31 layers)
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)
    raw = bytearray(path.read_bytes())
    # magic, version, query type, text flag, model_dim, heads
    layers_at = 4 + 4 + 1 + 1 + 4 + 4
    assert int.from_bytes(raw[layers_at : layers_at + 4], "little") == 1
    raw[layers_at : layers_at + 4] = (1000).to_bytes(4, "little")
    bad = tmp_path / "bad.tdcp"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="1000 layers") as err:
        tdc.load_params(bad)
    assert err.value.offset == layers_at


def test_checkpoint_text_flag_other_than_0_or_1_is_format_error(tmp_path):
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config(text_conditioning=True)), path)
    raw = bytearray(path.read_bytes())
    flag_at = 4 + 4 + 1  # magic, version, query type
    assert raw[flag_at] == 1
    raw[flag_at] = 7
    bad = tmp_path / "bad.tdcp"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="text flag 7") as err:
        tdc.load_params(bad)
    assert err.value.offset == flag_at


@pytest.mark.parametrize(
    "patches, first",
    [({1: np.nan}, 1), ({1: np.nan, 0: -np.inf}, 0), ({2: SIGNALLING_NAN}, 2)],
    ids=["nan", "nan-after-inf", "signalling-nan"],
)
def test_checkpoint_value_that_is_not_finite_is_format_error_at_its_bytes(tmp_path, patches, first):
    # save_params writes no such value, so one in a TDCP file is corruption
    path = tmp_path / "p.tdcp"
    tdc.save_params(tdc.init_params(tiny_config()), path)
    raw = bytearray(path.read_bytes())
    at = len(raw) - 8 * tiny_config().model_dim  # final_norm.gamma, then final_norm.beta, end the file
    for i, value in patches.items():
        raw[at + 4 * i : at + 4 * i + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))
    message = f"^tensor 'final_norm.gamma' holds {np.float32(patches[first])}, which is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the float64 cast, which a signalling NaN would flag
        with pytest.raises(FormatError, match=message) as err:
            tdc.load_params(path)
    assert err.value.offset == at + 4 * first
