"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import tdc
from tdc import kernels, qformer
from tdc.compressor import Provenance
from tdc.errors import BadMagicError, TruncatedPayloadError
from tdc.segmenter import ScenePartition
from tdc.timeline import AUDIO_TOKENS_PER_FRAME, VISUAL_TOKENS_PER_FRAME

from conftest import brute_force_cuts, head_contexts, random_timeline, split_heads, walk_stream_counts, with_queries


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"[acceptance] {number:02d} PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_constants_conformance():
    with criterion(1, "default constants: 144 visual + 50 audio static, K=16 dynamic", 1.0):
        assert VISUAL_TOKENS_PER_FRAME == 144
        assert AUDIO_TOKENS_PER_FRAME == 50
        assert tdc.QFormerConfig().queries == 16
        assert tdc.SegmenterConfig().max_scenes == 24
        assert tdc.LVCoTConfig().segments == 3
        tl = tdc.synth_generate(tdc.SynthSpec(seed=0, frames=9))
        plan = tdc.make_windows(ScenePartition(9, ()), 8)
        report = tdc.token_budget(tl, plan, tdc.QFormerConfig())
        # budget formula: static cost 144+50 per window plus 16 per dynamic frame
        assert report.per_window == (144 + 50 + 1 + 7 * 16, 144 + 50 + 1)
        assert report.naive == 9 * (144 + 50)


def test_criterion_02_budget_oracle(single_scene_timeline):
    with criterion(2, "budget 2392/11640/4.87 and 200 random stream-walk equalities", 5.0):
        plan = tdc.make_windows(ScenePartition(60, ()), 8)
        report = tdc.token_budget(single_scene_timeline, plan, tdc.QFormerConfig())
        assert report.total == 2392
        assert report.naive == 11640
        assert report.ratio == pytest.approx(4.87, abs=0.01)

        rng = np.random.default_rng(2024)
        for _ in range(200):
            frames = int(rng.integers(1, 14))
            tl = random_timeline(
                rng, frames,
                visual_tokens=int(rng.integers(2, 7)),
                audio_tokens=int(rng.integers(0, 4)),
                dim=5,
            )
            cfg = tdc.QFormerConfig(
                model_dim=8, heads=2, layers=1, queries=int(rng.integers(1, 3)),
                visual_dim=5, audio_dim=5, seed=int(rng.integers(0, 1000)),
                query_type="learned" if rng.integers(2) else "avgpool",
            )
            part = tdc.segment_scenes(
                tl, tdc.SegmenterConfig(max_scenes=int(rng.integers(1, 5)), tau=float(rng.uniform(0, 1)))
            )
            plan = tdc.make_windows(part, int(rng.integers(1, 5)))
            stream = tdc.assemble_tdc(tl, plan, tdc.init_params(cfg))
            report = tdc.token_budget(tl, plan, cfg)
            assert report.per_window == walk_stream_counts(stream)
            assert report.total == len(stream)


def test_criterion_03_segmentation_oracle():
    with criterion(3, "segmenter equals sort-based oracle on 500 random timelines", 10.0):
        rng = np.random.default_rng(3)
        for case in range(500):
            frames = int(rng.integers(1, 65))
            tl = random_timeline(rng, frames, visual_tokens=2, audio_tokens=1, dim=6)
            tau = float(rng.uniform(-0.2, 1.0))
            max_scenes = int(rng.integers(1, 30))
            part = tdc.segment_scenes(tl, tdc.SegmenterConfig(max_scenes=max_scenes, tau=tau))
            sims = tdc.frame_similarities(tl)
            assert part.boundaries == brute_force_cuts(sims, tau, max_scenes)
            assert 1 <= part.scene_count <= max_scenes

        # cap saturation: more candidates than the cap allows
        desc = np.zeros((100, 2), dtype=np.float32)
        desc[0::2, 0] = 1.0
        desc[1::2, 1] = 1.0
        tl = tdc.VideoTimeline(
            np.ones((100, 1, 2), dtype=np.float32), np.ones((100, 1, 2), dtype=np.float32), desc
        )
        part = tdc.segment_scenes(tl, tdc.SegmenterConfig(max_scenes=24, tau=0.99))
        assert part.scene_count == 24
        assert part.boundaries == brute_force_cuts(tdc.frame_similarities(tl), 0.99, 24)

        # all-identical frames collapse to a single scene
        same = tdc.VideoTimeline(
            np.ones((16, 1, 2), dtype=np.float32),
            np.ones((16, 1, 2), dtype=np.float32),
            np.tile(np.float32([0.6, 0.8]), (16, 1)),
        )
        assert tdc.segment_scenes(same, tdc.SegmenterConfig(tau=0.999)).scene_count == 1


def test_criterion_04_planted_boundary_recovery():
    with criterion(4, "planted cuts recovered exactly at default noise, 50 seeds", 10.0):
        rng = np.random.default_rng(4)
        for seed in range(50):
            frames = int(rng.integers(24, 49))
            n_cuts = int(rng.integers(1, 4))
            cuts = tuple(sorted(rng.choice(np.arange(4, frames - 3), size=n_cuts, replace=False).tolist()))
            spec = tdc.SynthSpec(
                seed=seed, frames=frames, boundaries=cuts,
                visual_tokens=8, audio_tokens=4,
            )
            part = tdc.segment_scenes(tdc.synth_generate(spec))
            assert part.boundaries == cuts, f"seed {seed}: {part.boundaries} != {cuts}"


def test_criterion_05_gradient_check():
    with criterion(5, "backward matches finite differences <= 1e-5, 10 seeds", 60.0):
        for seed in range(10):
            cfg = replace(
                qformer.GRAD_CHECK_CONFIG,
                query_type="learned" if seed % 2 else "avgpool",
                text_conditioning=bool(seed % 2),
            )
            report = tdc.grad_check(cfg, seed=seed)
            assert report.max_relative_error <= 1e-5, f"seed {seed}: max rel err {report.max_relative_error:.3e}"


def test_criterion_06_attention_properties():
    with criterion(6, "permutation invariance, softmax sums, convex hull (100 cases each)", 10.0):
        rng = np.random.default_rng(6)
        cfg = tdc.QFormerConfig(
            model_dim=16, heads=4, layers=2, queries=3, visual_dim=6, audio_dim=6, seed=1
        )
        params = tdc.init_params(cfg)
        shared = tdc.QFormerParams(cfg, {k: v.copy() for k, v in params.tensors.items()})
        shared.tensors["audio_proj"][:] = shared.tensors["visual_proj"]
        for _ in range(100):
            m_v = int(rng.integers(1, 9))
            m_a = int(rng.integers(1, 7))
            q = rng.standard_normal((cfg.queries, cfg.model_dim))
            queried, queried_shared = with_queries(params, q), with_queries(shared, q)
            v = rng.standard_normal((m_v, cfg.visual_dim))
            a = rng.standard_normal((m_a, cfg.audio_dim))

            # joint permutation of the concatenated kv rows (shared projection)
            rows = np.vstack([v, a])
            perm = rng.permutation(rows.shape[0])
            shared_queries = tdc.build_queries(queried_shared, None)
            out1 = tdc.forward(queried_shared, shared_queries, v, a)[0]
            out2 = tdc.forward(queried_shared, shared_queries, rows[perm][:m_v], rows[perm][m_v:])[0]
            assert np.abs(out1 - out2).max() <= 1e-9

            # softmax rows sum to one, including large-magnitude entries
            m = rng.uniform(-1e4, 1e4, size=(4, 6))
            sums = kernels.softmax_rows(m).sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-9

            # convex hull per head, every layer
            _, cache = tdc.forward(queried, tdc.build_queries(queried, None), v, a)
            kv = qformer.project(queried, v, a)
            for i in range(len(cache.layers)):
                vh = split_heads(kv @ queried[f"layers.{i}.cross.wv"], cfg.heads)
                ctx = head_contexts(cache, i)
                assert (ctx <= vh.max(axis=1, keepdims=True) + 1e-9).all()
                assert (ctx >= vh.min(axis=1, keepdims=True) - 1e-9).all()


def test_criterion_07_toy_training():
    with criterion(7, "200 gradient-descent steps halve the reconstruction loss", 60.0):
        cfg = tdc.QFormerConfig(seed=5)
        params = tdc.init_params(cfg)
        batch = tdc.make_train_batch(cfg, seed=11, frames=4)
        initial = None
        for _ in range(200):
            params, loss = tdc.train_step(params, batch, 0.05)
            initial = loss if initial is None else initial
        # audited run: initial 2.2004, final 0.00067 (ratio 3e-4)
        assert loss <= 0.5 * initial
        assert loss >= 0.0


def test_criterion_08_lvcot_golden_trace():
    with criterion(8, "golden LVCoT trace: spans, M+1 calls, interval-tagged notes", 1.0):
        tl = tdc.synth_generate(
            tdc.SynthSpec(seed=9, frames=90, boundaries=(30, 60),
                          visual_tokens=6, audio_tokens=4, dim=8)
        )
        cfg = tdc.QFormerConfig(
            model_dim=16, heads=2, layers=1, queries=3, visual_dim=8, audio_dim=8, seed=1
        )
        ctx = tdc.CompressionContext(params=tdc.init_params(cfg), window_length=4)
        mock = tdc.MockAnswerer(["A", "B", "C", "D"])
        trace = tdc.run_lvcot(tl, "who scores first?", mock, tdc.LVCoTConfig(), ctx)
        assert trace.spans == ((0, 30), (30, 60), (60, 90))
        spans_cover = [s for span in trace.spans for s in range(*span)]
        assert spans_cover == list(range(90))
        assert mock.calls == len(trace.spans) + 1
        for (a, b), answer in zip(trace.spans, trace.segment_answers):
            assert f"[{a}s-{b}s]: {answer}" in trace.final_prompt
        assert trace.segment_answers == ("A", "B", "C")
        assert trace.final_answer == "D"


def test_criterion_09_ablation_knobs():
    with criterion(9, "query type, K, text, and scene-cap knobs all operative", 10.0):
        rng = np.random.default_rng(9)
        tl = random_timeline(rng, 12, visual_tokens=6, audio_tokens=4, dim=8)
        part = ScenePartition(12, (5,))
        plan = tdc.make_windows(part, 4)

        def cfg_for(**kw):
            base = dict(model_dim=16, heads=2, layers=1, queries=3,
                        visual_dim=8, audio_dim=8, seed=3)
            base.update(kw)
            return tdc.QFormerConfig(**base)

        # (b) learned vs avgpool: same stream length, different contents
        s_pool = tdc.assemble_tdc(tl, plan, tdc.init_params(cfg_for(query_type="avgpool")))
        s_learn = tdc.assemble_tdc(tl, plan, tdc.init_params(cfg_for(query_type="learned")))
        assert len(s_pool) == len(s_learn)
        assert np.abs(s_pool.tokens - s_learn.tokens).max() > 0.0

        # (c) K=32 vs 16 changes each window's budget by exactly (n_w - 1) * 16
        tl_dense = tdc.synth_generate(tdc.SynthSpec(seed=1, frames=20, boundaries=(9,)))
        plan_dense = tdc.make_windows(ScenePartition(20, (9,)), 8)
        b16 = tdc.token_budget(tl_dense, plan_dense, tdc.QFormerConfig(queries=16))
        b32 = tdc.token_budget(tl_dense, plan_dense, tdc.QFormerConfig(queries=32))
        for a, b, w in zip(b16.per_window, b32.per_window, plan_dense.windows):
            assert b - a == len(w.dynamic_frames) * 16

        # (d) text on/off changes content, never counts
        p_text = tdc.init_params(cfg_for(text_conditioning=True))
        s_off = tdc.assemble_tdc(tl, plan, p_text, text=None)
        s_on = tdc.assemble_tdc(tl, plan, p_text, text=tdc.tokenize_text("watch the juggler"))
        assert len(s_off) == len(s_on)
        assert walk_stream_counts(s_off) == walk_stream_counts(s_on)
        dyn = s_off.provenance == int(Provenance.DYNAMIC)
        assert np.abs(s_off.tokens[dyn] - s_on.tokens[dyn]).max() > 0.0

        # (a) scene cap 1 / 24 / 48 structural configurations
        desc = np.zeros((100, 2), dtype=np.float32)
        desc[0::2, 0] = 1.0
        desc[1::2, 1] = 1.0
        busy = tdc.VideoTimeline(
            np.ones((100, 1, 2), dtype=np.float32), np.ones((100, 1, 2), dtype=np.float32), desc
        )
        for cap in (1, 24, 48):
            part = tdc.segment_scenes(busy, tdc.SegmenterConfig(max_scenes=cap, tau=0.99))
            assert part.scene_count == cap


def test_criterion_10_format_round_trips(tmp_path):
    with criterion(10, "TDCF/TDCP bitwise round trips and documented parse errors", 5.0):
        rng = np.random.default_rng(10)
        tdcf = tmp_path / "t.tdcf"
        for _ in range(100):
            tl = random_timeline(
                rng, int(rng.integers(1, 5)),
                visual_tokens=int(rng.integers(1, 5)),
                audio_tokens=int(rng.integers(0, 4)),
                dim=int(rng.integers(1, 6)),
            )
            tdc.write_tdcf(tl, tdcf)
            back = tdc.read_tdcf(tdcf)
            assert back.visual_tokens.tobytes() == tl.visual_tokens.tobytes()
            assert back.audio_tokens.tobytes() == tl.audio_tokens.tobytes()
            assert back.descriptors.tobytes() == tl.descriptors.tobytes()

        tdcp = tmp_path / "p.tdcp"
        for i in range(100):
            cfg = tdc.QFormerConfig(
                model_dim=8, heads=2, layers=int(rng.integers(1, 3)),
                queries=int(rng.integers(1, 4)), visual_dim=int(rng.integers(1, 6)),
                audio_dim=int(rng.integers(1, 6)), seed=i,
                query_type="learned" if rng.integers(2) else "avgpool",
            )
            params = tdc.init_params(cfg)
            tdc.save_params(params, tdcp)
            first = tdcp.read_bytes()
            tdc.save_params(tdc.load_params(tdcp), tdcp)
            assert tdcp.read_bytes() == first

        raw = tdcf.read_bytes()
        corrupt = tmp_path / "c.bin"
        corrupt.write_bytes(b"EVIL" + raw[4:])
        with pytest.raises(BadMagicError):
            tdc.read_tdcf(corrupt)
        corrupt.write_bytes(raw[:-4])
        with pytest.raises(TruncatedPayloadError):
            tdc.read_tdcf(corrupt)
        praw = tdcp.read_bytes()
        corrupt.write_bytes(b"EVIL" + praw[4:])
        with pytest.raises(BadMagicError):
            tdc.load_params(corrupt)
        corrupt.write_bytes(praw[:-3])
        with pytest.raises(TruncatedPayloadError):
            tdc.load_params(corrupt)
