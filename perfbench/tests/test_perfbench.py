"""Tests of the benchmark itself: workloads, checker, tracer and result line.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer as tracing
import workloads
from inputs import TimelineDesign

from tdc import kernels

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "compress-t600": TimelineDesign(60, 20),
    "lvcot-t600": TimelineDesign(60, 20),
    "plan-t3600": TimelineDesign(120, 15, frozenset({15, 30, 45, 75, 90, 105})),
}


def tiny(name, seed, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, tmp_path, TINY[name]) if name in TINY else cls(seed, tmp_path)
    wl.setup()
    return wl


def tdc_attributes():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "tdc" or name.startswith("tdc.")
        for attr, obj in vars(module).items()
        if callable(obj)
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    wl = tiny(name, 1, tmp_path)
    tally = run.Tally()
    phase = run.timed_phase(wl, tally, 0.01)
    tally.reference(wl)
    assert tally.failed == 0, tally.errors
    assert len(phase["times"]) >= 1
    assert run.frames_per_s(wl, phase) > 0
    assert phase["compression_ratio"] > 1


def test_design_fixes_the_work_shape():
    compress = workloads.Compress(0, Path("."))
    windows = compress.windows(0, 600)
    dynamic = sum(n for _, n in windows)
    assert (len(windows), dynamic) == (84, 516)
    assert sum(checks.budget(windows, 144, 50, 16)) == 24636
    lvcot = workloads.LVCoT(0, Path("."))
    span_dynamic = sum(n for a, b in lvcot.spans() for _, n in lvcot.windows(a, b))
    assert span_dynamic + dynamic == 1026
    plan = workloads.Plan(0, Path("."))
    windows = plan.windows(0, 3600)
    assert len(windows) == 456
    assert sum(checks.budget(windows, 144, 50, 16)) == 139224


def test_second_seed_same_shape_other_values(tmp_path):
    streams = []
    for seed in (1, 2):
        wl = tiny("compress-t600", seed, tmp_path)
        wl.op()
        streams.append(checks.parse_tdcs(wl.output.read_bytes()))
    (t1, p1), (t2, p2) = streams
    assert np.array_equal(p1, p2)
    assert t1.shape == t2.shape
    assert not np.allclose(t1, t2)


def corrupt_flip(data: bytes, row: int) -> bytes:
    tokens, prov = checks.parse_tdcs(data)
    tokens = tokens.copy()
    tokens[row] = -tokens[row]
    return data[:16] + tokens.astype("<f4").tobytes() + prov.tobytes()


def corrupt_drop_window(data: bytes) -> bytes:
    """Remove the last window: its static tokens, separator and dynamic tokens."""
    tokens, prov = checks.parse_tdcs(data)
    starts = np.flatnonzero((prov == checks.STATIC_VISUAL) & (np.roll(prov, 1) != checks.STATIC_VISUAL))
    keep = starts[-1]
    header = b"TDCS" + np.array([1, keep, tokens.shape[1]], dtype="<u4").tobytes()
    return header + tokens[:keep].astype("<f4").tobytes() + prov[:keep].tobytes()


@pytest.mark.parametrize("kind", ["flip-dynamic", "flip-static", "drop-window"])
def test_corrupted_stream_counts_as_failed(kind, tmp_path):
    wl = tiny("compress-t600", 1, tmp_path)
    op = wl.op

    def corrupted_op():
        op()
        data = wl.output.read_bytes()
        prov = checks.parse_tdcs(data)[1]
        if kind == "drop-window":
            data = corrupt_drop_window(data)
        else:
            code = checks.DYNAMIC if kind == "flip-dynamic" else checks.STATIC_VISUAL
            data = corrupt_flip(data, int(np.flatnonzero(prov == code)[-1]))
        wl.output.write_bytes(data)

    tally = run.Tally()
    assert tally.run(wl) is not None
    wl.op = corrupted_op
    assert tally.run(wl) is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_corrupted_lvcot_stream_and_train_loss_fail(tmp_path):
    wl = tiny("lvcot-t600", 1, tmp_path)
    trace, calls = wl.op()
    assert wl.check((trace, calls)) == []
    prompt, stream = calls[1]
    tokens = stream.tokens.copy()
    tokens[-1] = -tokens[-1]
    calls[1] = (prompt, type(stream)(tokens, stream.provenance, stream.frame_index, stream.window_index))
    assert wl.check((trace, calls))

    train = tiny("train-w8", 1, tmp_path)
    loss = train.op()
    assert train.check(loss) == []
    assert train.check(loss * 1.001)


def test_untraced_run_leaves_tdc_attributes_alone(tmp_path):
    before = tdc_attributes()
    wl = tiny("lvcot-t600", 1, tmp_path)
    run.timed_phase(wl, run.Tally(), 0.01)
    assert tdc_attributes() == before
    with tracing.Tracer(run.OBSERVERS) as tracer:
        assert kernels.gelu is not before["tdc.kernels", "gelu"]
        run.timed_phase(wl, run.Tally(), 0.01, tracer)
    after = tdc_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_survives_missing_function(tmp_path, monkeypatch):
    monkeypatch.delattr(kernels, "gelu_grad")
    monkeypatch.setattr(tracing, "LAYERS", (*tracing.LAYERS, "no_such_layer"))
    wl = tiny("compress-t600", 1, tmp_path)
    tally = run.Tally()
    with tracing.Tracer(run.OBSERVERS) as tracer:
        phase = run.timed_phase(wl, tally, 0.01, tracer)
    ops = len(phase["times"])
    m = run.layer_metrics(tracer, ops, wl)
    assert tally.failed == 0
    assert m["kernels.gelu_grad.calls"] == 0
    assert m["qformer.forward.calls"] == 60 - 9
    assert m["compressor.windows"] == 9


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def child():
        return 1

    def parent():
        return wrapped_child() + 1

    wrapped_child = tracer.wrap("child", child)
    assert tracer.wrap("parent", parent)() == 2
    own = tracer.self_times()
    p, c = tracer.spans
    assert c.parent == 0 and p.parent == -1
    assert own[0] == pytest.approx((p.end - p.start) - (c.end - c.start))
    assert own[1] == c.end - c.start


@pytest.mark.parametrize(
    "name, expected",
    [
        ("compress-t600", {"qformer.forward.calls": 516, "compressor.windows": 84, "compressor.stream_tokens": 24636}),
        ("lvcot-t600", {"lvcot.encode_ratio": 2.0, "lvcot.answer.calls": 4, "qformer.forward.calls": 1026}),
        ("plan-t3600", {"compressor.windows": 456, "segmenter.scenes": 24, "qformer.forward.calls": 0}),
    ],
)
def test_traced_full_size_counts(name, expected, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.setup()
    tracer = tracing.Tracer(run.OBSERVERS)
    tracer.patch(workloads.Answerer, "answer", "lvcot.answer")
    tally = run.Tally()
    with tracer:
        tracer.op = 0
        assert tally.run(wl) is not None, tally.errors
    m = run.layer_metrics(tracer, 1, wl)
    assert {key: m[key] for key in expected} == expected


def test_result_line_matches_benchmark_json(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "train-w8", "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-w8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
