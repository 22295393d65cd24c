"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload compress-t600 --seed 1 --seconds 20 --trace 0

A closed loop in one process: one op at a time, each op's output checked
after it returns (checking is not timed).  --trace 0 reports the end-to-end
metrics, untraced.  --trace 1 reports per-layer metrics from spans recorded
around the package's public functions, plus the tracing overhead; its
numbers never feed the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUPS = 3  # set-ups per run; setup_s is their median

END_TO_END = {
    "frames_per_s": "frames/s",
    "op_p50_s": "s",
    "first_call_s": "s",
    "compression_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CALLS = (
    "kernels.gelu", "kernels.gelu_grad", "kernels.softmax_rows", "kernels.cosine_sim", "qformer.forward",
    "qformer.build_queries", "qformer.backward", "lvcot.answer",
)
SELF_TIMES = (
    "kernels.gelu", "kernels.gelu_grad", "kernels.softmax_rows", "kernels.cosine_sim", "qformer.forward",
    "qformer.build_queries", "qformer.backward", "qformer.train_step", "compressor.assemble_tdc",
    "compressor.write_stream", "timeline.read_tdcf", "segmenter.frame_similarities",
    "segmenter.select_cuts", "compressor.make_windows", "compressor.token_budget",
)
ENCODE = ("segmenter.segment_scenes", "compressor.make_windows", "compressor.assemble_tdc")
PER_LAYER = {
    **{f"{n}.calls": "count" for n in CALLS},
    **{f"{n}.s": "s" for n in SELF_TIMES},
    "qformer.forward.gflop": "GFLOP-computed",
    "qformer.forward.gflops_per_s": "GFLOP/s-computed",
    "compressor.windows": "count",
    "compressor.stream_tokens": "count",
    "segmenter.scenes": "count",
    "lvcot.encode_s": "s",
    "lvcot.encode_ratio": "ratio",
    "lvcot.forward_useful_ratio": "ratio",
    "timeline.read_tdcf.mb_per_s": "MB/s",
    "trace.frames_per_s_untraced": "frames/s",
    "trace.frames_per_s_traced": "frames/s",
    "trace.overhead_ratio": "ratio",
}


def forward_gflop(args, kwargs, result) -> dict:
    """Matmul work of one qformer.forward call, computed from config and shapes."""
    params, _, visual, audio = args[:4]
    text = kwargs.get("text", args[4] if len(args) > 4 else None)
    cfg = params.cfg
    d, f, k = cfg.model_dim, cfg.ffn_dim, cfg.queries
    n = k + (len(text) if cfg.text_conditioning and text is not None else 0)
    m_v, m_a = len(visual), len(audio)
    m = m_v + m_a
    projection = 2 * (m_v * cfg.visual_dim + m_a * cfg.audio_dim) * d
    self_attn = 2 * 4 * n * d * d + 2 * 2 * n * n * d
    cross_attn = 2 * 2 * k * d * d + 2 * 2 * m * d * d + 2 * 2 * k * m * d
    ffn = 2 * 2 * n * d * f
    return {"gflop": (projection + cfg.layers * (self_attn + cross_attn + ffn)) / 1e9}


OBSERVERS = {
    "qformer.forward": forward_gflop,
    "compressor.make_windows": lambda a, kw, r: {"windows": len(r.windows)},
    "compressor.assemble_tdc": lambda a, kw, r: {
        "tokens": len(r),
        "frames": a[0].frame_count,
        "dynamic": sum(len(w.dynamic_frames) for w in a[1].windows),
    },
    "segmenter.segment_scenes": lambda a, kw, r: {"scenes": r.scene_count},
    "timeline.read_tdcf": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
}


class Tally:
    """Attempted and failed ops; an op fails if it raises or fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
        print(f"op failed: {message}", file=sys.stderr)

    def run(self, wl):
        """(op seconds, first-result seconds, compression ratio), or None if the op failed.

        The op's output is dropped here, so no run holds it beyond its check.
        """
        self.attempted += 1
        wl.first_call = None
        start = time.perf_counter()
        try:
            out = wl.op()
            elapsed = time.perf_counter() - start
            failures = wl.check(out)
            ratio = None if failures else wl.compression_ratio(out)
        except Exception:  # a failing op is counted and the run goes on
            self.fail(traceback.format_exc())
            return None
        if failures:
            self.fail("; ".join(failures[:5]))
            return None
        return elapsed, elapsed if wl.first_call is None else wl.first_call, ratio

    def reference(self, wl) -> None:
        self.attempted += 1
        try:
            failures = wl.reference_failures()
        except Exception:  # a reference mismatch is a failed op, not a crash
            failures = [traceback.format_exc()]
        if failures:
            self.fail("reference: " + "; ".join(failures[:5]))


def timed_phase(wl, tally: Tally, seconds: float, tracer=None) -> dict:
    """Run ops back to back for `seconds` of wall time; times exclude checks."""
    times, firsts, ratio = [], [], None
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        if tracer is not None:
            tracer.op += 1
        result = tally.run(wl)
        if result is not None:
            elapsed, first, ratio = result
            times.append(elapsed)
            firsts.append(first)
    return {"times": times, "firsts": firsts, "compression_ratio": ratio}


def frames_per_s(wl, phase) -> float:
    total = sum(phase["times"])
    return wl.frames_per_op * len(phase["times"]) / total if total else 0.0


def layer_metrics(tracer, ops: int, wl) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def inclusive(name, where=lambda s: True):
        return sum(spans[i].end - spans[i].start for i in by_name[name] if where(spans[i]))

    def fact(name, key, where=lambda s: True):
        return sum((spans[i].facts or {}).get(key, 0) for i in by_name[name] if where(spans[i]))

    def under_lvcot(s):
        return s.parent >= 0 and spans[s.parent].name == "lvcot.run_lvcot"

    ops = max(ops, 1)
    m = {f"{n}.calls": len(by_name[n]) / ops for n in CALLS}
    m.update({f"{n}.s": sum(own[i] for i in by_name[n]) / ops for n in SELF_TIMES})
    gflop, forward_s = fact("qformer.forward", "gflop"), inclusive("qformer.forward")
    m["qformer.forward.gflop"] = gflop / ops
    m["qformer.forward.gflops_per_s"] = gflop / forward_s if forward_s else 0.0
    m["compressor.windows"] = fact("compressor.make_windows", "windows") / ops
    m["compressor.stream_tokens"] = fact("compressor.assemble_tdc", "tokens") / ops
    m["segmenter.scenes"] = fact("segmenter.segment_scenes", "scenes") / ops
    m["lvcot.encode_s"] = sum(inclusive(n, under_lvcot) for n in ENCODE) / ops
    m["lvcot.encode_ratio"] = fact("compressor.assemble_tdc", "frames", under_lvcot) / (wl.frames_per_op * ops)
    dynamic = fact("compressor.assemble_tdc", "dynamic", under_lvcot)
    m["lvcot.forward_useful_ratio"] = wl.useful_dynamic_frames() * ops / dynamic if dynamic else 0.0
    read_s = inclusive("timeline.read_tdcf")
    m["timeline.read_tdcf.mb_per_s"] = fact("timeline.read_tdcf", "bytes") / 1e6 / read_s if read_s else 0.0
    return m


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tdc" / "__init__.py").is_file():
        print(f"no tdc package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = time.perf_counter()
    importlib.import_module("tdc")  # the program's own import; numpy is already loaded
    import_s = time.perf_counter() - start
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    rundir = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    tally = Tally()
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUPS):
            start = time.perf_counter()
            wl = cls(args.seed, rundir)
            wl.setup()
            prepared = time.perf_counter() - start
            warm = tally.run(wl)  # the warm-up op is set-up; its check is not
            setup_times.append(prepared + (warm[0] if warm else 0.0))
        tally.reference(wl)
        if args.trace:
            metrics, extra = traced_run(wl, tally, args.seconds)
        else:
            phase = timed_phase(wl, tally, args.seconds)
            metrics = {
                "frames_per_s": frames_per_s(wl, phase),
                "op_p50_s": statistics.median(phase["times"]) if phase["times"] else 0.0,
                "first_call_s": statistics.median(phase["firsts"]) if phase["firsts"] else 0.0,
                "compression_ratio": phase["compression_ratio"] or 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": import_s + statistics.median(setup_times),
            }
            extra = {"ops": len(phase["times"]), "op_times": phase["times"], "setup_samples": setup_times, "import_s": import_s}
            metrics = {name: metric(metrics[name], unit) for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "errors": tally.errors,
        **extra,
        **result,
    }
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "ops")}))
    print(json.dumps(result))
    return 0


def traced_run(wl, tally: Tally, seconds: float):
    """Half the time untraced, half traced; returns (per-layer metrics, extras)."""
    import tracer as tracing
    import workloads

    untraced = timed_phase(wl, tally, seconds / 2)
    tracer = tracing.Tracer(OBSERVERS)
    tracer.patch(workloads.Answerer, "answer", "lvcot.answer")
    with tracer:
        traced = timed_phase(wl, tally, seconds / 2, tracer)
    ops = len(traced["times"])
    m = layer_metrics(tracer, ops, wl)
    fps_untraced, fps_traced = frames_per_s(wl, untraced), frames_per_s(wl, traced)
    m["trace.frames_per_s_untraced"] = fps_untraced
    m["trace.frames_per_s_traced"] = fps_traced
    m["trace.overhead_ratio"] = fps_untraced / fps_traced if fps_traced else 0.0
    trace_file = WORKDIR / f"trace-{wl.name}.json"
    tracer.write(trace_file, workload=wl.name, seed=wl.seed)
    metrics = {name: metric(m[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, {"ops": ops, "untraced_ops": len(untraced["times"]), "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT))}


if __name__ == "__main__":
    sys.exit(main())
