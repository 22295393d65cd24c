"""Command-line entry point.

Every subcommand prints exactly one JSON record on stdout and exits 0 on
success.  Failures print a diagnostic on stderr and exit with a documented
code: 1 usage, 2 I/O or file-format, 3 numeric, 4 orchestration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import compressor, lvcot, qformer, segmenter, timeline
from .errors import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_ORCHESTRATION,
    EXIT_USAGE,
    ArgumentError,
    DegenerateInputError,
    FormatError,
    NumericError,
    OrchestrationError,
    ShapeError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_boundaries(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ArgumentError(f"bad boundary list {text!r}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tdc",
        description="Temporal-dynamic-context token compression for long videos.",
        epilog="Exit codes: 1 usage, 2 I/O, 3 numeric, 4 orchestration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic timeline file")
    gen.add_argument("--output", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--frames", type=int, default=60)
    gen.add_argument("--boundaries", default="", help="comma-separated cut frame indices")
    gen.add_argument("--noise", type=float, default=timeline.DEFAULT_NOISE)
    gen.add_argument("--dims", type=int, default=timeline.DEFAULT_DIM,
                     help="visual/audio/descriptor embedding dim (design default)")

    # options shared by the subcommands that read a timeline file
    scenes = _Parser(add_help=False)
    scenes.add_argument("--input", required=True)
    scenes.add_argument("--max-segments", type=int, default=segmenter.DEFAULT_MAX_SCENES)
    scenes.add_argument("--tau", type=float, default=segmenter.DEFAULT_TAU)
    windows = _Parser(add_help=False, parents=[scenes])
    windows.add_argument("--window", type=int, default=compressor.DEFAULT_WINDOW)
    windows.add_argument("--k", type=int, default=16, help="query tokens per dynamic frame")
    model = _Parser(add_help=False)
    model.add_argument("--seed", type=int, default=0, help="compressor parameter seed")
    model.add_argument("--query-type", choices=qformer.QUERY_TYPES, default="avgpool")

    sub.add_parser("segment", parents=[scenes], help="report scene cuts for a timeline file")

    comp = sub.add_parser("compress", parents=[windows, model], help="compress a timeline file")
    comp.add_argument("--output", required=True)
    comp.add_argument("--text", default=None, help="instruction text for conditioned compression")

    sub.add_parser("budget", parents=[windows], help="budget a timeline file")

    lv = sub.add_parser("lvcot", parents=[windows, model], help="segment-then-integrate question answering")
    lv.add_argument("--text", required=True, help="the question")
    lv.add_argument("--segments", type=int, default=lvcot.DEFAULT_SEGMENTS)
    lv.add_argument("--answerer", choices=("mock", "echo"), default="echo")
    lv.add_argument("--script", default=None, help="JSON list of scripted answers (mock)")

    gc = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    gc.add_argument("--seed", type=int, default=0)

    return parser


def _emit(record: dict) -> None:
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")


def _cmd_gen(args) -> None:
    spec = timeline.SynthSpec(
        seed=args.seed,
        frames=args.frames,
        boundaries=_parse_boundaries(args.boundaries),
        visual_dim=args.dims,
        audio_dim=args.dims,
        descriptor_dim=args.dims,
        noise=args.noise,
    )
    tl = timeline.synth_generate(spec)
    timeline.write_tdcf(tl, args.output)
    _emit(
        {
            "command": "gen",
            "output": args.output,
            "frames": tl.frame_count,
            "boundaries": list(spec.boundaries),
            "seed": args.seed,
        }
    )


def _cmd_segment(args) -> None:
    tl = timeline.read_tdcf(args.input)
    cfg = segmenter.SegmenterConfig(max_scenes=args.max_segments, tau=args.tau)
    partition = segmenter.segment_scenes(tl, cfg)
    _emit(
        {
            "command": "segment",
            "frames": tl.frame_count,
            "boundaries": list(partition.boundaries),
            "cut_similarities": list(partition.cut_similarities),
            "scene_count": partition.scene_count,
            "scenes": [list(s) for s in partition.scenes],
        }
    )


def _plan_for(tl, args):
    cfg = segmenter.SegmenterConfig(max_scenes=args.max_segments, tau=args.tau)
    partition = segmenter.segment_scenes(tl, cfg)
    return partition, compressor.make_windows(partition, args.window)


def _qformer_config(tl, args) -> qformer.QFormerConfig:
    return qformer.QFormerConfig(
        queries=args.k,
        query_type=args.query_type,
        text_conditioning=args.text is not None,
        visual_dim=tl.visual_tokens.shape[2],
        audio_dim=tl.audio_tokens.shape[2],
        seed=args.seed,
    )


def _cmd_compress(args) -> None:
    tl = timeline.read_tdcf(args.input)
    partition, plan = _plan_for(tl, args)
    params = qformer.init_params(_qformer_config(tl, args))
    text = timeline.tokenize_text(args.text) if args.text else None
    stream = compressor.assemble_tdc(tl, plan, params, text=text)
    compressor.write_stream(stream, args.output)
    counts = {p.name.lower(): int((stream.provenance == int(p)).sum()) for p in compressor.Provenance}
    _emit(
        {
            "command": "compress",
            "output": args.output,
            "tokens": len(stream),
            "scenes": partition.scene_count,
            "windows": len(plan.windows),
            "provenance_counts": counts,
        }
    )


def _cmd_budget(args) -> None:
    tl = timeline.read_tdcf(args.input)
    _, plan = _plan_for(tl, args)
    report = compressor.token_budget(tl, plan, qformer.QFormerConfig(queries=args.k))
    _emit(
        {
            "command": "budget",
            "total": report.total,
            "naive": report.naive,
            "ratio": report.ratio,
            "windows": len(report.per_window),
            "per_window": list(report.per_window),
        }
    )


def _cmd_lvcot(args) -> None:
    tl = timeline.read_tdcf(args.input)
    if args.answerer == "mock":
        if not args.script:
            raise ArgumentError("--answerer mock requires --script")
        with open(args.script, "r", encoding="utf-8") as fh:
            script = json.load(fh)
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise ArgumentError(f"script file {args.script!r} must hold a JSON list of strings")
        answerer = lvcot.MockAnswerer(script)
    else:
        answerer = lvcot.EchoAnswerer()
    params = qformer.init_params(_qformer_config(tl, args))
    ctx = lvcot.CompressionContext(
        params=params,
        segmenter=segmenter.SegmenterConfig(max_scenes=args.max_segments, tau=args.tau),
        window_length=args.window,
    )
    trace = lvcot.run_lvcot(tl, args.text, answerer, lvcot.LVCoTConfig(segments=args.segments), ctx)
    _emit(
        {
            "command": "lvcot",
            "spans": [list(s) for s in trace.spans],
            "segment_answers": list(trace.segment_answers),
            "final_prompt": trace.final_prompt,
            "final_answer": trace.final_answer,
        }
    )


def _cmd_gradcheck(args) -> None:
    report = qformer.grad_check(seed=args.seed)
    if not report.passed:
        raise NumericError(
            f"gradient check failed: max relative error {report.max_relative_error:.3e}"
        )
    _emit(
        {
            "command": "gradcheck",
            "seed": args.seed,
            "max_relative_error": report.max_relative_error,
            "threshold": report.threshold,
            "passed": report.passed,
            "per_tensor": {k: float(v) for k, v in report.per_tensor.items()},
        }
    )


_COMMANDS = {
    "gen": _cmd_gen,
    "segment": _cmd_segment,
    "compress": _cmd_compress,
    "budget": _cmd_budget,
    "lvcot": _cmd_lvcot,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except (_UsageError, ArgumentError) as exc:
        print(f"tdc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"tdc: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, ShapeError, DegenerateInputError) as exc:
        print(f"tdc: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OrchestrationError as exc:
        print(f"tdc: orchestration error: {exc}", file=sys.stderr)
        return EXIT_ORCHESTRATION


if __name__ == "__main__":
    sys.exit(main())
