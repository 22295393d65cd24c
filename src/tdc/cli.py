"""Command-line entry point.

Every command line but ``--help`` exits 0 with its record on stdout as one JSON
line, first key ``command``, and nothing on stderr; or exits 1 usage, 2 I/O or
file format, 3 numeric or 4 orchestration with nothing on stdout, one
``tdc: <kind> error:`` line on stderr and no file written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import compressor, lvcot, qformer, segmenter, timeline
from .errors import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_ORCHESTRATION,
    EXIT_USAGE,
    ArgumentError,
    FormatError,
    NumericError,
    OrchestrationError,
    ShapeError,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that float() reads as a negative number (-1e-3, -inf) is a value, where argparse takes
        # only -\d+ and -\d*\.\d+; no tdc option name looks like a number, so no option is lost
        self._negative_number_matcher = re.compile(r"(-(\d|\.\d).*|-(inf|infinity|nan))\Z", re.I | re.S)

    def error(self, message):
        raise ArgumentError(message)


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
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--output", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--frames", type=int, default=60)
    gen.add_argument("--boundaries", default="", help="comma-separated cut frame indices")
    gen.add_argument("--noise", type=float, default=timeline.DEFAULT_NOISE)
    gen.add_argument("--dims", type=int, default=timeline.DEFAULT_DIM,
                     help="visual, audio and descriptor embedding dim (design default)")

    # options shared by the subcommands that read a timeline file
    scenes = _Parser(add_help=False)
    scenes.add_argument("--input", required=True)
    scenes.add_argument("--max-segments", type=int, default=segmenter.DEFAULT_MAX_SCENES)
    scenes.add_argument("--tau", type=float, default=segmenter.DEFAULT_TAU)
    windows = _Parser(add_help=False, parents=[scenes])
    windows.add_argument("--window", type=int, default=compressor.DEFAULT_WINDOW)
    windows.add_argument("--k", type=int, default=qformer.QFormerConfig.queries,
                         help="query tokens per dynamic frame")
    model = _Parser(add_help=False)
    model.add_argument("--seed", type=int, default=0, help="compressor parameter seed")
    model.add_argument("--query-type", choices=qformer.QUERY_TYPES, default="avgpool")

    sub.add_parser("segment", parents=[scenes], help="report scene cuts for a timeline file").set_defaults(run=_cmd_segment)

    comp = sub.add_parser("compress", parents=[windows, model], help="compress a timeline file")
    comp.set_defaults(run=_cmd_compress)
    comp.add_argument("--output", required=True)
    comp.add_argument("--text", default=None, help="instruction text for conditioned compression")

    sub.add_parser("budget", parents=[windows], help="budget a timeline file").set_defaults(run=_cmd_budget)

    lv = sub.add_parser("lvcot", parents=[windows, model], help="segment-then-integrate question answering")
    lv.set_defaults(run=_cmd_lvcot)
    lv.add_argument("--text", required=True, help="the question")
    lv.add_argument("--segments", type=int, default=lvcot.DEFAULT_SEGMENTS)
    lv.add_argument("--script", default=None,
                    help="JSON list of scripted answers, one per call (default: echo answers)")

    gc = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    gc.set_defaults(run=_cmd_gradcheck)
    gc.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen(args) -> dict:
    spec = timeline.SynthSpec(
        seed=args.seed,
        frames=args.frames,
        boundaries=_parse_boundaries(args.boundaries),
        dim=args.dims,
        noise=args.noise,
    )
    tl = timeline.synth_generate(spec)
    timeline.write_tdcf(tl, args.output)
    return {
        "output": args.output,
        "frames": tl.frame_count,
        "boundaries": list(spec.boundaries),
        "seed": args.seed,
    }


def _segmenter_config(args) -> segmenter.SegmenterConfig:
    return segmenter.SegmenterConfig(max_scenes=args.max_segments, tau=args.tau)


def _cmd_segment(args) -> dict:
    tl = timeline.read_tdcf(args.input)
    partition = segmenter.segment_scenes(tl, _segmenter_config(args))
    return {
        "frames": tl.frame_count,
        "boundaries": list(partition.boundaries),
        "cut_similarities": list(partition.cut_similarities),
        "scene_count": partition.scene_count,
        "scenes": [list(s) for s in partition.scenes],
    }


def _check_request(tl, k: int, query_type: str) -> None:
    """Refuse, before any parameter is built, what compressing ``tl`` to ``k`` queries of ``query_type`` refuses."""
    # a stream of 0 tokens may declare any dim, backed by no bytes: never size a projection from it
    if tl.visual_tokens_per_frame == 0:
        raise ArgumentError("the timeline has no visual tokens to compress")
    # avgpool queries pool the static frame's visual tokens; learned ones attend over every key token
    keys = tl.visual_tokens_per_frame + (tl.audio_tokens_per_frame if query_type == "learned" else 0)
    if k > keys:
        raise ArgumentError(f"--k {k} is more than the {keys} tokens per frame that {query_type} queries draw on")


def _context(tl, args) -> tuple[compressor.CompressionContext, timeline.InstructionTokens | None]:
    """The command's compression context and instruction text, sized before any parameter is built."""
    _check_request(tl, args.k, args.query_type)
    text = timeline.tokenize_text(args.text) if args.text else None
    cfg = qformer.QFormerConfig(
        queries=args.k,
        query_type=args.query_type,
        text_conditioning=args.text is not None,
        visual_dim=tl.visual_tokens.shape[2],
        audio_dim=tl.audio_tokens.shape[2] if tl.audio_tokens_per_frame else 0,
        seed=args.seed,
    )
    ctx = compressor.CompressionContext(qformer.init_params(cfg), _segmenter_config(args), args.window)
    return ctx, text


def _cmd_compress(args) -> dict:
    tl = timeline.read_tdcf(args.input)
    ctx, text = _context(tl, args)
    plan, stream = ctx.compress(tl, text)
    compressor.write_stream(stream, args.output)
    counts = {p.name.lower(): int((stream.provenance == int(p)).sum()) for p in compressor.Provenance}
    return {
        "output": args.output,
        "tokens": len(stream),
        "scenes": plan.partition.scene_count,
        "windows": len(plan.windows),
        "provenance_counts": counts,
    }


def _cmd_budget(args) -> dict:
    tl = timeline.read_tdcf(args.input)
    _check_request(tl, args.k, "learned")  # refuse what every query type refuses: learned ones draw on the most tokens
    plan = compressor.make_windows(segmenter.segment_scenes(tl, _segmenter_config(args)), args.window)
    report = compressor.token_budget(tl, plan, qformer.QFormerConfig(queries=args.k))
    return {
        "total": report.total,
        "naive": report.naive,
        "ratio": report.ratio,
        "windows": len(report.per_window),
        "per_window": list(report.per_window),
    }


def _cmd_lvcot(args) -> dict:
    tl = timeline.read_tdcf(args.input)
    if args.script is not None:
        try:
            script = json.loads(Path(args.script).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"script file {args.script!r} is not UTF-8", exc.start) from exc
        except json.JSONDecodeError as exc:
            at = len(exc.doc[: exc.pos].encode("utf-8"))
            raise FormatError(f"script file {args.script!r} is not JSON: {exc.msg}", at) from exc
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise ArgumentError(f"script file {args.script!r} must hold a JSON list of strings")
        answerer = lvcot.MockAnswerer(script)
    else:
        answerer = lvcot.EchoAnswerer()
    ctx, _ = _context(tl, args)
    trace = lvcot.run_lvcot(tl, args.text, answerer, lvcot.LVCoTConfig(segments=args.segments), ctx)
    return {
        "spans": [list(s) for s in trace.spans],
        "segment_answers": list(trace.segment_answers),
        "final_prompt": trace.final_prompt,
        "final_answer": trace.final_answer,
    }


def _cmd_gradcheck(args) -> dict:
    report = qformer.grad_check(seed=args.seed)
    if not report.max_relative_error <= qformer.GRAD_CHECK_THRESHOLD:  # a NaN error fails too
        raise NumericError(f"gradient check failed: max relative error {report.max_relative_error:.3e}")
    return {
        "seed": args.seed,
        "max_relative_error": report.max_relative_error,
        "threshold": qformer.GRAD_CHECK_THRESHOLD,
        "passed": True,
        "per_tensor": report.per_tensor,
    }


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        print(json.dumps({"command": args.command, **args.run(args)}))
        return 0
    except SystemExit as exc:  # --help printed the help text; argparse reports every other failure through error()
        return exc.code
    except ArgumentError as exc:
        print(f"tdc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"tdc: usage error: the request does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"tdc: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, ShapeError) as exc:
        print(f"tdc: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OrchestrationError as exc:
        print(f"tdc: orchestration error: {exc}", file=sys.stderr)
        return EXIT_ORCHESTRATION


if __name__ == "__main__":
    sys.exit(main())
