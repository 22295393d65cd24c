#!/usr/bin/env python3
"""End-to-end walkthrough: synthesize a timeline, segment it, compress it,
report the token budget, and run the segment-then-integrate QA loop."""

import argparse

import tdc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--frames", type=int, default=90)
    parser.add_argument("--boundaries", default="30,60")
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--question", default="what changes between the scenes?")
    args = parser.parse_args()

    boundaries = tuple(int(b) for b in args.boundaries.split(",")) if args.boundaries else ()
    tl = tdc.synth_generate(tdc.SynthSpec(seed=args.seed, frames=args.frames, boundaries=boundaries))
    print(f"timeline: {tl.frame_count} frames, "
          f"{tl.visual_tokens_per_frame} visual + {tl.audio_tokens_per_frame} audio tokens/frame")

    cfg = tdc.QFormerConfig(seed=1, text_conditioning=True)
    ctx = tdc.CompressionContext(params=tdc.init_params(cfg), window_length=args.window)
    plan, stream = ctx.compress(tl, tdc.tokenize_text(args.question))
    print(f"scenes: {plan.partition.scenes}")
    report = tdc.token_budget(tl, plan, cfg)
    print(f"windows: {len(plan.windows)}, stream tokens: {len(stream)}")
    print(f"budget: {report.total} vs naive {report.naive} (ratio {report.ratio:.2f})")

    trace = tdc.run_lvcot(tl, args.question, tdc.EchoAnswerer(), tdc.LVCoTConfig(), ctx)
    print("reasoning notes:")
    for line in trace.final_prompt.splitlines()[:-1]:
        print(f"  {line}")
    print(f"final answer: {trace.final_answer}")


if __name__ == "__main__":
    main()
