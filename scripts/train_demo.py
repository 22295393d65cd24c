#!/usr/bin/env python3
"""Train the compressor on the toy reconstruction objective and print the curve.

A fixed linear readout maps the mean compressed token to a prediction of the
mean dynamic-frame visual token; plain gradient descent on all compressor
parameters should cut the loss by orders of magnitude within 200 steps.
The trained parameters then go through a TDCP checkpoint and back; the
script exits non-zero unless one more step from the loaded copy gives the
loss of one more step in memory, up to float32 rounding.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import tdc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--batch-seed", type=int, default=11)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--query-type", choices=("avgpool", "learned"), default="avgpool")
    args = parser.parse_args()

    cfg = tdc.QFormerConfig(seed=args.seed, query_type=args.query_type)
    params = tdc.init_params(cfg)
    batch = tdc.make_train_batch(cfg, seed=args.batch_seed, frames=args.frames)

    initial = None
    for step in range(1, args.steps + 1):
        params, loss = tdc.train_step(params, batch, args.lr)
        initial = loss if initial is None else initial
        if step == 1 or step % 20 == 0:
            print(f"step {step:4d}  loss {loss:.6f}")
    print(f"loss ratio final/initial: {loss / initial:.5f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trained.tdcp"
        tdc.save_params(params, path)
        loaded = tdc.load_params(path)
    _, in_memory = tdc.train_step(params, batch, args.lr)
    _, reloaded = tdc.train_step(loaded, batch, args.lr)
    print(f"next-step loss in memory {in_memory:.9f}, from the checkpoint {reloaded:.9f}")
    # rounding the parameters to float32 moves this loss by about 3e-8 of itself
    if abs(reloaded - in_memory) > 1e-6 * abs(in_memory):
        sys.exit("the checkpoint round trip changed the loss beyond float32 rounding")


if __name__ == "__main__":
    main()
