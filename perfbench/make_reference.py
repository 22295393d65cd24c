"""Write perfbench/reference.json from the package as it is checked out.

    python3 perfbench/make_reference.py

The file pins sampled dynamic tokens of a small compress run and the first
train-w8 losses.  It was produced once from the seed code; regenerate it
only when a change is meant to alter the model's outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from inputs import TimelineDesign  # noqa: E402
from run import git_commit  # noqa: E402

from tdc import qformer  # noqa: E402

SMALL = {"frames": 40, "cut_every": 20}
SAMPLED_ROWS = 8
TRAIN_STEPS = 3


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        small = workloads.Compress(0, Path(tmp), TimelineDesign(**SMALL))
        small.setup()
        small.op()
        tokens, prov = checks.parse_tdcs(small.output.read_bytes())
    dynamic = [i for i, p in enumerate(prov.tolist()) if p == checks.DYNAMIC]
    rows = dynamic[:: max(1, len(dynamic) // SAMPLED_ROWS)][:SAMPLED_ROWS]

    cfg = qformer.QFormerConfig(seed=0)
    params = qformer.init_params(cfg)
    batch = qformer.make_train_batch(cfg, seed=0, frames=workloads.TRAIN_FRAMES)
    losses = []
    for _ in range(TRAIN_STEPS):
        params, loss = qformer.train_step(params, batch, workloads.LR)
        losses.append(loss)

    reference = {
        "produced_at_commit": git_commit(HERE.parent),
        "compress": {
            "seed": 0,
            "design": SMALL,
            "rows": rows,
            "values": [tokens[r].astype(float).tolist() for r in rows],
        },
        "train": {"seed": 0, "lr": workloads.LR, "losses": losses},
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
