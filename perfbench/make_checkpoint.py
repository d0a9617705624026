"""Regenerate the sample-ddsf checkpoint and its held-out reference logp.

    python3 perfbench/make_checkpoint.py [--check]

Run from the repository root. Every seed is fixed and BLAS runs on one
thread, so a rerun writes byte-identical files; --check regenerates into
memory and exits nonzero if either committed file differs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))

from nafkit import FlowStack, TrainConfig, fit, get_target  # noqa: E402

from workloads import CHECKPOINT, HELDOUT  # noqa: E402

DATA_SEED = 20180401
MODEL_SEED = 1
FIT_SEED = 1
STEPS = 400
TRAIN_N = 10_000
HELDOUT_N = 2048


def generate():
    target = get_target("grid-k2")
    rng = np.random.default_rng(DATA_SEED)
    train = target.sampler(TRAIN_N, rng)
    heldout = target.sampler(HELDOUT_N, rng)
    stack = FlowStack.build(m=2, kind="ddsf", n_layers=2, ddsf_dims=(1, 16, 16, 1),
                            hidden=(64,), seed=MODEL_SEED)
    config = TrainConfig(loss="mle", steps=STEPS, batch=256, lr=1e-2, seed=FIT_SEED)
    trace = fit(stack, config, data=train)
    checkpoint = json.dumps(stack.to_json(), sort_keys=True)
    # Reload so the reference values come from exactly what the CLI loads.
    logp = FlowStack.from_json(json.loads(checkpoint)).log_density(heldout)
    reference = json.dumps({
        "checkpoint_sha256": hashlib.sha256(checkpoint.encode()).hexdigest(),
        "generator": {"target": "grid-k2", "data_seed": DATA_SEED, "train_n": TRAIN_N,
                      "model_seed": MODEL_SEED, "fit": config.as_dict(),
                      "stack": {"m": 2, "kind": "ddsf", "n_layers": 2,
                                "ddsf_dims": [1, 16, 16, 1], "hidden": [64]}},
        "final_loss": trace[-1][1],
        "points": heldout.tolist(),
        "logp": logp.tolist(),
    }, sort_keys=True)
    return checkpoint, reference


def main(argv) -> int:
    outputs = dict(zip((CHECKPOINT, HELDOUT), generate()))
    if "--check" in argv:
        stale = []
        for path, text in outputs.items():
            with open(path, "r", encoding="utf-8") as fh:
                if fh.read() != text:
                    stale.append(path)
        for path in stale:
            print(f"differs from a fresh regeneration: {path}", file=sys.stderr)
        return 1 if stale else 0
    os.makedirs(os.path.dirname(CHECKPOINT), exist_ok=True)
    for path, text in outputs.items():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path} sha256={hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
