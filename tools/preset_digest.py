"""Fingerprints of every preset's training run, to compare two checkouts.

    python3 tools/preset_digest.py > digest.json

Run from the root of a checkout (this one, or a ``git archive`` export of
another revision); it imports the ``modlab`` under that checkout's
``src/``.  Every preset trains for two epochs on one fixed generated
dataset of 120 pairs, with its own warm-up.  Prints one JSON object keyed
by preset name: the sha256 over the trained parameters, the reference
parameters and the per-step losses (their float64 bytes, in that order),
the distinct per-pair pass counters (fwd_policy, fwd_ref, bwd_policy,
bwd_ref) and the ``loss_variant`` label.  Writes no file.  Two checkouts
whose digests agree trained bitwise-identical runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from modlab import synth, train  # noqa: E402
from modlab.presets import PRESET_NAMES, make_config  # noqa: E402

DATASET = synth.SynthConfig(n_pairs=120, n_scenes=40, seed=0, world_seed=100)
EPOCHS = 2


def digest(name: str, dataset) -> dict:
    cfg = make_config(name, epochs=EPOCHS)
    result = train.train(dataset, cfg)
    sha = hashlib.sha256()
    for array in (result.params.to_vector(), result.ref_params.to_vector(), result.losses):
        sha.update(array.tobytes())
    counters = sorted({(c.fwd_policy, c.fwd_ref, c.bwd_policy, c.bwd_ref)
                       for c in result.counters})
    return {"sha256": sha.hexdigest(), "counters": [list(c) for c in counters],
            "label": cfg.loss_variant}


def main() -> None:
    dataset = synth.generate_pairs(DATASET)
    print(json.dumps({name: digest(name, dataset) for name in PRESET_NAMES}, indent=2))


if __name__ == "__main__":
    main()
