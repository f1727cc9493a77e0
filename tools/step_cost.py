"""What one training step costs, piece by piece.

    python3 tools/step_cost.py > step_cost.json

Run from the root of a checkout; it imports the ``modlab`` under that
checkout's ``src/``.  Builds the ``experiment`` world of the benchmark
(``HALLUCINATION_BENCHMARK`` at seed 81), takes the first batch of the
training schedule (16 pairs, step 0) and, for the ``dpo`` and
``modpp_desk`` presets, times each piece of that step as the step calls
it: ``train_step`` as ``train`` calls it, ``evaluate_batch``, the policy
``forward_unchecked`` over the rows the step forwards (the clean rows,
then each corrupted block), each ``corrupt`` call,
``pair_loss_terms``, ``_sigmoid``, ``backward`` and
``apply_gradient_step``.  Each figure is the minimum over 7 repeats of a
timeit loop, in microseconds per call.  Prints one JSON object; writes no
file.

perfbench's traced split cannot give these figures: it traces
``policy.forward_logprobs``, which the step does not call.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from modlab import experiments, policy, train  # noqa: E402
from modlab.corrupt import corrupt  # noqa: E402
from modlab.presets import make_config  # noqa: E402
from modlab.synth import ROLES  # noqa: E402

SEED = 81
PRESETS = ("dpo", "modpp_desk")
REPEATS = 7


def best_us(fn, number: int = 2000) -> float:
    """Minimum over REPEATS timeit loops of fn, in microseconds per call."""
    return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number * 1e6


def step_pieces(pairs, reference, name: str) -> dict:
    spec = experiments.HALLUCINATION_BENCHMARK
    cfg = make_config(name, lr=spec.lr, epochs=spec.epochs, seed=SEED)
    rows = train.batch_schedule(pairs, cfg)[0]
    batch, pools = pairs[rows], train.feature_pools(pairs)
    table = train.reference_logprobs(reference, pairs, cfg)
    ref, checked = table[:, rows], train._log_probs_ok(table)
    rng = np.random.default_rng(SEED)  # draws differ per call; the costs do not
    out = {"pairs": len(rows), "train_step": best_us(lambda: train.train_step(
        reference, ref, batch, cfg, 0, pools, rng=rng, checked=checked))}
    out["evaluate_batch"] = best_us(lambda: train.evaluate_batch(
        reference, ref, batch, cfg, 0, pools, rng=rng, checked=checked))

    relevant, irrelevant = ROLES[batch.modality_tag[0]]
    corrupted = [m for m, strength in ((irrelevant, cfg.hp.beta_inv),
                                       (relevant, cfg.hp.beta_sens)) if strength > 0]
    for i, m in enumerate(corrupted):
        out[f"corrupt[{i}] {m}"] = best_us(lambda m=m: corrupt(
            getattr(batch, m), cfg.corruption, pools[m], rng))
    blocks = {m: [getattr(batch, m)] * (1 + len(corrupted)) for m in ("audio", "visual")}
    for block, m in enumerate(corrupted, start=1):
        blocks[m][block] = corrupt(getattr(batch, m), cfg.corruption, pools[m], rng)
    audio, visual = np.concatenate(blocks["audio"]), np.concatenate(blocks["visual"])
    prompt_ids = np.tile(batch.prompt_id, 1 + len(corrupted))
    out["forward_unchecked"] = best_us(lambda: policy.forward_unchecked(
        reference, audio, visual, prompt_ids))

    pl, _, clean = train.evaluate_batch(reference, ref, batch, cfg, 0, pools, rng=rng)
    losses, margins = train.pair_loss_terms(pl, cfg)
    out["pair_loss_terms"] = best_us(lambda: train.pair_loss_terms(pl, cfg))
    out["_sigmoid"] = best_us(lambda: train._sigmoid(-margins))
    weights = train._sigmoid(-margins) * cfg.hp.tau
    upstream = np.zeros_like(clean.probs)
    upstream[np.arange(len(rows)), batch.y_w] = -weights
    upstream[np.arange(len(rows)), batch.y_l] = weights
    out["backward"] = best_us(lambda: policy.backward(reference, clean, upstream))
    grads = policy.backward(reference, clean, upstream)
    out["apply_gradient_step"] = best_us(lambda: policy.apply_gradient_step(
        reference, grads, cfg.lr))
    return out


def main() -> None:
    pairs, _, reference = experiments.build_world(experiments.HALLUCINATION_BENCHMARK, SEED)
    doc = {"world": f"experiment (HALLUCINATION_BENCHMARK, seed {SEED}), first batch, step 0",
           "unit": f"us per call, minimum of {REPEATS} timeit repeats",
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__, "platform": platform.platform()}}
    doc.update({name: step_pieces(pairs, reference, name) for name in PRESETS})
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
