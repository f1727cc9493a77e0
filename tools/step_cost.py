"""What one training step costs, piece by piece.

    python3 tools/step_cost.py > step_cost.json

Run from the root of a checkout; it imports the ``modlab`` under that
checkout's ``src/``.  Builds the ``experiment`` world of the benchmark
(``HALLUCINATION_BENCHMARK`` at seed 81) and, for the ``dpo`` and
``modpp_desk`` presets, takes the first batch of the training schedule
(16 pairs, step 0) with its block of the checked reference table.  It
times ``train_step``, the one step ``train`` runs, and ``train_per_step``:
``train`` over the world's first epoch from the world's reference, its
per-run and per-epoch work and its loop included, divided by its steps,
so the cost outside ``train_step`` shows as the difference.  Then it runs
the step once with the ``train`` bindings in ``PIECES`` recording their
arguments and times each recorded call again on its own arguments,
labelled in the step's call order: ``evaluate_batch``, each ``corrupt``,
``forward_unchecked``, ``pair_loss_terms``, ``_sigmoid``, ``backward``,
``apply_gradient_step``.
A binding called more than once is labelled by its index: ``corrupt[0]``
is the irrelevant-modality block and ``corrupt[1]`` the relevant one, in
the step's draw order; dpo corrupts nothing.  The ``warmup`` block times
``warmup_reference`` over 50 steps, per step (its per-run setup and check
spread over the steps), then the recorded calls of a one-step warm-up:
``forward_unchecked``, ``backward``, ``apply_gradient_step``.  Each figure
is the minimum over 7 repeats of a timeit loop, in microseconds per call.
Prints one JSON object; writes no file.

perfbench's traced split cannot give these figures: it traces
``policy.forward_logprobs``, which the step does not call.  Compare pieces
only within one run: one checkout runs per process, so a slow stretch of a
noisy host lands on one side.  Three alternating runs of two checkouts read
a warm-up step at 130.5 / 91.2 / 94.8 us against 67.3 / 91.0 / 103.7 us,
while both imported in one process and interleaved gave a steady -16 %.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import timeit
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from modlab import experiments, train  # noqa: E402
from modlab.presets import make_config  # noqa: E402

SEED = 81
PRESETS = ("dpo", "modpp_desk")
REPEATS = 7
WARMUP_STEPS = 50
# The train bindings the step and the warm-up call, each timed per call.
PIECES = ("evaluate_batch", "corrupt", "forward_unchecked", "pair_loss_terms", "_sigmoid",
          "backward", "apply_gradient_step")


def best_us(fn, number: int = 2000) -> float:
    """Minimum over REPEATS timeit loops of fn, in microseconds per call."""
    return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number * 1e6


def recorded_pieces(run) -> dict:
    """Run run() once with every PIECES binding of train recording its
    calls, restore the bindings, then time each call on its arguments:
    {label: us}, in call order."""
    originals = {name: getattr(train, name) for name in PIECES}
    calls = []

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls.append((name, fn, args, kwargs))
            return fn(*args, **kwargs)
        return record

    try:
        for name, fn in originals.items():
            setattr(train, name, recorder(name, fn))
        run()
    finally:
        for name, fn in originals.items():
            setattr(train, name, fn)
    counts, seen = Counter(name for name, *_ in calls), Counter()
    out = {}
    for name, fn, args, kwargs in calls:
        label = name if counts[name] == 1 else f"{name}[{seen[name]}]"
        seen[name] += 1
        out[label] = best_us(lambda: fn(*args, **kwargs))
    return out


def step_pieces(pairs, reference, name: str) -> dict:
    spec = experiments.HALLUCINATION_BENCHMARK
    cfg = make_config(name, lr=spec.lr, epochs=spec.epochs, seed=SEED)
    rows = train.batch_schedule(pairs, cfg)[0]
    batch, pools = pairs[rows], train.feature_pools(pairs)
    ref = train.check_reference(train.reference_logprobs(reference, pairs, cfg))[:, rows]
    rng = np.random.default_rng(SEED)  # draws differ per call; the costs do not

    def step():
        return train.train_step(reference, ref, batch, cfg, 0, pools, rng=rng)

    epoch = make_config(name, lr=spec.lr, epochs=1, seed=SEED)
    steps = len(train.batch_schedule(pairs, epoch))
    return {"pairs": len(rows), "train_step": best_us(step),
            "train_per_step": best_us(lambda: train.train(pairs, epoch, reference), number=5)
            / steps, **recorded_pieces(step)}


def warmup_pieces(pairs) -> dict:
    out = {"steps": WARMUP_STEPS, "rows": min(train.TrainConfig.batch_size, len(pairs)),
           "warmup_reference_per_step": best_us(
               lambda: train.warmup_reference(pairs, WARMUP_STEPS, SEED), number=20)
           / WARMUP_STEPS}
    return {**out, **recorded_pieces(lambda: train.warmup_reference(pairs, 1, SEED))}


def main() -> None:
    pairs, _, reference = experiments.build_world(experiments.HALLUCINATION_BENCHMARK, SEED)
    doc = {"world": f"experiment (HALLUCINATION_BENCHMARK, seed {SEED}); presets: first "
                    "batch, step 0, and train_per_step over the first epoch; warmup: from the "
                    "seeded initialization",
           "unit": f"us per call, minimum of {REPEATS} timeit repeats",
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__, "platform": platform.platform()}}
    doc.update({name: step_pieces(pairs, reference, name) for name in PRESETS})
    doc["warmup"] = warmup_pieces(pairs)
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
