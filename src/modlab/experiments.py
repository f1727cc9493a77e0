"""Canonical desk-scale experiments.

Two experiment recipes are pinned here, both seed-parameterized so results
are quoted as means over fresh worlds:

``HALLUCINATION_BENCHMARK``
    The reference is warmed up on matched-only scenes in which one modality
    of each corpus half carries heavy feature noise, so it enters preference
    training leaning on cross-modal shortcuts and an answer prior (the
    pathologies to be trained away).  Variants are then trained on one
    balanced matched+mismatched preference set under identical budgets and
    scored on conflict probes (mismatched contexts only).  The decoupled
    variant uses the invariance-dominant desk strengths of the
    ``modpp_desk`` preset: at this scale the invariance weight both raises
    the effective margin temperature and keeps training pressure on
    corruption-stable pairs, which is what separates it from the vanilla
    baseline here.

``SHIFT_ANALYSIS``
    A milder world (symmetric warm-up noise, mixed-context evaluation) and
    the publication-default strengths (the ``modpp`` preset), used for the log-likelihood shift
    phenomenology: the decoupled model should move a lot under
    relevant-modality corruption and little under irrelevant-modality
    corruption.

Variants are preset names (see modlab.presets); the weak-corruption arm is
``modpp_desk_t10``.  ``run_benchmark`` builds one world and warms up one
reference per seed and trains every named variant from them at the spec's
budget (same lr, epochs, batch size, seed), so arms differ only in their
preset's strengths and corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import eval as eval_mod
from . import synth
from . import train as training
from .corrupt import CorruptionSpec
from .eval import MetricsReport
from .presets import make_config


@dataclass(frozen=True)
class ExperimentSpec:
    """World construction for one experiment family; the training budget,
    world sizes and training-set matched fraction are class constants that
    every family shares."""

    warmup_noise_split: bool  # True: two halves with asymmetric feature noise
    warmup_bias: float
    train_bias: float
    eval_matched_fraction: float
    train_matched_fraction = 0.5
    lr = 1.0
    epochs = 6
    batch_size = 16
    warmup_steps = 500
    warmup_lr = 0.5
    n_train = 2000
    n_eval = 2000
    n_scenes = 400


HALLUCINATION_BENCHMARK = ExperimentSpec(
    warmup_noise_split=True,
    warmup_bias=0.85,
    train_bias=0.7,
    eval_matched_fraction=0.0,
)

SHIFT_ANALYSIS = ExperimentSpec(
    warmup_noise_split=False,
    warmup_bias=0.7,
    train_bias=0.5,
    eval_matched_fraction=0.5,
)


@dataclass
class VariantOutcome:
    accuracy: float
    report: MetricsReport
    shift_relevant: float
    shift_irrelevant: float
    losses: np.ndarray = field(repr=False, default=None)


@dataclass
class BenchmarkRun:
    reference: VariantOutcome
    variants: dict


def build_world(spec: ExperimentSpec, seed: int):
    """(training pairs, eval items, frozen reference)."""
    ws = 10_000 + seed
    if spec.warmup_noise_split:
        warmup = synth.PairTable.concat([synth.generate_pairs(synth.SynthConfig(
            n_pairs=800, n_scenes=300, matched_fraction=1.0, matched_bias=spec.warmup_bias,
            presence_fraction=0.8, feature_noise=noise, seed=seed * 4 + half, world_seed=ws))
            for half, noise in ((1, (0.05, 1.0)), (2, (1.0, 0.05)))])
    else:
        warmup = synth.generate_pairs(synth.SynthConfig(
            n_pairs=1500, n_scenes=spec.n_scenes, matched_fraction=1.0,
            matched_bias=spec.warmup_bias, presence_fraction=0.8,
            seed=seed * 4 + 1, world_seed=ws))
    train_pairs = synth.generate_pairs(synth.SynthConfig(
        n_pairs=spec.n_train, n_scenes=spec.n_scenes,
        matched_fraction=spec.train_matched_fraction, matched_bias=spec.train_bias,
        presence_fraction=0.7, seed=seed * 4 + 3, world_seed=ws))
    items = synth.generate_eval_items(synth.EvalConfig(
        n_items=spec.n_eval, n_scenes=spec.n_scenes, matched_fraction=spec.eval_matched_fraction,
        matched_bias=spec.train_bias, seed=seed * 4 + 4, world_seed=ws))
    reference = training.warmup_reference(warmup, spec.warmup_steps, seed,
                                          lr=spec.warmup_lr, batch_size=spec.batch_size)
    return train_pairs, items, reference


def _outcome(params, items, shift_spec, losses=None) -> VariantOutcome:
    """Scores of one model, with its mean |shift| under shift_spec."""
    report = eval_mod.evaluate(params, items)
    rel = eval_mod.loglik_shift(params, items, shift_spec, "relevant").mean_abs
    irr = eval_mod.loglik_shift(params, items, shift_spec, "irrelevant").mean_abs
    return VariantOutcome(accuracy=report.accuracy, report=report, shift_relevant=rel,
                          shift_irrelevant=irr, losses=losses)


def run_benchmark(spec: ExperimentSpec, seed: int, variants=("dpo", "modpp_desk")) -> BenchmarkRun:
    """Train each named preset at the spec's budget from one world and one
    shared reference, and score them."""
    shift_spec = CorruptionSpec(seed=seed)
    train_pairs, items, reference = build_world(spec, seed)
    run = BenchmarkRun(reference=_outcome(reference, items, shift_spec), variants={})
    for name in variants:
        cfg = make_config(name, lr=spec.lr, epochs=spec.epochs, batch_size=spec.batch_size,
                          seed=seed, warmup_steps=spec.warmup_steps, warmup_lr=spec.warmup_lr)
        result = training.train(train_pairs, cfg, ref_params=reference)
        run.variants[name] = _outcome(result.params, items, shift_spec, result.losses)
    return run

