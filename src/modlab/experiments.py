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

Variants are preset names (see modlab.presets).  Budgets are equal across
variants within an experiment (same lr, epochs, batch size, seeds); only
the loss differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import eval as eval_mod
from . import synth
from . import train as training
from .corrupt import CorruptionSpec
from .eval import MetricsReport
from .policy import PolicyParams
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
    name: str
    accuracy: float
    report: MetricsReport
    shift_relevant: float
    shift_irrelevant: float
    losses: np.ndarray = field(repr=False, default=None)
    params: PolicyParams = field(repr=False, default=None)


@dataclass
class BenchmarkRun:
    seed: int
    reference: VariantOutcome
    variants: dict


def build_world(spec: ExperimentSpec, seed: int):
    """(warmup pairs, training pairs, eval items, frozen reference)."""
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
    items = synth.ItemTable.from_records(synth.generate_eval_records(
        synth.EvalConfig(n_items=spec.n_eval, n_scenes=spec.n_scenes,
                         matched_fraction=spec.eval_matched_fraction,
                         matched_bias=spec.train_bias, seed=seed * 4 + 4, world_seed=ws)))
    reference = training.warmup_reference(warmup, spec.warmup_steps, seed,
                                          lr=spec.warmup_lr, batch_size=spec.batch_size)
    return warmup, train_pairs, items, reference


def variant_config(spec: ExperimentSpec, name: str, seed: int,
                   corruption: CorruptionSpec = None) -> training.TrainConfig:
    """The named preset at the experiment's budget."""
    overrides = dict(lr=spec.lr, epochs=spec.epochs, batch_size=spec.batch_size, seed=seed,
                     warmup_steps=spec.warmup_steps, warmup_lr=spec.warmup_lr)
    if corruption is not None:
        overrides["corruption"] = corruption
    return make_config(name, **overrides)


def _outcome(name, params, items, shift_spec, losses=None) -> VariantOutcome:
    """Scores of one model, with its mean |shift| under shift_spec."""
    report = eval_mod.evaluate(params, items)
    rel = eval_mod.loglik_shift(params, items, shift_spec, "relevant").mean_abs
    irr = eval_mod.loglik_shift(params, items, shift_spec, "irrelevant").mean_abs
    return VariantOutcome(name=name, accuracy=report.accuracy, report=report,
                          shift_relevant=rel, shift_irrelevant=irr,
                          losses=losses, params=params)


def run_benchmark(spec: ExperimentSpec, seed: int, variants=("dpo", "modpp_desk"),
                  corruption_overrides=None) -> BenchmarkRun:
    """Train the requested variants from one shared reference and score them."""
    corruption_overrides = corruption_overrides or {}
    shift_spec = CorruptionSpec(kind="diffusion", t=500, seed=seed)
    _, train_pairs, items, reference = build_world(spec, seed)
    run = BenchmarkRun(seed=seed, reference=_outcome("reference", reference, items, shift_spec),
                       variants={})
    for name in variants:
        cfg = variant_config(spec, name, seed, corruption_overrides.get(name))
        result = training.train(train_pairs, cfg, ref_params=reference)
        run.variants[name] = _outcome(name, result.params, items, shift_spec, result.losses)
    return run


def seed_averaged(runs, attribute: str) -> dict:
    """Mean of an outcome attribute across runs, including the reference."""
    out = {"reference": float(np.mean([getattr(r.reference, attribute) for r in runs]))}
    for name in runs[0].variants:
        out[name] = float(np.mean([getattr(r.variants[name], attribute) for r in runs]))
    return out
