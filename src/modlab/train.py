"""Preference-optimization training loop.

Implements the full recipe: supervised warm-up of a frozen reference,
strictly alternating visual/audio batches, corrupted forward passes that
enter the loss but never the gradient (stop-gradient contract), the loss
the strengths set, plain gradient-descent updates, and per-pair
forward/backward pass accounting.

The strengths alone set the loss and the passes, term by term: a zero
strength drops its margin term (core.MARGIN_TERMS), all three at zero give
the vanilla preference loss, and a step forwards only the blocks of the
nonzero strengths.  Pass counts follow sequence-model accounting: scoring
y_w and y_l counts as two passes although the desk-scale policy produces
the whole response distribution in one evaluation.  Per pair: two passes
per forwarded block of each model (the reference's being those its slots
hold) and two backward passes through the clean block:

    fwd_policy = 2 + 2*[beta_inv > 0] + 2*[beta_sens > 0]   clean, inv, sens
    fwd_ref    = 2 + 2*[gamma_lpd > 0]                      clean, text-only
    bwd_policy = 2,  bwd_ref = 0

cfg.loss_variant only labels the strengths for counters.json and the
printed lines: dpo (all three zero), mod (only gamma_lpd zero) or modpp.

Per run, train() does the work whose result no step changes:
- the batch schedule, whose batches are non-empty and of one modality
  tag, none audiovisual;
- the frozen reference's table (``reference_logprobs``, one checked
  forward per reference block over every row, which passes each row's
  feature widths and prompt id) and its one check (``check_reference``);
- every step's corruption generator, seeded in one ``synth._streams``
  pass, and one PassCounter per pass pattern;
- per epoch, one gather of the dataset and of the reference table, in
  the epoch's schedule order (``_step_inputs``), so each step's batch is
  a whole sub-table of it and its reference block a column slice;
- in the warm-up (``warmup_reference``), one ``policy.check_inputs`` call
  before step 0: the columns' feature widths and row counts, and the
  prompt ids of every row the steps visit, in visit order, so a bad id
  raises the error its first step would.  Each warm-up step scores its
  batch with ``forward_unchecked``.

There is one step, which the stop-gradient oracle audits too, and it
relies on that work (see evaluate_batch).  It makes one
``forward_unchecked`` call (over the clean columns themselves when no
strength corrupts, else over one buffer per modality: the clean rows,
then each corrupted block, joined by one concatenate), checks its
log-probabilities finite in one pass (a log-softmax is <= 0 once finite),
scores all pairs in one core.pair_terms call, and makes one backward
through the clean rows.  Which blocks a step forwards and which slots
they fill is resolved once per (tag, strengths) pattern (``_step_plan``).

Datasets are ``synth.PairTable`` columns; ``batch_schedule`` turns the
tag column into one row-index array per step, whose rows share one
modality tag.  ``pair_loss_terms`` is a one-line wrapper the benchmark
harness times as the loss.

Determinism: everything derives from cfg.seed through tagged seed
sequences, so runs are exactly repeatable.  Step s draws all its corrupted
rows from one generator seeded by (cfg.seed, _CORRUPT_STREAM, s), in a
fixed order: the irrelevant-modality block (when beta_inv > 0), then the
relevant-modality block (when beta_sens > 0), rows in batch order.
cfg.corruption supplies the kind and t.  A run with both corruption
strengths zero builds no corruption generator, and batch order comes from
its own stream, so runs that skip corruption draw identical batch orders.

Divergence guard: train() stops with DivergenceError before step 0 when
the reference table fails its check, and train() and warmup_reference()
when a step's loss is non-finite or above 100 times the first step's
loss, or a gradient becomes non-finite; the error names the step and loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cache
from types import SimpleNamespace

import numpy as np

from . import core
from .core import ConfigurationError, Hyperparams, PairLogProbs, check_numbers
from .corrupt import CorruptionSpec, FeaturePool, corrupt
from .policy import (
    PolicyParams,
    apply_gradient_step,
    backward,
    check_inputs,
    forward,
    forward_unchecked,
    init_params,
)
from .synth import (
    AUDIO_RELATED,
    AUDIOVISUAL,
    MODALITY_TAGS,
    N_PROMPTS,
    ROLES,
    VISUAL_RELATED,
    VOCAB_SIZE,
    _rng,
    _streams,
)

_WARMUP_STREAM = 11
_ORDER_STREAM = 12
_CORRUPT_STREAM = 13

# Hidden width of every policy training initializes.
_D_H = 16

# A step whose mean loss exceeds this multiple of the first step's has
# diverged; healthy runs peak near 1.4x.
_DIVERGENCE_FACTOR = 100.0


class TrainingError(ValueError):
    """Contract violation in the training loop (audiovisual row, bad dataset)."""


class DivergenceError(RuntimeError):
    """A run diverged: non-finite loss or gradient, or a loss far above the
    first step's."""


def _check_loss(phase: str, step: int, loss: float, first: float) -> None:
    """Raise DivergenceError when a step's loss is non-finite or above
    _DIVERGENCE_FACTOR times the first step's."""
    if not math.isfinite(loss):
        raise DivergenceError(f"{phase} diverged at step {step}: loss {loss}")
    if loss > _DIVERGENCE_FACTOR * abs(first):
        raise DivergenceError(f"{phase} diverged at step {step}: loss {loss:.6g} exceeds "
                              f"{_DIVERGENCE_FACTOR:g}x the first step's {first:.6g}")


@dataclass(frozen=True)
class PassCounter:
    """Forward/backward evaluations per preference pair (response-level)."""

    fwd_policy: int = 0
    fwd_ref: int = 0
    bwd_policy: int = 0
    bwd_ref: int = 0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise TrainingError(f"{f.name} cannot be negative")
        if self.bwd_ref != 0:
            raise TrainingError("the reference model is frozen; bwd_ref must stay 0")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on.

    lr defaults to the full-scale recipe's 3e-7; desk-scale presets
    override it (see presets), since a toy policy tolerates and needs far
    larger steps.  Defaults keep beta_inv below beta_sens: cross-modal
    information is sometimes legitimately useful, so invariance is applied
    more gently than sensitivity.  warmup_lr, the step size of the
    reference's warm-up, is a class constant that no run varies.
    """

    hp: Hyperparams = field(default_factory=Hyperparams)
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)
    lr: float = 3e-7
    epochs: int = 1
    batch_size: int = 16
    seed: int = 0
    warmup_steps: int = 500
    warmup_lr = 0.5

    def __post_init__(self):
        check_numbers(self, ConfigurationError, ("lr",), above=True)
        check_numbers(self, ConfigurationError, ("epochs", "batch_size"), integer=True, low=1)
        check_numbers(self, ConfigurationError, ("warmup_steps", "seed"), integer=True)

    @property
    def loss_variant(self) -> str:
        """The label of the strengths (see the module docstring)."""
        if self.hp.gamma_lpd:
            return "modpp"
        return "mod" if self.hp.beta_inv or self.hp.beta_sens else "dpo"


@dataclass
class TrainResult:
    params: PolicyParams
    ref_params: PolicyParams
    losses: np.ndarray
    counters: list


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for margins of either sign:
    1 / (1 + e) or e / (1 + e) with e = exp(-|x|), in one divide."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def feature_pools(dataset) -> dict:
    """Per-modality random_swap pools: the dataset's feature columns."""
    return {m: FeaturePool(getattr(dataset, m)) for m in ("audio", "visual")}


# The rows of a reference_logprobs table, in order: clean, then text-only.
REF_SLOTS = ("ref_w", "ref_l", "text_w", "text_l")


@np.errstate(over="ignore", invalid="ignore")  # check_reference names a diverged entry
def reference_logprobs(ref_params: PolicyParams, table, cfg: TrainConfig) -> np.ndarray:
    """The frozen reference's log-probabilities of every row's chosen and
    rejected responses: a (2, N) array of ref_w and ref_l, or (4, N) with
    text_w and text_l (features zeroed) when gamma_lpd > 0.

    One forward per block over all N rows.  The reference never changes
    during preference training, so train() builds this table once per run
    and each step takes its rows' columns; the oracles call it on a batch.
    """
    blocks = [(table.audio, table.visual)]
    if cfg.hp.gamma_lpd > 0:
        blocks.append((np.zeros_like(table.audio), np.zeros_like(table.visual)))  # text-only
    rows, responses = np.arange(len(table)), np.stack((table.y_w, table.y_l))
    return np.concatenate([forward(ref_params, a, v, table.prompt_id).logprobs[rows, responses]
                           for a, v in blocks])


def check_reference(table: np.ndarray) -> np.ndarray:
    """table, a reference_logprobs table, once every entry is finite and
    <= 0 (a NaN fails the max, -inf the min); else DivergenceError naming
    the first bad row and its slot."""
    if table.max() <= 0 and table.min() > -np.inf:
        return table
    bad = ~(np.isfinite(table) & (table <= 0))
    row, slot = divmod(int(np.argmax(bad.T)), len(table))  # bad.T is (row, slot)
    raise DivergenceError(f"reference diverged: row {row} {REF_SLOTS[slot]} is "
                          f"{table[slot, row]}, not a finite log-probability <= 0")


@cache
def _pass_counter(blocks: int, ref_slots: int) -> PassCounter:
    """The per-pair counter of a step that forwards this many policy blocks
    and reads this many reference slots: one shared instance per pattern."""
    return PassCounter(fwd_policy=2 * blocks, fwd_ref=ref_slots, bwd_policy=2)


@cache
def _arange(n: int) -> np.ndarray:
    """np.arange(n), built once per n and read-only."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


@cache
def _step_plan(tag: int, inv: bool, sens: bool) -> tuple:
    """The blocks of a step on rows of one modality tag, given which of
    beta_inv and beta_sens are nonzero: the modality each corrupted block
    corrupts, in draw order (the irrelevant one for inv, then the relevant
    one for sens), and the PairLogProbs slots of every block's (chosen,
    rejected) log-probabilities, the clean block's first."""
    relevant, irrelevant = ROLES[tag]
    blocks = [(name, m) for name, m, on in (("inv", irrelevant, inv), ("sens", relevant, sens))
              if on]
    return (tuple(m for _, m in blocks),
            tuple(f"{name}_{side}" for name in ("policy", *(name for name, _ in blocks))
                  for side in "wl"))


def evaluate_batch(params: PolicyParams, ref: np.ndarray, batch, cfg: TrainConfig,
                   step: int, pools=None, *, rng=None):
    """All log-probabilities the config's strengths read for a batch of pairs.

    Returns (PairLogProbs of (B,) arrays, the per-pair PassCounter, the
    ForwardCache of the clean policy rows).  The clean rows and each
    corrupted block (irrelevant modality when beta_inv > 0, then relevant
    modality when beta_sens > 0) fill slices of one buffer per modality,
    which one ``forward_unchecked`` call scores.  The counter counts two
    passes per block of each model, the reference's blocks being those the
    slots hold.  Only the returned clean-row cache may be back-propagated;
    the corrupted rows are detached and the reference is frozen throughout.
    Corrupted rows come from rng, by default the generator seeded by
    (cfg.seed, step), block by block (see the module docstring).

    The contract, which train() and the stop-gradient oracle keep: batch is
    a ``batch_schedule`` batch (non-empty, of one modality tag) of rows that
    ``reference_logprobs``' checked forward has scored, and ref is their
    column block of a table that passed ``check_reference``.  The step
    checks only its policy log-probabilities: a non-finite one raises
    DivergenceError.
    """
    n = len(batch)
    corrupted, names = _step_plan(batch.modality_tag[0], cfg.hp.beta_inv > 0,
                                  cfg.hp.beta_sens > 0)
    audio, visual, prompt_ids = batch.audio, batch.visual, batch.prompt_id
    if corrupted:
        if rng is None:
            rng = _rng(cfg.seed, _CORRUPT_STREAM, step)
        audios, visuals = [audio], [visual]
        for m in corrupted:  # each block: the clean rows with modality m corrupted
            drawn = corrupt(getattr(batch, m), cfg.corruption, pools.get(m) if pools else None,
                            rng)
            audios.append(drawn if m == "audio" else audio)
            visuals.append(drawn if m == "visual" else visual)
        audio, visual = np.concatenate(audios), np.concatenate(visuals)
        prompt_ids = np.concatenate([prompt_ids] * len(audios))
    policy = forward_unchecked(params, audio, visual, prompt_ids)
    # Row b of picked holds block b's chosen (b even) or rejected log-probabilities.
    picked = policy.logprobs.reshape(-1, n, policy.logprobs.shape[1])[
        :, _arange(n), np.array((batch.y_w, batch.y_l))].reshape(-1, n)
    if not np.isfinite(policy.logprobs).all():  # a finite log-softmax is <= 0
        raise DivergenceError(f"training diverged at step {step}: loss nan "
                              "(non-finite log-probabilities)")
    slots = dict(zip(names, picked))
    slots.update(zip(REF_SLOTS, ref))
    return (PairLogProbs.checked(**slots), _pass_counter(len(names) // 2, len(ref)),
            policy[:n] if corrupted else policy)


def pair_loss_terms(pl: PairLogProbs, cfg: TrainConfig):
    """(loss, margin) for one pair, or for a batch of pairs, under the
    config's strengths; see core.pair_terms."""
    return core.pair_terms(pl, cfg.hp)


def train_step(params: PolicyParams, ref: np.ndarray, batch, cfg: TrainConfig,
               step: int = 0, pools=None, *, rng=None):
    """One gradient-descent update on a row block of preference pairs.

    ref, rng and the contract on batch and ref are as in evaluate_batch.
    Returns (updated params, mean pair loss, per-pair PassCounter).
    """
    pl, counter, clean = evaluate_batch(params, ref, batch, cfg, step, pools, rng=rng)
    losses, margins = pair_loss_terms(pl, cfg)
    loss = float(losses.sum() / losses.size)
    weights = _sigmoid(-margins) * cfg.hp.tau  # d(margin)/d(d_policy) is tau
    rows = _arange(len(batch))
    upstream = np.zeros(clean.probs.shape)
    upstream[rows, batch.y_w] = -weights
    upstream[rows, batch.y_l] = weights
    return _descend(params, clean, upstream, cfg.lr,
                    lambda: f"training diverged at step {step} (loss {loss:.6g})"), loss, counter


def _descend(params: PolicyParams, cache, upstream: np.ndarray, lr: float,
             where) -> PolicyParams:
    """One descent step of a B-row upstream: backward through cache, a
    DivergenceError prefixed by where() if a gradient is non-finite, the
    1/B scale, and the update of size lr."""
    grads = backward(params, cache, upstream)
    try:
        grads.check_finite()
    except FloatingPointError as exc:
        raise DivergenceError(f"{where()}: {exc}") from None
    grads.scale(1.0 / len(upstream))
    return apply_gradient_step(params, grads, lr)


def init_policy_for(dataset, seed: int) -> PolicyParams:
    return init_params(d_a=dataset.audio.shape[1], d_v=dataset.visual.shape[1], d_h=_D_H,
                       vocab_size=VOCAB_SIZE, n_prompts=N_PROMPTS, seed=seed)


def warmup_reference(dataset, steps: int, seed: int, lr: float = TrainConfig.warmup_lr,
                     batch_size: int = TrainConfig.batch_size) -> PolicyParams:
    """Supervised warm-up: maximize log-likelihood of chosen responses.

    Returns the frozen reference parameters; steps=0 returns the seeded
    initialization untouched.  Raises ConfigurationError for steps < 0 or
    batch_size < 1.  The rows are checked once, before step 0 (see the
    module docstring).
    """
    given = SimpleNamespace(steps=steps, batch_size=batch_size)
    check_numbers(given, ConfigurationError, ("steps",), integer=True)
    check_numbers(given, ConfigurationError, ("batch_size",), integer=True, low=1)
    if not len(dataset):
        raise TrainingError("warm-up needs a non-empty dataset")
    params = init_policy_for(dataset, seed)
    if not steps:
        return params
    n = len(dataset)
    size = min(batch_size, n)
    rows = np.arange(size)
    # Batches walk the row order, reshuffled in place each time it runs out.
    rng, order, shuffles = _rng(seed, _WARMUP_STREAM), np.arange(n), []
    for _ in range(-(-steps * size // n)):
        rng.shuffle(order)
        shuffles.append(order.copy())
    stream = np.concatenate(shuffles)
    audio, visual, ids = check_inputs(params, dataset.audio, dataset.visual, dataset.prompt_id,
                                      stream[:steps * size])  # in visit order
    y_w = dataset.y_w
    first = None
    for step in range(steps):
        batch = stream[step * size : (step + 1) * size]
        cache = forward_unchecked(params, audio[batch], visual[batch], ids[batch])
        chosen = y_w[batch]
        picked = cache.logprobs[rows, chosen]
        loss = -float(picked.sum() / picked.size)
        first = loss if first is None else first
        _check_loss("warm-up", step, loss, first)
        upstream = np.zeros(cache.probs.shape)
        upstream[rows, chosen] = -1.0  # minimize -log pi(y_w)
        params = _descend(params, cache, upstream, lr, lambda: f"warm-up diverged at step {step}")
    return params


def _batches(rows, batch_size: int):
    return [rows[i : i + batch_size] for i in range(0, len(rows), batch_size)]


def _epoch_schedule(groups: dict, cfg: TrainConfig, epoch: int):
    """Row-index arrays of one epoch's batches: strict visual/audio
    alternation, then the longer group's remaining batches."""
    rng = _rng(cfg.seed, _ORDER_STREAM, epoch)
    shuffled = {tag: rows[rng.permutation(len(rows))] for tag, rows in groups.items()}
    visual = _batches(shuffled[VISUAL_RELATED], cfg.batch_size)
    audio = _batches(shuffled[AUDIO_RELATED], cfg.batch_size)
    schedule = []
    for v, a in zip(visual, audio):
        schedule.extend((v, a))
    longer = visual if len(visual) > len(audio) else audio
    schedule.extend(longer[min(len(visual), len(audio)):])
    return schedule


def _step_inputs(dataset, ref_table: np.ndarray, schedule: list, epochs: int):
    """Each step's (batch, reference block), in schedule order: a whole
    sub-table of the dataset and the matching column block of the reference
    table, both gathered once per epoch in the epoch's schedule order."""
    per_epoch = len(schedule) // epochs  # every epoch has the same batches' sizes
    for first in range(0, len(schedule), per_epoch):
        batches = schedule[first : first + per_epoch]
        order = np.concatenate(batches)
        table, ref = dataset[order], ref_table[:, order]
        stops = list(itertools.accumulate(map(len, batches)))
        for start, stop in zip([0, *stops], stops):
            yield table[start:stop], ref[:, start:stop]


def batch_schedule(dataset, cfg: TrainConfig):
    """The row-index array of every step's batch over all epochs.

    Each batch is non-empty and holds rows of one modality tag, and each
    epoch visits every row exactly once: the contract evaluate_batch
    relies on.  Rows are grouped by modality tag, the groups in order of
    first appearance.  Raises TrainingError when a row is audiovisual, and
    ConfigurationError when the dataset lacks visual or audio rows, since
    batches alternate between the two.
    """
    tags = dataset.modality_tag
    if (tags == AUDIOVISUAL).any():
        raise TrainingError(f"training pairs need one relevant modality; row "
                            f"{int(np.argmax(tags == AUDIOVISUAL))} is audiovisual")
    codes, first = np.unique(tags, return_index=True)
    groups = {int(c): np.flatnonzero(tags == c) for c in codes[np.argsort(first)]}
    missing = [MODALITY_TAGS[t] for t in (VISUAL_RELATED, AUDIO_RELATED) if t not in groups]
    if missing:
        raise ConfigurationError(
            f"alternating batches need both modalities; dataset lacks {missing}")
    return [rows for epoch in range(cfg.epochs) for rows in _epoch_schedule(groups, cfg, epoch)]


def train(dataset, cfg: TrainConfig, ref_params: PolicyParams = None) -> TrainResult:
    """Full preference-optimization run.

    Warm-up (unless reference params are supplied), then cfg.epochs passes
    of alternating modality batches.  Raises TrainingError, before warm-up,
    when a pair is audiovisual (see batch_schedule).  The reference is
    never modified.  Raises DivergenceError before step 0 when the
    reference table fails check_reference, and when a step diverges (see
    the module docstring).
    """
    if not len(dataset):
        raise TrainingError("training needs a non-empty dataset")
    schedule = batch_schedule(dataset, cfg)

    if ref_params is None:
        ref_params = warmup_reference(dataset, cfg.warmup_steps, cfg.seed,
                                      batch_size=cfg.batch_size)
    ref_params = ref_params.copy()
    params = ref_params.copy()
    pools = feature_pools(dataset)
    ref_table = check_reference(reference_logprobs(ref_params, dataset, cfg))
    if cfg.hp.beta_inv > 0 or cfg.hp.beta_sens > 0:
        rngs = _streams((cfg.seed, _CORRUPT_STREAM), range(len(schedule)))
    else:
        rngs = itertools.repeat(None)

    losses = []
    counters = []
    steps = _step_inputs(dataset, ref_table, schedule, cfg.epochs)
    for step, ((batch, ref), rng) in enumerate(zip(steps, rngs)):
        params, loss, counter = train_step(params, ref, batch, cfg, step, pools, rng=rng)
        _check_loss("training", step, loss, losses[0] if losses else loss)
        losses.append(loss)
        counters.append(counter)
    return TrainResult(params=params, ref_params=ref_params, losses=np.array(losses),
                       counters=counters)
