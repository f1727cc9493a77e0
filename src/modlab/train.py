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
- the batch schedule, whose batches hold rows of one modality tag, none
  audiovisual (so a step need not check its batch's tags);
- the frozen reference's table (``reference_logprobs``, one checked
  forward per reference block over every row) and its check (finite and
  <= 0).  The checked forward passes every row's feature widths and
  prompt id once, so a step scores its rows with ``forward_unchecked``,
  the same arithmetic without the checks; corruption preserves shapes;
- every step's corruption generator, seeded in one ``synth._streams``
  pass, and one PassCounter per pass pattern.
When the table passes its check, train() vouches for both with
``checked=True``, and the step skips them.

Per step it gathers the six columns a step reads of its rows and the
rows' reference columns, makes one policy forward (over the clean columns
themselves when no strength corrupts, else over one buffer per modality
holding the clean rows with each corrupted block in the slices under
them), checks its log-probabilities finite in one pass (a log-softmax is
<= 0 once finite), scores all pairs in one core.pair_terms call, and
makes one backward through the clean rows.  A reference table that fails
its check is checked again by each step, with every other check, so the
error names the step whose batch holds the bad row.

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

Divergence guard: train() and warmup_reference() stop with DivergenceError
when a step's loss is non-finite or above 100 times the first step's loss,
or a gradient becomes non-finite; the error names the step and the loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from . import core
from .core import ConfigurationError, Hyperparams, PairLogProbs, check_numbers
from .corrupt import CorruptionSpec, FeaturePool, corrupt
from .policy import (
    PolicyParams,
    apply_gradient_step,
    backward,
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
    PairTable,
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
    """Contract violation in the training loop (mixed batch, bad dataset)."""


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


def _log_probs_ok(x: np.ndarray) -> bool:
    """Every entry finite and <= 0 (a NaN fails the max, -inf the min)."""
    return bool(x.max() <= 0 and x.min() > -np.inf)


@cache
def _pass_counter(blocks: int, ref_slots: int) -> PassCounter:
    """The per-pair counter of a step that forwards this many policy blocks
    and reads this many reference slots: one shared instance per pattern."""
    return PassCounter(fwd_policy=2 * blocks, fwd_ref=ref_slots, bwd_policy=2)


def evaluate_batch(params: PolicyParams, ref: np.ndarray, batch, cfg: TrainConfig,
                   step: int, pools=None, *, rng=None, checked: bool = False):
    """All log-probabilities the config's strengths read for a batch of pairs.

    ref holds the batch's reference slots, its rows' columns of a
    reference_logprobs table.  Returns (PairLogProbs of (B,) arrays, the
    per-pair PassCounter, the ForwardCache of the clean policy rows).  The
    clean rows and each corrupted block (irrelevant modality when beta_inv
    > 0, then relevant modality when beta_sens > 0) fill slices of one buffer
    per modality, which one policy forward scores.  The counter counts two
    passes per block of each model, the reference's blocks being those the
    slots hold.  Only the returned clean-row cache may be back-propagated;
    the corrupted rows are detached and the reference is frozen throughout.
    Corrupted rows come from rng, by default the generator seeded by
    (cfg.seed, step), block by block (see the module docstring).

    A non-finite entry of the policy block or of ref raises
    DivergenceError; PairLogProbs then checks every slot, and raises
    core.DomainError naming the slot of a positive one.  Raises
    TrainingError for an empty batch, one whose rows mix modality tags, or
    an audiovisual one.

    checked is train()'s word for what it has checked once per run: ref is
    a column block of a table already checked whole, and the batch is a
    schedule batch of rows that reference_logprobs scored through the
    checked forward (see batch_schedule).  It skips ref's check, the batch's
    tag checks and forward's input checks.
    """
    n, tags = len(batch), batch.modality_tag
    if not checked:
        if not n or (tags != tags[0]).any():
            names = [MODALITY_TAGS[t] for t in np.unique(tags)]
            raise TrainingError(f"a batch needs rows of one modality tag, got {names}")
        if tags[0] == AUDIOVISUAL:
            raise TrainingError("relevant/irrelevant modalities are undefined for audiovisual "
                                "pairs")
    relevant, irrelevant = ROLES[tags[0]]
    # The nonzero strengths' blocks in draw order: filled slot -> corrupted modality.
    strengths = {"inv": (irrelevant, cfg.hp.beta_inv), "sens": (relevant, cfg.hp.beta_sens)}
    corrupted = {slot: m for slot, (m, strength) in strengths.items() if strength > 0}
    k = 1 + len(corrupted)
    audio, visual, prompt_ids = batch.audio, batch.visual, batch.prompt_id
    if corrupted:
        stacked = {}
        for m in ("audio", "visual"):  # every block starts as a copy of the clean rows
            clean = getattr(batch, m)
            stacked[m] = np.empty((k, n, clean.shape[1]))
            stacked[m][:] = clean
        if rng is None:
            rng = _rng(cfg.seed, _CORRUPT_STREAM, step)
        for block, m in enumerate(corrupted.values(), start=1):  # block 0 stays clean
            stacked[m][block] = corrupt(getattr(batch, m), cfg.corruption,
                                        pools.get(m) if pools else None, rng)
        audio, visual = stacked["audio"].reshape(k * n, -1), stacked["visual"].reshape(k * n, -1)
        prompt_ids = np.concatenate([prompt_ids] * k)
    policy = (forward_unchecked if checked else forward)(params, audio, visual, prompt_ids)
    # picked[block] holds the block's (chosen, rejected) log-probabilities.
    picked = policy.logprobs.reshape(k, n, -1)[:, np.arange(n), np.array((batch.y_w, batch.y_l))]
    slots = dict(zip(REF_SLOTS, ref), policy_w=picked[0, 0], policy_l=picked[0, 1])
    for block, name in enumerate(corrupted, start=1):
        slots[f"{name}_w"], slots[f"{name}_l"] = picked[block]
    # A finite log-softmax is <= 0; PairLogProbs names a positive ref slot.
    if not (np.isfinite(policy.logprobs).all() and (checked or np.isfinite(ref).all())):
        raise DivergenceError(f"training diverged at step {step}: loss nan "
                              "(non-finite log-probabilities)")
    pl = (PairLogProbs.checked if checked else PairLogProbs)(**slots)
    return pl, _pass_counter(k, len(ref)), policy[:n] if corrupted else policy


def pair_loss_terms(pl: PairLogProbs, cfg: TrainConfig):
    """(loss, margin) for one pair, or for a batch of pairs, under the
    config's strengths; see core.pair_terms."""
    return core.pair_terms(pl, cfg.hp)


def train_step(params: PolicyParams, ref: np.ndarray, batch, cfg: TrainConfig,
               step: int = 0, pools=None, *, rng=None, checked: bool = False):
    """One gradient-descent update on a row block of preference pairs.

    ref, rng and checked are as in evaluate_batch.  Returns (updated
    params, mean pair loss, per-pair PassCounter).  The batch's rows must
    share one modality tag.
    """
    pl, counter, clean = evaluate_batch(params, ref, batch, cfg, step, pools, rng=rng,
                                        checked=checked)
    losses, margins = pair_loss_terms(pl, cfg)
    loss = float(losses.sum() / losses.size)
    weights = _sigmoid(-margins) * cfg.hp.tau  # d(margin)/d(d_policy) is tau
    rows = np.arange(len(batch))
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
    initialization untouched.
    """
    if not len(dataset):
        raise TrainingError("warm-up needs a non-empty dataset")
    params = init_policy_for(dataset, seed)
    audio, visual, ids, y_w = dataset.audio, dataset.visual, dataset.prompt_id, dataset.y_w
    n = len(dataset)
    size = min(batch_size, n)
    rows = np.arange(size)
    # Batches walk the row order, reshuffled in place each time it runs out.
    rng, order, shuffles = _rng(seed, _WARMUP_STREAM), np.arange(n), []
    for _ in range(-(-steps * size // n)):
        rng.shuffle(order)
        shuffles.append(order.copy())
    stream = np.concatenate(shuffles or [order])
    first = None
    for step in range(steps):
        batch = stream[step * size : (step + 1) * size]
        cache = forward(params, audio[batch], visual[batch], ids[batch])
        loss = -float(np.mean(cache.logprobs[rows, y_w[batch]]))
        first = loss if first is None else first
        _check_loss("warm-up", step, loss, first)
        upstream = np.zeros_like(cache.probs)
        upstream[rows, y_w[batch]] = -1.0  # minimize -log pi(y_w)
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


# The PairTable columns a step reads; train() gathers only these, leaving
# the others None in each step's batch.
_STEP_COLUMNS = ("audio", "visual", "prompt_id", "modality_tag", "y_w", "y_l")
_UNREAD = dict.fromkeys(name for name in PairTable.Row._fields if name not in _STEP_COLUMNS)


def batch_schedule(dataset, cfg: TrainConfig):
    """The row-index array of every step's batch over all epochs.

    Rows are grouped by modality tag, the groups in order of first
    appearance.  Raises TrainingError when a row is audiovisual, and
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
    never modified.  Raises DivergenceError when a step diverges (see the
    module docstring).
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
    ref_table = reference_logprobs(ref_params, dataset, cfg)  # forward checks every row
    checked = _log_probs_ok(ref_table)
    if cfg.hp.beta_inv > 0 or cfg.hp.beta_sens > 0:
        rngs = _streams((cfg.seed, _CORRUPT_STREAM), range(len(schedule)))
    else:
        rngs = itertools.repeat(None)
    columns = {name: getattr(dataset, name) for name in _STEP_COLUMNS}

    losses = []
    counters = []
    for step, (rows, rng) in enumerate(zip(schedule, rngs)):
        batch = PairTable(**_UNREAD, **{name: column[rows] for name, column in columns.items()})
        params, loss, counter = train_step(params, ref_table[:, rows], batch, cfg, step, pools,
                                           rng=rng, checked=checked)
        _check_loss("training", step, loss, losses[0] if losses else loss)
        losses.append(loss)
        counters.append(counter)
    return TrainResult(params=params, ref_params=ref_params, losses=np.array(losses),
                       counters=counters)
