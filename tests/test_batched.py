"""Batch-first kernels against the per-pair (B = 1) loops they replace,
and the record tables they read.

Each reference below is the per-pair computation written one table row at
a time: a B = 1 forward / backward and core.pair_terms per pair.  Its
corrupted rows come from the same generator in the documented draw order
(slot ascending, audio before visual, rows in order), drawn one row at a
time except for random_swap (see draw_rows).  The batched code sums rows
in another order, so results agree to 1e-12, not bitwise.  Table indexing
and row stacking change no value, so those properties hold bitwise.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modlab import core, synth
from modlab import eval as eval_mod
from modlab import train as training
from modlab.core import PairLogProbs
from modlab.corrupt import CORRUPTION_KINDS, CorruptionSpec, FeaturePool, corrupt
from modlab.policy import (
    GradAccumulator,
    PolicyParams,
    apply_gradient_step,
    backward,
    forward,
    init_params,
)
from modlab.presets import make_config
from modlab.synth import (
    AUDIO_RELATED,
    AUDIOVISUAL,
    MODALITY_TAGS,
    VISUAL_RELATED,
    ItemTable,
    SynthConfig,
)
from modlab.train import TrainConfig, TrainingError, train_step

TOL = 1e-12

# The strengths of the loss ladder and of the three one-strength ablations,
# by the preset of that name.
VARIANTS = ("dpo", "mod", "modpp", "inv_only", "sens_only", "lpd_only")
VARIANT_HP = {variant: make_config(variant).hp for variant in VARIANTS}

# (prompt-relevant, prompt-irrelevant) modality of each single-modality tag.
ROLES = {VISUAL_RELATED: ("visual", "audio"), AUDIO_RELATED: ("audio", "visual")}


def row_inputs(row, **features):
    """(audio, visual, prompt_ids) of one row as B = 1 arrays, with any
    feature vector replaced by the given one."""
    audio, visual = features.get("audio", row.audio), features.get("visual", row.visual)
    return audio[None], visual[None], np.array([row.prompt_id])


def row_logprobs(params, row, **features):
    return forward(params, *row_inputs(row, **features)).logprobs[0]


def row_grads(params, row, upstream):
    return backward(params, forward(params, *row_inputs(row)), upstream[None])


@pytest.fixture(scope="module")
def data():
    return synth.generate_pairs(SynthConfig(n_pairs=60, n_scenes=24, seed=4, world_seed=104))


@pytest.fixture(scope="module")
def models(data):
    ref = training.warmup_reference(data, steps=30, seed=4)
    params = training.init_policy_for(data, seed=9)
    return params, ref


def as_audiovisual(pair):
    return pair._replace(prompt_id=synth.AV_MATCHING_PROMPT, modality_tag=AUDIOVISUAL)


def batch_of(data, tag, size=6):
    """A table of size rows with the named tag."""
    if tag == "audiovisual":
        return synth.PairTable.coerce([as_audiovisual(p) for p in data[:size]])
    return data[data.modality_tag == MODALITY_TAGS.index(tag)][:size]


def draw_rows(rows, spec, pool, rng):
    """Corrupted copies of feature rows, drawn from rng in row order.

    zeros, gaussian and diffusion draw one row at a time, so the batched
    path's block draw must equal them.  random_swap draws its block's
    picks first and then the rejected rows' redraws, so it is drawn as the
    block the batched path draws.
    """
    if spec.kind == "random_swap":
        return list(corrupt(np.stack(rows), spec, pool=pool, rng=rng))
    return [corrupt(row, spec, pool=pool, rng=rng) for row in rows]


def reference_draws(rows, slot_modalities, spec, pools, rng):
    """{(row, slot): {modality: corrupted vector}} in the documented order:
    slot ascending, audio before visual, rows in order.  slot_modalities
    maps each slot to its per-row tuple of modality names."""
    out = {}
    for slot, modalities in sorted(slot_modalities.items()):
        for m in ("audio", "visual"):
            picked = [i for i, names in enumerate(modalities) if m in names]
            if picked:
                drawn = draw_rows([getattr(rows[i], m) for i in picked], spec, pools[m], rng)
                for i, vec in zip(picked, drawn):
                    out.setdefault((i, slot), {})[m] = vec
    return out


def reference_step(params, ref_params, batch, cfg, step, pools):
    """The per-pair train step: one B = 1 pass per row and slot.  There is
    one corrupted slot per nonzero corruption strength, slots ascending (0:
    the irrelevant modality, for beta_inv; 1: the relevant one, for
    beta_sens), and a text-only reference pass when gamma_lpd is nonzero."""
    corrupted = {slot: name for slot, (name, strength)
                 in enumerate((("inv", cfg.hp.beta_inv), ("sens", cfg.hp.beta_sens)))
                 if strength > 0}
    roles = [ROLES[p.modality_tag] for p in batch]  # (relevant, irrelevant)
    slot_modalities = {slot: [(role[1 - slot],) for role in roles] for slot in corrupted}
    draws = reference_draws(batch, slot_modalities, cfg.corruption, pools,
                            synth._rng(cfg.seed, training._CORRUPT_STREAM, step))
    grads = GradAccumulator(params)
    losses = []
    for idx, pair in enumerate(batch):
        w, l = pair.y_w, pair.y_l

        clean = row_logprobs(params, pair)
        ref = row_logprobs(ref_params, pair)
        slots = {}
        for slot, name in corrupted.items():
            logprobs = row_logprobs(params, pair, **draws[idx, slot])
            slots.update({f"{name}_w": logprobs[w], f"{name}_l": logprobs[l]})
        if cfg.hp.gamma_lpd > 0:
            text = row_logprobs(ref_params, pair, audio=np.zeros_like(pair.audio),
                                visual=np.zeros_like(pair.visual))
            slots.update(text_w=text[w], text_l=text[l])
        pl = PairLogProbs(policy_w=clean[w], policy_l=clean[l], ref_w=ref[w], ref_l=ref[l],
                          **slots)
        loss, margin = core.pair_terms(pl, cfg.hp)
        losses.append(loss)
        weight = cfg.hp.tau / (1.0 + math.exp(margin))  # tau * sigmoid(-margin)
        upstream = np.zeros(params.vocab_size)
        upstream[w], upstream[l] = -weight, weight
        grads.add(row_grads(params, pair, upstream))
    grads.scale(1.0 / len(batch))
    return apply_gradient_step(params, grads, cfg.lr), float(np.mean(losses))


def swap_pools(data, batch, pool):
    """random_swap pools of the batch's own rows ("inside": some picks equal
    their row and are redrawn) or of the vectors of data that no batch row
    holds ("outside": no pick is redrawn)."""
    if pool == "inside":
        return training.feature_pools(batch)
    return {m: FeaturePool([v for v in getattr(data, m)
                            if not any(np.array_equal(v, getattr(p, m)) for p in batch)])
            for m in ("audio", "visual")}


CASES = [(variant, tag, kind, pool)
         for variant in VARIANTS for tag in MODALITY_TAGS[:AUDIOVISUAL]
         for kind in CORRUPTION_KINDS for pool in ("inside", "outside")]


@pytest.mark.parametrize("variant,tag,kind,pool", CASES)
def test_train_step_matches_per_pair_loop(data, models, variant, tag, kind, pool):
    params, ref = models
    cfg = TrainConfig(hp=VARIANT_HP[variant], lr=0.1, batch_size=6, seed=3,
                      corruption=CorruptionSpec(kind=kind, t=300))
    batch = batch_of(data, tag)
    pools = swap_pools(data, batch, pool)
    slots = training.reference_logprobs(ref, batch, cfg)
    got, loss, _ = train_step(params, slots, batch, cfg, step=5, pools=pools)
    want, want_loss = reference_step(params, ref, batch, cfg, 5, pools)
    assert abs(loss - want_loss) <= TOL
    np.testing.assert_allclose(got.to_vector(), want.to_vector(), rtol=0, atol=TOL)


def test_mixed_joint_batch_still_rejected(data, models):
    params, ref = models
    cfg = TrainConfig(hp=VARIANT_HP["mod"], lr=0.1)
    batch = synth.PairTable.concat([batch_of(data, "visual_related", 2),
                                    batch_of(data, "audiovisual", 2)])
    with pytest.raises(TrainingError, match=r"one modality tag, got \['visual_related', "
                                            r"'audiovisual'\]"):
        train_step(params, training.reference_logprobs(ref, batch, cfg), batch, cfg, step=0,
                   pools=training.feature_pools(data))


def test_warmup_matches_per_pair_loop(data):
    # 37 pairs in batches of 16: batches straddle the reshuffle point.
    dataset = data[:37]
    steps, seed, lr, size = 12, 6, 0.5, 16
    params = training.init_policy_for(dataset, seed)
    rng = synth._rng(seed, training._WARMUP_STREAM)
    order, cursor = np.arange(len(dataset)), len(dataset)
    for _ in range(steps):
        grads = GradAccumulator(params)
        for _ in range(size):
            if cursor >= len(dataset):
                rng.shuffle(order)
                cursor = 0
            pair = dataset[order[cursor]]
            cursor += 1
            upstream = np.zeros(params.vocab_size)
            upstream[pair.y_w] = -1.0
            grads.add(row_grads(params, pair, upstream))
        grads.scale(1.0 / size)
        params = apply_gradient_step(params, grads, lr)
    got = training.warmup_reference(dataset, steps, seed, lr=lr, batch_size=size)
    np.testing.assert_allclose(got.to_vector(), params.to_vector(), rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# The lean training loop against the step it replaced


def loop_step(params, ref_params, batch, cfg, step, pools):
    """The training step before the reference table: every step forwards
    the reference on its own rows (clean, then text-only when gamma_lpd > 0),
    concatenates fresh corrupted blocks under the clean rows, and updates
    the parameters field by field."""
    n = len(batch)
    relevant, irrelevant = ROLES[batch.modality_tag[0]]
    corrupted = {slot: m for slot, m, strength in (("inv", irrelevant, cfg.hp.beta_inv),
                                                   ("sens", relevant, cfg.hp.beta_sens))
                 if strength > 0}
    clean = {"audio": batch.audio, "visual": batch.visual}
    blocks = [clean]
    if corrupted:
        rng = synth._rng(cfg.seed, training._CORRUPT_STREAM, step)
        blocks += [{**clean, m: corrupt(clean[m], cfg.corruption, pools[m], rng)}
                   for m in corrupted.values()]
    ref_blocks = [clean]
    if cfg.hp.gamma_lpd > 0:
        ref_blocks.append({m: np.zeros_like(x) for m, x in clean.items()})

    def forward_blocks(model, stacked):
        return forward(model, np.concatenate([b["audio"] for b in stacked]),
                       np.concatenate([b["visual"] for b in stacked]),
                       np.tile(batch.prompt_id, len(stacked)))

    policy, ref = forward_blocks(params, blocks), forward_blocks(ref_params, ref_blocks).logprobs
    rows = np.arange(n)

    def pick(logprobs, block):
        return logprobs[block * n + rows, batch.y_w], logprobs[block * n + rows, batch.y_l]

    slots = {}
    for block, name in enumerate(corrupted, start=1):
        slots[f"{name}_w"], slots[f"{name}_l"] = pick(policy.logprobs, block)
    if len(ref_blocks) == 2:
        slots["text_w"], slots["text_l"] = pick(ref, 1)
    (policy_w, policy_l), (ref_w, ref_l) = pick(policy.logprobs, 0), pick(ref, 0)
    pl = PairLogProbs(policy_w=policy_w, policy_l=policy_l, ref_w=ref_w, ref_l=ref_l, **slots)
    losses, margins = training.pair_loss_terms(pl, cfg)
    e = np.exp(-np.abs(margins))  # sigmoid(-margin), two-branch
    weights = np.where(margins <= 0, 1.0 / (1.0 + e), e / (1.0 + e)) * cfg.hp.tau
    upstream = np.zeros_like(policy.probs[:n])
    upstream[rows, batch.y_w], upstream[rows, batch.y_l] = -weights, weights
    grads = backward(params, policy[:n], upstream)
    factor = 1.0 / n
    updated = PolicyParams(*(getattr(params, f) - cfg.lr * (getattr(grads, f) * factor)
                             for f in PolicyParams.FIELDS))
    counter = training.PassCounter(2 * len(blocks), 2 * len(ref_blocks), 2)
    return updated, float(np.mean(losses)), counter


def loop_train(dataset, cfg, ref_params):
    schedule = training.batch_schedule(dataset, cfg)
    pools = training.feature_pools(dataset)
    params, losses, counters = ref_params.copy(), [], []
    for step, rows in enumerate(schedule):
        params, loss, counter = loop_step(params, ref_params, dataset[rows], cfg, step, pools)
        losses.append(loss)
        counters.append(counter)
    return params, np.array(losses), counters


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_equals_the_per_step_reference_loop(data, models, variant):
    # In batches of 8 every step forwards at least 2 reference rows, so the
    # table's rows equal the per-step reference forward bitwise.
    ref = models[1]
    cfg = TrainConfig(hp=VARIANT_HP[variant], lr=0.1, epochs=2, batch_size=8, seed=3,
                      corruption=CorruptionSpec(kind="gaussian"))
    schedule = training.batch_schedule(data, cfg)
    assert min(len(rows) for rows in schedule) >= 2
    result = training.train(data, cfg, ref_params=ref)
    params, losses, counters = loop_train(data, cfg, ref)
    assert result.params.to_vector().tobytes() == params.to_vector().tobytes()
    assert result.losses.tobytes() == losses.tobytes()
    assert result.counters == counters


def test_one_row_dpo_batch_agrees_within_tolerance(data, models):
    # 30 visual and 29 audio pairs in batches of 7: the audio tail holds one
    # row.  A one-row reference forward takes numpy's matrix-vector path,
    # which may round differently from the table's matrix-matrix rows; the
    # two runs agree to a relative 1e-12 (measured here: bitwise equal
    # parameters, and one step's loss 1.6e-16 apart, relative).
    dataset = data[:59]
    cfg = TrainConfig(hp=VARIANT_HP["dpo"], lr=0.1, epochs=2, batch_size=7, seed=3)
    schedule = training.batch_schedule(dataset, cfg)
    assert min(len(rows) for rows in schedule) == 1
    result = training.train(dataset, cfg, ref_params=models[1])
    params, losses, counters = loop_train(dataset, cfg, models[1])
    np.testing.assert_allclose(result.params.to_vector(), params.to_vector(), rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.losses, losses, rtol=1e-12, atol=0)
    assert result.counters == counters


@settings(max_examples=60, deadline=None, database=None)
@given(picks=st.lists(st.integers(0, 59), min_size=2, max_size=30),
       variant=st.sampled_from(["dpo", "modpp"]))
def test_reference_table_rows_equal_the_forward_of_those_rows(data, models, picks, variant):
    ref, rows = models[1], np.array(picks)
    table = training.reference_logprobs(ref, data, TrainConfig(hp=VARIANT_HP[variant]))
    batch, picked = data[rows], np.arange(len(rows))
    want = []
    for audio, visual in [(batch.audio, batch.visual)] + (
            [(np.zeros_like(batch.audio), np.zeros_like(batch.visual))] if variant == "modpp"
            else []):
        logprobs = forward(ref, audio, visual, batch.prompt_id).logprobs
        want += [logprobs[picked, batch.y_w], logprobs[picked, batch.y_l]]
    assert table[:, rows].tobytes() == np.stack(want).tobytes()


@pytest.fixture(scope="module")
def items():
    records = synth.generate_eval_records(synth.EvalConfig(n_items=120, n_scenes=24, seed=5,
                                                           world_seed=104))
    return [eval_mod.item_from_record(r) for r in records]


def test_evaluate_matches_per_item_loop(models, items):
    params = models[0]
    loop = []
    for item in items:
        logprobs = row_logprobs(params, item)
        loop.append("yes" if logprobs[synth.YES_ID] > logprobs[synth.NO_ID] else "no")
    table = ItemTable.coerce(items)
    assert list(eval_mod.predictions(params, table)) == loop
    assert eval_mod.evaluate(params, items).as_dict() == eval_mod.score(loop, table).as_dict()


@pytest.mark.parametrize("kind", ["diffusion", "random_swap"])
@pytest.mark.parametrize("which", ["relevant", "irrelevant"])
def test_loglik_shift_matches_per_item_loop(models, items, kind, which):
    params = models[0]
    spec, seed = CorruptionSpec(kind=kind, t=400), 8
    unimodal = [it for it in items if it.modality_tag != AUDIOVISUAL]
    pools = {m: FeaturePool([getattr(it, m) for it in unimodal]) for m in ("audio", "visual")}
    role = 0 if which == "relevant" else 1
    modalities = [(ROLES[it.modality_tag][role],) for it in unimodal]
    draws = reference_draws(unimodal, {0: modalities}, spec, pools, np.random.default_rng(seed))
    loop = []
    for i, item in enumerate(unimodal):
        answer = item.ground_truth
        loop.append(row_logprobs(params, item)[answer]
                    - row_logprobs(params, item, **draws[i, 0])[answer])
    stats = eval_mod.loglik_shift(params, ItemTable.coerce(unimodal), spec, which, seed)
    np.testing.assert_allclose(stats.deltas, loop, rtol=0, atol=TOL)


@pytest.mark.parametrize("kind", ["gaussian", "diffusion"])
def test_block_draw_equals_row_draws_from_one_generator(kind):
    rows = np.random.default_rng(0).normal(size=(5, 8))
    spec = CorruptionSpec(kind=kind, t=300)
    rng = np.random.default_rng(17)
    one_by_one = [corrupt(row, spec, None, rng) for row in rows]
    block = corrupt(rows, spec, None, np.random.default_rng(17))
    assert np.array_equal(block, np.stack(one_by_one))


@settings(max_examples=60, deadline=None, database=None)
@given(rows=st.integers(1, 7), n_prompts=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_forward_backward_equal_stacked_single_rows(rows, n_prompts, seed):
    rng = np.random.default_rng(seed)
    params = init_params(d_a=5, d_v=4, d_h=6, vocab_size=5, n_prompts=n_prompts, seed=seed)
    audio, visual = rng.normal(size=(rows, 5)), rng.normal(size=(rows, 4))
    prompt_ids = rng.integers(n_prompts, size=rows)
    upstream = rng.normal(size=(rows, 5))
    cache = forward(params, audio, visual, prompt_ids)
    singles = [forward(params, audio[i:i + 1], visual[i:i + 1], prompt_ids[i:i + 1])
               for i in range(rows)]
    np.testing.assert_allclose(cache.logprobs, np.concatenate([c.logprobs for c in singles]),
                               rtol=0, atol=TOL)
    total = GradAccumulator(params)
    for single, up in zip(singles, upstream):
        total.add(backward(params, single, up[None]))
    batched = backward(params, cache, upstream)
    np.testing.assert_allclose(batched.to_vector(), total.to_vector(), rtol=0, atol=TOL)


# Stacked parameter sets change no arithmetic, so these agree bitwise.
@settings(max_examples=60, deadline=None, database=None)
@given(rows=st.integers(1, 7), stack=st.integers(1, 6), d_h=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_parameter_forward_equals_separate_forwards(rows, stack, d_h, seed):
    rng = np.random.default_rng(seed)
    params = init_params(d_a=5, d_v=4, d_h=d_h, vocab_size=5, n_prompts=3, seed=seed)
    vectors = params.to_vector() + rng.normal(scale=0.1, size=(stack, params.to_vector().size))
    audio, visual = rng.normal(size=(rows, 5)), rng.normal(size=(rows, 4))
    prompt_ids = rng.integers(3, size=rows)
    stacked = forward(params.from_vector(vectors), audio, visual, prompt_ids)
    for k, vec in enumerate(vectors):
        single = forward(params.from_vector(vec), audio, visual, prompt_ids)
        for name in ("h", "probs", "logprobs"):
            assert np.array_equal(getattr(stacked, name)[k], getattr(single, name)), name


# ---------------------------------------------------------------------------
# Record tables


def assert_same_table(a, b):
    assert type(a) is type(b)
    for name in a.Row._fields:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


@pytest.fixture(scope="module")
def tables(data, items):
    """The 60-pair table and the 120-item table (stacked from rows)."""
    return data, ItemTable.coerce(items)


@settings(max_examples=60, deadline=None, database=None)
@given(picks=st.lists(st.integers(0, 59), min_size=1, max_size=30), cut=st.slices(60))
def test_indexed_table_equals_its_stacked_rows(tables, picks, cut):
    # An empty selection is left out: the stack of no rows has no width.
    assume(len(range(60)[cut]) > 0)
    for table in tables:
        for rows in (np.array(picks), cut):
            selected = np.arange(60)[rows]
            stacked = type(table).coerce([table[int(i)] for i in selected])
            assert_same_table(table[:60][rows], stacked)


def checked_table(table, records):
    """The table of decoded records, which must each pass its checks."""
    parsed, problems = table.check(records)
    assert problems == {}
    return parsed


def test_coerced_rows_give_the_same_table(tables, items):
    for table in tables:
        assert_same_table(type(table).coerce(list(table)), table)
    # item_from_record rows stack to the table the file loader parses.
    records = synth.generate_eval_records(synth.EvalConfig(n_items=120, n_scenes=24, seed=5,
                                                           world_seed=104))
    assert_same_table(ItemTable.coerce(items), checked_table(ItemTable, records))


def test_records_round_trip_column_by_column(tables):
    for table in tables:
        records, keys = table.records(), tuple(key for key, _ in table.RECORD)
        assert len(records) == len(table) and all(tuple(rec) == keys for rec in records)
        assert_same_table(checked_table(type(table), records), table)


@settings(max_examples=15, deadline=None, database=None)
@given(n_pairs=st.integers(1, 40), n_scenes=st.integers(2, 20),
       matched=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2 ** 16))
def test_loaded_dataset_equals_the_generated_table(n_pairs, n_scenes, matched, seed):
    cfg = SynthConfig(n_pairs=n_pairs, n_scenes=n_scenes, matched_fraction=matched, seed=seed,
                      world_seed=seed + 1)
    try:
        generated = synth.generate_pairs(cfg)
    except synth.WorldError:  # a scene pool too small for some question: nothing to write
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pairs.jsonl")
        synth.assemble_dataset(cfg, path)
        assert_same_table(synth.load_pairs(path), generated)
