"""Batch-first kernels against the per-pair (B = 1) loops they replace.

Each reference below is the per-pair computation written with the
single-context API: forward_logprobs / backward(params, ctx, upstream) /
core.pair_terms per pair.  Its corrupted rows come from the same generator
in the documented draw order (slot ascending, audio before visual, rows in
order), drawn one row at a time except for random_swap (see draw_rows).
The batched code sums rows in another order, so results agree to 1e-12,
not bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import core, synth
from modlab import eval as eval_mod
from modlab import train as training
from modlab.core import LPD_PLACEMENTS, PairLogProbs
from modlab.corrupt import CORRUPTION_KINDS, CorruptionSpec, FeaturePool, corrupt
from modlab.policy import (
    MODALITY_TAGS,
    GradAccumulator,
    ModalityContext,
    apply_gradient_step,
    backward,
    forward,
    forward_logprobs,
    init_params,
    modality_roles,
    stack_contexts,
)
from modlab.synth import PreferencePair, SynthConfig
from modlab.train import TrainConfig, TrainingError, train_step

TOL = 1e-12


@pytest.fixture(scope="module")
def data():
    return synth.generate_pairs(SynthConfig(n_pairs=60, n_scenes=24, seed=4, world_seed=104))


@pytest.fixture(scope="module")
def models(data):
    ref = training.warmup_reference(data, steps=30, seed=4)
    params = training.init_policy_for(data, seed=9)
    return params, ref


def as_audiovisual(pair):
    ctx = ModalityContext(audio=pair.context.audio, visual=pair.context.visual,
                          prompt_id=synth.AV_MATCHING_PROMPT, modality_tag="audiovisual")
    return PreferencePair(context=ctx, question_kind=pair.question_kind, y_w=pair.y_w,
                          y_l=pair.y_l, matched=pair.matched, scene_refs=pair.scene_refs)


def batch_of(data, tag, size=6):
    if tag == "audiovisual":
        return [as_audiovisual(p) for p in data[:size]]
    return [p for p in data if p.context.modality_tag == tag][:size]


def with_features(ctx, **features):
    merged = {"audio": ctx.audio, "visual": ctx.visual, **features}
    return ModalityContext(prompt_id=ctx.prompt_id, modality_tag=ctx.modality_tag, **merged)


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


def reference_draws(contexts, slot_modalities, spec, pools, rng):
    """{(row, slot): {modality: corrupted vector}} in the documented order:
    slot ascending, audio before visual, rows in order.  slot_modalities
    maps each slot to its per-row tuple of modality names."""
    out = {}
    for slot, modalities in sorted(slot_modalities.items()):
        for m in ("audio", "visual"):
            rows = [i for i, names in enumerate(modalities) if m in names]
            if rows:
                drawn = draw_rows([getattr(contexts[i], m) for i in rows], spec, pools[m], rng)
                for i, vec in zip(rows, drawn):
                    out.setdefault((i, slot), {})[m] = vec
    return out


def reference_step(params, ref_params, batch, cfg, step, pools):
    """The per-pair train step: one B = 1 pass per context and slot."""
    contexts = [p.context for p in batch]
    joint = [cfg.loss_variant == "mod_with_av" and c.modality_tag == "audiovisual"
             for c in contexts]
    if all(joint):
        slot_modalities = {2: [("audio", "visual")] * len(batch)}
    elif cfg.loss_variant != "dpo":
        roles = [modality_roles(c.modality_tag) for c in contexts]
        slot_modalities = {0: [(irr,) for _, irr in roles], 1: [(rel,) for rel, _ in roles]}
    else:
        slot_modalities = {}
    draws = reference_draws(contexts, slot_modalities, cfg.corruption, pools,
                            synth._rng(cfg.seed, training._CORRUPT_STREAM, step))
    grads = GradAccumulator(params)
    losses = []
    for idx, pair in enumerate(batch):
        ctx, w, l = pair.context, pair.y_w, pair.y_l

        def corrupted(slot):
            return forward_logprobs(params, with_features(ctx, **draws[idx, slot]))

        clean = forward_logprobs(params, ctx)
        ref = forward_logprobs(ref_params, ctx)
        slots = {}
        if joint[idx]:
            both = corrupted(2)
            slots.update(sens_w=both[w], sens_l=both[l])
        elif cfg.loss_variant != "dpo":
            inv, sens = corrupted(0), corrupted(1)
            slots.update(inv_w=inv[w], inv_l=inv[l], sens_w=sens[w], sens_l=sens[l])
        if cfg.loss_variant == "modpp":
            text = forward_logprobs(ref_params, with_features(
                ctx, audio=np.zeros_like(ctx.audio), visual=np.zeros_like(ctx.visual)))
            slots.update(text_w=text[w], text_l=text[l])
        pl = PairLogProbs(policy_w=clean[w], policy_l=clean[l], ref_w=ref[w], ref_l=ref[l],
                          **slots)
        loss, margin, coef = core.pair_terms(pl, cfg.loss_hp, joint[idx], cfg.lpd_placement)
        losses.append(loss)
        weight = coef / (1.0 + math.exp(margin))  # coef * sigmoid(-margin)
        upstream = np.zeros(params.vocab_size)
        upstream[w], upstream[l] = -weight, weight
        grads.add(backward(params, ctx, upstream))
    grads.scale(1.0 / len(batch))
    return apply_gradient_step(params, grads, cfg.lr), float(np.mean(losses))


CASES = [(variant, tag, kind, placement)
         for variant in training.LOSS_VARIANTS for tag in MODALITY_TAGS
         for kind in CORRUPTION_KINDS for placement in LPD_PLACEMENTS
         # mod and modpp need a relevant/irrelevant split, which audiovisual lacks
         if tag != "audiovisual" or variant in ("dpo", "mod_with_av")]


@pytest.mark.parametrize("variant,tag,kind,placement", CASES)
def test_train_step_matches_per_pair_loop(data, models, variant, tag, kind, placement):
    params, ref = models
    cfg = TrainConfig(loss_variant=variant, lr=0.1, batch_size=6, seed=3,
                      lpd_placement=placement,
                      corruption=CorruptionSpec(kind=kind, t=300, sigma=0.7))
    batch = batch_of(data, tag)
    pools = training.feature_pools(data)
    got, loss, _ = train_step(params, ref, batch, cfg, step=5, pools=pools)
    want, want_loss = reference_step(params, ref, batch, cfg, 5, pools)
    assert abs(loss - want_loss) <= TOL
    np.testing.assert_allclose(got.to_vector(), want.to_vector(), rtol=0, atol=TOL)


def test_mixed_joint_batch_still_rejected(data, models):
    params, ref = models
    cfg = TrainConfig(loss_variant="mod_with_av", lr=0.1, alternate_batches=False)
    batch = batch_of(data, "visual_related", 2) + batch_of(data, "audiovisual", 2)
    with pytest.raises(TrainingError, match="pass counts varied"):
        train_step(params, ref, batch, cfg, step=0, pools=training.feature_pools(data))


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
            grads.add(backward(params, pair.context, upstream))
        grads.scale(1.0 / size)
        params = apply_gradient_step(params, grads, lr)
    got = training.warmup_reference(dataset, steps, seed, lr=lr, batch_size=size)
    np.testing.assert_allclose(got.to_vector(), params.to_vector(), rtol=0, atol=TOL)


@pytest.fixture(scope="module")
def items():
    records = synth.generate_eval_records(synth.EvalConfig(n_items=120, n_scenes=24, seed=5,
                                                           world_seed=104))
    return [eval_mod.item_from_record(r) for r in records]


def test_evaluate_matches_per_item_loop(models, items):
    params = models[0]
    loop = []
    for item in items:
        logprobs = forward_logprobs(params, item.context)
        loop.append("yes" if logprobs[synth.YES_ID] > logprobs[synth.NO_ID] else "no")
    assert eval_mod.predictions(params, items) == loop
    assert eval_mod.evaluate(params, items).as_dict() == eval_mod.score(loop, items).as_dict()


@pytest.mark.parametrize("kind", ["diffusion", "random_swap"])
@pytest.mark.parametrize("which", ["relevant", "irrelevant"])
def test_loglik_shift_matches_per_item_loop(models, items, kind, which):
    params = models[0]
    spec = CorruptionSpec(kind=kind, t=400, seed=8)
    unimodal = [it for it in items if it.context.modality_tag != "audiovisual"]
    pools = {m: FeaturePool([getattr(it.context, m) for it in unimodal])
             for m in ("audio", "visual")}
    role = 0 if which == "relevant" else 1
    contexts = [item.context for item in unimodal]
    modalities = [(modality_roles(c.modality_tag)[role],) for c in contexts]
    draws = reference_draws(contexts, {0: modalities}, spec, pools,
                            np.random.default_rng(spec.seed))
    loop = []
    for i, item in enumerate(unimodal):
        answer = synth.answer_id(item.ground_truth)
        loop.append(forward_logprobs(params, item.context)[answer]
                    - forward_logprobs(params, with_features(item.context,
                                                             **draws[i, 0]))[answer])
    stats = eval_mod.loglik_shift(params, unimodal, spec, which, pools)
    np.testing.assert_allclose(stats.deltas, loop, rtol=0, atol=TOL)


@pytest.mark.parametrize("kind", ["gaussian", "diffusion"])
def test_block_draw_equals_row_draws_from_one_generator(kind):
    rows = np.random.default_rng(0).normal(size=(5, 8))
    spec = CorruptionSpec(kind=kind, t=300, sigma=0.7, seed=2)
    rng = np.random.default_rng(17)
    one_by_one = [corrupt(row, spec, rng=rng) for row in rows]
    block = corrupt(rows, spec, rng=np.random.default_rng(17))
    assert np.array_equal(block, np.stack(one_by_one))


@settings(max_examples=60, deadline=None, database=None)
@given(rows=st.integers(1, 7), n_prompts=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_forward_backward_equal_stacked_single_rows(rows, n_prompts, seed):
    rng = np.random.default_rng(seed)
    params = init_params(d_a=5, d_v=4, d_h=6, vocab_size=5, n_prompts=n_prompts, seed=seed)
    contexts = [ModalityContext(audio=rng.normal(size=5), visual=rng.normal(size=4),
                                prompt_id=int(rng.integers(n_prompts)),
                                modality_tag="visual_related") for _ in range(rows)]
    upstream = rng.normal(size=(rows, 5))
    cache = forward(params, *stack_contexts(contexts))
    single = np.stack([forward_logprobs(params, ctx) for ctx in contexts])
    np.testing.assert_allclose(cache.logprobs, single, rtol=0, atol=TOL)
    total = GradAccumulator(params)
    for ctx, up in zip(contexts, upstream):
        total.add(backward(params, ctx, up))
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
