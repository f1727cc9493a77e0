"""Training loop: pass accounting, alternation, reduction, determinism."""

import dataclasses
import importlib.util
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modlab import cli, core, synth
from modlab import train as training
from modlab.core import ConfigurationError, Hyperparams, PairLogProbs
from modlab.corrupt import CorruptionSpec, corrupt
from modlab.oracles import frozen_surrogate_rel_error
from modlab.policy import backward, forward
from modlab.presets import PRESET_NAMES, make_config
from modlab.synth import AUDIO_RELATED, AUDIOVISUAL, VISUAL_RELATED, SynthConfig
from modlab.train import PassCounter, TrainConfig, TrainingError, train_step


def small_dataset(n=64, seed=0):
    return synth.generate_pairs(SynthConfig(n_pairs=n, n_scenes=24, seed=seed,
                                            world_seed=seed + 100))


# The loss ladder's strengths: those of the preset of each name.
VARIANT_HP = {variant: make_config(variant).hp for variant in ("dpo", "mod", "modpp")}


def quick_config(variant="modpp", **overrides):
    base = dict(hp=VARIANT_HP[variant], lr=0.1, epochs=1, batch_size=4, seed=0, warmup_steps=20)
    base.update(overrides)
    return TrainConfig(**base)


def av_pair_from(pair):
    return pair._replace(prompt_id=synth.AV_MATCHING_PROMPT, modality_tag=AUDIOVISUAL)


def rows_tagged(data, tag):
    return data[data.modality_tag == tag]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
        with pytest.raises(TypeError):
            TrainConfig(loss_variant="dpo")  # the strengths alone set the loss

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "warmup_steps"])
    @pytest.mark.parametrize("value", [10.5, "10", True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_defaults_keep_invariance_below_sensitivity(self):
        cfg = TrainConfig()
        assert cfg.hp.beta_inv < cfg.hp.beta_sens
        assert cfg.lr == pytest.approx(3e-7)

    def test_pass_counter_invariants(self):
        with pytest.raises(TrainingError):
            PassCounter(bwd_ref=1)
        with pytest.raises(TrainingError):
            PassCounter(fwd_policy=-1)


def with_prompt_ids(data, ids):
    """data with its prompt_id column replaced by ids (no row check)."""
    return synth.PairTable(**{name: getattr(data, name) for name in synth.PairTable.Row._fields
                              if name != "prompt_id"}, prompt_id=ids)


def checked_warmup(dataset, steps, seed, lr=TrainConfig.warmup_lr,
                   batch_size=TrainConfig.batch_size):
    """The warm-up loop that checks every step: a checked forward, np.mean
    and np.zeros_like on each batch.  warmup_reference must match it bit
    for bit, and raise what it raises for a bad prompt id."""
    params = training.init_policy_for(dataset, seed)
    audio, visual, ids, y_w = dataset.audio, dataset.visual, dataset.prompt_id, dataset.y_w
    n = len(dataset)
    size = min(batch_size, n)
    rows = np.arange(size)
    rng, order, shuffles = synth._rng(seed, training._WARMUP_STREAM), np.arange(n), []
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
        training._check_loss("warm-up", step, loss, first)
        upstream = np.zeros_like(cache.probs)
        upstream[rows, y_w[batch]] = -1.0
        params = training._descend(params, cache, upstream, lr,
                                   lambda: f"warm-up diverged at step {step}")
    return params


def first_shuffle(n, seed):
    """The warm-up's first visit order of n rows: step 0 takes its head."""
    order = np.arange(n)
    synth._rng(seed, training._WARMUP_STREAM).shuffle(order)
    return order


WARMUP_ROWS = small_dataset(n=40, seed=6)


class TestWarmup:
    def test_zero_steps_returns_initialization(self):
        data = small_dataset()
        params = training.warmup_reference(data, steps=0, seed=3)
        expected = training.init_policy_for(data, seed=3)
        assert np.array_equal(params.to_vector(), expected.to_vector())

    def test_deterministic(self):
        data = small_dataset()
        a = training.warmup_reference(data, steps=50, seed=4)
        b = training.warmup_reference(data, steps=50, seed=4)
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_chosen_loglik_beats_uniform_after_default_warmup(self):
        # mean log pi(y_w) must exceed -ln V after the standard 500 steps,
        # averaged over 5 seeds.
        means = []
        for seed in range(5):
            data = small_dataset(n=200, seed=seed)
            params = training.warmup_reference(data, steps=500, seed=seed)
            logprobs = forward(params, data.audio, data.visual, data.prompt_id).logprobs
            means.append(np.mean(logprobs[np.arange(len(data)), data.y_w]))
        assert np.mean(means) > -np.log(synth.VOCAB_SIZE)

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            training.warmup_reference([], steps=1, seed=0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"steps": 4, "batch_size": 0}, r"batch_size must lie in \[1, inf\), got 0"),
        ({"steps": 4, "batch_size": -3}, r"batch_size must lie in \[1, inf\), got -3"),
        ({"steps": -5}, r"steps must lie in \[0, inf\), got -5"),
    ], ids=["batch-size-0", "batch-size-negative", "steps-negative"])
    def test_bad_steps_or_batch_size_rejected_before_any_work(self, monkeypatch, kwargs,
                                                              message):
        def init(*args):
            raise AssertionError("the warm-up started")

        monkeypatch.setattr(training, "init_policy_for", init)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            training.warmup_reference(small_dataset(n=8), seed=0, **kwargs)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 40), steps=st.integers(0, 30), batch_size=st.integers(1, 50),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=5, steps=7, batch_size=12, seed=1)  # batch_size > n
    @example(n=40, steps=3, batch_size=4, seed=2)  # steps * size < n
    def test_matches_the_loop_that_checks_every_step(self, n, steps, batch_size, seed):
        data = WARMUP_ROWS[:n]
        lean = training.warmup_reference(data, steps, seed, batch_size=batch_size)
        checked = checked_warmup(data, steps, seed, batch_size=batch_size)
        assert lean.to_vector().tobytes() == checked.to_vector().tobytes()

    def test_a_bad_prompt_id_fails_before_step_0_naming_the_first_visited(self, monkeypatch):
        # Row `first` is visited before row 0, so a scan in row order would
        # name the other id.
        data, seed = small_dataset(n=32), 3
        first = first_shuffle(len(data), seed)[0]
        assert first != 0
        ids = data.prompt_id.copy()
        ids[first], ids[0] = synth.N_PROMPTS + 1, -1
        bad = with_prompt_ids(data, ids)
        with pytest.raises(ValueError) as old:
            checked_warmup(bad, 20, seed, batch_size=4)

        def descend(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training, "_descend", descend)
        with pytest.raises(ValueError) as new:
            training.warmup_reference(bad, 20, seed, batch_size=4)
        assert str(new.value) == str(old.value) == (
            f"prompt_id {synth.N_PROMPTS + 1} outside table of size {synth.N_PROMPTS}")

    def test_a_bad_prompt_id_on_an_unvisited_row_is_not_an_error(self):
        data, seed, steps, batch_size = small_dataset(n=32), 3, 3, 4
        never = first_shuffle(len(data), seed)[steps * batch_size:]
        ids = data.prompt_id.copy()
        ids[never] = synth.N_PROMPTS
        bad = with_prompt_ids(data, ids)
        lean = training.warmup_reference(bad, steps, seed, batch_size=batch_size)
        assert lean.to_vector().tobytes() == checked_warmup(
            bad, steps, seed, batch_size=batch_size).to_vector().tobytes()

    def test_zero_steps_runs_no_check(self, monkeypatch):
        def check(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(training, "check_inputs", check)
        data = small_dataset()
        params = training.warmup_reference(data, steps=0, seed=3)
        expected = training.init_policy_for(data, seed=3)
        assert params.to_vector().tobytes() == expected.to_vector().tobytes()


class TestPassCounts:
    """Per-pair passes pinned by preset name: a new preset, or a preset whose
    passes change, is an edit of this table."""

    COUNTERS = {
        "dpo": PassCounter(2, 2, 2, 0),
        **dict.fromkeys(("sens_only", "inv_only"), PassCounter(4, 2, 2, 0)),
        "lpd_only": PassCounter(2, 4, 2, 0),
        "mod": PassCounter(6, 2, 2, 0),
        **dict.fromkeys(("modpp", "modpp_desk", "modpp_desk_t10", "modpp_zeros",
                         "modpp_gaussian", "modpp_swap", "modpp_diff_t10", "modpp_diff_t50",
                         "modpp_diff_t500"), PassCounter(6, 4, 2, 0)),
    }
    PRESET_DATA = small_dataset(n=32, seed=5)

    def test_per_variant_per_step(self):
        data = small_dataset(n=40)
        for variant in VARIANT_HP:
            cfg = quick_config(variant, warmup_steps=0)
            result = training.train(data, cfg)
            assert len(result.counters) == 10
            assert all(counter == self.COUNTERS[variant] for counter in result.counters)

    def test_the_table_names_every_preset(self):
        assert sorted(self.COUNTERS) == sorted(PRESET_NAMES)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_trains_an_epoch_with_its_passes(self, name):
        cfg = make_config(name, epochs=1, batch_size=8, warmup_steps=10)
        result = training.train(self.PRESET_DATA, cfg)
        assert set(result.counters) == {self.COUNTERS[name]}, set(result.counters)
        assert np.isfinite(result.losses).all()

    def test_the_weak_corruption_preset_differs_only_in_corruption(self):
        t10 = make_config("modpp_desk_t10")
        assert t10.corruption == CorruptionSpec(kind="diffusion", t=10)
        assert replace(make_config("modpp_desk"), corruption=t10.corruption) == t10


class TestAlternation:
    def test_strict_alternation_schedule(self):
        data = small_dataset(n=80)
        five = synth.PairTable.concat([rows_tagged(data, VISUAL_RELATED)[:5],
                                       rows_tagged(data, AUDIO_RELATED)[:5]])
        cfg = quick_config(batch_size=1, warmup_steps=0)
        schedule = training.batch_schedule(five, cfg)
        assert len(schedule) == 10
        tags = [five.modality_tag[rows[0]] for rows in schedule]
        assert tags == [VISUAL_RELATED, AUDIO_RELATED] * 5

    SCHEDULE_ROWS = small_dataset(n=120, seed=8)

    @settings(max_examples=60, deadline=None, database=None)
    @given(n_visual=st.integers(1, 30), n_audio=st.integers(1, 30), batch_size=st.integers(1, 40),
           epochs=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_every_batch_is_one_tag_and_every_epoch_visits_each_row_once(
            self, n_visual, n_audio, batch_size, epochs, seed, data):
        # The contract the step relies on instead of checking its batch.
        rows = synth.PairTable.concat([rows_tagged(self.SCHEDULE_ROWS, VISUAL_RELATED)[:n_visual],
                                       rows_tagged(self.SCHEDULE_ROWS, AUDIO_RELATED)[:n_audio]])
        n = len(rows)
        dataset = rows[np.array(data.draw(st.permutations(range(n))))]
        cfg = quick_config(batch_size=batch_size, epochs=epochs, seed=seed)
        schedule = training.batch_schedule(dataset, cfg)
        for batch in schedule:
            tags = dataset.modality_tag[batch]
            assert 0 < len(batch) <= batch_size
            assert (tags == tags[0]).all() and tags[0] != AUDIOVISUAL
        visits = np.concatenate(schedule)
        assert len(visits) == epochs * n
        for epoch in range(epochs):
            assert sorted(visits[epoch * n : (epoch + 1) * n]) == list(range(n))

    def test_missing_modality_rejected(self):
        data = small_dataset(n=40)
        visual_only = rows_tagged(data, VISUAL_RELATED)
        with pytest.raises(ConfigurationError):
            training.train(visual_only, quick_config(warmup_steps=0))


class TestSingleModalityPairs:
    """A preference pair has exactly one relevant modality."""

    def test_audiovisual_row_rejected_before_warmup(self, monkeypatch):
        data = small_dataset(n=32)
        table = synth.PairTable.coerce(list(data[:5]) + [av_pair_from(data[5])] + list(data[6:]))

        def warmup(*args, **kwargs):
            raise AssertionError("warm-up ran")

        monkeypatch.setattr(training, "warmup_reference", warmup)
        for variant in VARIANT_HP:
            with pytest.raises(TrainingError, match="row 5 is audiovisual"):
                training.train(table, quick_config(variant))

    @pytest.mark.parametrize("key,value", [("modality_tag", "audiovisual"),
                                           ("question_kind", "av_matching")])
    def test_audiovisual_line_fails_at_load(self, tmp_path, capsys, key, value):
        path = tmp_path / "pairs.jsonl"
        synth.assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=3), path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), key: value})
        path.write_text("\n".join(lines) + "\n")
        names = (synth.MODALITY_TAGS[:AUDIOVISUAL] if key == "modality_tag"
                 else synth.QUESTION_KINDS)
        problem = f"{path}, line 3: {key} must be one of {names}, got {value!r}"
        with pytest.raises(synth.WorldError) as caught:
            synth.load_pairs(path)
        assert str(caught.value) == problem
        capsys.readouterr()
        code = cli.run("train", None, [f"out_dir={tmp_path / 'run'}", f"train.dataset={path}"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: {problem}"]


class TestReduction:
    def test_zero_strengths_select_dpo_passes(self):
        # All three strengths at zero give the vanilla preference loss (the
        # per-pair identity of criterion 2) and dpo's passes: no corrupted
        # or text-only rows are forwarded.
        hp_zero = Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)
        cfg = quick_config(hp=hp_zero, seed=2)
        assert cfg.loss_variant == "dpo"
        result = training.train(small_dataset(n=48, seed=2), cfg)
        assert set(result.counters) == {PassCounter(2, 2, 2, 0)}


class TestPassLadder:
    """The strengths alone set the passes, term by term: two policy passes
    per nonzero corruption strength and two reference passes for a nonzero
    gamma_lpd, on top of the clean block's."""

    DATA = small_dataset(n=16, seed=4)

    @settings(max_examples=40, deadline=None, database=None)
    @given(strengths=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 0.05))] * 3))
    def test_one_step_follows_the_ladder(self, strengths):
        beta_inv, beta_sens, gamma_lpd = strengths
        cfg = quick_config(hp=Hyperparams(beta=0.1, beta_inv=beta_inv, beta_sens=beta_sens,
                                          gamma_lpd=gamma_lpd))
        batch = rows_tagged(self.DATA, AUDIO_RELATED)[:4]
        ref = training.init_policy_for(self.DATA, seed=0)
        _, _, counter = train_step(ref.copy(), training.reference_logprobs(ref, batch, cfg),
                                   batch, cfg, pools=training.feature_pools(self.DATA))
        assert counter == PassCounter(2 + 2 * (beta_inv > 0) + 2 * (beta_sens > 0),
                                      2 + 2 * (gamma_lpd > 0), 2, 0)
        assert cfg.loss_variant == ("modpp" if gamma_lpd > 0 else
                                    "mod" if beta_inv > 0 or beta_sens > 0 else "dpo")


class TestDeterminismAndImmutability:
    def test_reference_unchanged_by_training(self):
        data = small_dataset(n=32)
        ref = training.warmup_reference(data, steps=20, seed=1)
        before = ref.to_vector().copy()
        training.train(data, quick_config(), ref_params=ref)
        assert np.array_equal(ref.to_vector(), before)

    def test_full_run_determinism(self):
        data = small_dataset(n=48)
        cfg = quick_config(epochs=2)
        a = training.train(data, cfg)
        b = training.train(data, cfg)
        assert np.array_equal(a.params.to_vector(), b.params.to_vector())
        assert np.array_equal(a.losses, b.losses)

    def test_loss_values_finite_and_positive(self):
        data = small_dataset(n=32)
        result = training.train(data, quick_config("mod"))
        assert np.all(np.isfinite(result.losses))
        assert np.all(result.losses > 0)

    def test_training_reduces_loss_on_default_desk_budget(self):
        # mean loss over the final epoch's steps below the first step's
        # loss, averaged over 5 seeds.
        firsts, lasts = [], []
        for seed in range(5):
            data = small_dataset(n=200, seed=seed + 10)
            cfg = TrainConfig(lr=0.15, epochs=4, batch_size=16, seed=seed, warmup_steps=200)
            result = training.train(data, cfg)
            steps_per_epoch = len(result.losses) // cfg.epochs
            firsts.append(result.losses[0])
            lasts.append(np.mean(result.losses[-steps_per_epoch:]))
        assert np.mean(lasts) < np.mean(firsts)


class TestDivergenceGuard:
    def test_loss_far_above_the_first_step_fails(self):
        data = small_dataset(n=64)
        with pytest.raises(training.DivergenceError,
                           match=r"training diverged at step \d+: loss \S+ exceeds 100x "
                                 r"the first step's"):
            training.train(data, quick_config(lr=1e9, batch_size=16))

    def test_non_finite_loss_fails(self, monkeypatch):
        # A finite reference, and a policy whose step log-probabilities are not.
        data = small_dataset(n=32)
        real_forward = training.forward_unchecked

        def nan_forward(*args):
            cache = real_forward(*args)
            cache.logprobs[:] = np.nan
            return cache

        monkeypatch.setattr(training, "forward_unchecked", nan_forward)
        with pytest.raises(training.DivergenceError,
                           match="training diverged at step 0: loss nan"):
            training.train(data, quick_config("dpo"), ref_params=training.init_policy_for(data, 0))

    @staticmethod
    def train_with_ref_table(monkeypatch, edit, variant="dpo"):
        """Train from a fixed reference whose log-probability table edit(table)
        alters, under the variant's strengths; no step may run."""
        data = small_dataset(n=32)
        cfg = quick_config(variant)
        real_table = training.reference_logprobs

        def edited(ref_params, table, cfg):
            out = real_table(ref_params, table, cfg)
            edit(out)
            return out

        monkeypatch.setattr(training, "reference_logprobs", edited)
        TestDivergenceGuard.forbid_steps(monkeypatch)
        training.train(data, cfg, ref_params=training.init_policy_for(data, seed=0))

    @staticmethod
    def forbid_steps(monkeypatch):
        def step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training, "train_step", step)

    @pytest.mark.parametrize("variant,slot,value", [
        ("dpo", 1, np.nan), ("dpo", 0, -np.inf), ("modpp", 3, np.nan), ("modpp", 2, np.inf)],
        ids=["dpo-ref_l-nan", "dpo-ref_w--inf", "modpp-text_l-nan", "modpp-text_w-inf"])
    def test_a_non_finite_reference_row_fails_before_step_0(self, monkeypatch, variant, slot,
                                                             value):
        # The table is checked once per run: the first bad row stops the run
        # before step 0, named with its slot, though row 9 is bad in every slot.
        def edit(table):
            table[:, 9] = table[slot, 5] = value

        name = training.REF_SLOTS[slot]
        with pytest.raises(training.DivergenceError,
                           match=rf"^reference diverged: row 5 {name} is {value}, not a finite "
                                 r"log-probability <= 0$"):
            self.train_with_ref_table(monkeypatch, edit, variant)

    def test_a_positive_reference_entry_names_its_slot(self, monkeypatch):
        with pytest.raises(training.DivergenceError, match="^reference diverged: row 7 ref_l is "
                                                           "0.25, not a finite"):
            self.train_with_ref_table(monkeypatch, lambda t: t.__setitem__((1, 7), 0.25))

    def test_an_all_non_finite_reference_fails_before_step_0(self, monkeypatch):
        # A reference whose forward overflows: every table entry is nan.
        data = small_dataset(n=32)
        ref = training.init_policy_for(data, seed=0)
        ref.e_x[:], ref.w_out[0] = 1e3, 1e308
        self.forbid_steps(monkeypatch)
        with pytest.raises(training.DivergenceError,
                           match="^reference diverged: row 0 ref_w is nan, "):
            training.train(data, quick_config("dpo"), ref_params=ref)

    def test_non_finite_gradient_fails(self, monkeypatch):
        data = small_dataset(n=32)
        real_backward = training.backward

        def overflowing(params, cache, upstream):
            grads = real_backward(params, cache, upstream)
            grads.u_a[0, 0] = np.inf
            return grads

        monkeypatch.setattr(training, "backward", overflowing)
        with pytest.raises(training.DivergenceError,
                           match=r"training diverged at step 0 \(loss \S+\): gradient "
                                 r"accumulator u_a became non-finite"):
            training.train(data, quick_config(warmup_steps=0))

    def test_diverging_warmup_fails(self):
        data = small_dataset(n=32)
        with pytest.raises(training.DivergenceError, match="warm-up diverged at step 1"):
            training.warmup_reference(data, steps=5, seed=0, lr=1e300)


class TestEvaluateBatchChecks:
    """The one validity check of evaluate_batch: the policy's
    log-probabilities, whether the clean columns are forwarded alone or in
    a buffer with corrupted blocks.  The ref block it reads is checked
    before, by check_reference."""

    DIVERGED = r"^training diverged at step 3: loss nan \(non-finite log-probabilities\)$"

    @pytest.mark.parametrize("corrupting", [False, True])
    def test_a_non_finite_policy_block_diverges(self, corrupting):
        data = small_dataset(n=32)
        cfg = quick_config("modpp" if corrupting else "dpo")
        batch = rows_tagged(data, VISUAL_RELATED)[:4]
        params = training.init_policy_for(data, seed=0)
        ref = training.reference_logprobs(params, batch, cfg)
        params.w_out[0] = np.inf  # every policy log-probability becomes nan
        with np.errstate(invalid="ignore"), pytest.raises(training.DivergenceError,
                                                          match=self.DIVERGED):
            training.evaluate_batch(params, ref, batch, cfg, 3, training.feature_pools(data))

    def test_a_positive_ref_entry_names_its_slot(self):
        # The step reads its ref block as given; check_reference, which
        # train() runs on the whole table before step 0, names a bad slot.
        data = small_dataset(n=32)
        batch = rows_tagged(data, VISUAL_RELATED)[:4]
        ref = training.reference_logprobs(training.init_policy_for(data, seed=0), batch,
                                          quick_config("modpp"))
        assert training.check_reference(ref) is ref
        ref[1, 2] = 0.25
        with pytest.raises(training.DivergenceError,
                           match=r"^reference diverged: row 2 ref_l is 0.25, not a finite "
                                 r"log-probability <= 0$"):
            training.check_reference(ref)


class TestStopGradient:
    def test_loss_of_only_detached_passes_accumulates_no_gradient(self):
        # The contract: corrupted-pass values may enter loss expressions
        # but never route upstream into backward.  evaluate_batch scores the
        # corrupted rows in the same forward as the clean ones, yet returns
        # a cache of the clean rows only, so a loss composed purely of
        # detached values has nothing to back-propagate through.
        data = small_dataset(n=8, seed=11)
        params = training.init_policy_for(data, seed=11)
        batch = rows_tagged(data, VISUAL_RELATED)[:4]
        cfg = quick_config("mod")
        pl, _, clean = training.evaluate_batch(params,
                                               training.reference_logprobs(params, batch, cfg),
                                               batch, cfg, 0, training.feature_pools(data))
        assert clean.probs.shape == (len(batch), synth.VOCAB_SIZE)
        detached_loss = -np.sum(pl.inv_w - pl.inv_l) - np.sum(pl.sens_w - pl.sens_l)
        assert np.isfinite(detached_loss)
        assert np.abs(backward(params, clean, np.zeros_like(clean.probs)).vector).max() == 0.0

    def test_detached_losses_do_not_move_parameters(self):
        # A batch whose loss depends only on detached passes: strengths on
        # the corrupted slots but a policy coefficient of zero would be
        # ill-posed, so verify instead that perturbing parameters only
        # through detached slots changes loss values but not the analytic
        # step direction beyond the clean-pass contribution.
        data = small_dataset(n=24, seed=3)
        cfg = quick_config(lr=0.05)
        ref = training.warmup_reference(data, steps=20, seed=3)
        pools = training.feature_pools(data)
        batch = rows_tagged(data, VISUAL_RELATED)[:4]
        err, _ = frozen_surrogate_rel_error(ref.copy(), ref, batch, cfg, step=0, pools=pools)
        assert err < 1e-4

    def test_audit_across_variants(self):
        data = small_dataset(n=24, seed=5)
        ref = training.warmup_reference(data, steps=20, seed=5)
        pools = training.feature_pools(data)
        batch = rows_tagged(data, AUDIO_RELATED)[:4]
        for variant in ("dpo", "mod", "modpp"):
            cfg = quick_config(variant, lr=0.05)
            err, _ = frozen_surrogate_rel_error(ref.copy(), ref, batch, cfg,
                                                step=1, pools=pools)
            assert err < 1e-4, variant


class TestCheckedStep:
    """The step skips forward's input checks and PairLogProbs' slot checks
    on the contract batch_schedule and check_reference keep.  On schedule
    batches and their block of the checked table, the same step with both
    checks put back (forward for forward_unchecked, the validating
    PairLogProbs constructor for PairLogProbs.checked) passes them and
    gives the same step, bit for bit."""

    @pytest.fixture(scope="class")
    def world(self):
        data = small_dataset(n=120, seed=2)
        return data, training.warmup_reference(data, steps=20, seed=2)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_checked_and_unchecked_steps_agree(self, world, monkeypatch, name):
        data, params = world
        cfg = make_config(name, epochs=1)
        table = training.check_reference(training.reference_logprobs(params, data, cfg))
        pools = training.feature_pools(data)
        for step, rows in enumerate(training.batch_schedule(data, cfg)[:4]):
            lean, loss, counter = train_step(params, table[:, rows], data[rows], cfg, step, pools)
            with monkeypatch.context() as checks:
                checks.setattr(training, "forward_unchecked", forward)
                checks.setattr(PairLogProbs, "checked", classmethod(lambda cls, **kw: cls(**kw)))
                checked, loss_checked, counter_checked = train_step(
                    params, table[:, rows], data[rows], cfg, step, pools)
            assert lean.to_vector().tobytes() == checked.to_vector().tobytes()
            assert loss == loss_checked and counter == counter_checked
            params = lean


class TestCorruptionIntegration:
    def test_swap_corruption_trains(self):
        data = small_dataset(n=32)
        cfg = quick_config("mod", corruption=CorruptionSpec(kind="random_swap"))
        result = training.train(data, cfg)
        assert np.all(np.isfinite(result.losses))

    def test_identity_corruption_matches_dpo_weighting(self):
        # diffusion at t=0 leaves inputs untouched, so the corrupted-pass
        # margins equal the clean ones and the decoupled margin collapses
        # to beta * (d_policy - d_ref) exactly.
        data = small_dataset(n=16, seed=7)
        ref = training.warmup_reference(data, steps=10, seed=7)
        cfg = quick_config("mod", corruption=CorruptionSpec(kind="diffusion", t=0))
        pools = training.feature_pools(data)
        batch = rows_tagged(data, VISUAL_RELATED)[:4]
        pl, _, _ = training.evaluate_batch(ref, training.reference_logprobs(ref, batch, cfg), batch,
                                           cfg, 0, pools)
        assert np.array_equal(pl.inv_w, pl.policy_w) and np.array_equal(pl.sens_l, pl.policy_l)
        margin = core.margin(pl, cfg.hp)
        vanilla = cfg.hp.beta * ((pl.policy_w - pl.policy_l) - (pl.ref_w - pl.ref_l))
        np.testing.assert_allclose(margin, vanilla, rtol=0, atol=1e-12)


class TestStepGenerators:
    def test_each_step_draws_from_its_seeded_stream(self, monkeypatch):
        # Both corruption strengths nonzero: a step's first corrupt call gets
        # the generator _rng(seed, _CORRUPT_STREAM, step) would build, and its
        # second the same stream after the first block's draws.
        data, cfg = small_dataset(n=32), quick_config("modpp", seed=4, warmup_steps=0)
        calls, real_corrupt, real_step = [], training.corrupt, training.train_step

        def recording_step(params, ref, batch, cfg, step, pools, **kw):
            calls.append((step, []))
            return real_step(params, ref, batch, cfg, step, pools, **kw)

        def recording_corrupt(x, spec, pool, rng):
            calls[-1][1].append((x.copy(), pool, rng.bit_generator.state))
            return real_corrupt(x, spec, pool, rng)

        monkeypatch.setattr(training, "train_step", recording_step)
        monkeypatch.setattr(training, "corrupt", recording_corrupt)
        training.train(data, cfg)
        assert len(calls) == 8 and all(len(blocks) == 2 for _, blocks in calls)
        for step, blocks in calls:
            want = synth._rng(cfg.seed, training._CORRUPT_STREAM, step)
            for x, pool, state in blocks:
                assert state == want.bit_generator.state
                real_corrupt(x, cfg.corruption, pool, want)

    @pytest.mark.parametrize("name", ["dpo", "lpd_only"])
    def test_a_run_without_corruption_builds_no_generator(self, monkeypatch, name):
        # beta_inv == beta_sens == 0: no step corrupts, so no step stream is seeded.
        built, real_rng, real_streams = [], training._rng, training._streams

        def rng(*key):
            built.append(key)
            return real_rng(*key)

        def streams(prefix, indices):
            built.append(prefix)
            return real_streams(prefix, indices)

        monkeypatch.setattr(training, "_rng", rng)
        monkeypatch.setattr(training, "_streams", streams)
        data = small_dataset(n=32)
        cfg = make_config(name, epochs=1, batch_size=4)
        training.train(data, cfg, ref_params=training.init_policy_for(data, 0))
        assert built and all(training._CORRUPT_STREAM not in key for key in built)


class TestPerTermPasses:
    def test_sensitivity_block_takes_the_generators_first_draws(self, monkeypatch):
        # sens_only forwards no invariance block, so its relevant-modality
        # block is the first draw of the step's generator.
        data = small_dataset(n=16, seed=7)
        cfg, step = make_config("sens_only", seed=3), 5
        params, pools = training.init_policy_for(data, seed=7), training.feature_pools(data)
        batch = rows_tagged(data, VISUAL_RELATED)[:4]
        ref = training.reference_logprobs(params, batch, cfg)
        buffers, real_forward = [], training.forward_unchecked

        def recording(params, audio, visual, prompt_ids):
            buffers.append(visual)
            return real_forward(params, audio, visual, prompt_ids)

        monkeypatch.setattr(training, "forward_unchecked", recording)
        pl, counter, _ = training.evaluate_batch(params, ref, batch, cfg, step, pools)
        assert counter == PassCounter(4, 2, 2, 0) and pl.inv_w is None and pl.text_w is None
        want = corrupt(batch.visual, cfg.corruption, pools["visual"],
                       synth._rng(cfg.seed, training._CORRUPT_STREAM, step))
        [visual] = buffers
        assert visual[len(batch):].tobytes() == want.tobytes()


class TestStepContract:
    """What train() hands each step, and what each step calls."""

    @pytest.mark.parametrize("bad", [synth.N_PROMPTS, -1])
    @pytest.mark.parametrize("warm_up", [False, True])
    def test_an_out_of_table_prompt_fails_before_step_0(self, monkeypatch, bad, warm_up):
        # The step scores its rows without forward's checks, so a bad row
        # must stop the run where forward checks every row once.
        data = small_dataset(n=32)
        ids = data.prompt_id.copy()
        ids[7] = bad
        table = synth.PairTable(**{name: getattr(data, name)
                                   for name in synth.PairTable.Row._fields if name != "prompt_id"},
                                prompt_id=ids)

        def step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training, "train_step", step)
        ref = None if warm_up else training.init_policy_for(data, 0)
        with pytest.raises(ValueError, match=rf"^prompt_id {bad} outside table of size "
                                             rf"{synth.N_PROMPTS}$"):
            training.train(table, quick_config(), ref_params=ref)

    @pytest.mark.parametrize("name", ["dpo", "modpp"])
    def test_each_step_gets_its_schedule_rows_byte_for_byte(self, monkeypatch, name):
        # train() gathers the step columns and the reference table once per
        # epoch and hands each step slices of them; over three epochs whose
        # tag groups are not whole batches, every step must still get
        # exactly dataset[rows] and the table's rows block.
        data, cfg = small_dataset(n=45, seed=3), make_config(name, epochs=3, batch_size=4)
        assert all(np.count_nonzero(data.modality_tag == tag) % cfg.batch_size
                   for tag in (VISUAL_RELATED, AUDIO_RELATED))
        ref_params = training.warmup_reference(data, 10, seed=3)
        columns = ("audio", "visual", "prompt_id", "modality_tag", "y_w", "y_l")
        received, real_step = [], training.train_step

        def recording(params, ref, batch, *args, **kwargs):
            received.append((ref.copy(), [getattr(batch, c).copy() for c in columns]))
            return real_step(params, ref, batch, *args, **kwargs)

        monkeypatch.setattr(training, "train_step", recording)
        training.train(data, cfg, ref_params=ref_params)
        table = training.check_reference(training.reference_logprobs(ref_params, data, cfg))
        schedule = training.batch_schedule(data, cfg)
        assert len(received) == len(schedule)

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        for (ref, got), rows in zip(received, schedule):
            want = data[rows]
            assert same(ref, table[:, rows])
            assert all(same(x, getattr(want, c)) for c, x in zip(columns, got))

    @pytest.mark.parametrize("name", ["dpo", "inv_only", "sens_only", "modpp"])
    def test_each_step_makes_the_calls_the_benchmark_divides_by(self, monkeypatch, name):
        data, cfg = small_dataset(n=40), make_config(name, epochs=2, batch_size=6)
        schedule = training.batch_schedule(data, cfg)
        steps = []

        def counting(attr):
            real = getattr(training, attr)

            def call(*args, **kwargs):
                steps[-1][attr] = steps[-1].get(attr, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(training, attr, call)

        for attr in ("backward", "apply_gradient_step", "pair_loss_terms", "corrupt"):
            counting(attr)
        real_step = training.train_step

        def step(*args, **kwargs):
            steps.append({"batch": len(args[2])})
            return real_step(*args, **kwargs)

        monkeypatch.setattr(training, "train_step", step)
        training.train(data, cfg, ref_params=training.init_policy_for(data, 0))
        blocks = (cfg.hp.beta_inv > 0) + (cfg.hp.beta_sens > 0)
        want = {"backward": 1, "apply_gradient_step": 1, "pair_loss_terms": 1}
        if blocks:
            want["corrupt"] = blocks
        assert steps == [{"batch": len(rows), **want} for rows in schedule]


def _sigmoid_before(x):
    """training._sigmoid as it was written before it took one divide."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Finite doubles of every magnitude, with both zeros and the subnormals.
_ANY_FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e308, 1e308]),
                        st.floats(-1e308, 1e308, allow_nan=False, allow_subnormal=True))


class TestRewrittenArithmetic:
    """Each rewritten step formula against the one it replaced, bitwise."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.lists(_ANY_FINITE, min_size=1, max_size=64))
    def test_sigmoid_takes_one_divide_and_the_same_bits(self, values):
        x = np.array(values)
        assert training._sigmoid(x).tobytes() == _sigmoid_before(x).tobytes()

    @pytest.fixture(scope="class")
    def steps(self):
        data = small_dataset(n=200, seed=4)
        return (rows_tagged(data, VISUAL_RELATED), training.warmup_reference(data, 20, seed=4),
                training.feature_pools(data))

    @settings(max_examples=40, deadline=None, database=None)
    @given(size=st.integers(1, 64), variant=st.sampled_from(sorted(VARIANT_HP)))
    def test_the_step_loss_is_the_mean_pair_loss(self, steps, size, variant):
        rows, ref, pools = steps
        batch, cfg = rows[:size], quick_config(variant)
        table = training.reference_logprobs(ref, batch, cfg)
        pl, _, _ = training.evaluate_batch(ref, table, batch, cfg, 0, pools,
                                           rng=np.random.default_rng(size))
        losses, _ = training.pair_loss_terms(pl, cfg)
        _, loss, _ = train_step(ref, table, batch, cfg, 0, pools, rng=np.random.default_rng(size))
        assert len(batch) == size and loss.hex() == float(np.mean(losses)).hex()


class TestPairLossTerms:
    def test_matches_core_losses_for_every_variant_and_tag(self):
        # Each variant's strengths, which its loss uses as given: dpo zeroes
        # corruption and debiasing, mod debiasing.
        kept = {
            "dpo": Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0),
            "mod": Hyperparams(beta=0.1, beta_inv=0.02, beta_sens=0.05, gamma_lpd=0.0),
            "modpp": Hyperparams(beta=0.1, beta_inv=0.02, beta_sens=0.05, gamma_lpd=0.05),
        }
        configs = {variant: TrainConfig(hp=hp) for variant, hp in kept.items()}
        rng = np.random.default_rng(17)
        for _ in range(200):
            pl = PairLogProbs(*(-rng.exponential(1.0, size=10)))
            for variant, cfg in configs.items():
                assert cfg.loss_variant == variant
                want_hp = kept[variant]
                loss, margin = training.pair_loss_terms(pl, cfg)
                assert loss == core.pair_terms(pl, want_hp)[0]
                assert margin == core.margin(pl, want_hp)


class TestConfigValues:
    @pytest.mark.parametrize("fields,problem", [
        ({"seed": -1}, "seed must lie in"),
        ({"seed": 0.5}, "seed must be an integer"),
        ({"batch_size": 0}, "batch_size must lie in"),
        ({"lr": True}, "lr must be a number"),
        ({"lr": float("nan")}, "lr must lie in"),
        ({"warmup_steps": -1}, "warmup_steps must lie in"),
    ])
    def test_bad_value_names_the_field(self, fields, problem):
        with pytest.raises(ConfigurationError, match=problem):
            TrainConfig(**fields)

    def test_the_warmup_step_size_is_a_constant(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "hp", "corruption", "lr", "epochs", "batch_size", "seed", "warmup_steps"]
        assert TrainConfig.warmup_lr == TrainConfig().warmup_lr == 0.5
        with pytest.raises(TypeError):
            TrainConfig(warmup_lr=0.5)


def _preset_digest():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "preset_digest.py")
    spec = importlib.util.spec_from_file_location("preset_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPresetFingerprints:
    """Every preset trains bit for bit as it did before the training step
    was trimmed: tools/preset_digest.py's sha256 over the trained and
    reference parameters and the losses, as that version printed them."""

    SHA256 = {
        "dpo": "7cbf86626f4fd91e97d057fd79788dff39efa5f4cf085b2e800c86b766a7bd5e",
        "inv_only": "28bd3f235585087b1536d4856baf6f4e69c1844e3644b65eef91fcd49a5f3eb2",
        "lpd_only": "537dc35ba7cc86f3775346322c01da6506a9aa74e9afd434ba12dd9e09d44fdd",
        "mod": "611d0d27afb1472052d6ab69af43e176b35ac26a3dc572eed9a2ce9df07078b4",
        "modpp": "9a17b9816a0a765efbe6a2b85f823503b7bdd16eb14a83a89aa531d075525b32",
        "modpp_desk": "c1bde3ffea0b54d2492dc013c293ed6eb84866304c7fabc4e9fda6a1deb5be47",
        "modpp_desk_t10": "48b85377ef5f1d6a5f7e472209aa90c1dea1306f0288f42dbd7a208f7e8a57e2",
        "modpp_diff_t10": "2601642cda53472faf324a57d18d874042ff3bfec8072fc2bc6182c71793ac2a",
        "modpp_diff_t50": "3db345078512a7c3e4e7f32774f637f6adab9c3f9469f6585813e36bfc55b342",
        "modpp_diff_t500": "9a17b9816a0a765efbe6a2b85f823503b7bdd16eb14a83a89aa531d075525b32",
        "modpp_gaussian": "deeb7103bdc5c7ea9e7cc680e8a3604b3a9f70e2959966ca1d0084bfa75abde4",
        "modpp_swap": "dad3f4906c6c189b495df46d4da63a759fcdea82dd56defcdb5a6cb67da26293",
        "modpp_zeros": "d7684410386a72e75dc282f768fe38802fbe558c984690e27edd5a94611d1758",
        "sens_only": "04911dd2eddd848cb6aa4d0665fccaabe80113d6f03b6352df21540e6a594881",
    }

    @pytest.fixture(scope="class")
    def world(self):
        digest = _preset_digest()
        return digest, synth.generate_pairs(digest.DATASET)

    def test_the_table_names_every_preset(self):
        assert sorted(self.SHA256) == sorted(PRESET_NAMES)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_the_preset_trains_bit_for_bit(self, world, name):
        digest, dataset = world
        assert digest.digest(name, dataset)["sha256"] == self.SHA256[name]
