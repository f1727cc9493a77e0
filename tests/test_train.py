"""Training loop: pass accounting, alternation, reduction, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import cli, core, synth
from modlab import train as training
from modlab.core import ConfigurationError, Hyperparams, PairLogProbs
from modlab.corrupt import CorruptionSpec
from modlab.oracles import frozen_surrogate_rel_error
from modlab.policy import backward, forward
from modlab.presets import make_config
from modlab.synth import AUDIO_RELATED, AUDIOVISUAL, VISUAL_RELATED, SynthConfig
from modlab.train import PassCounter, TrainConfig, TrainingError, train_step


def small_dataset(n=64, seed=0):
    return synth.generate_pairs(SynthConfig(n_pairs=n, n_scenes=24, seed=seed,
                                            world_seed=seed + 100))


# Each loss variant's strengths: those of the preset of that name.
VARIANT_HP = {variant: make_config(variant).hp for variant in training.LOSS_VARIANTS}


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


class TestPassCounts:
    EXPECTED = {
        "dpo": PassCounter(2, 2, 2, 0),
        "mod": PassCounter(6, 2, 2, 0),
        "modpp": PassCounter(6, 4, 2, 0),
    }

    def test_per_variant_per_step(self):
        data = small_dataset(n=40)
        for variant, expected in self.EXPECTED.items():
            cfg = quick_config(variant, warmup_steps=0)
            result = training.train(data, cfg)
            assert len(result.counters) == 10
            assert all(counter == expected for counter in result.counters)


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

    def test_mixed_batch_rejected(self):
        data = small_dataset(n=20)
        visual = rows_tagged(data, VISUAL_RELATED)[0]
        audio = rows_tagged(data, AUDIO_RELATED)[0]
        ref, cfg = training.warmup_reference(data, steps=0, seed=0), quick_config()
        with pytest.raises(TrainingError,
                           match=r"one modality tag, got \['audio_related', 'visual_related'\]"):
            train_step(ref.copy(), training.reference_logprobs(ref, [visual, audio], cfg),
                       [visual, audio], cfg, step=0)

    def test_empty_batch_rejected(self):
        data = small_dataset(n=20)
        ref = training.warmup_reference(data, steps=0, seed=0)
        with pytest.raises(TrainingError, match=r"one modality tag, got \[\]"):
            train_step(ref.copy(), training.reference_logprobs(ref, data[:0], quick_config()),
                       data[:0], quick_config(), step=0)

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
        for variant in training.LOSS_VARIANTS:
            with pytest.raises(TrainingError, match="row 5 is audiovisual"):
                training.train(table, quick_config(variant))

    def test_audiovisual_batch_rejected(self):
        data = small_dataset(n=16)
        batch = [av_pair_from(p) for p in data[:4]]
        ref = training.warmup_reference(data, steps=0, seed=0)
        for variant in training.LOSS_VARIANTS:
            cfg = quick_config(variant)
            with pytest.raises(TrainingError, match="undefined for audiovisual pairs"):
                train_step(ref.copy(), training.reference_logprobs(ref, batch, cfg), batch, cfg)

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
    """The strengths alone set the passes: dpo's when all three are zero,
    mod's when only gamma_lpd is, modpp's otherwise."""

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
        corrupting = beta_inv > 0 or beta_sens > 0 or gamma_lpd > 0
        assert counter == PassCounter(6 if corrupting else 2, 4 if gamma_lpd > 0 else 2, 2, 0)
        assert cfg.loss_variant == ("modpp" if gamma_lpd > 0 else
                                    "mod" if corrupting else "dpo")


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

    def test_non_finite_loss_fails(self):
        data = small_dataset(n=32)
        ref = training.init_policy_for(data, seed=0)
        ref.w_out[0] = np.inf  # every log-probability becomes nan
        with np.errstate(invalid="ignore"), pytest.raises(
                training.DivergenceError, match="training diverged at step 0: loss nan"):
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
        assert backward(params, clean, np.zeros_like(clean.probs)).max_abs() == 0.0

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
        err = frozen_surrogate_rel_error(ref.copy(), ref, batch, cfg, step=0, pools=pools)
        assert err < 1e-4

    def test_audit_across_variants(self):
        data = small_dataset(n=24, seed=5)
        ref = training.warmup_reference(data, steps=20, seed=5)
        pools = training.feature_pools(data)
        batch = rows_tagged(data, AUDIO_RELATED)[:4]
        for variant in ("dpo", "mod", "modpp"):
            cfg = quick_config(variant, lr=0.05)
            err = frozen_surrogate_rel_error(ref.copy(), ref, batch, cfg,
                                             step=1, pools=pools)
            assert err < 1e-4, variant


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
        from modlab.core import mod_margin
        margin = mod_margin(pl, cfg.hp)
        vanilla = cfg.hp.beta * ((pl.policy_w - pl.policy_l) - (pl.ref_w - pl.ref_l))
        np.testing.assert_allclose(margin, vanilla, rtol=0, atol=1e-12)


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
                loss, _, coef = training.pair_loss_terms(pl, cfg)
                assert loss == core.pair_terms(pl, want_hp)[0]
                assert coef == want_hp.tau


class TestConfigValues:
    @pytest.mark.parametrize("fields,problem", [
        ({"seed": -1}, "seed must lie in"),
        ({"seed": 0.5}, "seed must be an integer"),
        ({"warmup_lr": True}, "warmup_lr must be a number"),
        ({"lr": True}, "lr must be a number"),
        ({"lr": float("nan")}, "lr must lie in"),
        ({"warmup_steps": -1}, "warmup_steps must lie in"),
        ({"corruption": CorruptionSpec(seed=99)}, "corruption.seed must be 0"),
    ])
    def test_bad_value_names_the_field(self, fields, problem):
        with pytest.raises(ConfigurationError, match=problem):
            TrainConfig(**fields)
