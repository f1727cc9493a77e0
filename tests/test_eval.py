"""Metrics, parsing, shift analysis, and comparison reports."""

import hashlib

import numpy as np
import pytest

from modlab import eval as eval_mod
from modlab import synth
from modlab.corrupt import CorruptionSpec
from modlab.eval import MetricsReport, compare, loglik_shift, predict, score
from modlab.policy import init_params
from modlab.synth import EvalConfig


def _zero_params():
    """A policy whose every parameter is zero: uniform over the vocabulary."""
    params = init_params(n_prompts=synth.N_PROMPTS)
    return params.from_vector(np.zeros_like(params.vector))


def make_items(n=40, seed=0, matched_fraction=0.5):
    cfg = EvalConfig(n_items=n, n_scenes=30, matched_fraction=matched_fraction, seed=seed)
    return synth.generate_eval_items(cfg)


def item_with(ground_truth, tag="visual_related"):
    return eval_mod.item_from_record({
        "visual_scene": 0, "audio_scene": 0, "matched": True,
        "audio_feat": [0.0] * 8, "visual_feat": [0.0] * 8, "prompt_id": 0,
        "modality_tag": tag, "question_kind": "visual_presence", "ground_truth": ground_truth,
        "task_group": "adv_hallucination" if tag == "visual_related" else "vda_hallucination",
    })


class TestPredict:
    def test_argmax_between_answer_tokens_only(self):
        params = init_params(n_prompts=synth.N_PROMPTS, seed=1)
        # force a clear preference for "yes" yet an even larger distractor
        params.b[:] = 0.0
        params.b[synth.YES_ID] = 2.0
        params.b[5] = 10.0  # distractors are excluded from the decision
        assert predict(params, item_with("yes")) == "yes"

    def test_tie_breaks_toward_no(self):
        params = _zero_params()
        assert predict(params, item_with("yes")) == "no"

    def test_uniform_policy_scores_chance_on_balanced_items(self):
        items = make_items(n=200, seed=3)
        params = _zero_params()
        report = eval_mod.evaluate(params, items)
        # uniform output always parses to "no": exactly the no-stratum share
        assert report.accuracy == pytest.approx(50.0)
        assert report.hr == pytest.approx(100.0)
        assert report.pa == pytest.approx(0.0)


class TestScore:
    def test_hand_tally(self):
        items = synth.ItemTable.coerce([item_with("yes")] * 4 + [item_with("no")] * 6)
        predictions = (["yes"] * 3 + ["no"]) + (["no"] * 5 + ["yes"])
        report = score(predictions, items)
        assert report.precision == pytest.approx(75.0, abs=1e-9)
        assert report.recall == pytest.approx(83.33, abs=5e-3)
        assert report.accuracy == pytest.approx(80.0, abs=1e-9)
        assert report.f1 == pytest.approx(78.95, abs=5e-3)

    def test_all_correct(self):
        items = synth.ItemTable.coerce([item_with("yes"), item_with("no")])
        report = score(["yes", "no"], items)
        assert (report.accuracy, report.precision, report.recall, report.f1) == \
            (100.0, 100.0, 100.0, 100.0)

    def test_all_inverted_degenerates_with_flag(self):
        items = synth.ItemTable.coerce([item_with("yes"), item_with("no")])
        report = score(["no", "yes"], items)
        assert report.accuracy == 0.0 and report.precision == 0.0 and report.recall == 0.0
        assert report.f1 == 0.0
        assert report.degenerate_f1

    def test_empty_stratum_is_undefined_not_zero(self):
        items = synth.ItemTable.coerce([item_with("yes")] * 3)
        report = score(["yes", "no", "yes"], items)
        assert report.recall is None and report.hr is None
        assert report.precision == pytest.approx(100 * 2 / 3)
        assert report.f1 is None

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        items = synth.ItemTable.coerce([item_with("yes") if rng.random() < 0.5
                                        else item_with("no") for _ in range(60)])
        predictions = ["yes" if rng.random() < 0.5 else "no" for _ in range(60)]
        base = score(predictions, items)
        order = rng.permutation(60)
        shuffled = score([predictions[i] for i in order], items[order])
        assert base.as_dict() == shuffled.as_dict()

    def test_length_mismatch(self):
        with pytest.raises(eval_mod.EvalError):
            score(["yes"], synth.ItemTable.coerce([item_with("yes"), item_with("no")]))

    def test_tally_identities_on_random_tables(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            yt, nt = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            rep = MetricsReport(yes_total=yt, yes_correct=int(rng.integers(0, yt + 1)),
                                no_total=nt, no_correct=int(rng.integers(0, nt + 1)))
            assert rep.yes_correct <= rep.yes_total and rep.no_correct <= rep.no_total
            if rep.total:
                expected = 100.0 * (rep.yes_correct + rep.no_correct) / rep.total
                assert rep.accuracy == pytest.approx(expected)
            pre, rec, f1 = rep.precision, rep.recall, rep.f1
            if pre is not None and rec is not None and pre + rec > 0:
                assert f1 == pytest.approx(2 * pre * rec / (pre + rec))
                assert min(pre, rec) <= f1 <= max(pre, rec)


class TestLoglikShift:
    def test_identity_corruption_gives_zero(self):
        items = make_items(n=30, seed=7)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=2)
        stats = loglik_shift(params, items, CorruptionSpec(kind="diffusion", t=0), "relevant", 0)
        assert np.allclose(stats.deltas, 0.0)
        assert stats.mean == 0.0 and stats.mean_abs == 0.0

    def test_zero_parameter_policy_shows_no_shift(self):
        items = make_items(n=30, seed=8)
        params = _zero_params()
        stats = loglik_shift(params, items, CorruptionSpec(kind="gaussian"), "irrelevant", 0)
        assert np.allclose(stats.deltas, 0.0)

    def test_histogram_layout(self):
        items = make_items(n=50, seed=9)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=3)
        stats = loglik_shift(params, items, CorruptionSpec(kind="gaussian"), "relevant", 1)
        assert stats.histogram.shape == (eval_mod.SHIFT_HISTOGRAM_BINS + 2,)
        assert stats.bin_edges[0] == -5.0 and stats.bin_edges[-1] == 5.0
        assert len(stats.bin_edges) == eval_mod.SHIFT_HISTOGRAM_BINS + 1
        assert stats.histogram.sum() == 50

    def test_deterministic(self):
        items = make_items(n=20, seed=10)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=4)
        spec = CorruptionSpec(kind="diffusion", t=300)
        a = loglik_shift(params, items, spec, "relevant", 11)
        b = loglik_shift(params, items, spec, "relevant", 11)
        assert np.array_equal(a.deltas, b.deltas)

    def test_random_swap_draws_from_the_items_without_pools(self):
        items = make_items(n=30, seed=12)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=5)
        spec = CorruptionSpec(kind="random_swap")
        for which in ("relevant", "irrelevant"):
            stats = loglik_shift(params, items, spec, which, 6)
            assert np.abs(stats.deltas).max() > 0

    def test_the_seed_fixes_the_draws(self):
        items = make_items(n=20, seed=10)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=4)
        spec = CorruptionSpec(kind="gaussian")
        deltas = {seed: loglik_shift(params, items, spec, "relevant", seed).deltas
                  for seed in (0, 1)}
        assert not np.array_equal(deltas[0], deltas[1])
        [row] = compare([("m", params)], items, shift_spec=spec, seed=1)
        assert row.shift_relevant.deltas.tobytes() == deltas[1].tobytes()

    def test_which_argument_validated(self):
        with pytest.raises(eval_mod.EvalError):
            loglik_shift(init_params(n_prompts=synth.N_PROMPTS), make_items(n=4),
                         CorruptionSpec(), "sideways", 0)


class TestShiftPinnedBytes:
    """sha256 of the shift analysis's deltas for every corruption kind and
    both roles, on one small generated world and an initialized policy,
    drawn from seed 7.  Taken while the spec still carried its own seed and
    gaussian scale; the values hold for the numpy build of the host they
    were taken on."""

    SHA256 = {
        ("zeros", "relevant"): "224aab25d05c1f76c54f8771145d53941990e38afa2de5a4dd0691d43f8cf0f8",
        ("zeros", "irrelevant"):
            "69093860cae32f8108e10e0bde996938d45a5b4d06b9aabbe87b61efef31ce73",
        ("gaussian", "relevant"):
            "019a31e7ff43f2050b4be7357319a8e0ca183459cef39c2a86c3a75ba5c34aa6",
        ("gaussian", "irrelevant"):
            "ca5e11e0eb20e27dff45e3ab1367cc9a4e59f7f0e16c474f728e56db54fa4903",
        ("random_swap", "relevant"):
            "aa2717ed0ed02ccd1c3af60ec7899ccd21105401d4a2b0fa10f824ab980e732f",
        ("random_swap", "irrelevant"):
            "51751d08dd64fdc5494357bffc942c48eab27315f25f92389ff032a6531ec8a1",
        ("diffusion", "relevant"):
            "e59c1c0bc92184948b7eb4cb55b107ae90502c6dfcd5117b330821720d912a8d",
        ("diffusion", "irrelevant"):
            "a0d07ed8fde0afba96a04f1d1622fca1a5631b43a889cbe49235bed125a01ee8",
    }

    @pytest.mark.parametrize("kind,which", list(SHA256))
    def test_deltas_are_the_pinned_bytes(self, kind, which):
        items = synth.generate_eval_items(EvalConfig(n_items=48, n_scenes=16, matched_fraction=0.5,
                                                     seed=31, world_seed=131))
        params = init_params(n_prompts=synth.N_PROMPTS, seed=32)
        deltas = loglik_shift(params, items, CorruptionSpec(kind=kind), which, 7).deltas
        assert deltas.shape == (48,) and deltas.dtype == np.float64
        assert hashlib.sha256(deltas.tobytes()).hexdigest() == self.SHA256[kind, which]


class TestCompare:
    def test_single_model_matches_direct_scoring(self):
        items = make_items(n=40, seed=12)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=5)
        rows = compare([("model", params)], items)
        direct = eval_mod.evaluate(params, items)
        assert rows[0].group_reports["overall"].as_dict() == direct.as_dict()

    def test_identical_checkpoints_identical_rows(self):
        items = make_items(n=40, seed=13)
        params = init_params(n_prompts=synth.N_PROMPTS, seed=6)
        rows = compare([("a", params), ("b", params.copy())], items,
                       shift_spec=CorruptionSpec(kind="diffusion", t=100), seed=2)
        a, b = rows
        for group in a.group_reports:
            assert a.group_reports[group].as_dict() == b.group_reports[group].as_dict()
        assert a.shift_relevant.mean_abs == b.shift_relevant.mean_abs

    def test_requires_a_model(self):
        with pytest.raises(eval_mod.EvalError):
            compare([], make_items(n=4))

    def test_artifacts_written(self, tmp_path):
        items = make_items(n=30, seed=14)
        rows = compare([("m", init_params(n_prompts=synth.N_PROMPTS, seed=7))], items,
                       shift_spec=CorruptionSpec(), seed=3)
        csv_path = tmp_path / "cmp.csv"
        eval_mod.comparison_to_csv(rows, csv_path)
        table = eval_mod.comparison_table(rows)
        assert csv_path.exists() and "overall" in csv_path.read_text()
        assert "model" in table and "overall" in table
        hist_path = tmp_path / "hist.csv"
        eval_mod.shift_histogram_to_file(rows[0].shift_relevant, hist_path)
        lines = hist_path.read_text().splitlines()
        assert len(lines) == 1 + eval_mod.SHIFT_HISTOGRAM_BINS + 2


class TestItemLoading:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "items.jsonl"
        synth.assemble_eval_items(EvalConfig(n_items=20, n_scenes=15, seed=15), path)
        items = eval_mod.load_eval_items(path)
        assert len(items) == 20
        assert set(items.ground_truth) <= {synth.YES_ID, synth.NO_ID}

    def test_invalid_record_rejected(self):
        with pytest.raises(eval_mod.EvalError):
            eval_mod.item_from_record({
                "audio_feat": [0.0], "visual_feat": [0.0], "prompt_id": 0,
                "modality_tag": "visual_related", "question_kind": "visual_presence",
                "ground_truth": "maybe", "task_group": "adv_hallucination",
            })

    @pytest.mark.parametrize("key,value", [
        ("prompt_id", True), ("prompt_id", 2.7), ("prompt_id", 99), ("prompt_id", -1),
        ("prompt_id", "3"), ("audio_feat", [float("nan")] + [0.0] * 7),
        ("visual_feat", [0.0] * 7 + [float("inf")]), ("audio_feat", [[0.0] * 8]),
        ("visual_feat", 0.5), ("audio_feat", "loud"),
        ("audio_feat", ["0.5"] + [0.0] * 7), ("visual_feat", [True] + [0.0] * 7),
        ("audio_feat", [10 ** 400] + [0.0] * 7),
    ])
    def test_bad_prompt_or_features_rejected_naming_the_field(self, key, value):
        rec = synth.generate_eval_records(EvalConfig(n_items=2, n_scenes=4, seed=3))[0]
        eval_mod.item_from_record(rec)
        with pytest.raises(eval_mod.EvalError, match=f"^{key} "):
            eval_mod.item_from_record({**rec, key: value})


class TestDegenerateFlag:
    def test_set_by_the_tallies_before_f1_is_read(self):
        report = MetricsReport(yes_total=2, yes_correct=0, no_total=3, no_correct=0)
        assert report.degenerate_f1
        assert report.f1 == 0.0

    @pytest.mark.parametrize("tallies", [
        dict(yes_total=2, yes_correct=1, no_total=3, no_correct=0),
        dict(yes_total=0, yes_correct=0, no_total=3, no_correct=0),
        dict(),
    ])
    def test_clear_unless_both_strata_score_zero(self, tallies):
        assert not MetricsReport(**tallies).degenerate_f1
