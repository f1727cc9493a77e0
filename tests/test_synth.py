"""World oracle, taxonomy, pair construction, dataset round-trips."""

import json

import numpy as np
import pytest

from modlab import synth
from modlab.synth import (
    NO_ID,
    YES_ID,
    Entity,
    EvalConfig,
    SynthConfig,
    WorldError,
    answer_for,
    assemble_dataset,
    build_pair,
    classify_entity,
    generate_pairs,
    generate_scenes,
    kind_of,
    verify_dataset,
)


class TestEntity:
    def test_invariant(self):
        with pytest.raises(WorldError):
            Entity(0, visible=False, sounding=False)

    def test_kind_partition(self):
        kinds = [kind_of(k) for k in range(synth.N_ENTITY_KINDS)]
        assert kinds.count("object") == synth.N_OBJECT_KINDS
        assert set(kinds) == {"object", "pure_sound"}

    def test_kind_out_of_range(self):
        with pytest.raises(WorldError):
            kind_of(synth.N_ENTITY_KINDS)


class TestTaxonomy:
    def test_enumerated_object_categories(self):
        assert classify_entity(Entity(0, True, True), "object") == "in_view_sound_source"
        assert classify_entity(Entity(0, True, False), "object") == "in_view_silent_object"
        assert classify_entity(Entity(0, False, True), "object") == "out_of_view_sound_source"

    def test_enumerated_pure_sound_categories(self):
        assert classify_entity(Entity(4, True, True), "pure_sound") == "in_view_sound"
        assert classify_entity(Entity(4, False, True), "pure_sound") == "out_of_view_sound"

    def test_silent_pure_sound_rejected(self):
        with pytest.raises(WorldError):
            classify_entity(Entity(4, True, False), "pure_sound")

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorldError):
            classify_entity(Entity(0, True, True), "hologram")

    def test_mapping_is_total_over_the_five_categories(self):
        seen = set()
        for visible in (True, False):
            for sounding in (True, False):
                for kind in ("object", "pure_sound"):
                    try:
                        seen.add(classify_entity(Entity(0, visible, sounding), kind))
                    except WorldError:
                        pass
        assert seen == set(synth.ENTITY_CATEGORIES)


class TestAnswerTable:
    def test_visual_presence(self):
        assert answer_for("in_view_sound_source", "visual_presence") == "yes"
        assert answer_for("out_of_view_sound_source", "visual_presence") == "no"
        assert answer_for("out_of_view_sound", "visual_presence") == "no"
        assert answer_for("in_view_silent_object", "visual_presence") is None
        assert answer_for("in_view_sound", "visual_presence") is None

    def test_audio_presence(self):
        assert answer_for("in_view_sound_source", "audio_presence") == "yes"
        assert answer_for("in_view_sound", "audio_presence") == "yes"
        assert answer_for("in_view_silent_object", "audio_presence") == "no"
        assert answer_for("out_of_view_sound_source", "audio_presence") is None
        assert answer_for("out_of_view_sound", "audio_presence") is None

    def test_unknown_category_rejected(self):
        with pytest.raises(WorldError):
            answer_for("in_view_ghost", "audio_presence")


class TestScenes:
    def test_deterministic(self):
        a = generate_scenes(10, seed=3, world_seed=7)
        b = generate_scenes(10, seed=3, world_seed=7)
        for s1, s2 in zip(a, b):
            assert s1.entities == s2.entities
            assert np.array_equal(s1.audio_feat, s2.audio_feat)

    def test_entity_count_bounds(self):
        for scene in generate_scenes(50, seed=5, world_seed=7):
            assert 1 <= len(scene.entities) <= 4

    def test_features_reflect_active_entities(self):
        # Without noise, the audio feature is exactly the sum of sounding
        # signatures; with default noise it stays within a tight ball.
        scenes = generate_scenes(20, seed=9, world_seed=11, feature_noise=1e-12)
        audio_sigs, visual_sigs = synth.build_signatures(11)
        for scene in scenes:
            expected = sum((audio_sigs[e.entity_id] for e in scene.entities if e.sounding),
                           np.zeros(synth.FEATURE_DIM))
            np.testing.assert_allclose(scene.audio_feat, expected, atol=1e-9)

    def test_per_modality_noise(self):
        quiet = generate_scenes(5, seed=1, world_seed=7, feature_noise=(1e-12, 5.0))
        loud_visual = np.mean([np.linalg.norm(s.visual_feat) for s in quiet])
        assert loud_visual > 5.0


class TestBuildPair:
    def setup_method(self):
        self.scenes = generate_scenes(40, seed=13, world_seed=7)

    def test_matched_pair_flags(self):
        rng = np.random.default_rng(0)
        for scene in self.scenes:
            pair = build_pair(scene, scene, "audio_presence", rng)
            if pair is not None:
                assert pair.matched
                assert (pair.visual_scene, pair.audio_scene) == (scene.scene_id, scene.scene_id)
                break
        else:
            pytest.fail("no eligible audio_presence pair found")

    def test_visible_only_entity_audio_question(self):
        # visible & silent object: chosen answer no, rejected asserts the
        # sound that the visual presence suggests.
        sigs = synth.build_signatures(7)
        scene = synth.Scene(0, (Entity(1, True, False),),
                            *(np.zeros(8), sigs[1][1]))
        pair = build_pair(scene, scene, "audio_presence", np.random.default_rng(1))
        assert pair.y_w == NO_ID and pair.y_l == YES_ID

    def test_mismatched_sounding_absent_visual(self):
        # audio scene sounds a kind the visual scene does not show at all:
        # the visual ground truth refutes it and the rejected response is
        # the audio-suggested yes.
        sigs = synth.build_signatures(7)
        visual_scene = synth.Scene(0, (Entity(0, True, True),), np.zeros(8), sigs[1][0])
        audio_scene = synth.Scene(1, (Entity(2, False, True),), sigs[0][2], np.zeros(8))
        pair = build_pair(visual_scene, audio_scene, "visual_presence",
                          np.random.default_rng(2))
        assert synth.EVAL_QUESTION_KINDS[pair.question_kind] == "visual_presence"
        assert pair.y_w == NO_ID and pair.y_l == YES_ID
        assert not pair.matched

    def test_rejected_always_differs(self):
        rng = np.random.default_rng(3)
        emitted = 0
        for qk in ("visual_presence", "audio_presence", "visual_caption", "audio_caption"):
            for i in range(0, 30, 2):
                pair = build_pair(self.scenes[i], self.scenes[i + 1], qk, rng)
                if pair is not None:
                    emitted += 1
                    assert pair.y_w != pair.y_l
        assert emitted > 20

    def test_skip_signal(self):
        # A silent, visible-only scene offers no visual-presence target
        # (those require an audible entity).
        sigs = synth.build_signatures(7)
        scene = synth.Scene(0, (Entity(1, True, False),), np.zeros(8), sigs[1][1])
        assert build_pair(scene, scene, "visual_presence", np.random.default_rng(0)) is None

    def test_caption_pair_targets_relevant_modality(self):
        rng = np.random.default_rng(4)
        for scene in self.scenes:
            pair = build_pair(scene, scene, "visual_caption", rng)
            if pair is None:
                continue
            visible = scene.visible_kinds
            assert pair.y_w == synth.caption_slot(visible)
            assert pair.y_l != pair.y_w
            assert pair.prompt_id == synth.VISUAL_CAPTION_PROMPT
            break

    def test_prompt_and_tag_consistency(self):
        rng = np.random.default_rng(5)
        pair = None
        for scene in self.scenes:
            pair = build_pair(scene, scene, "audio_presence", rng)
            if pair is not None:
                break
        assert synth.MODALITY_TAGS[pair.modality_tag] == "audio_related"
        target = pair.prompt_id - synth.AUDIO_PRESENCE_BASE
        assert 0 <= target < synth.N_ENTITY_KINDS


class TestDatasetAssembly:
    def test_all_matched_when_ratio_one(self, tmp_path):
        path = tmp_path / "d.jsonl"
        stats = assemble_dataset(SynthConfig(n_pairs=100, n_scenes=30, matched_fraction=1.0,
                                             seed=3), path)
        assert stats["n_records"] == 100
        assert stats["matched_records"] == 100
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 100 and all(rec["matched"] for rec in records)

    def test_desk_scale_stats(self, tmp_path):
        path = tmp_path / "d.jsonl"
        stats = assemble_dataset(SynthConfig(n_pairs=2000, n_scenes=500, seed=0), path)
        assert stats["n_records"] == 2000
        assert len(stats["question_kind_counts"]) >= 2
        assert abs(stats["matched_ratio"] - 0.5) <= 1.0 / 2000

    def test_matched_ratio_within_one_sample(self):
        for ratio in (0.25, 0.5, 0.8):
            pairs = generate_pairs(SynthConfig(n_pairs=201, n_scenes=60,
                                               matched_fraction=ratio, seed=1))
            matched = sum(p.matched for p in pairs)
            assert abs(matched - 201 * ratio) <= 1.0

    def test_task_mix_controlled(self):
        pairs = generate_pairs(SynthConfig(n_pairs=400, n_scenes=60,
                                           presence_fraction=0.75, seed=2))
        presence = sum(synth.EVAL_QUESTION_KINDS[p.question_kind].endswith("presence")
                       for p in pairs)
        assert presence == 300

    def test_deterministic_bytes(self, tmp_path):
        cfg = SynthConfig(n_pairs=150, n_scenes=40, seed=9)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assemble_dataset(cfg, p1)
        assemble_dataset(cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_field_order_is_the_documented_one(self, tmp_path):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=5, n_scenes=10, seed=0), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert tuple(first.keys()) == synth.RECORD_FIELDS

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        cfg = SynthConfig(n_pairs=50, n_scenes=20, seed=4)
        assemble_dataset(cfg, path)
        loaded = synth.load_pairs(path)
        original = generate_pairs(cfg)
        assert len(loaded) == 50
        for a, b in zip(loaded, original):
            assert a.y_w == b.y_w and a.y_l == b.y_l and a.matched == b.matched
            assert np.array_equal(a.audio, b.audio)

    def test_infeasible_config_rejected(self):
        with pytest.raises(WorldError):
            SynthConfig(n_pairs=0, n_scenes=10)
        with pytest.raises(WorldError):
            SynthConfig(n_pairs=10, n_scenes=1, matched_fraction=0.5)


class TestVerifyDataset:
    def test_round_trip_zero_violations(self, tmp_path):
        for seed in range(3):
            path = tmp_path / f"d{seed}.jsonl"
            assemble_dataset(SynthConfig(n_pairs=300, n_scenes=60, seed=seed), path)
            report = verify_dataset(path)
            assert report.n_records == 300
            assert report.n_violations == 0
            assert not report.parse_errors

    def test_single_swap_fault_detected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=120, n_scenes=40, seed=5), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[17])
        rec["y_w"], rec["y_l"] = rec["y_l"], rec["y_w"]
        lines[17] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert {line for line, _ in report.violations} == {18}

    def test_tampered_features_detected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=50, n_scenes=20, seed=6), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["audio_feat"][0] += 1.0
        lines[0] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert any(line == 1 for line, _ in report.violations)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        report = verify_dataset(path)
        assert report.n_records == 0 and report.n_violations == 0 and report.ok

    def test_feature_faults_flag_exactly_their_lines(self, tmp_path):
        # The features of all lines are compared in one vectorized pass per
        # modality; a 1e-3 relative change must still land on its own line.
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=40, n_scenes=20, seed=12), path)
        lines = path.read_text().splitlines()
        for index, field, k in ((4, "audio_feat", 0), (8, "visual_feat", 3)):
            rec = json.loads(lines[index])
            rec[field][k] *= 1.0 + 1e-3
            lines[index] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert report.violations == [(5, "audio features do not match the referenced scene"),
                                     (9, "visual features do not match the referenced scene")]
        assert not report.parse_errors and report.n_records == 40

    def test_ragged_feature_line_reported_on_its_own_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=13), path)
        lines = path.read_text().splitlines()
        for index in (3, 11):
            rec = json.loads(lines[index])
            rec["audio_feat"] = rec["audio_feat"][:7]
            lines[index] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert report.violations == [(4, "audio_feat has 7 values, expected 8"),
                                     (12, "audio_feat has 7 values, expected 8")]
        assert report.n_records == 20 and not report.parse_errors

    def test_blank_lines_count_as_in_read_records(self, tmp_path):
        # Two blank lines on top, then a y_w/y_l swap on physical line 9.
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=7), path)
        lines = ["", ""] + path.read_text().splitlines()
        rec = json.loads(lines[8])
        rec["y_w"], rec["y_l"] = rec["y_l"], rec["y_w"]
        lines[8] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert {line for line, _ in report.violations} == {9}
        assert report.n_records == 20 and not report.parse_errors

    def test_values_of_the_wrong_type_flagged(self, tmp_path):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=7), path)
        lines = path.read_text().splitlines()
        edits = {2: ("y_w", lambda v: v + 0.9), 5: ("prompt_id", str),
                 9: ("matched", lambda v: "yes" if v else "no")}
        for index, (key, edit) in edits.items():
            rec = json.loads(lines[index])
            rec[key] = edit(rec[key])
            lines[index] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert [line for line, _ in report.violations] == [3, 6, 10]
        assert [reason.split()[0] for _, reason in report.violations] == [
            "y_w", "prompt_id", "matched"]
        assert all(reason.endswith(("not an integer", "not a boolean"))
                   for _, reason in report.violations)

    def test_parse_errors_reported_per_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=7), path)
        lines = path.read_text().splitlines()
        lines[4] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert report.n_records == 19
        assert [line for line, _ in report.parse_errors] == [5]
        assert report.n_violations == 0


def _write_lines(tmp_path, edits, n_pairs=12):
    """A generated dataset file with some lines replaced (0-based index ->
    function of the decoded record, returning a record or raw text)."""
    path = tmp_path / "d.jsonl"
    assemble_dataset(SynthConfig(n_pairs=n_pairs, n_scenes=10, seed=3), path)
    lines = path.read_text().splitlines()
    for index, edit in edits.items():
        new = edit(json.loads(lines[index]))
        lines[index] = new if isinstance(new, str) else json.dumps(new)
    path.write_text("\n".join(lines) + "\n")
    return path


def _with(**fields):
    return lambda rec: {**rec, **fields}


class TestColumnValidation:
    @pytest.mark.parametrize("edit,problem", [
        (lambda rec: {**rec, "audio_feat": rec["audio_feat"][:7]},
         "audio_feat has 7 values, expected 8"),
        (lambda rec: {**rec, "visual_feat": rec["visual_feat"] + [0.5]},
         "visual_feat has 9 values, expected 8"),
        (lambda rec: {**rec, "audio_feat": "loud"}, "audio_feat is not a list of numbers"),
        (lambda rec: json.dumps(rec).replace(str(rec["visual_feat"][2]), "NaN", 1),
         "visual_feat holds a non-finite value"),
        (_with(prompt_id=15), "prompt_id 15 outside [0, 15)"),
        (_with(prompt_id="first"), "prompt_id 'first' is not an integer"),
        (_with(y_w=8), "y_w 8 outside [0, 8)"),
        (_with(y_l=-1), "y_l -1 outside [0, 8)"),
        (lambda rec: {**rec, "y_l": rec["y_w"]}, "chosen and rejected responses must differ"),
        (lambda rec: {**rec, "matched": not rec["matched"]},
         "matched flag inconsistent with scene_refs"),
        (_with(modality_tag="olfactory"), "modality_tag must be one of"),
        (_with(question_kind="smell_presence"), "question_kind must be one of"),
        (lambda rec: {k: v for k, v in rec.items() if k != "y_l"}, "missing field 'y_l'"),
        (lambda rec: "[1, 2]", "not a JSON object"),
        (_with(y_w=1.9), "y_w 1.9 is not an integer"),
        (_with(prompt_id="9"), "prompt_id '9' is not an integer"),
        (_with(y_l=True), "y_l True is not an integer"),
        (_with(visual_scene=2.0), "visual_scene 2.0 is not an integer"),
        (_with(audio_scene=None), "audio_scene None is not an integer"),
        (_with(matched="no"), "matched 'no' is not a boolean"),
        (_with(matched=1), "matched 1 is not a boolean"),
    ])
    def test_first_bad_line_named_with_its_field(self, tmp_path, edit, problem):
        path = _write_lines(tmp_path, {5: edit})
        with pytest.raises(WorldError) as err:
            synth.load_pairs(path)
        assert str(err.value).startswith(f"{path}, line 6: {problem}"), str(err.value)

    def test_earliest_line_wins_across_fields_and_parse_errors(self, tmp_path):
        path = _write_lines(tmp_path, {2: _with(y_w=99), 4: _with(modality_tag="x"),
                                       7: lambda rec: "{not json"})
        with pytest.raises(WorldError, match=r"line 3: y_w 99 outside \[0, 8\)"):
            synth.load_pairs(path)
        path = _write_lines(tmp_path, {6: lambda rec: "{not json", 9: _with(y_w=99)})
        with pytest.raises(WorldError, match="line 7: invalid JSON"):
            synth.load_pairs(path)

    def test_blank_lines_count(self, tmp_path):
        path = _write_lines(tmp_path, {4: _with(y_l=-1)})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n")
        with pytest.raises(WorldError, match="line 7: y_l -1"):
            synth.load_pairs(path)

    def test_eval_item_columns(self, tmp_path):
        path = tmp_path / "items.jsonl"
        synth.assemble_eval_items(EvalConfig(n_items=10, n_scenes=15, seed=2), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["ground_truth"] = "maybe"
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        expected = r"line 4: ground_truth must be one of \('yes', 'no'\), got 'maybe'"
        with pytest.raises(WorldError, match=expected):
            synth.read_records(path, synth.ItemTable)


class TestEvalItems:
    def test_balanced_ground_truth(self, tmp_path):
        path = tmp_path / "items.jsonl"
        stats = synth.assemble_eval_items(EvalConfig(n_items=500, n_scenes=100, seed=8), path)
        assert stats["answer_balance"]["yes"] == 250
        assert stats["answer_balance"]["no"] == 250
        assert stats["n_records"] == 500

    def test_presence_groups(self, tmp_path):
        path = tmp_path / "items.jsonl"
        stats = synth.assemble_eval_items(EvalConfig(n_items=200, n_scenes=80, seed=9), path)
        groups = stats["task_group_counts"]
        assert set(groups) <= {"adv_hallucination", "vda_hallucination"}
        assert sum(groups.values()) == 200

    def test_optional_groups(self, tmp_path):
        path = tmp_path / "items.jsonl"
        cfg = EvalConfig(n_items=200, n_scenes=80, matching_fraction=0.1,
                         dominance_fraction=0.1, seed=10)
        stats = synth.assemble_eval_items(cfg, path)
        assert stats["task_group_counts"]["matching"] == 20
        assert stats["task_group_counts"]["dominance"] == 20

    def test_ground_truth_consistent_with_world(self, tmp_path):
        path = tmp_path / "items.jsonl"
        cfg = EvalConfig(n_items=300, n_scenes=100, seed=11)
        synth.assemble_eval_items(cfg, path)
        scenes = generate_scenes(cfg.n_scenes, cfg.seed, cfg.world_seed)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            qk = rec["question_kind"]
            if not qk.endswith("presence"):
                continue
            base = (synth.VISUAL_PRESENCE_BASE if qk == "visual_presence"
                    else synth.AUDIO_PRESENCE_BASE)
            target = rec["prompt_id"] - base
            visual = scenes[rec["visual_scene"]]
            audio = scenes[rec["audio_scene"]]
            if rec["task_group"] == "dominance":
                assert rec["ground_truth"] == "no"
                continue
            candidates = dict(synth.presence_candidates(visual, audio, qk))
            assert candidates[target] == rec["ground_truth"]
