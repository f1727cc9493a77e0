"""World oracle, taxonomy, pair construction, dataset round-trips."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import synth
from modlab.synth import (
    NO_ID,
    YES_ID,
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


def _pool(*scenes):
    """A Scenes table of (visible kinds, sounding kinds, audio, visual) rows."""
    def mask(kinds):
        return sum(1 << k for k in kinds)
    visible, sounding, audio, visual = zip(*scenes)
    return synth.Scenes(np.array([mask(v) for v in visible]), np.array([mask(s) for s in sounding]),
                        np.stack(audio), np.stack(visual))


def _kinds(mask):
    return [k for k in range(synth.N_ENTITY_KINDS) if int(mask) >> k & 1]


class TestEntity:
    def test_invariant(self):
        with pytest.raises(WorldError):
            classify_entity(visible=False, sounding=False, kind=kind_of(0))

    def test_kind_partition(self):
        kinds = [kind_of(k) for k in range(synth.N_ENTITY_KINDS)]
        assert kinds.count("object") == synth.N_OBJECT_KINDS
        assert set(kinds) == {"object", "pure_sound"}

    def test_kind_out_of_range(self):
        with pytest.raises(WorldError):
            kind_of(synth.N_ENTITY_KINDS)


class TestTaxonomy:
    def test_enumerated_object_categories(self):
        assert classify_entity(True, True, "object") == "in_view_sound_source"
        assert classify_entity(True, False, "object") == "in_view_silent_object"
        assert classify_entity(False, True, "object") == "out_of_view_sound_source"

    def test_enumerated_pure_sound_categories(self):
        assert classify_entity(True, True, "pure_sound") == "in_view_sound"
        assert classify_entity(False, True, "pure_sound") == "out_of_view_sound"

    def test_silent_pure_sound_rejected(self):
        with pytest.raises(WorldError):
            classify_entity(True, False, "pure_sound")

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorldError):
            classify_entity(True, True, "hologram")

    def test_mapping_is_total_over_the_five_categories(self):
        seen = set()
        for visible in (True, False):
            for sounding in (True, False):
                for kind in ("object", "pure_sound"):
                    try:
                        seen.add(classify_entity(visible, sounding, kind))
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


def _draws(rng):
    """One of each kind of draw the world generators make, in a fixed order."""
    k = int(rng.integers(1, 5))
    items = list(range(7))
    rng.shuffle(items)
    return [k, float(rng.random()), rng.choice(6, k, replace=False).tolist(),
            rng.standard_normal(8).tolist(), items, int(rng.integers(2 ** 40))]


class TestStreams:
    """synth._streams seeds many streams at once; synth._rng defines each."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(prefix=st.lists(st.integers(0, 2 ** 64 - 1), max_size=4),
           indices=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5))
    def test_streams_equal_rng_bitwise(self, prefix, indices):
        for i, rng in zip(indices, synth._streams(prefix, indices), strict=True):
            reference = synth._rng(*prefix, i)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert _draws(rng) == _draws(reference)

    @pytest.mark.parametrize("prefix, indices", [
        ((0, 1), [2 ** 32]), ((0, 1), [3, -1]), ((0,), [2 ** 64]), ((0,), [1.0]),
        ((-1,), [0]), ((5, -2 ** 40), [0])])
    def test_key_out_of_range_raises(self, prefix, indices):
        with pytest.raises(ValueError):
            synth._streams(prefix, indices)

    def test_a_yielded_generator_lasts_until_the_next_draw(self):
        streams = synth._streams((3, 1), range(2))
        first = next(streams)
        second = next(streams)
        assert second is first
        assert first.bit_generator.state == synth._rng(3, 1, 1).bit_generator.state


class TestScenes:
    def test_deterministic(self):
        a = generate_scenes(10, seed=3, world_seed=7)
        b = generate_scenes(10, seed=3, world_seed=7)
        for s in range(10):
            assert (a.visible[s], a.sounding[s]) == (b.visible[s], b.sounding[s])
            assert np.array_equal(a.audio[s], b.audio[s])

    def test_entity_count_bounds(self):
        scenes = generate_scenes(50, seed=5, world_seed=7)
        for entities in scenes.visible | scenes.sounding:
            assert 1 <= len(_kinds(entities)) <= 4

    def test_features_reflect_active_entities(self):
        # Without noise, the audio feature is exactly the sum of sounding
        # signatures; with default noise it stays within a tight ball.
        scenes = generate_scenes(20, seed=9, world_seed=11, feature_noise=1e-12)
        audio_sigs, visual_sigs = synth.build_signatures(11)
        for sounding, audio_feat in zip(scenes.sounding, scenes.audio):
            expected = sum((audio_sigs[k] for k in _kinds(sounding)),
                           np.zeros(synth.FEATURE_DIM))
            np.testing.assert_allclose(audio_feat, expected, atol=1e-9)

    def test_per_modality_noise(self):
        quiet = generate_scenes(5, seed=1, world_seed=7, feature_noise=(1e-12, 5.0))
        loud_visual = np.mean([np.linalg.norm(visual_feat) for visual_feat in quiet.visual])
        assert loud_visual > 5.0


class TestScenePool:
    """_scenes_of keeps the last pool it built, keyed by the WORLD values."""

    def test_arrays_are_read_only(self):
        scenes = synth._scenes_of(SynthConfig(n_scenes=12, seed=4))
        for column in (scenes.visible, scenes.sounding, scenes.audio, scenes.visual):
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            scenes.audio[0, 0] = 1.0

    def test_a_pool_is_kept_for_its_world_alone(self):
        world = dict(n_scenes=12, seed=4, world_seed=7, matched_bias=0.5, feature_noise=0.05)
        other = dict(n_scenes=13, seed=5, world_seed=8, matched_bias=0.6, feature_noise=0.1)
        pool = synth._scenes_of(SynthConfig(**world))
        assert synth._scenes_of(EvalConfig(**world)) is pool
        for name in synth.WORLD:
            assert synth._scenes_of(SynthConfig(**{**world, name: other[name]})) is not pool

    def test_verifying_another_world_between_gives_the_memo_free_reports(self, tmp_path):
        worlds = {"a": SynthConfig(n_pairs=40, n_scenes=15, seed=1),
                  "b": SynthConfig(n_pairs=40, n_scenes=15, seed=1, world_seed=9)}
        paths = {}
        for name, cfg in worlds.items():
            path = paths[name] = tmp_path / f"{name}.jsonl"
            assemble_dataset(cfg, path)
            lines = path.read_text().splitlines()
            rec = json.loads(lines[2])
            rec["audio_feat"][0] += 1.0  # a report that depends on the pool
            lines[2] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")

        def memo_free(path):
            synth._LAST_POOL.clear()
            return verify_dataset(path)

        expected = {name: memo_free(path) for name, path in paths.items()}
        assert expected["a"].violations == [(3, "audio features do not match the referenced scene")]
        synth._scenes_of(worlds["a"])
        assert verify_dataset(paths["b"]) == expected["b"]
        assert verify_dataset(paths["a"]) == expected["a"]

    def test_generate_scenes_still_takes_lists(self):
        bias, noise = [0.2, 0.4, 0.6, 0.8, 0.5, 0.3], [0.05, 0.2]
        listed = generate_scenes(12, 4, 7, matched_bias=bias, feature_noise=noise)
        pooled = synth._scenes_of(SynthConfig(n_scenes=12, seed=4, matched_bias=bias,
                                              feature_noise=noise))
        for name in ("visible", "sounding", "audio", "visual"):
            assert np.array_equal(getattr(listed, name), getattr(pooled, name))


def _pair(scenes, visual_scene, audio_scene, question_kind, rng):
    """The one-row PairTable generate_pairs assembles from build_pair's
    labels, or None when build_pair finds no target."""
    labels = build_pair(scenes, visual_scene, audio_scene, question_kind, rng)
    if labels is None:
        return None
    row = (visual_scene, audio_scene, synth.QUESTION_KINDS.index(question_kind), *labels)
    return synth._generated(synth.PairTable, scenes, [row])[0]


class TestBuildPair:
    def setup_method(self):
        self.scenes = generate_scenes(40, seed=13, world_seed=7)

    def test_matched_pair_flags(self):
        rng = np.random.default_rng(0)
        for scene in range(len(self.scenes)):
            pair = _pair(self.scenes, scene, scene, "audio_presence", rng)
            if pair is not None:
                assert pair.matched
                assert (pair.visual_scene, pair.audio_scene) == (scene, scene)
                break
        else:
            pytest.fail("no eligible audio_presence pair found")

    def test_generated_columns_follow_the_scene_references(self):
        pairs = generate_pairs(SynthConfig(n_pairs=60, n_scenes=20, seed=2))
        scenes = generate_scenes(20, seed=2, world_seed=7)
        assert 0 < pairs.matched.sum() < len(pairs)
        np.testing.assert_array_equal(pairs.matched, pairs.visual_scene == pairs.audio_scene)
        np.testing.assert_array_equal(pairs.audio, scenes.audio[pairs.audio_scene])
        np.testing.assert_array_equal(pairs.visual, scenes.visual[pairs.visual_scene])

    def test_visible_only_entity_audio_question(self):
        # visible & silent object: chosen answer no, rejected asserts the
        # sound that the visual presence suggests.
        sigs = synth.build_signatures(7)
        scenes = _pool(([1], [], np.zeros(8), sigs[1][1]))
        target, y_w, y_l = build_pair(scenes, 0, 0, "audio_presence", np.random.default_rng(1))
        assert target == 1 and y_w == NO_ID and y_l == YES_ID

    def test_mismatched_sounding_absent_visual(self):
        # audio scene sounds a kind the visual scene does not show at all:
        # the visual ground truth refutes it and the rejected response is
        # the audio-suggested yes.
        sigs = synth.build_signatures(7)
        scenes = _pool(([0], [0], np.zeros(8), sigs[1][0]), ([], [2], sigs[0][2], np.zeros(8)))
        pair = _pair(scenes, 0, 1, "visual_presence", np.random.default_rng(2))
        assert synth.EVAL_QUESTION_KINDS[pair.question_kind] == "visual_presence"
        assert pair.y_w == NO_ID and pair.y_l == YES_ID
        assert not pair.matched

    def test_rejected_always_differs(self):
        rng = np.random.default_rng(3)
        emitted = 0
        for qk in ("visual_presence", "audio_presence", "visual_caption", "audio_caption"):
            for i in range(0, 30, 2):
                labels = build_pair(self.scenes, i, i + 1, qk, rng)
                if labels is not None:
                    emitted += 1
                    _, y_w, y_l = labels
                    assert y_w != y_l
        assert emitted > 20

    def test_skip_signal(self):
        # A silent, visible-only scene offers no visual-presence target
        # (those require an audible entity).
        sigs = synth.build_signatures(7)
        scenes = _pool(([1], [], np.zeros(8), sigs[1][1]))
        assert build_pair(scenes, 0, 0, "visual_presence", np.random.default_rng(0)) is None

    def test_caption_pair_targets_relevant_modality(self):
        rng = np.random.default_rng(4)
        for scene in range(len(self.scenes)):
            pair = _pair(self.scenes, scene, scene, "visual_caption", rng)
            if pair is None:
                continue
            visible = self.scenes.visible[scene]
            assert pair.y_w == synth.caption_slot(visible)
            assert pair.y_l != pair.y_w
            assert pair.prompt_id == synth.VISUAL_CAPTION_PROMPT
            break

    def test_prompt_and_tag_consistency(self):
        rng = np.random.default_rng(5)
        pair = None
        for scene in range(len(self.scenes)):
            pair = _pair(self.scenes, scene, scene, "audio_presence", rng)
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
        context = ("visual_scene", "audio_scene", "question_kind", "prompt_id", "modality_tag",
                   "matched")
        features = ("audio_feat", "visual_feat")
        for table, assemble, cfg, fields in (
                (synth.PairTable, assemble_dataset, SynthConfig(n_pairs=5, n_scenes=10, seed=0),
                 ("y_w", "y_l")),
                (synth.ItemTable, synth.assemble_eval_items,
                 EvalConfig(n_items=6, n_scenes=10, seed=0), ("ground_truth", "task_group"))):
            path = tmp_path / f"{table.__name__}.jsonl"
            assemble(cfg, path)
            first = json.loads(path.read_text().splitlines()[0])
            assert tuple(first) == tuple(key for key, _ in table.RECORD)
            assert tuple(first) == context + fields + features

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

    @pytest.mark.parametrize("text,problem", [
        ('{"y_w": "\u00e9"}'.encode("utf-8"), "not ASCII text"),
        (b"[1, 2]", "not a JSON object"),
    ])
    def test_unreadable_line_is_a_parse_error(self, tmp_path, text, problem):
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=7), path)
        lines = path.read_bytes().splitlines()
        lines[3] = text
        path.write_bytes(b"\n".join(lines) + b"\n")
        report = verify_dataset(path)
        assert report.parse_errors == [(4, problem)]
        assert report.n_records == 19 and report.n_violations == 0

    @pytest.mark.parametrize("shift,problem", [(-10, "is negative"), (10, "outside [0, 10)")])
    def test_scene_references_outside_the_world(self, tmp_path, shift, problem):
        # Moving both references of a matched record by the scene count keeps
        # the matched flag consistent; a negative one would index the same
        # scene from the end.
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=20, n_scenes=10, seed=7), path)
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["matched"])
        rec = json.loads(lines[index])
        rec["visual_scene"] = rec["audio_scene"] = rec["visual_scene"] + shift
        lines[index] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(path)
        assert report.violations == [(index + 1, f"visual_scene {rec['visual_scene']} {problem}")]
        if shift < 0:
            with pytest.raises(WorldError, match=f"line {index + 1}: visual_scene -"):
                synth.load_pairs(path)
        else:  # the loader does not know the scene count
            assert len(synth.load_pairs(path)) == 20

    def test_lost_records_are_a_parse_error(self, tmp_path):
        # Lines 1-30 of 50 and 5 of them again: every line still checks out.
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=50, n_scenes=20, seed=1), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:30] + lines[:5]) + "\n")
        report = verify_dataset(path)
        assert report.n_records == 35 and not report.violations
        assert report.parse_errors == [
            (0, "sidecar stats say n_records 50 but the file has 35 non-blank lines")]
        path.write_text("\n\n")
        assert verify_dataset(path).parse_errors == [
            (0, "sidecar stats say n_records 50 but the file has 0 non-blank lines")]

    def test_replaced_records_are_a_parse_error(self, tmp_path):
        # Lines 46-50 of 50 replaced by copies of lines 1-5: the count holds
        # and every copy re-derives, but the file's counts are not the
        # sidecar's.
        path = tmp_path / "d.jsonl"
        assemble_dataset(SynthConfig(n_pairs=50, n_scenes=20, seed=1), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:45] + lines[:5]) + "\n")
        report = verify_dataset(path)
        assert report.n_records == 50 and not report.violations
        kinds = ("audio_caption", "audio_presence", "visual_caption", "visual_presence")
        assert report.parse_errors == [
            (0, "sidecar stats say matched_records 25 but the file has 27"),
            (0, f"sidecar stats say question_kind_counts {dict(zip(kinds, (7, 17, 8, 18)))} "
                f"but the file has {dict(zip(kinds, (7, 16, 8, 19)))}"),
            (0, "sidecar stats say modality_tag_counts {'audio_related': 24, 'visual_related': "
                "26} but the file has {'audio_related': 23, 'visual_related': 27}")]

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
        pytest.param(lambda rec: {**rec, "audio_feat": ["0.5"] + rec["audio_feat"][1:]},
                     "audio_feat is not a list of numbers", id="feature-string"),
        pytest.param(lambda rec: {**rec, "visual_feat": rec["visual_feat"][:7] + [True]},
                     "visual_feat is not a list of numbers", id="feature-boolean"),
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

    def test_truncated_first_line_is_the_bad_one(self, tmp_path):
        # Rows are measured against the most common length, not the first.
        path = _write_lines(tmp_path, {0: lambda rec: {**rec, "audio_feat": rec["audio_feat"][:7]}})
        with pytest.raises(WorldError) as err:
            synth.load_pairs(path)
        assert str(err.value) == f"{path}, line 1: audio_feat has 7 values, expected 8"
        assert verify_dataset(path).violations == [(1, "audio_feat has 7 values, expected 8")]

    def test_feature_value_spelt_as_a_string_is_a_violation(self, tmp_path):
        # The string spells the scene's own value, so only its type is wrong.
        path = _write_lines(tmp_path, {3: lambda rec: {
            **rec, "audio_feat": [repr(rec["audio_feat"][0])] + rec["audio_feat"][1:]}})
        assert verify_dataset(path).violations == [(4, "audio_feat is not a list of numbers")]

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

    @pytest.mark.parametrize("edit,problem", [
        (lambda rec: {**rec, "matched": not rec["matched"]},
         "matched flag inconsistent with scene_refs"),
        (_with(visual_scene=-1), "visual_scene -1 is negative"),
        (_with(audio_scene=-3), "audio_scene -3 is negative"),
    ])
    def test_eval_item_scene_references(self, tmp_path, edit, problem):
        path = tmp_path / "items.jsonl"
        synth.assemble_eval_items(EvalConfig(n_items=10, n_scenes=15, seed=2), path)
        lines = path.read_text().splitlines()
        lines[3] = json.dumps(edit(json.loads(lines[3])))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WorldError) as err:
            synth.read_records(path, synth.ItemTable)
        assert str(err.value) == f"{path}, line 4: {problem}"


class TestLevelSettings:
    @pytest.mark.parametrize("config", [SynthConfig, EvalConfig])
    @pytest.mark.parametrize("field,value", [
        ("matched_bias", "abc"), ("matched_bias", [0.5, 0.5]), ("matched_bias", 1.5),
        ("matched_bias", -0.1), ("matched_bias", True), ("feature_noise", -1),
        ("feature_noise", float("inf")), ("feature_noise", (0.1,)), ("feature_noise", [0.1, "x"]),
    ])
    def test_bad_level_rejected(self, config, field, value):
        with pytest.raises(WorldError, match=f"{field} must be"):
            config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("matched_fraction", 5.0), ("matching_fraction", -0.5), ("dominance_fraction", 1.5),
    ])
    def test_eval_fractions_must_lie_in_0_1(self, field, value):
        with pytest.raises(WorldError, match=f"{field} must lie in"):
            EvalConfig(**{field: value})

    @pytest.mark.parametrize("config", [SynthConfig, EvalConfig])
    def test_accepted_forms(self, config):
        cfg = config(matched_bias=[0.2] * synth.N_ENTITY_KINDS, feature_noise=[0.05, 1])
        assert cfg.matched_bias == (0.2,) * synth.N_ENTITY_KINDS
        assert cfg.feature_noise == (0.05, 1.0)
        assert config(matched_bias=1, feature_noise=0).matched_bias == 1


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
            visual = int(scenes.visible[rec["visual_scene"]])
            audio = int(scenes.sounding[rec["audio_scene"]])
            if rec["task_group"] == "dominance":
                assert rec["ground_truth"] == "no"
                continue
            candidates = {k: synth.ANSWERS[a] for k, a in synth.presence_candidates(
                synth.QUESTION_KINDS.index(qk), visual, audio)}
            assert candidates[target] == rec["ground_truth"]


class TestConfigValues:
    @pytest.mark.parametrize("config,fields,problem", [
        (SynthConfig, {"n_pairs": 2.5}, "n_pairs must be an integer"),
        (SynthConfig, {"n_pairs": True}, "n_pairs must be an integer"),
        (SynthConfig, {"seed": -1}, "seed must lie in"),
        (SynthConfig, {"world_seed": -3}, "world_seed must lie in"),
        (SynthConfig, {"presence_fraction": "abc"}, "presence_fraction must be a number"),
        (EvalConfig, {"n_items": 10.5}, "n_items must be an integer"),
        (EvalConfig, {"n_items": 1}, "n_items must lie in"),
        (EvalConfig, {"n_scenes": 0}, "n_scenes must lie in"),
        (EvalConfig, {"seed": -1}, "seed must lie in"),
        (EvalConfig, {"world_seed": 1.0}, "world_seed must be an integer"),
        (EvalConfig, {"matched_fraction": True}, "matched_fraction must be a number"),
    ])
    def test_bad_value_names_the_field(self, config, fields, problem):
        with pytest.raises(WorldError, match=problem):
            config(**fields)

    @pytest.mark.parametrize("fields", [
        {"n_scenes": 1},  # matched_fraction 0.5
        {"n_scenes": 1, "matched_fraction": 1.0, "matching_fraction": 0.1},
    ])
    def test_eval_items_need_two_scenes_for_mismatched_contexts(self, fields):
        with pytest.raises(WorldError, match="at least two scenes"):
            EvalConfig(**fields)

    def test_one_scene_serves_matched_contexts(self):
        assert EvalConfig(n_scenes=1, matched_fraction=1.0).n_scenes == 1
        assert SynthConfig(n_scenes=1, matched_fraction=1.0).n_scenes == 1


def _dataset_lines(tmp_path, n_pairs=40):
    """(path, decoded records, scenes) of a generated dataset file."""
    cfg = SynthConfig(n_pairs=n_pairs, n_scenes=20, seed=4)
    path = tmp_path / "d.jsonl"
    assemble_dataset(cfg, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return path, records, generate_scenes(cfg.n_scenes, cfg.seed, cfg.world_seed)


def _rewrite(path, records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


class TestVerifyLabels:
    """The checks verify_dataset makes with the world after the loader's."""

    def _first(self, records, *kinds):
        return next(i for i, rec in enumerate(records) if rec["question_kind"] in kinds)

    def test_modality_tag_inconsistent_with_question_kind(self, tmp_path):
        path, records, _ = _dataset_lines(tmp_path)
        i = self._first(records, "visual_presence", "visual_caption")
        records[i]["modality_tag"] = "audio_related"
        _rewrite(path, records)
        assert verify_dataset(path).violations == [
            (i + 1, "modality_tag inconsistent with question_kind")]

    def test_caption_prompt_inconsistent_with_question_kind(self, tmp_path):
        path, records, _ = _dataset_lines(tmp_path)
        i = self._first(records, "visual_caption")
        records[i]["prompt_id"] = synth.AUDIO_CAPTION_PROMPT
        _rewrite(path, records)
        assert verify_dataset(path).violations == [
            (i + 1, "prompt_id inconsistent with question_kind")]

    def test_presence_prompt_outside_its_range(self, tmp_path):
        path, records, _ = _dataset_lines(tmp_path)
        i = self._first(records, "visual_presence")
        records[i]["prompt_id"] = synth.VISUAL_CAPTION_PROMPT
        _rewrite(path, records)
        assert verify_dataset(path).violations == [
            (i + 1, "prompt_id outside the presence-prompt range")]

    def test_question_kind_without_an_oracle(self, tmp_path):
        path, records, _ = _dataset_lines(tmp_path)
        records[2]["question_kind"] = "av_matching"
        _rewrite(path, records)
        assert verify_dataset(path).violations == [
            (3, f"question_kind must be one of {synth.QUESTION_KINDS}, got 'av_matching'")]

    def test_presence_target_not_eligible_in_the_context(self, tmp_path):
        path, records, scenes = _dataset_lines(tmp_path)
        for i, rec in enumerate(records):
            if rec["question_kind"] != "visual_presence":
                continue
            eligible = dict(synth.presence_candidates(0, int(scenes.visible[rec["visual_scene"]]),
                                                      int(scenes.sounding[rec["audio_scene"]])))
            absent = [k for k in range(synth.N_ENTITY_KINDS) if k not in eligible]
            if absent:
                break
        rec["prompt_id"] = synth.VISUAL_PRESENCE_BASE + absent[0]
        _rewrite(path, records)
        assert verify_dataset(path).violations == [
            (i + 1, "question has no eligible target in this context")]

    def test_missing_sidecar_is_a_parse_error(self, tmp_path):
        path, _, _ = _dataset_lines(tmp_path, n_pairs=10)
        (tmp_path / "d.jsonl.stats.json").unlink()
        report = verify_dataset(path)
        assert report.n_records == 10 and not report.violations and not report.ok
        [(line, problem)] = report.parse_errors
        assert line == 0 and problem.startswith("cannot rebuild the world from sidecar stats:")

    @pytest.mark.parametrize("key,value,problem", [
        ("matched_bias", [0.5, 0.5],
         "matched_bias must be a number in [0, 1] or one per entity kind, got [0.5, 0.5]"),
        ("n_scenes", 5.7, "n_scenes must be an integer, got 5.7"),
        ("n_scenes", True, "n_scenes must be an integer, got True"),
        ("feature_noise", -1.0,
         "feature_noise must be a finite number >= 0 or an (audio, visual) pair, got -1.0"),
    ])
    def test_malformed_sidecar_is_one_parse_error(self, tmp_path, key, value, problem):
        # The sidecar's world settings pass SynthConfig's rules; a bad one is
        # neither a traceback nor a flood of record violations.
        path, _, _ = _dataset_lines(tmp_path)
        sidecar = tmp_path / "d.jsonl.stats.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
        report = verify_dataset(path)
        assert report.parse_errors == [
            (0, f"cannot rebuild the world from sidecar stats: {problem}")]
        assert report.n_records == 40 and not report.violations


@pytest.fixture(scope="module")
def clean_lines(tmp_path_factory):
    """(lines, scene count, path to rewrite) of a generated dataset file
    whose sidecar sits beside the path."""
    directory = tmp_path_factory.mktemp("clean")
    cfg = SynthConfig(n_pairs=40, n_scenes=12, seed=8)
    assemble_dataset(cfg, directory / "d.jsonl")
    return (directory / "d.jsonl").read_text().splitlines(), cfg.n_scenes, directory / "d.jsonl"


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_one_corrupted_field_flags_its_line_and_no_other(clean_lines, data):
    lines, n_scenes, path = clean_lines
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    rec = json.loads(lines[index])
    key = data.draw(st.sampled_from(["y_w", "modality_tag", "prompt_id", "visual_scene",
                                     "audio_scene"]), label="field")
    if key == "y_w":
        values = range(synth.VOCAB_SIZE)
    elif key == "modality_tag":
        values = synth.MODALITY_TAGS
    elif key == "prompt_id":  # a prompt outside the question kind's prompts
        q = synth.QUESTION_KINDS.index(rec["question_kind"])
        first = synth.PROMPT_OF[q]
        own = range(first, first + (synth.N_ENTITY_KINDS if q < synth.N_PRESENCE else 1))
        values = [p for p in range(-1, synth.N_PROMPTS + 1) if p not in own]
    else:
        values = range(-1, n_scenes + 1)
    rec[key] = data.draw(st.sampled_from([v for v in values if v != rec[key]]), label="value")
    path.write_text("\n".join(lines[:index] + [json.dumps(rec)] + lines[index + 1:]) + "\n")
    report = verify_dataset(path)
    assert {line for line, _ in report.violations} == {index + 1}, report.violations
    assert not report.parse_errors


class TestPinnedBytes:
    """sha256 of small generated files and their sidecars, taken before scenes
    became mask columns: generation must stay byte-identical until a change
    means to alter it.  The values hold for the numpy build and LAPACK (the
    signature QR) of the host they were taken on."""

    BIAS = (0.2, 0.4, 0.6, 0.8, 0.5, 0.3)
    NOISE = (0.05, 0.2)

    def _digests(self, path):
        return [hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (path, path.with_name(path.name + ".stats.json"))]

    def test_pair_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        assemble_dataset(SynthConfig(n_pairs=60, n_scenes=20, matched_bias=self.BIAS,
                                     feature_noise=self.NOISE, seed=5, world_seed=11), path)
        assert self._digests(path) == [
            "f4fed538a16f39e8b3a564d2b516594d7376e5f6899dd878f476247506138513",
            "cabc6314ab82b2d86fee8e3f34ccef7db13f744ba195b9851e03a2eec9e33398"]

    def test_eval_item_file(self, tmp_path):
        path = tmp_path / "items.jsonl"
        stats = synth.assemble_eval_items(EvalConfig(
            n_items=40, n_scenes=20, matched_bias=self.BIAS, feature_noise=self.NOISE,
            matching_fraction=0.2, dominance_fraction=0.2, seed=6, world_seed=11), path)
        assert {"matching", "dominance"} <= set(stats["task_group_counts"])
        assert self._digests(path) == [
            "a567dca564fb891520b0f6aa45b8ee92669eba375d1e4788c162713562cd2ced",
            "1c9fc0c21f189274849ae70d9a97f5f83afecff5e569e7346fd3203c53a4d4f5"]


# Feature values json.dumps spells in its own way: signed zero, subnormals,
# exponents, NaN (also one with other payload bits) and the infinities.
_ODD_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 1e16, 1e-5, 1.5, float("nan"), float("inf"),
               -float("inf"), float(np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]))


@st.composite
def _tables(draw):
    """A PairTable or ItemTable of any column values, feature rows drawn
    from a few distinct rows so that rows repeat."""
    table = draw(st.sampled_from([synth.PairTable, synth.ItemTable]))
    n = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    columns = {}
    for (_, parse), name in zip(table.RECORD, table.Row._fields):
        if parse is synth._features:
            d = draw(st.integers(0, 3))
            values = st.one_of(st.sampled_from(_ODD_FLOATS), st.floats())
            rows = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=3))
            picks = column(st.integers(0, len(rows) - 1))
            columns[name] = np.array([rows[i] for i in picks], dtype=np.float64).reshape(n, d)
        elif parse is synth._flags:
            columns[name] = np.array(column(st.booleans()), dtype=bool)
        elif hasattr(parse, "names"):
            columns[name] = np.array(column(st.integers(0, len(parse.names) - 1)), dtype=np.int64)
        else:
            columns[name] = np.array(column(st.integers(-2 ** 63, 2 ** 63 - 1)), dtype=np.int64)
    return table(**columns)


@settings(max_examples=300, deadline=None, database=None)
@given(table=_tables())
def test_lines_are_the_json_of_each_record(table):
    assert list(table.lines()) == [json.dumps(rec) + "\n" for rec in table.records()]


def test_lines_of_empty_tables_and_zero_width_features():
    pairs = generate_pairs(SynthConfig(n_pairs=5, n_scenes=10, seed=1))
    assert list(pairs[:0].lines()) == []
    narrow = synth.PairTable(**{**{name: getattr(pairs, name) for name in pairs.Row._fields},
                                "audio": np.zeros((5, 0))})
    lines = list(narrow.lines())
    assert lines == [json.dumps(rec) + "\n" for rec in narrow.records()]
    assert all('"audio_feat": [], ' in line for line in lines)


def test_a_table_holds_exactly_its_row_fields():
    pairs = generate_pairs(SynthConfig(n_pairs=5, n_scenes=10, seed=1))
    columns = {name: getattr(pairs, name) for name in pairs.Row._fields}
    assert set(vars(synth.PairTable(**columns, extra=np.zeros(5)))) == set(pairs.Row._fields)
    del columns["y_l"]
    with pytest.raises(KeyError, match="y_l"):
        synth.PairTable(**columns)


def test_check_names_each_bad_record():
    records = synth.generate_eval_records(EvalConfig(n_items=6, n_scenes=10, seed=1))
    records[1]["ground_truth"] = "maybe"
    records[4]["task_group"] = "other"
    _, problems = synth.ItemTable.check(records)
    assert sorted(problems) == [1, 4]
    assert problems[1].startswith("ground_truth must be one of")
    assert problems[4].startswith("task_group must be one of")
