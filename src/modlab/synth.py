"""Synthetic audiovisual world and preference-data pipeline.

A deterministic world oracle stands in for external annotation models:
scenes are small sets of entities with visible/sounding flags, and feature
vectors are sums of per-kind signature vectors plus seeded noise, so the
correct answer to a modality question is decodable from the corresponding
feature vector (and not from the other one).

The pipeline mirrors a three-stage construction:

    1. scenes are generated with disentangled audio/visual ground truth;
    2. entities are classified into a five-way taxonomy from which yes/no
       presence questions and their answers follow mechanically;
    3. preference pairs get a hard-negative rejected response: the answer
       implied by the *other* modality's content, which contradicts the
       relevant modality's ground truth (mismatched audio/visual contexts
       make such contradictions common).

Response vocabulary (size 8): id 0 = "yes", id 1 = "no", ids 2..7 are
caption summaries; caption questions are therefore a V-way choice whose
correct slot is a deterministic function of the active entity set.

Dataset files are line-delimited JSON, one record per line, with keys in
this fixed order (format version 1):

    visual_scene, audio_scene, question_kind, prompt_id, modality_tag,
    matched, y_w, y_l, audio_feat, visual_feat

Evaluation-item files use the same conventions with ``ground_truth`` and
``task_group`` in place of ``y_w``/``y_l``.  A sidecar JSON file
(``<path>.stats.json``) stores the generation parameters needed by the
verifier plus summary statistics.

In memory a file is one struct-of-arrays table (``PairTable`` or
``ItemTable``), built once by ``read_records`` or the generator: audio
(N, d_a) and visual (N, d_v) features, then one (N,) column per other
field, with tags, question kinds, answers and task groups as int codes
(indices into MODALITY_TAGS, EVAL_QUESTION_KINDS, ANSWERS, TASK_GROUPS).
``t[rows]`` is a sub-table, ``t[i]`` one row (a ``PreferencePair`` or
``EvalItem`` named tuple), and ``coerce`` stacks a list of rows once.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

FORMAT_VERSION = 1

# Response vocabulary layout.
VOCAB_SIZE = 8
YES_ID = 0
NO_ID = 1
CAPTION_BASE = 2
N_CAPTION_SLOTS = VOCAB_SIZE - CAPTION_BASE

# Entity kinds: ids below N_OBJECT_KINDS are objects (things that can be
# seen and may or may not make sound); the rest are pure sound events.
KIND_NAMES = ("dog", "engine", "bell", "person", "music", "siren")
N_ENTITY_KINDS = len(KIND_NAMES)
N_OBJECT_KINDS = 4

FEATURE_DIM = 8
FEATURE_NOISE = 0.05

ENTITY_CATEGORIES = ("in_view_sound_source", "in_view_sound", "in_view_silent_object",
                     "out_of_view_sound_source", "out_of_view_sound")

QUESTION_KINDS = ("visual_presence", "audio_presence", "visual_caption", "audio_caption")
# Evaluation files may additionally carry audiovisual matching probes.
EVAL_QUESTION_KINDS = QUESTION_KINDS + ("av_matching",)

TASK_GROUPS = ("adv_hallucination", "vda_hallucination", "matching", "dominance")

MODALITY_TAGS = ("audio_related", "visual_related", "audiovisual")
AUDIO_RELATED, VISUAL_RELATED, AUDIOVISUAL = range(len(MODALITY_TAGS))

# Ground-truth answers, indexed by their vocabulary ids YES_ID and NO_ID.
ANSWERS = ("yes", "no")

# Prompt table: ids 0..5 visual presence per kind, 6..11 audio presence per
# kind, 12/13 the two caption prompts, 14 the audiovisual matching prompt.
VISUAL_PRESENCE_BASE = 0
AUDIO_PRESENCE_BASE = N_ENTITY_KINDS
VISUAL_CAPTION_PROMPT = 2 * N_ENTITY_KINDS
AUDIO_CAPTION_PROMPT = VISUAL_CAPTION_PROMPT + 1
AV_MATCHING_PROMPT = VISUAL_CAPTION_PROMPT + 2
N_PROMPTS = AV_MATCHING_PROMPT + 1

# Seed-stream tags so scenes, pairs and eval items draw from disjoint
# deterministic streams.
_SCENE_STREAM = 1
_PAIR_STREAM = 2
_EVAL_STREAM = 3
_SIGNATURE_STREAM = 4

RECORD_FIELDS = ("visual_scene", "audio_scene", "question_kind", "prompt_id", "modality_tag",
                 "matched", "y_w", "y_l", "audio_feat", "visual_feat")


class WorldError(ValueError):
    """Invalid entity/scene construction or infeasible generation config."""


def kind_of(entity_id: int) -> str:
    if not (0 <= entity_id < N_ENTITY_KINDS):
        raise WorldError(f"entity_id must be in [0, {N_ENTITY_KINDS}), got {entity_id}")
    return "object" if entity_id < N_OBJECT_KINDS else "pure_sound"


@dataclass(frozen=True)
class Entity:
    """One entity kind in a scene with its perceptual footprint flags."""

    entity_id: int
    visible: bool
    sounding: bool

    def __post_init__(self):
        kind_of(self.entity_id)
        if not (self.visible or self.sounding):
            raise WorldError("an entity must be visible or sounding (or both)")


@dataclass(frozen=True)
class Scene:
    scene_id: int
    entities: tuple
    audio_feat: np.ndarray
    visual_feat: np.ndarray

    def __post_init__(self):
        if not (1 <= len(self.entities) <= 4):
            raise WorldError(f"scenes hold 1-4 entities, got {len(self.entities)}")

    @cached_property
    def visible_kinds(self) -> frozenset:
        """Entity kinds the scene shows, read from the ground-truth flags."""
        return frozenset(e.entity_id for e in self.entities if e.visible)

    @cached_property
    def sounding_kinds(self) -> frozenset:
        """Entity kinds the scene sounds, read from the ground-truth flags."""
        return frozenset(e.entity_id for e in self.entities if e.sounding)


def classify_entity(e: Entity, kind: str) -> str:
    """Five-way taxonomy from (visible, sounding, object-vs-pure-sound)."""
    if kind not in ("object", "pure_sound"):
        raise WorldError(f"kind must be 'object' or 'pure_sound', got {kind!r}")
    if not (e.visible or e.sounding):
        raise WorldError("invalid flag combination: neither visible nor sounding")
    if kind == "object":
        if e.visible and e.sounding:
            return "in_view_sound_source"
        if e.visible:
            return "in_view_silent_object"
        return "out_of_view_sound_source"
    # Pure sounds always sound; "visible" means the sound's source is on
    # screen.
    if not e.sounding:
        raise WorldError("invalid flag combination: a silent pure sound")
    return "in_view_sound" if e.visible else "out_of_view_sound"


# (category, question_kind) -> "yes" / "no"; combinations not listed are
# never emitted as questions.
_ANSWER_TABLE = {
    ("in_view_sound_source", "visual_presence"): "yes",
    ("out_of_view_sound_source", "visual_presence"): "no",
    ("out_of_view_sound", "visual_presence"): "no",
    ("in_view_sound_source", "audio_presence"): "yes",
    ("in_view_sound", "audio_presence"): "yes",
    ("in_view_silent_object", "audio_presence"): "no",
}


def answer_for(category: str, question_kind: str):
    """Ground-truth answer, or None as a skip signal for unmapped combos."""
    if category not in ENTITY_CATEGORIES:
        raise WorldError(f"unknown category {category!r}")
    if question_kind not in ("visual_presence", "audio_presence"):
        raise WorldError(f"answer_for handles presence questions, got {question_kind!r}")
    return _ANSWER_TABLE.get((category, question_kind))


# ---------------------------------------------------------------------------
# Record tables

class _BadRow(Exception):
    """A record value no column can hold: (row index, problem)."""


def _field(records, key: str) -> list:
    try:
        return [rec[key] for rec in records]
    except KeyError:
        row = next(i for i, rec in enumerate(records) if key not in rec)
        raise _BadRow(row, f"missing field {key!r}") from None


def _ints(values, key: str):
    """int64 column of JSON integers; floats, strings and booleans are rejected."""
    for i, value in enumerate(values):
        if type(value) is not int or not -2**63 <= value < 2**63:
            raise _BadRow(i, f"{key} {value!r} is not an integer")
    return np.array(values, dtype=np.int64)


def _flags(values, key: str):
    """bool column of JSON booleans."""
    for i, value in enumerate(values):
        if type(value) is not bool:
            raise _BadRow(i, f"{key} {value!r} is not a boolean")
    return np.array(values, dtype=bool)


def _codes(names: tuple):
    """Parser of values that must be one of names, stored as their index."""
    index = {n: i for i, n in enumerate(names)}

    def parse(values, key: str):
        for i, value in enumerate(values):
            if not isinstance(value, str) or value not in index:
                raise _BadRow(i, f"{key} must be one of {names}, got {value!r}")
        return np.array([index[v] for v in values], dtype=np.int64)

    return parse


def _features(values, key: str):
    """(rows, d) column of number lists that all have the first one's length."""
    if not values:
        return np.empty((0, 0))
    try:
        column = np.array(values, dtype=np.float64)
        if column.ndim == 2:
            return column
    except (TypeError, ValueError):
        pass
    for i, value in enumerate(values):
        try:
            row = np.array(value, dtype=np.float64)
        except (TypeError, ValueError):
            row = None
        if row is None or row.ndim != 1:
            raise _BadRow(i, f"{key} is not a list of numbers")
        if row.size != len(values[0]):
            raise _BadRow(i, f"{key} has {row.size} values, expected {len(values[0])}")


def _non_finite(column, name: str):
    return ~np.isfinite(column).all(axis=1), lambda i: f"{name} holds a non-finite value"


def _outside(column, name: str, size: int):
    return (column < 0) | (column >= size), lambda i: f"{name} {column[i]} outside [0, {size})"


class _Table:
    """Struct of arrays: one numpy column per field of ``Row``, rows on axis 0.

    Subclasses list ``RECORD``, the (record key, parser) pair of each field;
    a column is named after its key without the "_feat" suffix.
    """

    RECORD = ()
    Row = None

    def __init__(self, **columns):
        for name in self.Row._fields:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.prompt_id)

    def __getitem__(self, rows):
        """Row i for an integer i, otherwise the sub-table of the selected rows."""
        if isinstance(rows, (int, np.integer)):
            return self.Row(*(getattr(self, name)[rows] for name in self.Row._fields))
        return type(self)(**{name: getattr(self, name)[rows] for name in self.Row._fields})

    def __iter__(self):
        return map(self.Row, *(getattr(self, name) for name in self.Row._fields))

    @classmethod
    def coerce(cls, data):
        """data itself when it is a table, else its rows stacked column by column."""
        if isinstance(data, cls):
            return data
        columns = list(zip(*data)) or [()] * len(cls.Row._fields)
        return cls(**{name: np.array(column) for name, column in zip(cls.Row._fields, columns)})

    @classmethod
    def concat(cls, tables):
        return cls(**{name: np.concatenate([getattr(t, name) for t in tables])
                      for name in cls.Row._fields})

    def _faults(self) -> list:
        """(mask of bad rows, problem of row i) of each check of the columns."""
        return [_non_finite(self.audio, "audio_feat"), _non_finite(self.visual, "visual_feat"),
                _outside(self.prompt_id, "prompt_id", N_PROMPTS)]

    @classmethod
    def from_records(cls, records, path="<records>", line_nos=None):
        """The table of decoded JSON records, each column parsed and checked once.

        Raises WorldError("<path>, line <n>: <problem>") for the first bad
        record: a missing field, a value of the wrong type or out of range,
        an unknown tag, question kind, answer or task group, a feature row
        of another length or with a non-finite value, or a failed check of
        the file kind.  line_nos gives each record's line (default 1..N).
        """
        records = list(records)
        line_nos = line_nos or range(1, len(records) + 1)
        try:
            table = cls(**{key.removesuffix("_feat"): parse(_field(records, key), key)
                           for key, parse in cls.RECORD})
        except _BadRow as bad:
            row, problem = bad.args
            cls.from_records(records[:row], path, line_nos)  # an earlier line fails first
            raise WorldError(f"{path}, line {line_nos[row]}: {problem}") from None
        faults = [(int(np.argmax(mask)), problem) for mask, problem in table._faults()
                  if mask.any()]
        if faults:
            row, problem = min(faults, key=lambda fault: fault[0])
            raise WorldError(f"{path}, line {line_nos[row]}: {problem(row)}")
        return table


_CONTEXT = (("audio_feat", _features), ("visual_feat", _features), ("prompt_id", _ints),
            ("modality_tag", _codes(MODALITY_TAGS)),
            ("question_kind", _codes(EVAL_QUESTION_KINDS)))


class PairTable(_Table):
    """Preference pairs; a row is a PreferencePair."""

    RECORD = _CONTEXT + (("y_w", _ints), ("y_l", _ints), ("matched", _flags),
                         ("visual_scene", _ints), ("audio_scene", _ints))
    Row = namedtuple("PreferencePair", [key.removesuffix("_feat") for key, _ in RECORD])

    def _faults(self) -> list:
        return super()._faults() + [
            _outside(self.y_w, "y_w", VOCAB_SIZE),
            _outside(self.y_l, "y_l", VOCAB_SIZE),
            (self.y_w == self.y_l, lambda i: "chosen and rejected responses must differ"),
            (self.matched != (self.visual_scene == self.audio_scene),
             lambda i: "matched flag inconsistent with scene_refs"),
        ]


class ItemTable(_Table):
    """Evaluation items; a row is an EvalItem (ground_truth YES_ID or NO_ID)."""

    RECORD = _CONTEXT + (("ground_truth", _codes(ANSWERS)), ("task_group", _codes(TASK_GROUPS)))
    Row = namedtuple("EvalItem", [key.removesuffix("_feat") for key, _ in RECORD])


PreferencePair, EvalItem = PairTable.Row, ItemTable.Row


# ---------------------------------------------------------------------------
# World generation


def _rng(*key) -> np.random.Generator:
    """Generator for one tagged stream, e.g. (seed, stream tag, index)."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def build_signatures(world_seed: int):
    """Per-kind signature vectors, orthonormal rows from a seeded QR."""
    rng = _rng(world_seed, _SIGNATURE_STREAM)
    sigs = []
    for _ in range(2):  # audio then visual
        q, _ = np.linalg.qr(rng.standard_normal((FEATURE_DIM, FEATURE_DIM)))
        sigs.append(q[:N_ENTITY_KINDS])
    return sigs[0], sigs[1]


def _bias_for(matched_bias, kind: int) -> float:
    if np.isscalar(matched_bias):
        return float(matched_bias)
    return float(matched_bias[kind])


def generate_scene(scene_id: int, seed: int, signatures, matched_bias=0.5,
                   feature_noise=FEATURE_NOISE) -> Scene:
    """One scene from a per-scene derived stream.

    Object entities of kind k are visible-and-sounding with probability
    matched_bias (a scalar, or one value per kind), otherwise visible-only
    or sounding-only with equal odds: the per-kind co-occurrence rate
    decides how informative the wrong-modality shortcut is.  Pure sounds
    use the same value as their in-view probability.
    """
    audio_sigs, visual_sigs = signatures
    rng = _rng(seed, _SCENE_STREAM, scene_id)
    n_entities = int(rng.integers(1, 5))
    kinds = rng.choice(N_ENTITY_KINDS, size=n_entities, replace=False)
    entities = []
    for k in sorted(int(k) for k in kinds):
        bias = _bias_for(matched_bias, k)
        if kind_of(k) == "object":
            u = rng.random()
            rest = (1.0 - bias) / 2.0
            if u < bias:
                visible, sounding = True, True
            elif u < bias + rest:
                visible, sounding = True, False
            else:
                visible, sounding = False, True
        else:
            visible, sounding = bool(rng.random() < bias), True
        entities.append(Entity(k, visible, sounding))

    audio = np.zeros(FEATURE_DIM)
    visual = np.zeros(FEATURE_DIM)
    for e in entities:
        if e.sounding:
            audio += audio_sigs[e.entity_id]
        if e.visible:
            visual += visual_sigs[e.entity_id]
    if np.isscalar(feature_noise):
        audio_noise = visual_noise = float(feature_noise)
    else:
        audio_noise, visual_noise = (float(v) for v in feature_noise)
    audio += audio_noise * rng.standard_normal(FEATURE_DIM)
    visual += visual_noise * rng.standard_normal(FEATURE_DIM)
    return Scene(scene_id, tuple(entities), audio, visual)


def generate_scenes(n_scenes: int, seed: int, world_seed: int, matched_bias=0.5,
                    feature_noise=FEATURE_NOISE):
    if n_scenes < 1:
        raise WorldError("need at least one scene")
    signatures = build_signatures(world_seed)
    return [generate_scene(i, seed, signatures, matched_bias, feature_noise)
            for i in range(n_scenes)]


# ---------------------------------------------------------------------------
# Question construction


def prompt_for(question_kind: str, target_kind=None) -> int:
    if question_kind == "visual_presence":
        return VISUAL_PRESENCE_BASE + int(target_kind)
    if question_kind == "audio_presence":
        return AUDIO_PRESENCE_BASE + int(target_kind)
    if question_kind == "visual_caption":
        return VISUAL_CAPTION_PROMPT
    if question_kind == "audio_caption":
        return AUDIO_CAPTION_PROMPT
    if question_kind == "av_matching":
        return AV_MATCHING_PROMPT
    raise WorldError(f"unknown question kind {question_kind!r}")


def tag_for(question_kind: str) -> str:
    if question_kind.startswith("visual"):
        return "visual_related"
    if question_kind.startswith("audio"):
        return "audio_related"
    return "audiovisual"


def caption_slot(active_kinds) -> int:
    """Vocabulary id summarizing an active entity set (V-way caption)."""
    mask = 0
    for k in active_kinds:
        mask |= 1 << int(k)
    return CAPTION_BASE + (mask % N_CAPTION_SLOTS)


def presence_candidates(visual_scene: Scene, audio_scene: Scene, question_kind: str) -> tuple:
    """Kinds eligible for a presence question in this context, with answers.

    Visibility is read from the visual scene and audibility from the audio
    scene, which is exactly what a (possibly mismatched) context presents.
    Returns a sorted tuple of (kind, answer) pairs.
    """
    return _presence_candidates(visual_scene.visible_kinds, audio_scene.sounding_kinds,
                                question_kind)


@cache  # at most 2**6 visible sets x 2**6 sounding sets x 2 question kinds
def _presence_candidates(visible: frozenset, sounding: frozenset, question_kind: str) -> tuple:
    out = []
    for k in sorted(visible | sounding):
        if kind_of(k) == "pure_sound" and k not in sounding:
            continue  # a silent pure sound has no category
        entity = Entity(k, k in visible, k in sounding)  # as the context presents it
        answer = answer_for(classify_entity(entity, kind_of(k)), question_kind)
        if answer is not None:
            out.append((k, answer))
    return tuple(out)


def answer_id(answer: str) -> int:
    """Vocabulary id of a "yes"/"no" answer."""
    return YES_ID if answer == "yes" else NO_ID


def _invert(token_id: int) -> int:
    return NO_ID if token_id == YES_ID else YES_ID


def oracle_responses(visual_scene: Scene, audio_scene: Scene, question_kind: str,
                     target_kind=None):
    """(y_w, y_l) the pipeline must produce for this question, or None.

    Presence: y_w is the relevant modality's ground truth and y_l is its
    inversion, which coincides with the answer suggested by the irrelevant
    modality's footprint for every eligible category.  Captions: y_w is the
    caption slot of the relevant scene's active set, y_l the slot describing
    the other modality's content (shifted by one slot on collision so the
    rejected response always contradicts the ground truth).
    """
    if question_kind in ("visual_presence", "audio_presence"):
        candidates = dict(presence_candidates(visual_scene, audio_scene, question_kind))
        if target_kind not in candidates:
            return None
        y_w = answer_id(candidates[target_kind])
        return y_w, _invert(y_w)
    if question_kind == "visual_caption":
        active = visual_scene.visible_kinds
        other = audio_scene.sounding_kinds
    elif question_kind == "audio_caption":
        active = audio_scene.sounding_kinds
        other = visual_scene.visible_kinds
    else:
        raise WorldError(f"no oracle for question kind {question_kind!r}")
    if not active:
        return None
    y_w = caption_slot(active)
    y_l = caption_slot(other)
    if y_l == y_w:
        y_l = CAPTION_BASE + ((y_l - CAPTION_BASE + 1) % N_CAPTION_SLOTS)
    return y_w, y_l


def build_pair(visual_scene: Scene, audio_scene: Scene, question_kind: str,
               rng: np.random.Generator):
    """One preference pair, or None when the context has no eligible target."""
    if question_kind in ("visual_presence", "audio_presence"):
        candidates = presence_candidates(visual_scene, audio_scene, question_kind)
        if not candidates:
            return None
        target, _ = candidates[int(rng.integers(len(candidates)))]
    else:
        target = None
    responses = oracle_responses(visual_scene, audio_scene, question_kind, target)
    if responses is None:
        return None
    y_w, y_l = responses
    return PreferencePair(
        audio=audio_scene.audio_feat,
        visual=visual_scene.visual_feat,
        prompt_id=prompt_for(question_kind, target),
        modality_tag=MODALITY_TAGS.index(tag_for(question_kind)),
        question_kind=EVAL_QUESTION_KINDS.index(question_kind),
        y_w=y_w,
        y_l=y_l,
        matched=visual_scene.scene_id == audio_scene.scene_id,
        visual_scene=visual_scene.scene_id,
        audio_scene=audio_scene.scene_id,
    )


# ---------------------------------------------------------------------------
# Dataset assembly


def _freeze_sequences(cfg) -> None:
    """Store per-kind biases and (audio, visual) noise levels as float tuples."""
    for name in ("matched_bias", "feature_noise"):
        value = getattr(cfg, name)
        if not np.isscalar(value):
            object.__setattr__(cfg, name, tuple(float(v) for v in value))


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the data generator.

    presence_fraction controls the presence-vs-caption task mix (presence
    is the majority by default); within each half the visual and audio
    variants are split evenly.  world_seed fixes the signature vectors so
    separately generated train/eval files can describe the same world.
    matched_bias is the co-occurrence rate of visible-and-sounding objects
    inside a scene.
    """

    n_pairs: int = 2000
    n_scenes: int = 500
    matched_fraction: float = 0.5
    presence_fraction: float = 0.7
    matched_bias: object = 0.5  # scalar or one co-occurrence rate per kind
    feature_noise: object = FEATURE_NOISE  # scalar or (audio, visual)
    seed: int = 0
    world_seed: int = 7

    def __post_init__(self):
        _freeze_sequences(self)
        if self.n_pairs < 1 or self.n_scenes < 1:
            raise WorldError("n_pairs and n_scenes must be positive")
        if not (0.0 <= self.matched_fraction <= 1.0):
            raise WorldError("matched_fraction must lie in [0, 1]")
        if not (0.0 <= self.presence_fraction <= 1.0):
            raise WorldError("presence_fraction must lie in [0, 1]")
        if self.matched_fraction < 1.0 and self.n_scenes < 2:
            raise WorldError("mismatched contexts need at least two scenes")


def _exact_allocation(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean vector with round(n * fraction) True entries, shuffled."""
    flags = np.zeros(n, dtype=bool)
    flags[: int(round(n * fraction))] = True
    rng.shuffle(flags)
    return flags


def _question_allocation(cfg: SynthConfig, rng: np.random.Generator):
    n_presence = int(round(cfg.n_pairs * cfg.presence_fraction))
    kinds = np.array([QUESTION_KINDS[i % 2] for i in range(n_presence)]
                     + [QUESTION_KINDS[2 + i % 2] for i in range(cfg.n_pairs - n_presence)])
    rng.shuffle(kinds)
    return kinds


def _draw_scene_pair(scenes, matched: bool, rng: np.random.Generator):
    i = int(rng.integers(len(scenes)))
    if matched:
        return scenes[i], scenes[i]
    j = int(rng.integers(len(scenes) - 1))
    if j >= i:
        j += 1
    return scenes[i], scenes[j]


def generate_pairs(cfg: SynthConfig) -> PairTable:
    """Deterministic table of preference pairs for a config."""
    scenes = generate_scenes(cfg.n_scenes, cfg.seed, cfg.world_seed, cfg.matched_bias,
                             cfg.feature_noise)
    alloc_rng = _rng(cfg.seed, _PAIR_STREAM, 0)
    matched_flags = _exact_allocation(cfg.n_pairs, cfg.matched_fraction, alloc_rng)
    question_kinds = _question_allocation(cfg, alloc_rng)
    pairs = []
    for i in range(cfg.n_pairs):
        rng = _rng(cfg.seed, _PAIR_STREAM, i + 1)
        pair = None
        for _ in range(200):
            visual_scene, audio_scene = _draw_scene_pair(scenes, bool(matched_flags[i]), rng)
            pair = build_pair(visual_scene, audio_scene, str(question_kinds[i]), rng)
            if pair is not None:
                break
        if pair is None:
            raise WorldError(
                f"could not realize a {question_kinds[i]} pair after 200 attempts; "
                "the scene pool is too small or too sparse"
            )
        pairs.append(pair)
    return PairTable.coerce(pairs)


def pair_record(pair: PreferencePair) -> dict:
    """The dataset-file record of one pair (a row of a PairTable)."""
    return {
        "visual_scene": int(pair.visual_scene),
        "audio_scene": int(pair.audio_scene),
        "question_kind": EVAL_QUESTION_KINDS[pair.question_kind],
        "prompt_id": int(pair.prompt_id),
        "modality_tag": MODALITY_TAGS[pair.modality_tag],
        "matched": bool(pair.matched),
        "y_w": int(pair.y_w),
        "y_l": int(pair.y_l),
        "audio_feat": pair.audio.tolist(),
        "visual_feat": pair.visual.tolist(),
    }


def _code_counts(codes, names) -> dict:
    """{name: count} of the codes present, sorted by name."""
    counts = np.bincount(codes, minlength=len(names))
    return dict(sorted((names[i], int(n)) for i, n in enumerate(counts) if n))


def dataset_stats(pairs, cfg: SynthConfig) -> dict:
    """Sidecar stats of a pair table (or list of pairs)."""
    pairs = PairTable.coerce(pairs)
    matched = int(pairs.matched.sum())
    return {
        **_stats_header("preference", cfg, len(pairs)),
        "matched_records": matched,
        "matched_ratio": matched / len(pairs) if len(pairs) else 0.0,
        "question_kind_counts": _code_counts(pairs.question_kind, EVAL_QUESTION_KINDS),
        "modality_tag_counts": _code_counts(pairs.modality_tag, MODALITY_TAGS),
        "presence_answer_balance": {"yes": int(np.sum(pairs.y_w == YES_ID)),
                                    "no": int(np.sum(pairs.y_w == NO_ID))},
    }


def _stats_header(kind: str, cfg, n_records: int) -> dict:
    """Sidecar fields shared by both file kinds: what the verifier needs to
    rebuild the world, plus the record count."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "seed": cfg.seed,
        "world_seed": cfg.world_seed,
        "n_scenes": cfg.n_scenes,
        "matched_bias": cfg.matched_bias,
        "feature_noise": cfg.feature_noise,
        "n_records": n_records,
    }


def stats_path(path) -> str:
    return str(path) + ".stats.json"


def _write_records(path, records, stats: dict) -> dict:
    """Write a JSONL file and its sidecar stats; returns the stats."""
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    with open(stats_path(path), "w", encoding="ascii") as fh:
        fh.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return stats


def read_records(path, table):
    """The table (PairTable or ItemTable) of a JSONL file's non-blank lines.

    Lines count from 1, blank lines included.  The first bad line raises
    WorldError naming the path, the line and the problem: text that is not
    ASCII, not JSON or not a JSON object, or a field that fails the
    table's column checks (see ``_Table.from_records``).
    """
    records, line_nos = [], []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip()
                rec = json.loads(line) if line else {}
                problem = None if isinstance(rec, dict) else "not a JSON object"
            except UnicodeDecodeError:
                problem = "not ASCII text"
            except json.JSONDecodeError as exc:
                problem = f"invalid JSON ({exc.msg})"
            if problem:
                table.from_records(records, path, line_nos)  # an earlier bad line wins
                raise WorldError(f"{path}, line {line_no}: {problem}")
            if line:
                records.append(rec)
                line_nos.append(line_no)
    return table.from_records(records, path, line_nos)


def assemble_dataset(cfg: SynthConfig, path) -> dict:
    """Generate, write (records plus sidecar stats), and return the stats."""
    pairs = generate_pairs(cfg)
    return _write_records(path, (pair_record(p) for p in pairs), dataset_stats(pairs, cfg))


def load_pairs(path) -> PairTable:
    return read_records(path, PairTable)


# ---------------------------------------------------------------------------
# Verification


@dataclass
class VerifyReport:
    n_records: int = 0
    n_violations: int = 0
    violations: list = field(default_factory=list)  # (line number, reason)
    parse_errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.n_violations == 0 and not self.parse_errors

    def add_violation(self, line_no: int, reason: str) -> None:
        self.n_violations += 1
        self.violations.append((line_no, reason))


def _check_labels(rec: dict, scenes) -> tuple:
    """(problems with a record's labels, whether its features are compared)."""
    problems = [f"{key} {rec[key]!r} is not an integer"
                for key in ("prompt_id", "y_w", "y_l", "visual_scene", "audio_scene")
                if type(rec[key]) is not int]
    if type(rec["matched"]) is not bool:
        problems.append(f"matched {rec['matched']!r} is not a boolean")
    if problems:
        return problems, False
    qk = rec["question_kind"]
    if qk not in QUESTION_KINDS:
        return [f"unknown question_kind {qk!r}"], False
    visual_scene = scenes[int(rec["visual_scene"])]
    audio_scene = scenes[int(rec["audio_scene"])]
    matched = visual_scene.scene_id == audio_scene.scene_id
    if bool(rec["matched"]) != matched:
        problems.append("matched flag inconsistent with scene references")
    if rec["modality_tag"] != tag_for(qk):
        problems.append("modality_tag inconsistent with question_kind")
    target = None
    if qk in ("visual_presence", "audio_presence"):
        base = VISUAL_PRESENCE_BASE if qk == "visual_presence" else AUDIO_PRESENCE_BASE
        target = int(rec["prompt_id"]) - base
        if not (0 <= target < N_ENTITY_KINDS):
            return problems + ["prompt_id outside the presence-prompt range"], False
    elif int(rec["prompt_id"]) != prompt_for(qk):
        problems.append("prompt_id inconsistent with question_kind")
    expected = oracle_responses(visual_scene, audio_scene, qk, target)
    if expected is None:
        problems.append("question has no eligible target in this context")
        return problems, False
    y_w_true, _ = expected
    if int(rec["y_w"]) != y_w_true:
        problems.append(f"stored y_w={rec['y_w']} but the oracle answer is {y_w_true}")
    if int(rec["y_l"]) == y_w_true:
        problems.append("rejected response agrees with the ground truth")
    return problems, True


_MODALITIES = ("audio", "visual")


def verify_dataset(path) -> VerifyReport:
    """Re-derive every record from the world oracle and report violations.

    Confirms the stored chosen response, that the rejected response
    contradicts the relevant modality's ground truth, the matched flag,
    and the inline features.  Labels are re-derived line by line; the
    features of all lines are compared with the referenced scenes' in one
    isclose(rtol=1e-5, atol=0) per modality, and a feature row of the
    wrong length is reported on its own line.  Parse failures are reported
    per line and do not abort the scan.  Lines count from 1, blank lines
    included, as in read_records.
    """
    report = VerifyReport()
    with open(path, "r", encoding="ascii") as fh:
        lines = [(n, ln) for n, ln in enumerate((raw.strip() for raw in fh), start=1) if ln]
    if not lines:
        return report

    try:
        with open(stats_path(path), "r", encoding="ascii") as fh:
            meta = json.load(fh)
        scenes = generate_scenes(
            int(meta["n_scenes"]), int(meta["seed"]), int(meta["world_seed"]),
            meta.get("matched_bias", 0.5), meta.get("feature_noise", FEATURE_NOISE),
        )
    except (OSError, KeyError, ValueError) as exc:
        report.parse_errors.append((0, f"cannot rebuild the world from sidecar stats: {exc}"))
        return report

    found = {}  # line -> reasons, in line order
    compared = []  # (line, {modality: (stored row, scene index)}) of lines whose labels fit
    for line_no, line in lines:
        try:
            rec = json.loads(line)
            report.n_records += 1
            problems, compare = _check_labels(rec, scenes)
            if compare:
                compared.append((line_no, {m: (np.array(rec[f"{m}_feat"], dtype=np.float64),
                                               int(rec[f"{m}_scene"])) for m in _MODALITIES}))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            report.parse_errors.append((line_no, str(exc)))
            continue
        found[line_no] = problems
    for m in _MODALITIES:
        feats = np.stack([getattr(scene, f"{m}_feat") for scene in scenes])
        fits = []
        for line_no, stored in compared:
            row, scene_id = stored[m]
            if row.shape == feats.shape[1:]:
                fits.append((line_no, row, scene_id))
            else:
                found[line_no].append(f"{m}_feat has {row.size} values, expected {feats.shape[1]}")
        if fits:
            line_nos, rows, scene_ids = zip(*fits)
            close = np.isclose(np.stack(rows), feats[list(scene_ids)], rtol=1e-5, atol=0)
            for line_no in np.asarray(line_nos)[~close.all(axis=1)]:
                found[line_no].append(f"{m} features do not match the referenced scene")
    for line_no, reasons in found.items():
        for reason in reasons:
            report.add_violation(line_no, reason)
    return report


# ---------------------------------------------------------------------------
# Evaluation items


@dataclass(frozen=True)
class EvalConfig:
    """Generator knobs for the balanced yes/no evaluation benchmark.

    Presence items probe one modality about an entity that has a footprint
    in the other ("adv_hallucination" for visual questions about audible
    targets, "vda_hallucination" for audio questions about visible ones).
    Optional extras: "matching" probes (is the audio from the same scene
    as the video?) and "dominance" probes (questions about entities absent
    from both modalities, where only priors can mislead).
    """

    n_items: int = 2000
    n_scenes: int = 500
    matched_fraction: float = 0.5
    matched_bias: object = 0.5
    matching_fraction: float = 0.0
    dominance_fraction: float = 0.0
    feature_noise: object = FEATURE_NOISE
    seed: int = 0
    world_seed: int = 7

    def __post_init__(self):
        _freeze_sequences(self)
        if self.n_items < 2:
            raise WorldError("need at least two eval items")
        if self.matching_fraction + self.dominance_fraction > 1.0:
            raise WorldError("matching and dominance fractions exceed the item budget")


def eval_record(visual_scene, audio_scene, question_kind, target, ground_truth, task_group):
    return {
        "visual_scene": visual_scene.scene_id,
        "audio_scene": audio_scene.scene_id,
        "question_kind": question_kind,
        "prompt_id": prompt_for(question_kind, target),
        "modality_tag": tag_for(question_kind),
        "matched": visual_scene.scene_id == audio_scene.scene_id,
        "ground_truth": ground_truth,
        "task_group": task_group,
        "audio_feat": [float(v) for v in audio_scene.audio_feat],
        "visual_feat": [float(v) for v in visual_scene.visual_feat],
    }


def generate_eval_records(cfg: EvalConfig):
    """Evaluation records with an exactly balanced yes/no ground truth."""
    scenes = generate_scenes(cfg.n_scenes, cfg.seed, cfg.world_seed, cfg.matched_bias,
                             cfg.feature_noise)
    n_matching = int(round(cfg.n_items * cfg.matching_fraction))
    n_dominance = int(round(cfg.n_items * cfg.dominance_fraction))
    n_presence = cfg.n_items - n_matching - n_dominance
    quota = {"yes": cfg.n_items // 2, "no": cfg.n_items - cfg.n_items // 2}
    # Matching items answer "yes" exactly when matched; dominance items are
    # always "no".  Reserve their ground truths up front.
    records = []

    def consume(answer: str) -> bool:
        if quota[answer] <= 0:
            return False
        quota[answer] -= 1
        return True

    item_index = 0

    def next_rng():
        nonlocal item_index
        rng = _rng(cfg.seed, _EVAL_STREAM, item_index)
        item_index += 1
        return rng

    for i in range(n_matching):
        for _ in range(500):
            rng = next_rng()
            want_yes = quota["yes"] >= quota["no"]
            visual_scene, audio_scene = _draw_scene_pair(scenes, want_yes, rng)
            answer = "yes" if visual_scene.scene_id == audio_scene.scene_id else "no"
            if consume(answer):
                records.append(eval_record(visual_scene, audio_scene, "av_matching",
                                           None, answer, "matching"))
                break
        else:
            raise WorldError("could not satisfy the matching-item quota")

    for i in range(n_dominance):
        if not consume("no"):
            raise WorldError("dominance items need 'no' budget; lower dominance_fraction")
        for _ in range(500):
            rng = next_rng()
            visual_scene, audio_scene = _draw_scene_pair(
                scenes, bool(rng.random() < cfg.matched_fraction), rng)
            present = visual_scene.visible_kinds | audio_scene.sounding_kinds
            absent = [k for k in range(N_ENTITY_KINDS) if k not in present]
            if not absent:
                continue
            target = absent[int(rng.integers(len(absent)))]
            qk = "visual_presence" if i % 2 == 0 else "audio_presence"
            if kind_of(target) == "pure_sound" and qk == "visual_presence":
                qk = "audio_presence"
            records.append(eval_record(visual_scene, audio_scene, qk, target, "no", "dominance"))
            break
        else:
            raise WorldError("could not satisfy the dominance-item quota")

    matched_flags = _exact_allocation(n_presence, cfg.matched_fraction,
                                      _rng(cfg.seed, _EVAL_STREAM, 10 ** 6))
    for i in range(n_presence):
        qk = "visual_presence" if i % 2 == 0 else "audio_presence"
        group = "adv_hallucination" if qk == "visual_presence" else "vda_hallucination"
        for _ in range(500):
            rng = next_rng()
            visual_scene, audio_scene = _draw_scene_pair(scenes, bool(matched_flags[i]), rng)
            candidates = list(presence_candidates(visual_scene, audio_scene, qk))
            rng.shuffle(candidates)
            placed = False
            for target, answer in candidates:
                if consume(answer):
                    records.append(eval_record(visual_scene, audio_scene, qk,
                                               target, answer, group))
                    placed = True
                    break
            if placed:
                break
        else:
            raise WorldError("could not balance the presence items; enlarge the scene pool")
    return records


def eval_stats(records, cfg: EvalConfig) -> dict:
    groups: dict = {}
    answers = {"yes": 0, "no": 0}
    for rec in records:
        groups[rec["task_group"]] = groups.get(rec["task_group"], 0) + 1
        answers[rec["ground_truth"]] += 1
    return {
        **_stats_header("eval", cfg, len(records)),
        "task_group_counts": dict(sorted(groups.items())),
        "answer_balance": answers,
    }


def assemble_eval_items(cfg: EvalConfig, path) -> dict:
    records = generate_eval_records(cfg)
    return _write_records(path, records, eval_stats(records, cfg))
