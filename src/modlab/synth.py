"""Synthetic audiovisual world and preference-data pipeline.

A deterministic world oracle stands in for external annotation models.  A
scene pool is one ``Scenes`` table of columns: two (S,) bit masks, the
entity kinds each scene shows (``visible``) and sounds (``sounding``), bit k
for kind k, and (S, FEATURE_DIM) audio and visual features, each row a sum
of per-kind signature vectors plus seeded noise, so the correct answer to a
modality question is decodable from the corresponding feature vector (and
not from the other one).

The pipeline mirrors a three-stage construction:

    1. scenes are generated with disentangled audio/visual ground truth;
    2. entities are classified into a five-way taxonomy (``classify_entity``,
       ``answer_for``) from which yes/no presence questions and their answers
       follow mechanically; at import the taxonomy fills one answer table,
       ``PRESENCE[question, visible mask, sounding mask]``, which the
       generators and the verifier both read;
    3. preference pairs get a hard-negative rejected response: the answer
       implied by the *other* modality's content, which contradicts the
       relevant modality's ground truth (mismatched audio/visual contexts
       make such contradictions common).

Response vocabulary (size 8): id 0 = "yes", id 1 = "no", ids 2..7 are
caption summaries; caption questions are therefore a V-way choice whose
correct slot is a deterministic function of the active entity set.

Dataset files are line-delimited JSON, one record per line (format
version 1).  ``PairTable.RECORD`` declares the keys of a preference-pair
record, in file order, with the parser of each; ``ItemTable.RECORD`` does
the same for evaluation items, which hold ``ground_truth`` and
``task_group`` in place of ``y_w``/``y_l`` and may also be audiovisual
matching probes.  A pair has one relevant modality: its question is one of
QUESTION_KINDS and its tag audio_related or visual_related.  A sidecar JSON
file (``<path>.stats.json``) stores the generation parameters needed by the
verifier plus summary statistics.

In memory a file is one struct-of-arrays table (``PairTable`` or
``ItemTable``), built once by ``read_records`` or a generator.  Both
generators collect each record's scene references, question, target and
labels as one row, and ``_generated`` turns the rows into the table,
deriving the tag, prompt, matched flag and features.  A table holds one
(N,) column per field, the features (N, d) columns named ``audio`` and
``visual``, with tags, question kinds, answers and task groups as int
codes (indices into MODALITY_TAGS, EVAL_QUESTION_KINDS, ANSWERS,
TASK_GROUPS).  ``t[rows]`` is a sub-table and ``t[i]`` one row (a
``PreferencePair`` or ``EvalItem`` named tuple).  Functions take tables;
only ``dataset_stats`` and ``pair_record`` (one row) ``coerce`` the rows
the benchmark harness passes them.

A table is written by its ``lines``: the text ``json.dumps`` gives each
record, built column by column (each byte-distinct feature row formatted
once) and filled into one template per row.  Its ``records`` are the
rows as dicts, for ``pair_record`` and ``generate_eval_records`` (the
generated items as records) only, which stay because the harness calls
them by name.

Scene pools are built through ``_scenes_of``, which keeps the last pool it
built, so a process that writes a file and then verifies it builds that
world once.  The kept pool cannot be stale: it is keyed by all of
``generate_scenes``' inputs (the config's WORLD values, sequences stored
as tuples), which fix every bit of the pool, and its arrays are read-only,
so no caller can alter it.

Random streams: stream ``(seed, tag, i)`` is ``_rng(seed, tag, i)``, that
is ``default_rng(SeedSequence([seed, tag, i]))``.  Scene s draws from
``(seed, 1, s)``, pair i from ``(seed, 2, i + 1)`` after the allocation
stream ``(seed, 2, 0)``, eval attempt j from ``(seed, 3, j)`` and the eval
allocation from ``(seed, 3, 10**6)``; the signatures use ``(world_seed, 4)``.
Loops seed their streams in one pass through ``_streams``, which runs the
SeedSequence hash over all indices at once and is checked bitwise against
``_rng`` by a property test.  A generator that ``_streams`` yields is valid
only until the next one is drawn: the same Generator is reseeded.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import check_numbers

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
# The (relevant, irrelevant) modality of each single-modality tag.
ROLES = {AUDIO_RELATED: ("audio", "visual"), VISUAL_RELATED: ("visual", "audio")}

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

# Seed-stream tags so scenes, pairs and eval items draw from separate
# deterministic streams.
_SCENE_STREAM = 1
_PAIR_STREAM = 2
_EVAL_STREAM = 3
_SIGNATURE_STREAM = 4
# The eval-attempt stream has no end; it is seeded this many indices at a time.
_EVAL_BLOCK = 1024


class WorldError(ValueError):
    """Invalid entity/scene construction or infeasible generation config."""


def kind_of(entity_id: int) -> str:
    if not (0 <= entity_id < N_ENTITY_KINDS):
        raise WorldError(f"entity_id must be in [0, {N_ENTITY_KINDS}), got {entity_id}")
    return "object" if entity_id < N_OBJECT_KINDS else "pure_sound"


def classify_entity(visible: bool, sounding: bool, kind: str) -> str:
    """Five-way taxonomy from (visible, sounding, object-vs-pure-sound)."""
    if kind not in ("object", "pure_sound"):
        raise WorldError(f"kind must be 'object' or 'pure_sound', got {kind!r}")
    if not (visible or sounding):
        raise WorldError("invalid flag combination: neither visible nor sounding")
    if kind == "object":
        if visible and sounding:
            return "in_view_sound_source"
        if visible:
            return "in_view_silent_object"
        return "out_of_view_sound_source"
    # Pure sounds always sound; "visible" means the sound's source is on
    # screen.
    if not sounding:
        raise WorldError("invalid flag combination: a silent pure sound")
    return "in_view_sound" if visible else "out_of_view_sound"


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


# Presence questions lead QUESTION_KINDS; a question code below this asks
# about one entity kind.
N_PRESENCE = 2
NO_ANSWER = -1


def _presence_table() -> np.ndarray:
    """PRESENCE[q, visible, sounding, k]: the answer id (YES_ID or NO_ID) to
    presence question q about kind k in a context that shows the kinds of
    the visible mask and sounds those of the sounding mask, or NO_ANSWER
    where the taxonomy asks none (k absent from both, a silent pure sound,
    or a category answer_for skips)."""
    answers = np.full((N_PRESENCE, N_ENTITY_KINDS, 2, 2), NO_ANSWER, dtype=np.int64)
    for q, k, shown, heard in itertools.product(range(N_PRESENCE), range(N_ENTITY_KINDS),
                                                (0, 1), (0, 1)):
        try:
            answer = answer_for(classify_entity(shown, heard, kind_of(k)), QUESTION_KINDS[q])
        except WorldError:  # no category: absent, or a silent pure sound
            continue
        if answer is not None:
            answers[q, k, shown, heard] = ANSWERS.index(answer)
    kinds = np.arange(N_ENTITY_KINDS)
    bits = (np.arange(2 ** N_ENTITY_KINDS)[:, None] >> kinds) & 1  # (mask, k) -> bit k
    return answers[:, kinds, bits[:, None], bits[None, :]]


PRESENCE = _presence_table()

# Per question code (an index into EVAL_QUESTION_KINDS): its modality tag
# code and its prompt, for a presence question the prompt of kind 0.
TAG_OF = (VISUAL_RELATED, AUDIO_RELATED, VISUAL_RELATED, AUDIO_RELATED, AUDIOVISUAL)
PROMPT_OF = (VISUAL_PRESENCE_BASE, AUDIO_PRESENCE_BASE, VISUAL_CAPTION_PROMPT,
             AUDIO_CAPTION_PROMPT, AV_MATCHING_PROMPT)


# ---------------------------------------------------------------------------
# Record tables
#
# A column parser maps the values of one field (None where a record lacks
# it) to (column, {row: problem}).  A bad row holds a filler value, so the
# checks of the other columns still run on every row.  Its ``encode`` maps
# a column back to what ``_Table.lines`` formats with %s: the JSON text of
# each value, an int as itself (its str is its JSON text).  Its ``pattern``
# is the regex (one group) of a value's text in that layout, which the
# reader matches (``_Table._LAYOUT``) before it reads each line as JSON.


def _ints(values, key: str):
    """int64 column of JSON integers; floats, strings and booleans are bad."""
    bad = {i: f"{key} {v!r} is not an integer" for i, v in enumerate(values)
           if type(v) is not int or not -2**63 <= v < 2**63}
    return np.array([0 if i in bad else v for i, v in enumerate(values)] if bad else values,
                    dtype=np.int64), bad


def _flags(values, key: str):
    """bool column of JSON booleans."""
    bad = {i: f"{key} {v!r} is not a boolean" for i, v in enumerate(values) if type(v) is not bool}
    return np.array([i not in bad and v for i, v in enumerate(values)], dtype=bool), bad


def _codes(names: tuple):
    """Parser of values that must be one of names, stored as their index;
    ``parse.names`` maps a code back to its value."""
    index = {n: i for i, n in enumerate(names)}

    def parse(values, key: str):
        bad = {i: f"{key} must be one of {names}, got {v!r}" for i, v in enumerate(values)
               if not isinstance(v, str) or v not in index}
        return np.array([0 if i in bad else index[v] for i, v in enumerate(values)],
                        dtype=np.int64), bad

    texts = tuple(map(json.dumps, names))
    parse.names = names
    parse.encode = lambda column: [texts[code] for code in column.tolist()]
    parse.pattern = "(" + "|".join(map(re.escape, texts)) + ")"
    return parse


# The element types of a feature row: JSON numbers, not booleans or strings.
_NUMBERS = {int, float}


def _features(values, key: str):
    """(rows, d) column of lists of JSON numbers, d the most common row length."""
    try:
        column = np.array(values, dtype=np.float64)
        if column.ndim == 2 and set(map(type, itertools.chain.from_iterable(values))) <= _NUMBERS:
            return column, {}
    except (TypeError, ValueError, OverflowError):
        pass
    rows = []
    for value in values:
        try:
            row = np.array(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            row = None
        numbers = row is not None and row.ndim == 1 and set(map(type, value)) <= _NUMBERS
        rows.append(row if numbers else None)
    lengths = Counter(row.size for row in rows if row is not None)
    d = lengths.most_common(1)[0][0] if lengths else 0
    column, bad = np.zeros((len(rows), d)), {}
    for i, row in enumerate(rows):
        if row is None:
            bad[i] = f"{key} is not a list of numbers"
        elif row.size != d:
            bad[i] = f"{key} has {row.size} values, expected {d}"
        else:
            column[i] = row
    return column, bad


def _feature_texts(column) -> list:
    """The JSON text of each row of an (N, d) column; each byte-distinct
    row is formatted once, so -0.0 and NaN keep json.dumps's text."""
    n, d = column.shape
    if not d:  # a zero-width void view ravels to no rows at all
        return ["[]"] * n
    rows = np.ascontiguousarray(column).view(np.dtype((np.void, column.itemsize * d))).ravel()
    distinct, inverse = np.unique(rows, return_inverse=True)
    texts = list(map(json.dumps, distinct.view(column.dtype).reshape(-1, d).tolist()))
    return [texts[i] for i in inverse.tolist()]


_ints.encode = np.ndarray.tolist
_ints.pattern = r"(-?(?:0|[1-9][0-9]{0,17}))"  # at most 18 digits: within int64
_flags.encode = lambda column: [("false", "true")[flag] for flag in column.tolist()]
_flags.pattern = "(true|false)"
_features.encode = _feature_texts
# A list with no "]" before its end: one row, unless it holds a string or
# a nested list, which _features rejects (see _read_layout).
_features.pattern = r"(\[[^]]*\])"


def _non_finite(column, name: str):
    return ~np.isfinite(column).all(axis=1), lambda i: f"{name} holds a non-finite value"


def _outside(column, name: str, size: int):
    return (column < 0) | (column >= size), lambda i: f"{name} {column[i]} outside [0, {size})"


class _Table:
    """Struct of arrays: one numpy column per field of ``Row``, rows on axis 0.

    Subclasses list ``RECORD``, the (record key, parser) pair of each field
    in file order: the one declaration of the file format, which ``check``
    reads and ``lines`` and ``records`` write.  ``_TEMPLATE`` is the line
    ``lines`` fills; ``_LAYOUT``, the same line with each field its
    parser's ``pattern``, is what ``_scan`` matches first.  A column is
    named after its key without the "_feat" suffix.
    """

    RECORD = ()
    Row = None

    def __init_subclass__(cls):
        cls._FIELDS = frozenset(cls.Row._fields)
        cls._TEMPLATE = "{" + ", ".join(f"{json.dumps(key)}: %s" for key, _ in cls.RECORD) + "}"
        patterns = tuple(parse.pattern for _, parse in cls.RECORD)
        cls._LAYOUT = re.compile((re.escape(cls._TEMPLATE) % patterns).encode())

    def __init__(self, **columns):
        # The keyword dict is this call's own: it becomes the instance dict
        # when it holds exactly the Row fields (a missing one is a KeyError).
        if columns.keys() != self._FIELDS:
            columns = {name: columns[name] for name in self.Row._fields}
        self.__dict__ = columns

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

    def lines(self):
        """An iterator over the file line of each row: ``json.dumps`` of its
        record plus a newline, each column encoded once and each row one
        %-template fill.  Lines are made as they are read: holding a
        file's lines at once raised the default pipeline's peak RSS by
        about 1 MB."""
        columns = [parse.encode(getattr(self, name))
                   for (_, parse), name in zip(self.RECORD, self.Row._fields)]
        return map((self._TEMPLATE + "\n").__mod__, zip(*columns))

    def records(self) -> list:
        """The file record of each row: a dict with the RECORD keys in file
        order, codes written as their names."""
        columns = []
        for (key, parse), name in zip(self.RECORD, self.Row._fields):
            values = getattr(self, name).tolist()
            names = getattr(parse, "names", None)
            columns.append([names[code] for code in values] if names else values)
        keys = [key for key, _ in self.RECORD]
        return [dict(zip(keys, row)) for row in zip(*columns)]

    def _faults(self) -> list:
        """(mask of bad rows, problem of row i) of each check of the columns."""
        v_ref, a_ref = self.visual_scene, self.audio_scene
        return [(v_ref < 0, lambda i: f"visual_scene {v_ref[i]} is negative"),
                (a_ref < 0, lambda i: f"audio_scene {a_ref[i]} is negative"),
                _outside(self.prompt_id, "prompt_id", N_PROMPTS),
                (self.matched != (v_ref == a_ref),
                 lambda i: "matched flag inconsistent with scene_refs"),
                _non_finite(self.audio, "audio_feat"), _non_finite(self.visual, "visual_feat")]

    @classmethod
    def check(cls, records) -> tuple:
        """(table, {row: first problem}) of decoded JSON records, each column
        parsed and checked once.

        A row's problem is the first of: a missing field, a value of the
        wrong type or out of range, an unknown tag, question kind, answer or
        task group, a feature row not as long as most rows or with a
        non-finite value, a negative scene reference, a matched flag that
        disagrees with the scene references, or a failed check of the file
        kind; fields in ``RECORD`` (file) order, then the checks in
        ``_faults`` order.
        """
        problems, columns = {}, {}
        for (key, parse), name in zip(cls.RECORD, cls.Row._fields):
            values = [rec.get(key) for rec in records]
            columns[name], bad = parse(values, key)
            for row, problem in bad.items():
                problems.setdefault(row, problem if key in records[row]
                                    else f"missing field {key!r}")
        return cls(**columns)._checked(problems)

    def _checked(self, problems: dict) -> tuple:
        """(self, problems) with the first ``_faults`` problem of each row without one."""
        for mask, problem in self._faults():
            for row in np.flatnonzero(mask).tolist():
                problems.setdefault(row, problem(row))
        return self, problems


class PairTable(_Table):
    """Preference pairs, each of one relevant modality; a row is a PreferencePair."""

    RECORD = (("visual_scene", _ints), ("audio_scene", _ints),
              ("question_kind", _codes(QUESTION_KINDS)), ("prompt_id", _ints),
              ("modality_tag", _codes(MODALITY_TAGS[:AUDIOVISUAL])), ("matched", _flags),
              ("y_w", _ints), ("y_l", _ints), ("audio_feat", _features), ("visual_feat", _features))
    Row = namedtuple("PreferencePair", [key.removesuffix("_feat") for key, _ in RECORD])

    def _faults(self) -> list:
        return super()._faults() + [
            _outside(self.y_w, "y_w", VOCAB_SIZE),
            _outside(self.y_l, "y_l", VOCAB_SIZE),
            (self.y_w == self.y_l, lambda i: "chosen and rejected responses must differ"),
        ]


class ItemTable(_Table):
    """Evaluation items; a row is an EvalItem (ground_truth YES_ID or NO_ID)."""

    RECORD = (("visual_scene", _ints), ("audio_scene", _ints),
              ("question_kind", _codes(EVAL_QUESTION_KINDS)), ("prompt_id", _ints),
              ("modality_tag", _codes(MODALITY_TAGS)), ("matched", _flags),
              ("ground_truth", _codes(ANSWERS)), ("task_group", _codes(TASK_GROUPS)),
              ("audio_feat", _features), ("visual_feat", _features))
    Row = namedtuple("EvalItem", [key.removesuffix("_feat") for key, _ in RECORD])


PreferencePair, EvalItem = PairTable.Row, ItemTable.Row


# ---------------------------------------------------------------------------
# World generation


def _rng(*key) -> np.random.Generator:
    """Generator for one tagged stream, e.g. (seed, stream tag, index)."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64 seeding.
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's running hash of uint32 columns, one constant per call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return result ^ result >> 16


def _streams(prefix, indices):
    """For each index i, a Generator in the state of ``_rng(*prefix, i)``:
    one reused Generator, valid until the next is drawn.  Prefix ints
    (>= 0) split into 32-bit words as in SeedSequence; indices must lie in
    [0, 2**32)."""
    words = []
    for key in map(operator.index, prefix):
        if key < 0:
            raise ValueError(f"stream key {key} is negative")
        words += [key >> shift & _MASK32 for shift in range(0, max(key.bit_length(), 1), 32)]
    index = np.asarray(indices)
    if index.size and (index.dtype.kind not in "iu" or index.min() < 0 or index.max() > _MASK32):
        raise ValueError("stream indices must be integers in [0, 2**32)")
    entropy = [np.full(index.shape, w, np.uint32) for w in words] + [index.astype(np.uint32)]
    entropy += [np.zeros(index.shape, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[j % 4]).astype(np.uint64) for j in range(8)]
    # generate_state(4, uint64): PCG64's seed high and low halves, then its increment's.
    halves = [(out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    gen = np.random.Generator(np.random.PCG64(0))

    def seeded(s_high, s_low, i_high, i_low):
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        state = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        return gen

    return itertools.starmap(seeded, zip(*halves))


def build_signatures(world_seed: int):
    """Per-kind signature vectors, orthonormal rows from a seeded QR."""
    rng = _rng(world_seed, _SIGNATURE_STREAM)
    sigs = []
    for _ in range(2):  # audio then visual
        q, _ = np.linalg.qr(rng.standard_normal((FEATURE_DIM, FEATURE_DIM)))
        sigs.append(q[:N_ENTITY_KINDS])
    return sigs[0], sigs[1]


@dataclass(frozen=True, eq=False)
class Scenes:
    """A scene pool as columns, scene s in row s: the bit masks of the
    entity kinds it shows (``visible``) and sounds (``sounding``), bit k for
    kind k, and its (S, FEATURE_DIM) ``audio`` and ``visual`` features."""

    visible: np.ndarray
    sounding: np.ndarray
    audio: np.ndarray
    visual: np.ndarray

    def __len__(self) -> int:
        return len(self.visible)


def generate_scenes(n_scenes: int, seed: int, world_seed: int, matched_bias=0.5,
                    feature_noise=FEATURE_NOISE) -> Scenes:
    """The scene pool; scene s draws 1-4 distinct kinds from its own stream.

    An object of kind k is visible-and-sounding with probability
    matched_bias (a scalar, or one value per kind), otherwise visible-only
    or sounding-only with equal odds: the per-kind co-occurrence rate
    decides how informative the wrong-modality shortcut is.  Pure sounds
    always sound and use the same value as their in-view probability.  A
    feature row sums the signatures of what its modality presents, plus
    noise at feature_noise (a scalar or an (audio, visual) pair).
    """
    if n_scenes < 1:
        raise WorldError("need at least one scene")
    bias = np.broadcast_to(np.asarray(matched_bias, dtype=np.float64), (N_ENTITY_KINDS,))
    noise = np.broadcast_to(np.asarray(feature_noise, dtype=np.float64), (2,))
    shows = np.zeros((n_scenes, N_ENTITY_KINDS), dtype=bool)
    sounds = np.zeros((n_scenes, N_ENTITY_KINDS), dtype=bool)
    draws = np.empty((2, n_scenes, FEATURE_DIM))  # audio then visual
    for s, rng in enumerate(_streams((seed, _SCENE_STREAM), range(n_scenes))):
        n_entities = int(rng.integers(1, 5))
        for k in sorted(rng.choice(N_ENTITY_KINDS, size=n_entities, replace=False).tolist()):
            u = rng.random()
            if kind_of(k) == "pure_sound":
                shows[s, k], sounds[s, k] = u < bias[k], True
            else:  # [0, bias): both, then visible-only and sounding-only halves
                shows[s, k] = u < bias[k] + (1.0 - bias[k]) / 2.0
                sounds[s, k] = u < bias[k] or not shows[s, k]
        draws[0, s] = rng.standard_normal(FEATURE_DIM)
        draws[1, s] = rng.standard_normal(FEATURE_DIM)
    features = []
    for flags, signatures, level, draw in zip((sounds, shows), build_signatures(world_seed),
                                              noise, draws):
        feats = np.zeros((n_scenes, FEATURE_DIM))
        for k in range(N_ENTITY_KINDS):
            feats[flags[:, k]] += signatures[k]
        features.append(feats + level * draw)
    bits = 1 << np.arange(N_ENTITY_KINDS)
    return Scenes(shows @ bits, sounds @ bits, *features)


# ---------------------------------------------------------------------------
# Question construction


@cache  # at most 2 questions x 2**6 visible masks x 2**6 sounding masks
def presence_candidates(question: int, visible: int, sounding: int) -> tuple:
    """(kind, answer id) of each kind PRESENCE answers presence question
    ``question`` about in a context with these masks, by kind."""
    return tuple((k, a) for k, a in enumerate(PRESENCE[question, visible, sounding].tolist())
                 if a != NO_ANSWER)


def caption_slot(mask):
    """Vocabulary id summarizing an active entity set given as a bit mask
    (V-way caption); a mask column gives a column."""
    return CAPTION_BASE + mask % N_CAPTION_SLOTS


def build_pair(scenes: Scenes, visual_scene: int, audio_scene: int, question_kind: str,
               rng: np.random.Generator):
    """The labels (target kind, y_w, y_l) of a preference pair asking the
    question about the visual scene's video and the audio scene's sound, or
    None when it has no eligible target.

    Presence: a target drawn from the context's candidates; y_w is its
    PRESENCE answer and y_l the inversion, which is the answer the
    irrelevant modality suggests for every eligible category.  Captions
    (target 0): y_w is the caption slot of the relevant modality's kinds,
    y_l the other modality's (shifted by one slot on collision, so it
    contradicts y_w).
    """
    if question_kind not in QUESTION_KINDS:
        raise WorldError(f"no oracle for question kind {question_kind!r}")
    q = QUESTION_KINDS.index(question_kind)
    visible, sounding = int(scenes.visible[visual_scene]), int(scenes.sounding[audio_scene])
    if q < N_PRESENCE:
        candidates = presence_candidates(q, visible, sounding)
        if not candidates:
            return None
        target, y_w = candidates[int(rng.integers(len(candidates)))]
        return target, y_w, NO_ID if y_w == YES_ID else YES_ID
    masks = {"visual": visible, "audio": sounding}
    active, other = (masks[m] for m in ROLES[TAG_OF[q]])
    if not active:
        return None
    y_w, y_l = caption_slot(active), caption_slot(other)
    if y_l == y_w:
        y_l = CAPTION_BASE + ((y_l - CAPTION_BASE + 1) % N_CAPTION_SLOTS)
    return 0, y_w, y_l


def _generated(table, scenes: Scenes, rows: list):
    """The table (PairTable or ItemTable) of generated rows, each (visual
    scene, audio scene, question code, target kind, *labels), the labels
    being the table's other fields in order.  The question code and target
    fix modality_tag and prompt_id, the scene references matched and the
    features."""
    visual_scene, audio_scene, q, target, *labels = map(np.array, zip(*rows))
    derived = dict(visual_scene=visual_scene, audio_scene=audio_scene, question_kind=q,
                   prompt_id=np.asarray(PROMPT_OF)[q] + target,
                   modality_tag=np.asarray(TAG_OF)[q], matched=visual_scene == audio_scene,
                   audio=scenes.audio[audio_scene], visual=scenes.visual[visual_scene])
    names = [name for name in table.Row._fields if name not in derived]
    return table(**derived, **dict(zip(names, labels)))


# ---------------------------------------------------------------------------
# Dataset assembly


# (name, sequence length, upper bound, accepted forms) of the per-world levels.
_LEVELS = (("matched_bias", N_ENTITY_KINDS, 1.0, "a number in [0, 1] or one per entity kind"),
           ("feature_noise", 2, np.inf, "a finite number >= 0 or an (audio, visual) pair"))


# The settings that fix a scene pool, in generate_scenes' argument order;
# sidecars store them so the verifier can rebuild the pool.
WORLD = ("n_scenes", "seed", "world_seed", "matched_bias", "feature_noise")


def _check_rates(cfg, *fractions) -> None:
    """The world rules SynthConfig and EvalConfig share: fractions in
    [0, 1], integer seeds >= 0, n_scenes >= 1 and two scenes when contexts
    can be mismatched (matched_fraction below 1, or matching probes), and a
    matched_bias or feature_noise of a form _LEVELS names; a per-kind or
    per-modality sequence is stored as a float tuple."""
    check_numbers(cfg, WorldError, fractions, high=1)
    check_numbers(cfg, WorldError, ("seed", "world_seed"), integer=True)
    check_numbers(cfg, WorldError, ("n_scenes",), integer=True, low=1)
    if cfg.n_scenes < 2 and (cfg.matched_fraction < 1 or getattr(cfg, "matching_fraction", 0)):
        raise WorldError("mismatched contexts need at least two scenes")
    for name, size, upper, forms in _LEVELS:
        value = getattr(cfg, name)
        levels = np.asarray(value)
        if (levels.dtype.kind not in "iuf" or levels.shape not in ((), (size,))
                or not np.all((levels >= 0) & (levels <= upper) & np.isfinite(levels))):
            raise WorldError(f"{name} must be {forms}, got {value!r}")
        if levels.ndim:
            object.__setattr__(cfg, name, tuple(float(v) for v in value))


# The last pool _scenes_of built: {its WORLD values: the pool}.
_LAST_POOL = {}


def _scenes_of(world) -> Scenes:
    """The scene pool of a config holding the WORLD settings (its sequences
    stored as tuples), with read-only arrays.  The last pool built is kept,
    so a process that writes a file and verifies it builds the pool once."""
    key = tuple(getattr(world, name) for name in WORLD)
    if key not in _LAST_POOL:
        scenes = generate_scenes(*key)
        for column in vars(scenes).values():
            column.flags.writeable = False
        _LAST_POOL.clear()
        _LAST_POOL[key] = scenes
    return _LAST_POOL[key]


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
        check_numbers(self, WorldError, ("n_pairs",), integer=True, low=1)
        _check_rates(self, "matched_fraction", "presence_fraction")


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


def _draw_scene_pair(n_scenes: int, matched: bool, rng: np.random.Generator):
    """(visual scene, audio scene): one scene twice when matched, else two."""
    i = int(rng.integers(n_scenes))
    if matched:
        return i, i
    j = int(rng.integers(n_scenes - 1))
    if j >= i:
        j += 1
    return i, j


def generate_pairs(cfg: SynthConfig) -> PairTable:
    """Deterministic table of preference pairs for a config."""
    scenes = _scenes_of(cfg)
    alloc_rng = _rng(cfg.seed, _PAIR_STREAM, 0)
    matched_flags = _exact_allocation(cfg.n_pairs, cfg.matched_fraction, alloc_rng)
    question_kinds = _question_allocation(cfg, alloc_rng)
    rows = []
    for i, rng in enumerate(_streams((cfg.seed, _PAIR_STREAM), range(1, cfg.n_pairs + 1))):
        kind = str(question_kinds[i])
        for _ in range(200):
            visual_scene, audio_scene = _draw_scene_pair(len(scenes), bool(matched_flags[i]), rng)
            labels = build_pair(scenes, visual_scene, audio_scene, kind, rng)
            if labels is not None:
                break
        else:
            raise WorldError(f"could not realize a {kind} pair after 200 attempts; "
                             "the scene pool is too small or too sparse")
        rows.append((visual_scene, audio_scene, QUESTION_KINDS.index(kind), *labels))
    return _generated(PairTable, scenes, rows)


def pair_record(pair: PreferencePair) -> dict:
    """The dataset-file record of one pair (a row of a PairTable)."""
    return PairTable.coerce([pair]).records()[0]


def _code_counts(codes, names) -> dict:
    """{name: count} of the codes present, sorted by name.  An empty column
    counts nothing, whatever its dtype (``ItemTable.coerce([])``'s is float)."""
    counts = np.bincount(codes, minlength=len(names)) if len(codes) else ()
    return dict(sorted((names[i], int(n)) for i, n in enumerate(counts) if n))


def _record_counts(pairs: PairTable) -> dict:
    """The sidecar counts of a pair table that verify_dataset checks."""
    return {"matched_records": int(pairs.matched.sum()),
            "question_kind_counts": _code_counts(pairs.question_kind, QUESTION_KINDS),
            "modality_tag_counts": _code_counts(pairs.modality_tag, MODALITY_TAGS)}


def dataset_stats(pairs, cfg: SynthConfig) -> dict:
    """Sidecar stats of a pair table (or list of pairs)."""
    pairs = PairTable.coerce(pairs)
    counts = _record_counts(pairs)
    return {
        **_stats_header("preference", cfg, len(pairs)),
        **counts,
        "matched_ratio": counts["matched_records"] / len(pairs) if len(pairs) else 0.0,
        "presence_answer_balance": {"yes": int(np.sum(pairs.y_w == YES_ID)),
                                    "no": int(np.sum(pairs.y_w == NO_ID))},
    }


def _stats_header(kind: str, cfg, n_records: int) -> dict:
    """Sidecar fields shared by both file kinds: what the verifier needs to
    rebuild the world, plus the record count."""
    return {"format_version": FORMAT_VERSION, "kind": kind,
            **{key: getattr(cfg, key) for key in WORLD}, "n_records": n_records}


def stats_path(path) -> str:
    return str(path) + ".stats.json"


def _write_records(path, lines, stats: dict) -> dict:
    """Write a JSONL file of a table's lines and its sidecar stats; returns
    the stats."""
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    with open(stats_path(path), "w", encoding="ascii") as fh:
        fh.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return stats


# Lines _read_layout matches before it indexes their texts: a read holds one
# block's matched groups, not the file's (about 20,000 bytes objects for
# 2,000 lines).
_LAYOUT_BLOCK = 256


def _read_layout(path, table):
    """``_scan``'s result for a file whose every non-blank line, stripped,
    is in the layout ``lines`` writes (``table._LAYOUT``), else None.  The
    file is matched ``_LAYOUT_BLOCK`` lines at a time, and each block's
    texts are indexed into one dict of distinct texts per column.  At the
    end each column's distinct texts are parsed once, in one json.loads,
    and checked by the column's parser; the column is their take.  Feature
    rows that all pass ``_features`` hold no string or nested list, so
    each distinct text was one row."""
    match, line_nos, line_no = table._LAYOUT.fullmatch, [], 0
    indexes, takes = [{} for _ in table.RECORD], [[] for _ in table.RECORD]
    with open(path, "rb") as fh:
        while block := list(itertools.islice(fh, _LAYOUT_BLOCK)):
            rows = []
            for raw in block:
                line_no += 1
                line = raw.strip()
                if line:
                    found = match(line)
                    if found is None:
                        return None
                    rows.append(found.groups())
                    line_nos.append(line_no)
            for index, take, texts in zip(indexes, takes, zip(*rows)):
                take += [index.setdefault(text, len(index)) for text in texts]
    columns = {}
    for (key, parse), name, index, take in zip(table.RECORD, table.Row._fields, indexes, takes):
        try:
            column, bad = parse(json.loads(b"[" + b",".join(index) + b"]"), key)
        except (ValueError, RecursionError):  # not JSON, or too long or deep for it
            return None
        if bad:
            return None
        columns[name] = column[take]
    data, bad_rows = table(**columns)._checked({})
    return data, line_nos, {}, bad_rows


def _scan(path, table) -> tuple:
    """A JSONL file's non-blank lines read through the table's checks.

    Returns (table of the lines that hold a JSON object, their line
    numbers, {line: problem} of the lines that are not ASCII, not JSON or
    not a JSON object, {row: first problem} of the table's rows; see
    ``_Table.check``).  Lines count from 1, blank lines included.  A file
    in the layout ``lines`` writes is read column by column, in blocks of
    ``_LAYOUT_BLOCK`` lines (``_read_layout``); any line outside it (keys
    in another order or spacing, an escaped string, a 19-digit integer, a
    feature row not a flat list of numbers of the common length, ...),
    in whichever block, sends the whole file through one json.loads per
    line, the one place that words each problem.
    """
    if layout := _read_layout(path, table):
        return layout
    records, line_nos, unreadable = [], [], {}
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
            except ValueError:  # an integer longer than int() reads
                problem = "invalid JSON (integer too long)"
            except RecursionError:
                problem = "invalid JSON (nested too deeply)"
            if problem:
                unreadable[line_no] = problem
            elif line:
                records.append(rec)
                line_nos.append(line_no)
    data, bad_rows = table.check(records)
    return data, line_nos, unreadable, bad_rows


def read_records(path, table):
    """The table (PairTable or ItemTable) of a JSONL file's non-blank lines.

    The earliest bad line raises WorldError naming the path, the line and
    the problem (see ``_scan``).
    """
    data, line_nos, unreadable, bad_rows = _scan(path, table)
    problems = {**{line_nos[row]: problem for row, problem in bad_rows.items()}, **unreadable}
    if problems:
        line = min(problems)
        raise WorldError(f"{path}, line {line}: {problems[line]}")
    return data


def write_pairs(path, pairs: PairTable, cfg: SynthConfig) -> dict:
    """Write generated pairs (records plus sidecar stats); returns the stats."""
    return _write_records(path, pairs.lines(), dataset_stats(pairs, cfg))


def assemble_dataset(cfg: SynthConfig, path) -> dict:
    """Generate, write (records plus sidecar stats), and return the stats."""
    return write_pairs(path, generate_pairs(cfg), cfg)


def load_pairs(path) -> PairTable:
    return read_records(path, PairTable)


# ---------------------------------------------------------------------------
# Verification


@dataclass
class VerifyReport:
    n_records: int = 0
    violations: list = field(default_factory=list)  # (line number, reason)
    parse_errors: list = field(default_factory=list)  # (line number, problem)

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors


def verify_dataset(path) -> VerifyReport:
    """Re-derive every record from the world oracle and report violations.

    The lines are read through the loader's checks (``_scan``): a line that
    is not a JSON object is a parse error, and a record failing a column
    check is a violation naming its first problem.  The sidecar's WORLD
    settings must pass SynthConfig's rules, else one parse error on line 0,
    and its n_records must count the file's non-blank lines, else another.
    Each check of the other records then runs on all rows at once, in the
    order a record's problems are reported: scene references, modality
    tag, prompt, chosen response (PRESENCE or the caption slot), rejected
    response (it must contradict the ground truth), and the features, one
    isclose(rtol=1e-5, atol=0) per modality.  A failed reference, presence
    prompt or eligibility ends a record's checks.  When every record
    re-derives, each of the sidecar's _record_counts that differs from the
    file's is one more parse error on line 0 (a block of lines replaced by
    copies of others).  A file without records or sidecar passes.  Lines
    count from 1, blank lines included.
    """
    pairs, line_nos, unreadable, bad_rows = _scan(path, PairTable)
    report = VerifyReport(n_records=len(pairs), parse_errors=sorted(unreadable.items()))
    if not len(pairs) and not os.path.exists(stats_path(path)):
        return report
    try:
        with open(stats_path(path), "r", encoding="ascii") as fh:
            meta = json.load(fh)
        # SynthConfig's rules check the world settings (matched contexts
        # only, so that a one-scene world passes).
        scenes = _scenes_of(SynthConfig(matched_fraction=1.0, **{key: meta[key] for key in WORLD}))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        report.parse_errors.append((0, f"cannot rebuild the world from sidecar stats: {exc}"))
        return report
    n_lines = len(line_nos) + len(unreadable)
    if meta.get("n_records") != n_lines:
        report.parse_errors.append((0, f"sidecar stats say n_records {meta.get('n_records')!r} "
                                       f"but the file has {n_lines} non-blank lines"))

    found = {row: [problem] for row, problem in bad_rows.items()}  # row -> reasons
    live = np.ones(len(pairs), dtype=bool)  # rows still checked
    live[list(found)] = False

    def fault(mask, problem, final=False):
        """Report problem(row) for each row of mask; final ends their checks."""
        for row in np.flatnonzero(mask).tolist():
            found.setdefault(row, []).append(problem(row))
        if final:
            live[mask] = False

    refs = {"visual": pairs.visual_scene, "audio": pairs.audio_scene}
    for m, ref in refs.items():
        fault(live & ((ref < 0) | (ref >= len(scenes))),
              lambda i: f"{m}_scene {ref[i]} outside [0, {len(scenes)})", final=True)
    # Rows out of the checks read scene 0 in what follows.
    q = pairs.question_kind
    scene = {m: np.where(live, refs[m], 0) for m in refs}
    visible, sounding = scenes.visible[scene["visual"]], scenes.sounding[scene["audio"]]
    tag = np.asarray(TAG_OF)[q]
    fault(live & (pairs.modality_tag != tag),
          lambda i: "modality_tag inconsistent with question_kind")
    presence = q < N_PRESENCE
    offset = pairs.prompt_id - np.asarray(PROMPT_OF)[q]
    fault(live & presence & ((offset < 0) | (offset >= N_ENTITY_KINDS)),
          lambda i: "prompt_id outside the presence-prompt range", final=True)
    fault(live & ~presence & (offset != 0), lambda i: "prompt_id inconsistent with question_kind")
    active = np.where(tag == VISUAL_RELATED, visible, sounding)
    truth = np.where(presence,
                     PRESENCE[np.minimum(q, N_PRESENCE - 1), visible, sounding,
                              np.clip(offset, 0, N_ENTITY_KINDS - 1)],
                     np.where(active > 0, caption_slot(active), NO_ANSWER))
    fault(live & (truth == NO_ANSWER),
          lambda i: "question has no eligible target in this context", final=True)
    fault(live & (pairs.y_w != truth),
          lambda i: f"stored y_w={pairs.y_w[i]} but the oracle answer is {truth[i]}")
    fault(live & (pairs.y_l == truth), lambda i: "rejected response agrees with the ground truth")
    for m in ("audio", "visual"):
        stored, feats = getattr(pairs, m), getattr(scenes, m)
        close = np.zeros(len(pairs), dtype=bool)
        if stored.shape[1] == feats.shape[1]:
            close = np.isclose(stored, feats[scene[m]], rtol=1e-5, atol=0).all(axis=1)
        fault(live & ~close, lambda i: f"{m} features do not match the referenced scene")
    report.violations = [(line_nos[row], reason) for row in sorted(found)
                         for reason in found[row]]
    if report.ok:  # records that each re-derive may still not be the file's
        report.parse_errors = [(0, f"sidecar stats say {key} {meta.get(key)!r} but the file "
                                   f"has {got!r}")
                               for key, got in _record_counts(pairs).items()
                               if meta.get(key) != got]
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
        check_numbers(self, WorldError, ("n_items",), integer=True, low=2)
        _check_rates(self, "matched_fraction", "matching_fraction", "dominance_fraction")
        if self.matching_fraction + self.dominance_fraction > 1.0:
            raise WorldError("matching and dominance fractions exceed the item budget")


def generate_eval_items(cfg: EvalConfig) -> ItemTable:
    """Evaluation items with an exactly balanced yes/no ground truth."""
    scenes = _scenes_of(cfg)
    n_matching = int(round(cfg.n_items * cfg.matching_fraction))
    n_dominance = int(round(cfg.n_items * cfg.dominance_fraction))
    n_presence = cfg.n_items - n_matching - n_dominance
    quota = [cfg.n_items // 2, cfg.n_items - cfg.n_items // 2]  # per answer id
    # Matching items answer "yes" exactly when matched; dominance items are
    # always "no".  Reserve their ground truths up front.  Each item is one
    # (visual scene, audio scene, question code, target kind, answer id,
    # task group code) row.
    rows = []
    rngs = itertools.chain.from_iterable(
        _streams((cfg.seed, _EVAL_STREAM), range(start, start + _EVAL_BLOCK))
        for start in itertools.count(0, _EVAL_BLOCK))

    for _ in range(n_matching):
        # The quotas still sum to the items left, so the larger one has room.
        answer = YES_ID if quota[YES_ID] >= quota[NO_ID] else NO_ID
        quota[answer] -= 1
        scene_pair = _draw_scene_pair(len(scenes), answer == YES_ID, next(rngs))
        rows.append((*scene_pair, EVAL_QUESTION_KINDS.index("av_matching"), 0, answer,
                     TASK_GROUPS.index("matching")))

    for i in range(n_dominance):
        if quota[NO_ID] <= 0:
            raise WorldError("dominance items need 'no' budget; lower dominance_fraction")
        quota[NO_ID] -= 1
        for _ in range(500):
            rng = next(rngs)
            visual_scene, audio_scene = _draw_scene_pair(
                len(scenes), bool(rng.random() < cfg.matched_fraction), rng)
            present = int(scenes.visible[visual_scene] | scenes.sounding[audio_scene])
            absent = [k for k in range(N_ENTITY_KINDS) if not present >> k & 1]
            if not absent:
                continue
            target = absent[int(rng.integers(len(absent)))]
            q = i % 2 if kind_of(target) == "object" else 1  # pure sounds are only heard
            rows.append((visual_scene, audio_scene, q, target, NO_ID,
                         TASK_GROUPS.index("dominance")))
            break
        else:
            raise WorldError("could not satisfy the dominance-item quota")

    matched_flags = _exact_allocation(n_presence, cfg.matched_fraction,
                                      _rng(cfg.seed, _EVAL_STREAM, 10 ** 6))
    for i in range(n_presence):
        q = i % 2  # visual_presence, then audio_presence
        group = TASK_GROUPS.index("adv_hallucination" if q == 0 else "vda_hallucination")
        for _ in range(500):
            rng = next(rngs)
            visual_scene, audio_scene = _draw_scene_pair(len(scenes), bool(matched_flags[i]), rng)
            candidates = list(presence_candidates(q, int(scenes.visible[visual_scene]),
                                                  int(scenes.sounding[audio_scene])))
            rng.shuffle(candidates)
            placed = next((c for c in candidates if quota[c[1]] > 0), None)  # (target, answer)
            if placed:
                quota[placed[1]] -= 1
                rows.append((visual_scene, audio_scene, q, *placed, group))
                break
        else:
            raise WorldError("could not balance the presence items; enlarge the scene pool")

    return _generated(ItemTable, scenes, rows)


def generate_eval_records(cfg: EvalConfig) -> list:
    """The records of ``generate_eval_items(cfg)``."""
    return generate_eval_items(cfg).records()


def eval_stats(items: ItemTable, cfg: EvalConfig) -> dict:
    """Sidecar stats of an eval-item table."""
    return {
        **_stats_header("eval", cfg, len(items)),
        "task_group_counts": _code_counts(items.task_group, TASK_GROUPS),
        "answer_balance": dict(zip(ANSWERS, np.bincount(items.ground_truth,
                                                        minlength=len(ANSWERS)).tolist())),
    }


def write_eval_items(path, items: ItemTable, cfg: EvalConfig) -> dict:
    """Write generated eval items (records plus sidecar stats); returns the stats."""
    return _write_records(path, items.lines(), eval_stats(items, cfg))


def assemble_eval_items(cfg: EvalConfig, path) -> dict:
    return write_eval_items(path, generate_eval_items(cfg), cfg)
