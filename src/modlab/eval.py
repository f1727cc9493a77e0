"""Scoring and analysis of trained policies on the synthetic benchmark.

Metric conventions (deliberately nonstandard, kept verbatim from the
benchmark protocol this mirrors):

    precision  percent correct among items whose ground truth is "yes"
    recall     percent correct among items whose ground truth is "no"
    accuracy   percent correct overall
    f1         harmonic mean of precision and recall

In classical terminology precision here is the true-positive rate
(sensitivity) and recall the true-negative rate (specificity).  The same
two stratum accuracies are reported as pa (perception accuracy) and hr
(hallucination resistance) for dominance/correlation-style groupings.

Predictions compare the yes/no log-probabilities only (distractor tokens
are ignored) and break exact ties toward "no", the conservative
anti-hallucination default.

The log-likelihood-shift analysis corrupts one modality of each item and
reports the change in the correct answer's log-probability: a
modality-faithful model shifts a lot when the prompt-relevant modality is
corrupted and very little when the irrelevant one is.  Each call draws its
corruption from one generator seeded by the seed it is passed (the CLI's
global seed, an experiment's run seed): the items whose chosen modality
is audio form one block, drawn first, and the visual block follows, each
in item order.  An item's draw therefore depends on its position among
the items sharing its modality, and the relevant and irrelevant analyses
restart the same stream.

Items are a ``synth.ItemTable``: scoring, grouping and the shift analysis
work on its columns and masks.  Only ``evaluate`` (a list of ``EvalItem``
rows) and ``predict`` (one item) stack rows, which the benchmark harness
passes them; ``predict`` and ``item_from_record`` (one decoded record as a
row) have no caller in the package and stay only for the harness.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .corrupt import CorruptionSpec, FeaturePool, corrupt
from .policy import PolicyParams, forward
from .synth import (
    ANSWERS,
    AUDIOVISUAL,
    EVAL_QUESTION_KINDS,
    MODALITY_TAGS,
    N_PROMPTS,
    NO_ID,
    ROLES,
    TASK_GROUPS,
    YES_ID,
    EvalItem,
    ItemTable,
    read_records,
)

SHIFT_HISTOGRAM_RANGE = (-5.0, 5.0)
SHIFT_HISTOGRAM_BINS = 41  # equal-width bins; one underflow + one overflow added


class EvalError(ValueError):
    pass


def item_from_record(rec: dict) -> EvalItem:
    """The EvalItem row of one decoded eval-item record.  The code fields,
    prompt_id (an integer in [0, N_PROMPTS)) and the features (finite 1-D)
    are checked, each failure an EvalError naming the field;
    ``load_eval_items`` checks whole files."""
    codes = {}
    for key, names in (("question_kind", EVAL_QUESTION_KINDS), ("modality_tag", MODALITY_TAGS),
                       ("ground_truth", ANSWERS), ("task_group", TASK_GROUPS)):
        if rec[key] not in names:
            raise EvalError(f"{key} must be one of {names}, got {rec[key]!r}")
        codes[key] = names.index(rec[key])
    prompt = rec["prompt_id"]
    if type(prompt) is not int or not 0 <= prompt < N_PROMPTS:  # a bool is not an int here
        raise EvalError(f"prompt_id must be an integer in [0, {N_PROMPTS}), got {prompt!r}")
    features = []
    for key in ("audio_feat", "visual_feat"):
        try:
            x = np.array(rec[key], dtype=np.float64)
        except (TypeError, ValueError):
            x = None
        if x is None or x.ndim != 1 or not all(map(math.isfinite, x.tolist())):
            raise EvalError(f"{key} must be a 1-D list of finite numbers")
        features.append(x)
    return EvalItem(visual_scene=rec["visual_scene"], audio_scene=rec["audio_scene"],
                    prompt_id=prompt, matched=rec["matched"], audio=features[0],
                    visual=features[1], **codes)


def load_eval_items(path) -> ItemTable:
    return read_records(path, ItemTable)


@dataclass
class MetricsReport:
    """Stratum tallies and the derived percentages.

    Metrics whose stratum is empty are None (undefined), not zero.  When
    both strata are nonempty and score zero the harmonic mean degenerates;
    f1 is then reported as 0 and degenerate_f1 is True.
    """

    yes_total: int = 0
    yes_correct: int = 0
    no_total: int = 0
    no_correct: int = 0

    @property
    def total(self) -> int:
        return self.yes_total + self.no_total

    @property
    def accuracy(self):
        if self.total == 0:
            return None
        return 100.0 * (self.yes_correct + self.no_correct) / self.total

    @property
    def precision(self):
        if self.yes_total == 0:
            return None
        return 100.0 * self.yes_correct / self.yes_total

    @property
    def recall(self):
        if self.no_total == 0:
            return None
        return 100.0 * self.no_correct / self.no_total

    @property
    def pa(self):
        return self.precision

    @property
    def hr(self):
        return self.recall

    @property
    def degenerate_f1(self) -> bool:
        return (self.yes_total > 0 and self.no_total > 0
                and self.yes_correct == 0 and self.no_correct == 0)

    @property
    def f1(self):
        pre, rec = self.precision, self.recall
        if pre is None or rec is None:
            return None
        if self.degenerate_f1:  # flagged rather than NaN
            return 0.0
        return 2.0 * pre * rec / (pre + rec)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "accuracy", "precision", "recall", "f1", "pa", "hr",
            "yes_correct", "yes_total", "no_correct", "no_total")}


def predictions(params: PolicyParams, items) -> np.ndarray:
    """Yes/no decision per item, an array of "yes"/"no": argmax over the two
    answer tokens, ties -> "no"."""
    if not len(items):
        return np.empty(0, dtype="<U3")
    logprobs = forward(params, items.audio, items.visual, items.prompt_id).logprobs
    return np.where(logprobs[:, YES_ID] > logprobs[:, NO_ID], ANSWERS[YES_ID], ANSWERS[NO_ID])


def predict(params: PolicyParams, item: EvalItem) -> str:
    """predictions() of one item."""
    return str(predictions(params, ItemTable.coerce([item]))[0])


def score(predictions, items) -> MetricsReport:
    """Stratified tallies over aligned predictions ("yes"/"no") and items."""
    preds = np.asarray(predictions, dtype=np.str_)
    if len(preds) != len(items):
        raise EvalError(f"{len(preds)} predictions for {len(items)} items")
    said_yes = preds == ANSWERS[YES_ID]
    invalid = ~said_yes & (preds != ANSWERS[NO_ID])
    if invalid.any():
        raise EvalError(f"prediction must be 'yes' or 'no', got {str(preds[invalid][0])!r}")
    truly_yes = items.ground_truth == YES_ID
    correct = said_yes == truly_yes
    return MetricsReport(yes_total=int(truly_yes.sum()),
                         yes_correct=int((correct & truly_yes).sum()),
                         no_total=int((~truly_yes).sum()),
                         no_correct=int((correct & ~truly_yes).sum()))


def evaluate(params: PolicyParams, items) -> MetricsReport:
    items = ItemTable.coerce(items)
    return score(predictions(params, items), items)


def evaluate_by_group(params: PolicyParams, items) -> dict:
    """MetricsReport per task_group plus an "overall" entry."""
    preds = predictions(params, items)
    out = {"overall": score(preds, items)}
    for group in sorted(TASK_GROUPS[g] for g in np.unique(items.task_group)):
        rows = items.task_group == TASK_GROUPS.index(group)
        out[group] = score(preds[rows], items[rows])
    return out


# ---------------------------------------------------------------------------
# Log-likelihood shift analysis


@dataclass
class ShiftStats:
    """Distribution of per-item log-likelihood changes under corruption."""

    mean: float
    mean_abs: float
    histogram: np.ndarray  # underflow bin + SHIFT_HISTOGRAM_BINS + overflow bin
    bin_edges: np.ndarray
    deltas: np.ndarray = field(repr=False, default=None)


def _shift_histogram(deltas: np.ndarray):
    lo, hi = SHIFT_HISTOGRAM_RANGE
    edges = np.linspace(lo, hi, SHIFT_HISTOGRAM_BINS + 1)
    inner, _ = np.histogram(deltas, bins=edges)
    counts = np.concatenate([[np.sum(deltas < lo)], inner, [np.sum(deltas > hi)]])
    return counts, edges


def loglik_shift(params: PolicyParams, items, spec: CorruptionSpec, which: str,
                 seed: int) -> ShiftStats:
    """Delta = log p(correct | clean) - log p(correct | corrupted).

    which selects whether the prompt-RELEVANT or prompt-IRRELEVANT modality
    of each item is corrupted (per its modality tag).  All draws come from
    one generator seeded by seed, the audio block (items whose chosen
    modality is audio, in item order) before the visual block, so the
    analysis is repeatable.  random_swap draws from the items' own feature
    columns.
    """
    if which not in ("relevant", "irrelevant"):
        raise EvalError(f"which must be 'relevant' or 'irrelevant', got {which!r}")
    if not len(items):
        deltas = np.empty(0)
    else:
        role = ("relevant", "irrelevant").index(which)
        # Each modality is the chosen role of one tag: its mask is that tag's rows.
        masks = {roles[role]: items.modality_tag == tag for tag, roles in ROLES.items()}
        if not (masks["audio"] | masks["visual"]).all():
            raise EvalError("shift analysis needs single-modality items")
        rng, corrupted = np.random.default_rng(seed), {}
        for m in ("audio", "visual"):  # the audio block draws first, whatever the masks' order
            column, mask = getattr(items, m), masks[m]
            corrupted[m] = column.copy()
            if mask.any():
                pool = FeaturePool(column) if spec.kind == "random_swap" else None
                corrupted[m][mask] = corrupt(column[mask], spec, pool, rng)
        rows, answers, ids = np.arange(len(items)), items.ground_truth, items.prompt_id
        clean = forward(params, items.audio, items.visual, ids).logprobs[rows, answers]
        shifted = forward(params, corrupted["audio"], corrupted["visual"], ids).logprobs
        deltas = clean - shifted[rows, answers]
    counts, edges = _shift_histogram(deltas)
    return ShiftStats(
        mean=float(deltas.mean()) if len(items) else 0.0,
        mean_abs=float(np.abs(deltas).mean()) if len(items) else 0.0,
        histogram=counts,
        bin_edges=edges,
        deltas=deltas,
    )


# ---------------------------------------------------------------------------
# Model comparison


@dataclass
class ComparisonRow:
    name: str
    group_reports: dict
    shift_relevant: ShiftStats = None
    shift_irrelevant: ShiftStats = None


def compare(named_params, items, shift_spec: CorruptionSpec = None, seed: int = 0):
    """Side-by-side reports for several checkpoints on one item set.

    named_params is a sequence of (name, PolicyParams).  When a corruption
    spec is given, relevant/irrelevant shift statistics, drawn from seed,
    are included for every model (single-modality items only).
    """
    if not named_params:
        raise EvalError("compare needs at least one model")
    unimodal = items[items.modality_tag != AUDIOVISUAL]
    rows = []
    for name, params in named_params:
        row = ComparisonRow(name=name, group_reports=evaluate_by_group(params, items))
        if shift_spec is not None and len(unimodal):
            row.shift_relevant = loglik_shift(params, unimodal, shift_spec, "relevant", seed)
            row.shift_irrelevant = loglik_shift(params, unimodal, shift_spec, "irrelevant", seed)
        rows.append(row)
    return rows


_CSV_METRICS = ("accuracy", "precision", "recall", "f1", "pa", "hr")


def comparison_to_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "group"] + list(_CSV_METRICS)
                        + ["shift_relevant_mean_abs", "shift_irrelevant_mean_abs"])
        for row in rows:
            for group, report in sorted(row.group_reports.items()):
                rel = f"{row.shift_relevant.mean_abs:.6f}" if row.shift_relevant else ""
                irr = f"{row.shift_irrelevant.mean_abs:.6f}" if row.shift_irrelevant else ""
                writer.writerow(
                    [row.name, group]
                    + [_fmt(getattr(report, m)) for m in _CSV_METRICS]
                    + [rel, irr]
                )


def _fmt(value) -> str:
    return "" if value is None else f"{value:.2f}"


def comparison_table(rows) -> str:
    """Fixed-width text table of the overall metrics per model."""
    header = f"{'model':<20} {'group':<18} " + " ".join(f"{m:>9}" for m in _CSV_METRICS)
    lines = [header, "-" * len(header)]
    for row in rows:
        for group, report in sorted(row.group_reports.items()):
            cells = " ".join(f"{_fmt(getattr(report, m)) or '-':>9}" for m in _CSV_METRICS)
            lines.append(f"{row.name:<20} {group:<18} {cells}")
        if row.shift_relevant is not None:
            lines.append(
                f"{row.name:<20} {'shift mean|d|':<18} "
                f"relevant={row.shift_relevant.mean_abs:.4f} "
                f"irrelevant={row.shift_irrelevant.mean_abs:.4f}"
            )
    return "\n".join(lines)


def shift_histogram_to_file(stats: ShiftStats, path) -> None:
    """Histogram as CSV: bin lower/upper edges (inf at the open ends), count."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lower", "upper", "count"])
        writer.writerow(["-inf", f"{stats.bin_edges[0]:.6f}", int(stats.histogram[0])])
        for i in range(len(stats.bin_edges) - 1):
            writer.writerow([f"{stats.bin_edges[i]:.6f}", f"{stats.bin_edges[i + 1]:.6f}",
                             int(stats.histogram[i + 1])])
        writer.writerow([f"{stats.bin_edges[-1]:.6f}", "inf", int(stats.histogram[-1])])
