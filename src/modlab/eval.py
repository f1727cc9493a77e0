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
corruption from one generator seeded by the spec's seed: the items whose
chosen modality is audio form one block, drawn first, and the visual
block follows, each in item order.  An item's draw therefore depends on
its position among the items sharing its modality, and the relevant and
irrelevant analyses restart the same stream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .corrupt import CorruptionSpec, corrupt_rows
from .policy import ModalityContext, PolicyParams, forward, modality_roles, stack_contexts
from .synth import (
    EVAL_QUESTION_KINDS,
    NO_ID,
    TASK_GROUPS,
    YES_ID,
    answer_id,
    context_from_record,
    read_records,
)

SHIFT_HISTOGRAM_RANGE = (-5.0, 5.0)
SHIFT_HISTOGRAM_BINS = 41  # equal-width bins; one underflow + one overflow added


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class EvalItem:
    context: ModalityContext
    question_kind: str
    ground_truth: str
    task_group: str

    def __post_init__(self):
        if self.question_kind not in EVAL_QUESTION_KINDS:
            raise EvalError(f"unknown question_kind {self.question_kind!r}")
        if self.ground_truth not in ("yes", "no"):
            raise EvalError(f"ground_truth must be 'yes' or 'no', got {self.ground_truth!r}")
        if self.task_group not in TASK_GROUPS:
            raise EvalError(f"unknown task_group {self.task_group!r}")


def item_from_record(rec: dict) -> EvalItem:
    return EvalItem(
        context=context_from_record(rec),
        question_kind=rec["question_kind"],
        ground_truth=rec["ground_truth"],
        task_group=rec["task_group"],
    )


def load_eval_items(path):
    return read_records(path, item_from_record)


@dataclass
class MetricsReport:
    """Stratum tallies and the derived percentages.

    Metrics whose stratum is empty are None (undefined), not zero.  When a
    nonempty stratum scores zero the harmonic mean degenerates; f1 is then
    reported as 0 with degenerate_f1 set.
    """

    yes_total: int = 0
    yes_correct: int = 0
    no_total: int = 0
    no_correct: int = 0
    degenerate_f1: bool = False

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
    def f1(self):
        pre, rec = self.precision, self.recall
        if pre is None or rec is None:
            return None
        if pre + rec == 0:
            # Both stratum accuracies are zero; flagged rather than NaN.
            self.degenerate_f1 = True
            return 0.0
        return 2.0 * pre * rec / (pre + rec)

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "pa": self.pa,
            "hr": self.hr,
            "yes_correct": self.yes_correct,
            "yes_total": self.yes_total,
            "no_correct": self.no_correct,
            "no_total": self.no_total,
        }


def predictions(params: PolicyParams, items) -> list:
    """Yes/no decision per item: argmax over the two answer tokens, ties -> "no"."""
    if not items:
        return []
    logprobs = forward(params, *stack_contexts([item.context for item in items])).logprobs
    return ["yes" if yes else "no" for yes in logprobs[:, YES_ID] > logprobs[:, NO_ID]]


def predict(params: PolicyParams, item: EvalItem) -> str:
    """predictions() of one item."""
    return predictions(params, [item])[0]


def score(predictions, items) -> MetricsReport:
    """Stratified tallies over aligned predictions and items."""
    if len(predictions) != len(items):
        raise EvalError(f"{len(predictions)} predictions for {len(items)} items")
    report = MetricsReport()
    for pred, item in zip(predictions, items):
        if pred not in ("yes", "no"):
            raise EvalError(f"prediction must be 'yes' or 'no', got {pred!r}")
        correct = pred == item.ground_truth
        if item.ground_truth == "yes":
            report.yes_total += 1
            report.yes_correct += int(correct)
        else:
            report.no_total += 1
            report.no_correct += int(correct)
    return report


def evaluate(params: PolicyParams, items) -> MetricsReport:
    return score(predictions(params, items), items)


def evaluate_by_group(params: PolicyParams, items) -> dict:
    """MetricsReport per task_group plus an "overall" entry."""
    preds = predictions(params, items)
    out = {"overall": score(preds, items)}
    for group in sorted({item.task_group for item in items}):
        subset = [i for i, item in enumerate(items) if item.task_group == group]
        out[group] = score([preds[i] for i in subset], [items[i] for i in subset])
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
                 pools=None) -> ShiftStats:
    """Delta = log p(correct | clean) - log p(correct | corrupted).

    which selects whether the prompt-RELEVANT or prompt-IRRELEVANT modality
    of each item is corrupted (per its modality tag).  All draws come from
    one generator seeded by spec.seed, the audio block (items whose chosen
    modality is audio, in item order) before the visual block, so the
    analysis is repeatable.
    """
    if which not in ("relevant", "irrelevant"):
        raise EvalError(f"which must be 'relevant' or 'irrelevant', got {which!r}")
    role = 0 if which == "relevant" else 1
    if not items:
        deltas = np.empty(0)
    else:
        try:
            modalities = [(modality_roles(item.context.modality_tag)[role],) for item in items]
        except ValueError:
            raise EvalError("shift analysis needs single-modality items") from None
        audio, visual, ids = stack_contexts([item.context for item in items])
        corrupted = corrupt_rows({"audio": audio, "visual": visual}, spec, modalities,
                                 np.random.default_rng(spec.seed), pools)
        rows = np.arange(len(items))
        answers = np.array([answer_id(item.ground_truth) for item in items])
        clean = forward(params, audio, visual, ids).logprobs[rows, answers]
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


def compare(named_params, items, shift_spec: CorruptionSpec = None):
    """Side-by-side reports for several checkpoints on one item set.

    named_params is a sequence of (name, PolicyParams).  When a corruption
    spec is given, relevant/irrelevant shift statistics are included for
    every model (single-modality items only).
    """
    if not named_params:
        raise EvalError("compare needs at least one model")
    unimodal = [it for it in items if it.context.modality_tag != "audiovisual"]
    rows = []
    for name, params in named_params:
        row = ComparisonRow(name=name, group_reports=evaluate_by_group(params, items))
        if shift_spec is not None and unimodal:
            row.shift_relevant = loglik_shift(params, unimodal, shift_spec, "relevant")
            row.shift_irrelevant = loglik_shift(params, unimodal, shift_spec, "irrelevant")
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
