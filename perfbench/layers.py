"""What the benchmark wraps, and the metrics it derives from the spans.

``TARGETS`` lists the public modlab functions the traced run wraps, one
group per module.  ``PROBE_LABELS`` is the handful of coarse calls the
untraced run also wraps, so it can count pairs and items and check results;
they are called a few thousand times per iteration at most.

Each per-layer metric names the end-to-end metrics it should move and on
which workload (``metric@workload``), so a later change can say in advance
which numbers it expects to move.  ``cli.<command>_s`` are the per-command
wall times the ``cli`` workload prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from spans import Recorder, Target, arg, self_times

PACKAGE = "modlab"
SUITES = ("closed_form", "gradient", "stop_gradient", "dataset", "pass_count", "metrics")
COMMANDS = ("synth", "train", "eval", "report", "verify")


def _n_result(a, k, r):
    return len(r)


def _n_arg(pos, name):
    return lambda a, k, r: len(arg(a, k, pos, name))


def _warmup_pairs(a, k, r):
    dataset, steps = arg(a, k, 0, "dataset"), arg(a, k, 1, "steps")
    return steps * min(arg(a, k, 4, "batch_size", 16), len(dataset))


def _corrupt_span(a, k):
    return "corrupt." + arg(a, k, 1, "spec").kind


def _pool_size(a, k, r):
    return len(arg(a, k, 2, "pool") or ())


TARGETS = (
    Target("synth", "generate_pairs", units=_n_result,
           capture=lambda a, k, r: (arg(a, k, 0, "cfg"), list(r))),
    Target("synth", "generate_eval_records", units=_n_result),
    Target("synth", "build_pair", units=lambda a, k, r: int(r is not None)),
    Target("synth", "load_pairs", units=_n_result),
    Target("synth", "verify_dataset", units=lambda a, k, r: r.n_records),
    Target("synth", "assemble_dataset"),
    Target("synth", "assemble_eval_items"),
    Target("policy", "forward_logprobs"),
    Target("policy", "backward"),
    Target("policy.GradAccumulator", "add", span="policy.grad_accumulate"),
    Target("policy", "apply_gradient_step"),
    Target("policy", "save_checkpoint"),
    Target("policy", "load_checkpoint"),
    Target("corrupt", "corrupt", span=_corrupt_span, units=_pool_size),
    Target("core", "closed_form_policy"),
    Target("train", "pair_loss_terms", span="core.loss"),
    Target("train", "warmup_reference", units=_warmup_pairs),
    Target("train", "train_step", units=_n_arg(2, "batch")),
    Target("train", "train",
           capture=lambda a, k, r: (arg(a, k, 1, "cfg").loss_variant, r.counters, r.losses)),
    Target("eval", "predict"),
    Target("eval", "evaluate", units=_n_arg(1, "items")),
    Target("eval", "loglik_shift", units=_n_arg(1, "items")),
    Target("eval", "load_eval_items", units=_n_result),
    Target("oracles", "pga_argmax"),
    *(Target("oracles", f"{s}_suite", span=f"oracles.{s}") for s in SUITES),
    Target("oracles", "run_all"),
    Target("experiments", "build_world"),
    Target("experiments", "run_benchmark"),
    *(Target("cli", f"cmd_{c}", span=f"cli.{c}") for c in COMMANDS),
)

PROBE_LABELS = {"train.train_step", "train.train", "eval.evaluate", "eval.loglik_shift",
                "synth.generate_pairs", "cli.verify"}
PROBES = tuple(t for t in TARGETS if t.label in PROBE_LABELS)

# Train-step split: each span inside a step counts toward the part of its
# nearest ancestor-or-self listed here; the step's own remainder is "self".
STEP_PARTS = {
    "policy.forward_logprobs": "forward",
    "core.loss": "loss",
    "policy.backward": "backward",
    "policy.grad_accumulate": "accumulate",
    "policy.apply_gradient_step": "update",
    "train.train_step": "self",
}
STEP_PART_NAMES = ("corrupt", "forward", "loss", "backward", "accumulate", "update", "self")


def _step_part(name: str):
    return "corrupt" if name.startswith("corrupt.") else STEP_PARTS.get(name)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


class SpanStats:
    """Per-name call counts, durations, self times and work units.

    With a speed meter, durations are reference-speed seconds without the
    meter's own kernel time; without one they are raw wall seconds.
    """

    def __init__(self, recorders, meter=None):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_total: dict = {}
        self.units: dict = {}
        self.step_calls: dict = {}  # calls made inside a train step
        self.step_total: dict = {}
        self.step_parts = dict.fromkeys(STEP_PART_NAMES, 0.0)
        self.step_ms: list = []
        self.absent: dict = {}
        for rec in recorders:
            if meter is None:
                self._add(rec, [e - s for s, e in zip(rec.starts, rec.ends)], self_times(rec))
            else:
                self._add(rec, *meter.span_times(rec))

    def _add(self, rec: Recorder, durations: list, own: list) -> None:
        n = len(rec)
        in_step = [False] * n
        part = [None] * n
        for i in range(n):
            name, p, dur = rec.name_of(i), rec.parents[i], durations[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_total[name] = self.self_total.get(name, 0.0) + own[i]
            if i in rec.units:
                self.units[name] = self.units.get(name, 0) + rec.units[i]
            if name == "train.train_step":
                in_step[i], part[i] = True, "self"
                self.step_ms.append(dur * 1e3)
            elif p >= 0 and in_step[p]:
                in_step[i], part[i] = True, _step_part(name) or part[p]
                self.step_calls[name] = self.step_calls.get(name, 0) + 1
                self.step_total[name] = self.step_total.get(name, 0.0) + dur
            if in_step[i]:
                self.step_parts[part[i]] += own[i]

    def _seen(self, name: str, metric: str) -> bool:
        if self.calls.get(name):
            return True
        self.absent[metric] = f"no {name} calls on this workload"
        return False

    def mean(self, metric: str, name: str, scale: float, per_units: bool = False,
             self_time: bool = False) -> float:
        if not self._seen(name, metric):
            return 0.0
        total = (self.self_total if self_time else self.total)[name]
        count = self.units.get(name, 0) if per_units else self.calls[name]
        if not count:
            self.absent[metric] = f"{name} did no work on this workload"
            return 0.0
        return total * scale / count

    def units_per_call(self, metric: str, name: str) -> float:
        if not self._seen(name, metric):
            return 0.0
        return self.units.get(name, 0) / self.calls[name]

    @property
    def step_pairs(self) -> int:
        return self.units.get("train.train_step", 0)

    def per_step_pair(self, metric: str, name: str, counts: bool, scale: float = 1.0) -> float:
        if not self.step_pairs or not self._seen(name, metric):
            return 0.0
        table = self.step_calls if counts else self.step_total
        return table.get(name, 0) * scale / self.step_pairs

    def corrupt_calls_per_pair(self) -> float:
        if not self.step_pairs:
            return 0.0
        return sum(v for k, v in self.step_calls.items() if k.startswith("corrupt.")) / self.step_pairs

    def attempts_per_pair(self, metric: str) -> float:
        if not self._seen("synth.build_pair", metric):
            return 0.0
        return self.calls["synth.build_pair"] / max(self.units.get("synth.build_pair", 0), 1)

    def step_percentile(self, metric: str, p: float) -> float:
        if not self._seen("train.train_step", metric):
            return 0.0
        return percentile(self.step_ms, p)

    def step_frac(self, part_name: str) -> float:
        total = sum(self.step_parts.values())
        return self.step_parts[part_name] / total if total else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    value: Callable[[SpanStats, str], float]
    moves: tuple


_SYNTH_MOVES = ("wall_s@experiment", "cli.synth_s@cli", "cli.train_s@cli", "cli.verify_s@cli")
_POLICY_MOVES = ("train_pairs_per_s@experiment", "cli.train_s@cli", "cli.eval_s@cli",
                 "cli.verify_s@cli")
_CORRUPT_MOVES = ("train_pairs_per_s@corruption_ablation",)
_LOSS_MOVES = ("train_pairs_per_s@experiment",)
_VERIFY_MOVES = ("cli.verify_s@cli",)
_TRAIN_MOVES = ("train_pairs_per_s@experiment", "wall_s@experiment",
                "train_pairs_per_s@corruption_ablation", "wall_s@corruption_ablation")
_EVAL_MOVES = ("eval_items_per_s@experiment", "cli.eval_s@cli", "cli.report_s@cli")
_TOP_MOVES = ("wall_s@experiment", "wall_s@cli", "wall_s@corruption_ablation",
              "cli.synth_s@cli", "cli.train_s@cli", "cli.eval_s@cli", "cli.report_s@cli",
              "cli.verify_s@cli")


def _mean(name, scale, **kw):
    return lambda s, m: s.mean(m, name, scale, **kw)


LAYER_METRICS = (
    LayerMetric("synth.generate_pairs.us_per_pair", "us",
                _mean("synth.generate_pairs", 1e6, per_units=True), _SYNTH_MOVES),
    LayerMetric("synth.generate_eval_records.us_per_item", "us",
                _mean("synth.generate_eval_records", 1e6, per_units=True), _SYNTH_MOVES),
    LayerMetric("synth.build_pair.attempts_per_pair", "attempts/pair",
                lambda s, m: s.attempts_per_pair(m), _SYNTH_MOVES),
    LayerMetric("synth.load_pairs.us_per_record", "us",
                _mean("synth.load_pairs", 1e6, per_units=True), _SYNTH_MOVES),
    LayerMetric("synth.verify_dataset.us_per_record", "us",
                _mean("synth.verify_dataset", 1e6, per_units=True), _SYNTH_MOVES),
    LayerMetric("policy.forward_logprobs.calls_per_pair", "calls/pair",
                lambda s, m: s.per_step_pair(m, "policy.forward_logprobs", True), _POLICY_MOVES),
    LayerMetric("policy.forward_logprobs.us_per_call", "us",
                _mean("policy.forward_logprobs", 1e6), _POLICY_MOVES),
    LayerMetric("policy.backward.calls_per_pair", "calls/pair",
                lambda s, m: s.per_step_pair(m, "policy.backward", True), _POLICY_MOVES),
    LayerMetric("policy.backward.us_per_call", "us",
                _mean("policy.backward", 1e6), _POLICY_MOVES),
    LayerMetric("policy.grad_accumulate.us_per_pair", "us",
                lambda s, m: s.per_step_pair(m, "policy.grad_accumulate", False, 1e6),
                _POLICY_MOVES),
    LayerMetric("policy.apply_gradient_step.us_per_call", "us",
                _mean("policy.apply_gradient_step", 1e6), _POLICY_MOVES),
    LayerMetric("policy.save_checkpoint.ms", "ms",
                _mean("policy.save_checkpoint", 1e3), _POLICY_MOVES),
    LayerMetric("policy.load_checkpoint.ms", "ms",
                _mean("policy.load_checkpoint", 1e3), _POLICY_MOVES),
    *(LayerMetric(f"corrupt.{kind}.us_per_call", "us", _mean(f"corrupt.{kind}", 1e6),
                  _CORRUPT_MOVES)
      for kind in ("zeros", "gaussian", "random_swap", "diffusion")),
    LayerMetric("corrupt.calls_per_pair", "calls/pair",
                lambda s, m: s.corrupt_calls_per_pair(), _CORRUPT_MOVES),
    LayerMetric("corrupt.random_swap.pool_scanned_per_draw", "vectors/draw",
                lambda s, m: s.units_per_call(m, "corrupt.random_swap"), _CORRUPT_MOVES),
    LayerMetric("core.loss.us_per_pair", "us",
                lambda s, m: s.per_step_pair(m, "core.loss", False, 1e6), _LOSS_MOVES),
    LayerMetric("core.closed_form_policy.us_per_call", "us",
                _mean("core.closed_form_policy", 1e6), _VERIFY_MOVES),
    LayerMetric("oracles.pga_argmax.us_per_call", "us",
                _mean("oracles.pga_argmax", 1e6), _VERIFY_MOVES),
    LayerMetric("train.warmup_reference.us_per_pair", "us",
                _mean("train.warmup_reference", 1e6, per_units=True), _TRAIN_MOVES),
    LayerMetric("train.train_step.ms_p50", "ms",
                lambda s, m: s.step_percentile(m, 50.0), _TRAIN_MOVES),
    LayerMetric("train.train_step.ms_p99", "ms",
                lambda s, m: s.step_percentile(m, 99.0), _TRAIN_MOVES),
    *(LayerMetric(f"train.step.{part}_frac", "frac",
                  lambda s, m, part=part: s.step_frac(part), _TRAIN_MOVES)
      for part in STEP_PART_NAMES),
    LayerMetric("eval.predict.us_per_item", "us", _mean("eval.predict", 1e6), _EVAL_MOVES),
    LayerMetric("eval.loglik_shift.us_per_item", "us",
                _mean("eval.loglik_shift", 1e6, per_units=True), _EVAL_MOVES),
    LayerMetric("eval.load_eval_items.us_per_item", "us",
                _mean("eval.load_eval_items", 1e6, per_units=True), _EVAL_MOVES),
    *(LayerMetric(f"oracles.{suite}.s", "s", _mean(f"oracles.{suite}", 1.0), _VERIFY_MOVES)
      for suite in SUITES),
    LayerMetric("experiments.build_world.s", "s",
                _mean("experiments.build_world", 1.0), _TOP_MOVES),
    *(LayerMetric(f"cli.{c}.self_s", "s", _mean(f"cli.{c}", 1.0, self_time=True), _TOP_MOVES)
      for c in COMMANDS),
)
