"""The benchmark's own checks: self-time arithmetic, wrapping that leaves
results bit-identical, originals restored after a traced run, and the
speed meter's arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from array import array

import pytest

from layers import LAYER_METRICS, PACKAGE, STEP_PART_NAMES, TARGETS, SpanStats
from spans import Recorder, patched, self_times
from speed import REFERENCE_KERNEL_S, SpeedMeter

from modlab import cli, experiments, oracles, synth  # noqa: F401  (every module TARGETS names)
from modlab import eval as eval_mod
from modlab import train as training
from modlab.corrupt import CorruptionSpec


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    rec = Recorder()
    root = rec.add_span("root", 0.0, 10.0)
    a = rec.add_span("a", 1.0, 4.0, root)
    rec.add_span("a.child", 2.0, 3.0, a)
    rec.add_span("b", 3.0, 6.0, root)  # overlaps a: together they cover [1, 6]
    rec.add_span("c", 8.0, 12.0, root)  # only [8, 10] lies inside root
    assert self_times(rec) == pytest.approx([10 - 5 - 2, 2.0, 1.0, 3.0, 4.0])


def test_train_step_split_fractions_sum_to_one():
    rec = Recorder()
    step = rec.add_span("train.train_step", 0.0, 10.0)
    rec.add_span("policy.forward_logprobs", 1.0, 3.0, step)
    rec.add_span("corrupt.diffusion", 3.0, 4.0, step)
    loss = rec.add_span("core.loss", 4.0, 5.0, step)
    rec.add_span("unlisted.helper", 4.2, 4.5, loss)  # counts toward its ancestor, loss
    rec.add_span("policy.backward", 5.0, 8.0, step)
    rec.add_span("policy.grad_accumulate", 8.0, 9.0, step)
    rec.add_span("policy.apply_gradient_step", 9.0, 9.5, step)
    stats = SpanStats([rec])
    fracs = {part: stats.step_frac(part) for part in STEP_PART_NAMES}
    assert fracs == pytest.approx({"corrupt": 0.1, "forward": 0.2, "loss": 0.1, "backward": 0.3,
                                   "accumulate": 0.1, "update": 0.05, "self": 0.15})
    assert sum(fracs.values()) == pytest.approx(1.0, abs=1e-12)


def _small_run():
    pairs = synth.generate_pairs(synth.SynthConfig(n_pairs=48, n_scenes=24, seed=5, world_seed=6))
    items = [eval_mod.item_from_record(r) for r in synth.generate_eval_records(
        synth.EvalConfig(n_items=40, n_scenes=24, seed=6, world_seed=6))]
    ref = training.warmup_reference(pairs, 10, 5, batch_size=4)
    out = []
    for kind in ("random_swap", "diffusion"):
        cfg = training.TrainConfig(loss_variant="modpp", lr=0.1, epochs=1, batch_size=4, seed=5,
                                   corruption=CorruptionSpec(kind=kind))
        result = training.train(pairs, cfg, ref_params=ref)
        shift = eval_mod.loglik_shift(result.params, items, CorruptionSpec(seed=5), "relevant")
        out.append((result.params.to_vector(), result.losses, shift.deltas,
                    eval_mod.evaluate(result.params, items).as_dict()))
    return out


def test_wrapping_leaves_results_bit_identical():
    plain = _small_run()
    rec = Recorder()
    with patched(PACKAGE, TARGETS, rec):
        traced = _small_run()
    for (p0, l0, d0, m0), (p1, l1, d1, m1) in zip(plain, traced):
        assert p0.tobytes() == p1.tobytes()
        assert l0.tobytes() == l1.tobytes()
        assert d0.tobytes() == d1.tobytes()
        assert m0 == m1
    names = set(rec.names)
    assert {"train.train_step", "policy.forward_logprobs", "policy.grad_accumulate",
            "corrupt.random_swap", "corrupt.diffusion", "core.loss", "eval.predict"} <= names


def _bindings():
    """Every module attribute of the package, plus the wrapped method."""
    out = {(name, attr): value for name, module in sys.modules.items()
           if name == PACKAGE or name.startswith(PACKAGE + ".")
           for attr, value in vars(module).items()}
    out["GradAccumulator.add"] = vars(sys.modules["modlab.policy"].GradAccumulator)["add"]
    return out


def test_originals_restored_after_traced_run_even_on_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with patched(PACKAGE, TARGETS, Recorder()):
            assert training.forward_logprobs is not before[("modlab.policy", "forward_logprobs")]
            assert eval_mod.forward_logprobs is training.forward_logprobs
            raise RuntimeError("abort the traced run")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_declares_the_metrics_the_run_reports():
    from run import E2E_UNITS

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    layer = {lm.name: lm.unit for lm in LAYER_METRICS} | {"trace.overhead_frac": "frac"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_speed_meter_removes_kernel_time_and_scales_by_kernel_speed():
    meter = SpeedMeter()
    # Every sample: the kernel ran twice as fast as the reference.
    meter.times = array("d", [0.1, 0.2, 0.3, 0.4, 0.5])
    meter.durations = array("d", [REFERENCE_KERNEL_S / 2] * 5)
    assert meter.factor(0.0, 0.6) == pytest.approx(2.0)
    assert meter.reference_seconds(0.15, 0.45) == pytest.approx(
        (0.3 - 3 * REFERENCE_KERNEL_S / 2) * 2.0)
    rec = Recorder()
    outer = rec.add_span("outer", 0.05, 0.55)
    inner = rec.add_span("inner", 0.25, 0.35, outer)
    meter.in_span = [(rec, inner, 0.001), (rec, outer, 0.002)]
    durations, selfs = meter.span_times(rec)
    assert durations == pytest.approx([(0.5 - 0.003) * 2.0, (0.1 - 0.001) * 2.0])
    assert selfs == pytest.approx([(0.4 - 0.002) * 2.0, (0.1 - 0.001) * 2.0])
