"""The benchmark harness in perfbench/ still runs against the package.

perfbench wraps modlab functions by name (``layers.TARGETS``) and drives
three workloads through the public API, checking each iteration with the
package's own oracles.  This test runs one traced iteration of every
workload, the way ``perfbench/run.py --trace 1`` does, and fails when a
change to the package breaks that contract: a wrapped name that no longer
resolves, a workload call the API no longer accepts, a check that fails,
or a per-layer metric that cannot be computed.  A second test runs one
iteration the way the untraced mode does, with only ``layers.PROBES``
wrapped, and checks that the spans the end-to-end rates divide by (train
steps outside the oracle battery; evaluate and loglik_shift) carry work.
It writes only under pytest's temporary directory.
"""

import importlib
import os
import sys
import tempfile
from types import SimpleNamespace

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
try:
    from layers import LAYER_METRICS, PACKAGE, PROBES, TARGETS, SpanStats
    from spans import Recorder, _resolve, ancestor_flags, patched
    from workloads import WORKLOADS, Checks
finally:
    sys.dont_write_bytecode = _write_bytecode

# Every module perfbench/run.py imports, already loaded by the test session
# (run.py re-imports them fresh, which would split module identities here).
MODULES = ("core", "policy", "corrupt", "synth", "train", "eval", "oracles", "experiments",
           "presets", "cli")


@pytest.fixture(scope="module")
def modlab():
    return SimpleNamespace(**{n: importlib.import_module(f"{PACKAGE}.{n}") for n in MODULES})


def test_every_target_resolves(modlab):
    for target in TARGETS:
        holder = _resolve(PACKAGE, target.owner)
        assert callable(vars(holder).get(target.attr)), f"{target.owner}.{target.attr}"


def setup_workload(modlab, tmp_path, monkeypatch, name):
    work = tmp_path / "work"
    (work / "tmp").mkdir(parents=True)
    monkeypatch.setattr(tempfile, "tempdir", str(work / "tmp"))
    workload = WORKLOADS[name](modlab, 1, str(work))
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_iteration_passes_the_workload_checks(modlab, tmp_path, monkeypatch, name):
    workload = setup_workload(modlab, tmp_path, monkeypatch, name)
    rec, checks = Recorder(), Checks()
    with patched(PACKAGE, TARGETS, rec):
        outputs, _ = workload.iteration()
    workload.check_iteration(rec, outputs, checks)
    workload.check_inputs(rec, checks)
    assert checks.attempted > 0 and checks.failures == [], checks.failures
    stats = SpanStats([rec])
    for metric in LAYER_METRICS:
        value = metric.value(stats, metric.name)
        assert value == value, metric.name  # not NaN
    assert workload.traffic()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_iteration_counts_pairs_and_items(modlab, tmp_path, monkeypatch, name):
    workload = setup_workload(modlab, tmp_path, monkeypatch, name)
    rec = Recorder()
    with patched(PACKAGE, PROBES, rec):
        workload.iteration()
    in_verify = ancestor_flags(rec, {"cli.verify"})
    pairs = items = 0
    for i in range(len(rec)):
        span = rec.name_of(i)
        if span == "train.train_step" and not in_verify[i]:
            pairs += rec.units[i]
        elif span in ("eval.evaluate", "eval.loglik_shift"):
            items += rec.units[i]
    assert pairs > 0, "no train.train_step span carried pairs"
    assert items > 0, "no eval.evaluate or eval.loglik_shift span carried items"
