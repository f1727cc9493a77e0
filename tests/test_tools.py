"""The measuring tools under tools/: ab.summarize's verdicts on hand-made
runs, ab.bench's environment with subprocess.run patched, and
step_cost.step_pieces and step_cost.warmup_pieces on a small world, each
timing a single call, checked against the train calls the tests count on
their own.  None writes a file."""

import importlib.util
import json
import os
import subprocess

import pytest

from modlab import synth
from modlab import train as training
from modlab.presets import make_config
from modlab.synth import SynthConfig


def _tool(name):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _tool("ab")

WALL = {"name": "wall_s", "better": "lower", "bound": 0.2}
RATE = {"name": "rate", "better": "higher", "bound": 0.25}


def runs(base: dict, change: dict) -> list:
    """One pair per position of the value lists, keyed by metric name."""
    n = len(next(iter(base.values())))
    return [{"base": {"metrics": {k: v[i] for k, v in base.items()}},
             "change": {"metrics": {k: v[i] for k, v in change.items()}}} for i in range(n)]


class TestSummarize:
    def test_wins_follow_each_metrics_direction(self):
        summary = ab.summarize(runs({"wall_s": [1.0] * 4, "rate": [100.0] * 4},
                                    {"wall_s": [0.9, 0.8, 1.0, 1.2],
                                     "rate": [110.0, 120.0, 100.0, 90.0]}), [WALL, RATE])
        wall, rate = summary["wall_s"], summary["rate"]
        assert wall["change_wins"] == 2 and rate["change_wins"] == 2
        assert wall["change"]["median"] == pytest.approx(0.95)
        assert rate["change"]["median"] == pytest.approx(105.0)
        # Better medians read as negative worse_frac in both directions.
        assert wall["worse_frac"] == pytest.approx(-0.05)
        assert rate["worse_frac"] == pytest.approx(-0.05)
        assert wall["within_bound"] and rate["within_bound"]
        assert wall["pairs"] == 4 and wall["base_iqr"] == 0.0

    def test_a_tie_counts_for_neither_side(self):
        base, change = {"wall_s": [1.0, 1.0, 2.0]}, {"wall_s": [1.0, 0.5, 3.0]}
        forward = ab.summarize(runs(base, change), [WALL])["wall_s"]
        backward = ab.summarize(runs(change, base), [WALL])["wall_s"]
        assert forward["change_wins"] == 1 and backward["change_wins"] == 1

    @pytest.mark.parametrize("metric,base,change", [
        (WALL, 1.0, 1.5),
        (RATE, 100.0, 50.0),
    ])
    def test_a_change_beyond_its_bound(self, metric, base, change):
        name = metric["name"]
        summary = ab.summarize(runs({name: [base] * 3}, {name: [change] * 3}), [metric])[name]
        assert summary["worse_frac"] == pytest.approx(0.5)
        assert not summary["within_bound"] and summary["change_wins"] == 0

    def test_only_pairs_where_both_sides_ran_count(self):
        pairs = runs({"wall_s": [1.0, 1.0, 1.0]}, {"wall_s": [0.5, 0.5, 0.5]})
        pairs[0]["change"] = {"error": "exit status 1", "correct": False}
        assert ab.summarize(pairs, [WALL])["wall_s"]["pairs"] == 2
        assert ab.summarize(pairs[:2], [WALL]) == {}


class TestBench:
    def test_each_run_gets_its_own_empty_bytecode_prefix(self, monkeypatch):
        seen = []

        def run(cmd, *, cwd, env, **kwargs):
            prefix = env["PYTHONPYCACHEPREFIX"]
            seen.append((prefix, os.listdir(prefix), env))
            with open(os.path.join(prefix, "stale.pyc"), "w", encoding="ascii") as fh:
                fh.write("left by this run")
            result = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}, "correct": True}
            return subprocess.CompletedProcess(cmd, 0, f"outputs {{}}\n{json.dumps(result)}\n",
                                               "")

        monkeypatch.setattr(ab.subprocess, "run", run)
        monkeypatch.setenv("AB_INHERITED", "yes")
        results = [ab.bench(".", "cli", seed, 1.0, 0) for seed in (1, 2, 3)]
        assert all(r["metrics"] == {"wall_s": 1.0} for r in results)
        prefixes = [prefix for prefix, _, _ in seen]
        assert len(set(prefixes)) == 3
        assert all(listing == [] for _, listing, _ in seen)
        assert all(env["AB_INHERITED"] == "yes" for _, _, env in seen)
        assert not any(os.path.exists(prefix) for prefix in prefixes)


# The train bindings a step calls, counted by the tests below on their own.
BINDINGS = ("evaluate_batch", "corrupt", "forward_unchecked", "pair_loss_terms", "_sigmoid",
            "backward", "apply_gradient_step")


def labels(names: list) -> list:
    """A name called once keeps it; one called more often is name[i]."""
    return [n if names.count(n) == 1 else f"{n}[{names[:i].count(n)}]"
            for i, n in enumerate(names)]


class TestStepPieces:
    @pytest.fixture(scope="class")
    def world(self):
        pairs = synth.generate_pairs(SynthConfig(n_pairs=64, n_scenes=24, seed=0,
                                                 world_seed=100))
        return pairs, training.warmup_reference(pairs, steps=10, seed=0)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count every BINDINGS call: those step_cost runs untimed in runs,
        those each best_us timing makes in a list of timed (every timing
        calls its function once and returns 1.0).  Returns (step_cost, runs,
        timed, the bindings as patched)."""
        step_cost, runs, timed = _tool("step_cost"), [], []
        timing = []  # non-empty while a timing runs its function

        def counter(name, fn):
            def count(*args, **kwargs):
                (timed[-1] if timing else runs).append(name)
                return fn(*args, **kwargs)
            return count

        def best_us(fn, number=0):
            timed.append([])
            timing.append(True)
            fn()
            timing.clear()
            return 1.0

        for name in BINDINGS:
            monkeypatch.setattr(training, name, counter(name, getattr(training, name)))
        monkeypatch.setattr(step_cost, "best_us", best_us)
        return step_cost, runs, timed, {name: getattr(training, name) for name in BINDINGS}

    @pytest.mark.parametrize("name,n_corrupt", [("dpo", 0), ("modpp_desk", 2)])
    def test_every_piece_is_timed(self, world, counted, name, n_corrupt):
        step_cost, runs, timed, bindings = counted
        pieces = step_cost.step_pieces(*world, name)
        # runs holds the one step step_cost ran untimed; the first timing is
        # train_step itself, the second train() over one epoch, whose every
        # step makes the same calls, and every later one starts with its
        # piece's call.
        steps = len(training.batch_schedule(world[0], make_config(name, epochs=1)))
        assert runs.count("corrupt") == n_corrupt
        assert list(pieces) == ["pairs", "train_step", "train_per_step", *labels(runs)]
        assert timed[0] == runs
        assert timed[1] == runs * steps
        assert [calls[0] for calls in timed[2:]] == runs
        assert pieces["pairs"] == training.TrainConfig.batch_size
        assert pieces["train_per_step"] == 1.0 / steps
        assert all(pieces[k] == 1.0 for k in pieces if k not in ("pairs", "train_per_step"))
        assert all(getattr(training, n) is fn for n, fn in bindings.items())

    def test_every_warmup_piece_is_timed(self, world, counted):
        step_cost, runs, timed, bindings = counted
        pieces = step_cost.warmup_pieces(world[0])
        assert runs == ["forward_unchecked", "backward", "apply_gradient_step"]
        assert list(pieces) == ["steps", "rows", "warmup_reference_per_step", *runs]
        assert timed[0] == runs * step_cost.WARMUP_STEPS
        assert [calls[0] for calls in timed[1:]] == runs
        assert pieces["steps"] == step_cost.WARMUP_STEPS and pieces["rows"] == 16
        assert pieces["warmup_reference_per_step"] == 1.0 / step_cost.WARMUP_STEPS
        assert all(pieces[k] == 1.0 for k in runs)
        assert all(getattr(training, n) is fn for n, fn in bindings.items())

    @pytest.mark.parametrize("pieces", ["step_pieces", "warmup_pieces"])
    def test_a_raising_step_leaves_every_binding_restored(self, world, monkeypatch, pieces):
        step_cost = _tool("step_cost")

        def backward(*args):
            raise FloatingPointError("injected")

        monkeypatch.setattr(training, "backward", backward)
        monkeypatch.setattr(step_cost, "best_us", lambda fn, number=0: 1.0)  # times nothing
        bindings = {name: getattr(training, name) for name in BINDINGS}
        run = {"step_pieces": lambda: step_cost.step_pieces(*world, "modpp_desk"),
               "warmup_pieces": lambda: step_cost.warmup_pieces(world[0])}[pieces]
        with pytest.raises(FloatingPointError, match="injected"):
            run()
        assert all(getattr(training, n) is fn for n, fn in bindings.items())
