"""The three closed-loop workloads and the checks that feed ``failed``.

Each workload builds its fixed inputs from the seed in ``setup`` and then
repeats the same ``iteration``: one client, the next iteration starting
when the previous one returns.  Every iteration with one seed must produce
identical outputs, so the checks compare each iteration with the first.

``experiment``  the paper's headline experiment; train, policy and core do
                most of the work.
``cli``         the default-config five-command pipeline; the only workload
                that writes and reads the file formats, and the one that
                runs the oracle battery.
``corruption_ablation``
                modpp trained once per corruption family from one shared
                reference; random_swap rebuilds and scans its whole pool on
                every draw, so corrupt dominates.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from layers import COMMANDS
from spans import Recorder

# Per-pair passes (fwd_policy, fwd_ref, bwd_policy, bwd_ref) from the paper's table.
EXPECTED_PASSES = {"dpo": (2, 2, 2, 0), "modpp": (6, 4, 2, 0)}
ORACLE_SUITES = ("closed_form", "gradients", "stop_gradient", "dataset_roundtrip",
                 "pass_counts", "metrics")


class Checks:
    """Correctness checks attempted, and a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_training(rec: Recorder, checks: Checks) -> None:
    """Pass counts and finite losses of every train() call the iteration made."""
    for variant, counters, losses in rec.captured.get("train.train", []):
        expected = EXPECTED_PASSES.get(variant)
        if expected is not None:
            got = {(c.fwd_policy, c.fwd_ref, c.bwd_policy, c.bwd_ref) for c in counters}
            checks.expect(got == {expected}, f"{variant} per-pair passes {sorted(got)} != {expected}")
        checks.expect(all(math.isfinite(x) for x in losses),
                      f"{variant} training produced a non-finite loss")


def verify_file(synth, path: str, n_records: int, checks: Checks) -> None:
    report = synth.verify_dataset(path)
    checks.expect(report.ok and report.n_records == n_records,
                  f"{os.path.basename(path)}: {report.n_violations} violations, "
                  f"{len(report.parse_errors)} parse errors, {report.n_records}/{n_records} records")


class Workload:
    name = ""

    def __init__(self, m, seed: int, work_dir: str):
        self.m = m
        self.seed = seed
        self.work = work_dir

    def setup(self) -> None:
        """Build the fixed inputs (timed as part of setup_s)."""

    def iteration(self):
        """One closed-loop request: returns (outputs, {phase: (start, end)})."""
        raise NotImplementedError

    def check_iteration(self, rec: Recorder, outputs: dict, checks: Checks) -> None:
        check_training(rec, checks)

    def check_inputs(self, rec: Recorder, checks: Checks) -> None:
        """Once per run, after the first iteration: the datasets pass the oracle."""

    def traffic(self) -> dict:
        raise NotImplementedError


class Experiment(Workload):
    name = "experiment"
    variants = ("dpo", "modpp_desk")

    def setup(self):
        self.spec = self.m.experiments.HALLUCINATION_BENCHMARK
        self.pair_sets = []

    def iteration(self):
        run = self.m.experiments.run_benchmark(self.spec, self.seed, variants=self.variants)
        outcomes = {"reference": run.reference, **run.variants}
        outputs = {
            "accuracy": {k: o.accuracy for k, o in outcomes.items()},
            "shift_relevant": {k: o.shift_relevant for k, o in outcomes.items()},
            "shift_irrelevant": {k: o.shift_irrelevant for k, o in outcomes.items()},
            "final_loss": {k: float(o.losses[-1]) for k, o in run.variants.items()},
        }
        return outputs, {}

    def check_inputs(self, rec, checks):
        # The datasets live only in memory: write each generated set with the
        # package's own record and stats functions, then re-derive it.
        synth = self.m.synth
        for n, (cfg, pairs) in enumerate(rec.captured.get("synth.generate_pairs", [])):
            path = os.path.join(self.work, f"pairs-{n}.jsonl")
            with open(path, "w", encoding="ascii") as fh:
                fh.writelines(json.dumps(synth.pair_record(p)) + "\n" for p in pairs)
            with open(synth.stats_path(path), "w", encoding="ascii") as fh:
                json.dump(synth.dataset_stats(pairs, cfg), fh)
            verify_file(synth, path, len(pairs), checks)
            self.pair_sets.append(len(pairs))
        checks.expect(len(self.pair_sets) > 0, "experiment generated no preference pairs")

    def traffic(self):
        spec = self.spec
        return {"generated_pair_sets": self.pair_sets, "train_pairs": spec.n_train,
                "eval_items": spec.n_eval, "epochs": spec.epochs, "variants": len(self.variants),
                "warmup_steps": spec.warmup_steps, "batch_size": spec.batch_size,
                "pool_size": spec.n_train}


def _file_digests(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Cli(Workload):
    name = "cli"

    def setup(self):
        self.out = os.path.join(self.work, "run")
        self.overrides = (f"seed={self.seed}", f"out_dir={self.out}")
        self.defaults = self.m.cli.default_config()

    def iteration(self):
        shutil.rmtree(self.out, ignore_errors=True)
        codes, phases, log = {}, {}, io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            for command in COMMANDS:
                start = perf_counter()
                codes[command] = self.m.cli.run(command, None, self.overrides)
                phases[command] = (start, perf_counter())
        suites = {}
        for line in log.getvalue().splitlines():
            if line.startswith(("[PASS] ", "[FAIL] ")):
                suites[line[7:].split(":", 1)[0]] = line[1:5]
        outputs = {"exit_codes": codes, "suites": suites, "artifacts": _file_digests(self.out)}
        with open(os.path.join(self.out, "counters.json"), encoding="ascii") as fh:
            outputs["counters"] = json.load(fh)
        with open(os.path.join(self.out, "metrics.csv"), encoding="ascii") as fh:
            rows = {row["group"]: row for row in csv.DictReader(fh)}
        outputs["accuracy"] = float(rows["overall"]["accuracy"])
        with open(os.path.join(self.out, "loss_trace.csv"), encoding="ascii") as fh:
            outputs["losses_finite"] = all(math.isfinite(float(r["loss"])) for r in csv.DictReader(fh))
        return outputs, phases

    def check_iteration(self, rec, outputs, checks):
        super().check_iteration(rec, outputs, checks)
        for command, code in outputs["exit_codes"].items():
            checks.expect(code == 0, f"modlab {command} exited {code}")
        checks.expect(set(outputs["suites"]) == set(ORACLE_SUITES),
                      f"verify reported suites {sorted(outputs['suites'])}")
        for suite in ORACLE_SUITES:
            checks.expect(outputs["suites"].get(suite) == "PASS", f"verify suite {suite} did not pass")
        counters = outputs["counters"]
        expected = dict(zip(("fwd_policy", "fwd_ref", "bwd_policy", "bwd_ref"),
                            EXPECTED_PASSES["modpp"]))
        checks.expect(counters["per_pair_counters"] == [expected],
                      f"counters.json per-pair passes {counters['per_pair_counters']}")
        checks.expect(outputs["losses_finite"] and math.isfinite(counters["final_loss"]),
                      "loss_trace.csv or counters.json holds a non-finite loss")

    def check_inputs(self, rec, checks):
        synth = self.defaults["synth"]
        verify_file(self.m.synth, os.path.join(self.out, synth["out"]), synth["n_pairs"], checks)

    def traffic(self):
        synth, train = self.defaults["synth"], self.defaults["train"]
        return {"pairs": synth["n_pairs"], "eval_items": synth["eval_items"]["n_items"],
                "epochs": train["epochs"], "preset": train["preset"],
                "pool_size": synth["n_pairs"], "verify_fast": self.defaults["verify"]["fast"]}


class CorruptionAblation(Workload):
    name = "corruption_ablation"
    presets = ("modpp_zeros", "modpp_gaussian", "modpp_swap", "modpp_diff_t10", "modpp_diff_t500")
    # random_swap scans the whole pool per draw, so its cost grows with the
    # square of the set size; 256 pairs keeps one iteration near 5 s.
    n_pairs = 256
    n_items = 2000
    n_scenes = 128

    def setup(self):
        synth = self.m.synth
        world_seed = 1000 + self.seed
        self.path = os.path.join(self.work, "pairs.jsonl")
        synth.assemble_dataset(synth.SynthConfig(n_pairs=self.n_pairs, n_scenes=self.n_scenes,
                                                 seed=self.seed, world_seed=world_seed), self.path)
        self.pairs = synth.load_pairs(self.path)
        records = synth.generate_eval_records(synth.EvalConfig(
            n_items=self.n_items, n_scenes=self.n_scenes, seed=self.seed + 1,
            world_seed=world_seed))
        self.items = [self.m.eval.item_from_record(r) for r in records]
        self.configs = {p: self.m.presets.make_config(p, seed=self.seed) for p in self.presets}

    def iteration(self):
        train = self.m.train
        base = self.configs[self.presets[0]]
        reference = train.warmup_reference(self.pairs, base.warmup_steps, self.seed,
                                           lr=base.warmup_lr, batch_size=base.batch_size)
        accuracy, final_loss = {}, {}
        for name, cfg in self.configs.items():
            result = train.train(self.pairs, cfg, ref_params=reference)
            accuracy[name] = self.m.eval.evaluate(result.params, self.items).accuracy
            final_loss[name] = float(result.losses[-1])
        return {"accuracy": accuracy, "final_loss": final_loss}, {}

    def check_inputs(self, rec, checks):
        verify_file(self.m.synth, self.path, self.n_pairs, checks)

    def traffic(self):
        base = self.configs[self.presets[0]]
        return {"pairs": len(self.pairs), "eval_items": len(self.items),
                "pool_size": len(self.m.train.feature_pools(self.pairs)["audio"]),
                "epochs": base.epochs, "families": len(self.presets),
                "warmup_steps": base.warmup_steps, "batch_size": base.batch_size}


WORKLOADS = {w.name: w for w in (Experiment, Cli, CorruptionAblation)}
