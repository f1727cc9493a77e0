"""modlab benchmark: closed-loop workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for a third of the time, then with every function in
``layers.TARGETS`` wrapped, and reports the per-layer metrics plus the
tracing overhead.  Both modes check every iteration's outputs.

Times are reference-speed seconds (see ``speed.py``): wall time corrected
for how fast the shared machine ran at that moment.  The raw wall times are
printed and saved next to them.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full details (machine, traffic, outputs, samples, failed checks) go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/out/<workload>-seed<seed>-spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

from layers import LAYER_METRICS, PROBES, TARGETS, SpanStats, percentile, tail_percentile  # noqa: E402
from spans import Recorder, ancestor_flags, patched  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

MODULES = ("core", "policy", "corrupt", "synth", "train", "eval", "oracles", "experiments",
           "presets", "cli")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "train_pairs_per_s": "pairs/s",
             "eval_items_per_s": "items/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5


def import_modlab():
    """Fresh import of every modlab module from the checkout's src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "modlab" or n.startswith("modlab.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{n: importlib.import_module(f"modlab.{n}") for n in MODULES})
    if not os.path.abspath(m.core.__file__).startswith(SRC + os.sep):
        raise ImportError(f"modlab resolved to {m.core.__file__}, not under {SRC}")
    return m


@dataclass
class Iteration:
    start: float
    end: float
    traced: bool
    rec: object
    outputs: dict
    phases: dict = field(default_factory=dict)


def iteration_rates(rec, meter):
    """(train pairs/s, eval items/s) of one iteration from its probe spans.

    Training counts pairs through train_step outside the oracle battery;
    evaluation counts items through evaluate (one predict each) and through
    each loglik_shift pass.
    """
    durations, _ = meter.span_times(rec)
    in_verify = ancestor_flags(rec, {"cli.verify"})
    pairs = items = t_train = t_eval = 0.0
    for i, dur in enumerate(durations):
        name = rec.name_of(i)
        if name == "train.train_step" and not in_verify[i]:
            pairs, t_train = pairs + rec.units[i], t_train + dur
        elif name in ("eval.evaluate", "eval.loglik_shift"):
            items, t_eval = items + rec.units[i], t_eval + dur
    return pairs / t_train, items / t_eval


def summary(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None and p > 50:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def run_workload(args, work: str, tmp: str, meter) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        m = import_modlab()
        workload = WORKLOADS[args.workload](m, args.seed, work)
        workload.setup()
        setups.append((start, perf_counter()))

    checks = Checks()
    iterations: list = []
    begin = perf_counter()

    def one(traced: bool) -> None:
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        rec = Recorder()
        with patched("modlab", TARGETS if traced else PROBES, rec):
            meter.rec = rec
            start = perf_counter()
            outputs, phases = workload.iteration()
            end = perf_counter()
            meter.rec = None
        workload.check_iteration(rec, outputs, checks)
        if iterations:
            checks.expect(outputs == iterations[0].outputs,
                          f"{'traced ' if traced else ''}iteration {len(iterations)} outputs "
                          "differ from iteration 0")
        else:
            workload.check_inputs(rec, checks)
        rec.captured.clear()
        iterations.append(Iteration(start, end, traced, rec, outputs, phases))

    untraced_budget = args.seconds / 3 if args.trace else args.seconds
    while len(iterations) < (1 if args.trace else 2) or perf_counter() - begin < untraced_budget:
        one(traced=False)
    while args.trace and (not iterations[-1].traced or perf_counter() - begin < args.seconds):
        one(traced=True)
    return {"setups": setups, "iterations": iterations, "checks": checks, "workload": workload,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def analyse(args, run: dict, meter) -> dict:
    """Metrics from a finished run; the meter has stopped."""
    its, checks = run["iterations"], run["checks"]
    untraced = [it for it in its if not it.traced]
    traced = [it for it in its if it.traced]
    rates = [iteration_rates(it.rec, meter) for it in untraced]
    samples = {
        "setup_s": [meter.reference_seconds(a, b) for a, b in run["setups"]],
        "wall_s": [meter.reference_seconds(it.start, it.end) for it in untraced],
        "train_pairs_per_s": [r[0] for r in rates],
        "eval_items_per_s": [r[1] for r in rates],
    }
    for command in untraced[0].phases:
        samples[f"cli.{command}_s"] = [meter.reference_seconds(*it.phases[command])
                                       for it in untraced]
    raw = {"setup_s": [b - a for a, b in run["setups"]],
           "wall_s": [it.end - it.start for it in untraced]}
    e2e = {k: summary(v) for k, v in samples.items()}
    e2e["peak_rss_mb"] = {"median": run["peak_rss_mb"], "n": 1}
    factors = [meter.factor(it.start, it.end) for it in its]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": len(its), "end_to_end": e2e,
        "samples": samples, "raw_wall_seconds": raw,
        "speed": {"reference_s_per_wall_s": summary(factors), "kernel_samples": len(meter.times)},
        "traffic": run["workload"].traffic(), "outputs": its[0].outputs,
        "checks": {"attempted": checks.attempted, "failed": len(checks.failures),
                   "fail_frac": len(checks.failures) / checks.attempted,
                   "failures": checks.failures},
    }
    if traced:
        stats = SpanStats((it.rec for it in traced), meter)
        layer = {lm.name: {"value": lm.value(stats, lm.name), "unit": lm.unit,
                           "moves": list(lm.moves)} for lm in LAYER_METRICS}
        traced_wall = statistics.median(meter.reference_seconds(it.start, it.end)
                                        for it in traced)
        layer["trace.overhead_frac"] = {
            "value": traced_wall / e2e["wall_s"]["median"] - 1.0, "unit": "frac", "moves": []}
        for name, reason in stats.absent.items():
            layer[name]["absent"] = reason
        result["per_layer"] = layer
        result["spans"] = sum(len(it.rec) for it in traced)
    return result


def print_result(result: dict) -> dict:
    """Human-readable lines; returns the final JSON line's object."""
    print(f"perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={result['trace']} iterations={result['iterations']}")
    for key in ("machine", "traffic", "outputs", "speed"):
        print(f"{key} {json.dumps(result[key], sort_keys=True)}")
    print("end to end (reference-speed seconds; medians over iterations):")
    for name, s in result["end_to_end"].items():
        tail = ", ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:<20} {s['median']:.6g} {E2E_UNITS.get(name, 's'):<8} n={s['n']}"
              f"{'  ' + tail if tail else '  (no percentile has 10 samples beyond it)'}")
    print(f"  raw wall seconds: {json.dumps(result['raw_wall_seconds'])}")
    if "per_layer" in result:
        print("per layer (traced iterations):")
        for name, m in result["per_layer"].items():
            note = f"  [absent: {m['absent']}]" if "absent" in m else ""
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}{note}")
    c = result["checks"]
    print(f"checks attempted={c['attempted']} failed={c['failed']} fail_frac={c['fail_frac']:g}")
    for failure in c["failures"]:
        print(f"  FAILED: {failure}")
    if result["trace"]:
        metrics = {k: {"value": float(v["value"]), "unit": v["unit"]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": float(result["end_to_end"][k]["median"]), "unit": u}
                   for k, u in E2E_UNITS.items()}
    return {"correct": c["failed"] == 0, "attempted": c["attempted"], "failed": c["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg_start": list(os.getloadavg()), "platform": platform.platform()}
    start = perf_counter()
    try:
        import numpy
        import_modlab()
    except ImportError as exc:
        print(f"perfbench: cannot import modlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    machine["numpy"] = numpy.__version__
    machine["first_import_s"] = perf_counter() - start

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    saved_tempdir = tempfile.tempdir
    try:
        # The oracle battery makes temporary directories; keep them in the checkout.
        os.makedirs(work)
        tempfile.tempdir = os.path.join(work, "tmp")
        with SpeedMeter() as meter:
            run = run_workload(args, work, tempfile.tempdir, meter)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)
    result = analyse(args, run, meter)
    result["machine"] = machine
    name = f"{args.workload}-seed{args.seed}"
    for n, it in enumerate(it for it in run["iterations"] if it.traced):
        it.rec.write_tsv_gz(os.path.join(OUT, f"{name}-spans.tsv.gz"), n, "wt" if n == 0 else "at")
    line = print_result(result)
    with open(os.path.join(OUT, f"{name}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
