"""A/B runs of perfbench: a base git revision against this checkout.

    python3 tools/ab.py --base HEAD~1 --slug my-change --seeds 91-100 \
        --claim corruption_ablation:setup_s --traced experiment:91-93
    python3 tools/ab.py --base HEAD~1 --slug no-gain --seeds 101-110

Run from the repository root.  The workloads, the run length and the
end-to-end metrics with their directions and bounds are read from
``BENCHMARK.json``, so both sides run as the benchmark runs them.  The base
revision is exported with ``git archive`` into a temporary directory and run
from there; the change is this checkout's working tree.  For each workload,
pair k runs both sides on the k-th seed, the base first in odd pairs and the
change first in even ones, each as ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` under its own empty ``PYTHONPYCACHEPREFIX``,
so neither side reads bytecode the other lacks.  A run that exits non-zero
or prints no result is kept in the file with its error and counted as
crashed; the summary is taken over the pairs where both sides ran.  A
pair's outputs are compared twice: whole (``outputs_equal``) and without
the digests of the ``*.config.yaml`` snapshots
(``outputs_equal_except_snapshots``), which record out_dir and so differ
between the two checkouts on ``cli``.  Writes
``BENCH_<slug>.json``: per workload the runs, and per end-to-end metric the
inclusive quartiles of each side, the base IQR, the change's wins (ties count
for neither), the change/base median ratio and whether the change is worse
than the base by more than the metric's bound.  ``--traced W:a-b`` adds one
``--trace 1`` run per side on each of those seeds, in the same alternating
order, and the per-layer metrics' medians over them.  The last line printed
is the claim's summary; without ``--claim`` the file's claim is null and the
last line says whether every end-to-end metric is within its bound on every
workload, naming any that is not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, into: str) -> str:
    """A checkout of rev's committed files under into."""
    archive = os.path.join(into, "base.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(into, "base"), filter="data")
    return os.path.join(into, "base")


def bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its final JSON line plus the printed outputs, or its error.

    The run writes and reads its bytecode under a fresh, empty
    ``PYTHONPYCACHEPREFIX``, so both sides start from the same bytecode
    state whatever ``__pycache__`` a checkout holds; the rest of the
    environment is inherited."""
    with tempfile.TemporaryDirectory() as pycache:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", f"{seconds:g}",
                               "--trace", str(trace)],
                              cwd=checkout, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPYCACHEPREFIX": pycache})
    lines = proc.stdout.splitlines()
    outputs = [line[len("outputs "):] for line in lines if line.startswith("outputs ")]
    try:
        if proc.returncode != 0 or not outputs:
            raise ValueError(f"exit status {proc.returncode}, {len(outputs)} outputs lines")
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (ValueError, KeyError, IndexError) as exc:
        return {"error": f"{exc}; stderr tail: {proc.stderr[-2000:]}", "correct": False}
    result["metrics"] = {k: v["value"] for k, v in metrics.items()}
    return {**result, "outputs": json.loads(outputs[0]),
            "units": {k: v["unit"] for k, v in metrics.items()}}


def protocol(seeds: str, n_pairs: int, seconds: float) -> str:
    """The protocol line of a BENCH file, with the bytecode environment of its runs."""
    dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return (f"{n_pairs} pairs per workload of BENCHMARK.json, seeds {seeds}, the base running "
            "first in odd pairs and the change first in even ones; each run is `python3 "
            f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0` "
            "(run_seconds of BENCHMARK.json) under its own fresh, empty PYTHONPYCACHEPREFIX, "
            "so each module it loads from a .py file, numpy's lazily imported ones included, "
            "is compiled from source in that run, with PYTHONDONTWRITEBYTECODE inherited ("
            + ("unset" if dont_write is None else f"{dont_write!r}") + "); quartiles are "
            "inclusive; wins count the pairs where the change reads better, ties for neither; "
            "worse_frac is the change's median relative to the base's, signed so that "
            "positive is worse, and within_bound compares it with the metric's bound in "
            "BENCHMARK.json")


def alternate(sides: dict, workload: str, seeds: list, seconds: float, trace: int):
    """One run per side per seed, the base first in odd pairs and the change first in even."""
    for k, seed in enumerate(seeds):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        run = {side: bench(sides[side], workload, seed, seconds, trace) for side in order}
        print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
            f"{side} " + ("crashed" if "error" in run[side] else "correct" if
                          run[side]["correct"] else "incorrect") for side in order), flush=True)
        yield {"seed": seed, "first": order[0], **run}


def without_snapshots(outputs: dict) -> dict:
    """outputs without the digests of the *.config.yaml config snapshots."""
    if "artifacts" not in outputs:
        return outputs
    return {**outputs, "artifacts": {name: digest for name, digest in outputs["artifacts"].items()
                                     if not name.endswith(".config.yaml")}}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json, over the pairs where both sides ran."""
    both = [r for r in runs if "metrics" in r["base"] and "metrics" in r["change"]]
    if len(both) < 2:
        return {}
    summary = {}
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        base = [r["base"]["metrics"][name] for r in both]
        change = [r["change"]["metrics"][name] for r in both]
        sign = 1 if better == "lower" else -1
        b, c = quartiles(base), quartiles(change)
        ratio = c["median"] / b["median"]
        worse = sign * (ratio - 1)
        summary[name] = {
            "base": b, "change": c, "base_iqr": b["q3"] - b["q1"], "better": better,
            "change_wins": sum(sign * (x - y) > 0 for x, y in zip(base, change)),
            "pairs": len(both), "ratio_change_over_base": ratio,
            "bound": bound, "worse_frac": worse, "within_bound": worse <= bound}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--slug", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, one pair per seed")
    parser.add_argument("--claim", help="workload:metric the change claims, if any")
    parser.add_argument("--traced", help="workload:first-last, one --trace 1 pair per seed")
    parser.add_argument("--change-note", default="", help="what the change does")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    doc = {"slug": args.slug, "change": args.change_note,
           "base": f"{args.base} (a git archive of it, run from its own checkout)",
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy.__version__, "platform": platform.platform()},
           "protocol": protocol(args.seeds, len(seeds), seconds),
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": export(args.base, tmp), "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = list(alternate(sides, workload, seeds, seconds, 0))
            for run in runs:
                ran = "outputs" in run["base"] and "outputs" in run["change"]
                run["outputs_equal"] = ran and run["base"]["outputs"] == run["change"]["outputs"]
                run["outputs_equal_except_snapshots"] = ran and (
                    without_snapshots(run["base"]["outputs"])
                    == without_snapshots(run["change"]["outputs"]))
                for side in sides:
                    run[side].pop("outputs", None)
                    run[side].pop("units", None)
            doc["workloads"][workload] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed <seed> "
                           f"--seconds {seconds:g} --trace 0",
                "seeds": seeds, "runs": runs, "summary": summarize(runs, spec["end_to_end"]),
                "all_correct": all(r[s]["correct"] for r in runs for s in sides),
                "failed": {s: sum(r[s].get("failed", 0) for r in runs) for s in sides},
                "crashed": {s: sum("error" in r[s] for r in runs) for s in sides},
                "outputs_equal_every_pair": all(r["outputs_equal"] for r in runs),
                "outputs_equal_except_snapshots_every_pair": all(
                    r["outputs_equal_except_snapshots"] for r in runs)}
        if args.traced:
            workload, traced_seeds = args.traced.split(":")
            first, last = map(int, traced_seeds.split("-"))
            runs = list(alternate(sides, workload, list(range(first, last + 1)), seconds, 1))
            ran = [r for r in runs if "metrics" in r["base"] and "metrics" in r["change"]]
            units = ran[0]["base"]["units"] if ran else {}
            doc["traced"] = {
                "workload": workload, "seeds": traced_seeds,
                "command": f"python3 perfbench/run.py --workload {workload} --seed <seed> "
                           f"--seconds {seconds:g} --trace 1",
                "runs": [{"seed": r["seed"], "first": r["first"],
                          **{side: {k: r[side][k] for k in ("correct", "error", "metrics")
                                    if k in r[side]} for side in sides}} for r in runs],
                "metrics": {name: {**{side: statistics.median(r[side]["metrics"][name]
                                                              for r in ran) for side in sides},
                                   "unit": units[name]}
                            for name in sorted(units)
                            if all(name in r[s]["metrics"] for r in ran for s in sides)},
                "metrics_are": f"medians over the {len(ran)} traced pairs where both sides ran"}

    doc["claim"] = None
    if args.claim:
        claim_workload, claim_metric = args.claim.split(":")
        s = doc["workloads"][claim_workload]["summary"].get(claim_metric)
        met = bool(s) and s["change_wins"] >= 0.9 * s["pairs"] and s["pairs"] == len(seeds) and (
            -s["worse_frac"] * s["base"]["median"] > s["base_iqr"])
        doc["claim"] = {"workload": claim_workload, "metric": claim_metric, "met": met,
                        "rule": "every pair ran, the change wins >= 9/10 of them and the median "
                                "gap exceeds the base IQR"}
    with open(os.path.join(ROOT, f"BENCH_{args.slug}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    beyond, unsummarized = [], [w for w, e in doc["workloads"].items() if not e["summary"]]
    for workload, entry in doc["workloads"].items():
        for name, m in entry["summary"].items():
            if not m["within_bound"]:
                beyond.append(f"{workload} {name}")
                print(f"{workload} {name}: worse by {m['worse_frac']:.1%}, "
                      f"beyond its bound {m['bound']:g}")
    if not args.claim:
        if unsummarized:
            print(f"fewer than two pairs ran on {', '.join(unsummarized)}; bounds not checked")
        elif beyond:
            print(f"no claim; beyond its bound: {', '.join(beyond)}")
        else:
            print("no claim; every end-to-end metric is within its bound on every workload")
        return 0
    if not s:
        print(f"{claim_workload} {claim_metric}: fewer than two pairs ran; claim not met")
        return 0
    print(f"{claim_workload} {claim_metric}: {s['base']['median']:.4g} -> "
          f"{s['change']['median']:.4g} ({s['ratio_change_over_base'] - 1:+.1%}), wins "
          f"{s['change_wins']}/{s['pairs']}, base IQR {s['base_iqr']:.3g}; claim "
          f"{'met' if met else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
