"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line with the measured numbers (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failure raises
with the same numbers.  The directional experiments (criteria 6-8) are
seed-averaged over five fresh worlds and share module-scoped fixtures so
the compute budget stays inside the stated limits.

Experiment configurations are pinned in modlab.experiments:
criteria 6 and 8 use the hallucination benchmark with the desk-tuned
invariance-dominant strengths; criterion 7 uses the shift-analysis world
with the publication-default strengths.
"""

import time

import numpy as np
import pytest

from modlab import core, experiments, oracles, synth
from modlab import train as training
from modlab.core import Hyperparams, PairLogProbs
from modlab.train import PassCounter, TrainConfig

SEEDS = range(5)


def report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


def seed_averaged(runs, attribute: str) -> dict:
    """Mean of an outcome attribute across runs, the reference included."""
    outcomes = [{"reference": r.reference, **r.variants} for r in runs]
    return {name: float(np.mean([getattr(o[name], attribute) for o in outcomes]))
            for name in outcomes[0]}


# ---------------------------------------------------------------------------
# Expensive shared experiments


@pytest.fixture(scope="module")
def benchmark_runs():
    """Hallucination benchmark (criteria 6 and 8): dpo vs desk-tuned modpp
    plus the weak-corruption (t=10) arm, five seeds, one world each."""
    start = time.time()
    runs = [experiments.run_benchmark(experiments.HALLUCINATION_BENCHMARK, seed,
                                      variants=("dpo", "modpp_desk", "modpp_desk_t10"))
            for seed in SEEDS]
    return runs, time.time() - start


@pytest.fixture(scope="module")
def shift_runs():
    """Shift-analysis experiment (criterion 7): publication-default strengths."""
    return [experiments.run_benchmark(experiments.SHIFT_ANALYSIS, seed,
                                      variants=("dpo", "modpp"))
            for seed in SEEDS]


# ---------------------------------------------------------------------------
# Criterion 1: closed-form oracle equivalence


def test_criterion_1_closed_form_equivalence():
    # 200 instances, every V=3 one grid-checked; strict tolerances 1e-4
    # (ascent) and 2e-3 (the grid's own resolution).
    res = oracles.closed_form_suite(n_instances=200, seed=0)
    assert res.passed, res.detail
    assert "(tol 0.0001)" in res.detail and "(tol 2e-3)" in res.detail, res.detail
    assert res.seconds < 60.0, f"took {res.seconds:.1f}s"
    report("criterion 1", f"200 instances: {res.detail}, {res.seconds:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: reduction identity


def test_criterion_2_reduction_identity():
    hp = Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        pl = PairLogProbs(*(-rng.exponential(1.0, size=10)))
        vanilla = core.pair_loss(hp.beta * ((pl.policy_w - pl.policy_l)
                                            - (pl.ref_w - pl.ref_l)))
        worst = max(worst, abs(core.pair_terms(pl, hp)[0] - vanilla))
    assert worst <= 1e-12, f"loss disagreement {worst:.2e}"

    # Zero strengths also select dpo's passes: no corrupted or text-only
    # rows are forwarded.
    dataset = synth.generate_pairs(synth.SynthConfig(n_pairs=300, n_scenes=60, seed=2))
    cfg = TrainConfig(hp=hp, lr=0.2, epochs=2, batch_size=16, seed=2, warmup_steps=0)
    assert cfg.loss_variant == "dpo"
    ref = training.warmup_reference(dataset, steps=50, seed=2)
    counters = training.train(dataset, cfg, ref_params=ref).counters
    assert set(counters) == {PassCounter(2, 2, 2, 0)}, set(counters)
    report("criterion 2", f"1000 pairs worst {worst:.2e}; zero strengths select dpo's "
                          f"passes (2,2,2,0) on all {len(counters)} steps")


# ---------------------------------------------------------------------------
# Criterion 3: gradient audit


def test_criterion_3_gradient_audit():
    grad = oracles.gradient_suite(n_triples=100, seed=3)
    assert grad.passed, grad.detail
    assert grad.detail.endswith("(tol 1e-05)"), grad.detail
    stop = oracles.stop_gradient_suite(n_steps=20, seed=3)
    assert stop.passed, stop.detail
    assert stop.detail.endswith("(tol 0.0001)"), stop.detail
    report("criterion 3", f"{grad.detail}; stop-gradient {stop.detail}")


# ---------------------------------------------------------------------------
# Criterion 4: pass-count fidelity


def test_criterion_4_pass_counts():
    res = oracles.pass_count_suite(n_steps=100, seed=4)
    assert res.passed, res.detail
    assert res.detail.endswith("exact over 100 steps"), res.detail
    report("criterion 4", "per-pair counters exact over 100 steps: dpo (2,2,2,0), "
                          "beta_inv only (4,2,2,0), beta_sens only (4,2,2,0), "
                          "mod (6,2,2,0), modpp (6,4,2,0)")


# ---------------------------------------------------------------------------
# Criterion 5: dataset round-trip


def test_criterion_5_dataset_round_trip():
    res = oracles.dataset_suite(n_pairs=2000, n_seeds=10)
    assert res.passed, res.detail
    report("criterion 5", "10 seeds x 2000 records verify clean; "
                          "fault injection flags exactly the swapped line")


# ---------------------------------------------------------------------------
# Criterion 6: directional hallucination result


def test_criterion_6_directional_benchmark(benchmark_runs):
    runs, elapsed = benchmark_runs
    acc = seed_averaged(runs, "accuracy")
    gap = acc["modpp_desk"] - acc["dpo"]
    assert gap >= 3.0, f"gap {gap:+.2f}pp"
    assert acc["dpo"] > acc["reference"], "vanilla preference training fell below the reference"
    assert acc["modpp_desk"] > acc["reference"]
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s"
    report("criterion 6",
           f"5-seed means: reference {acc['reference']:.2f}, dpo {acc['dpo']:.2f}, "
           f"decoupled {acc['modpp_desk']:.2f} (gap {gap:+.2f}pp) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 7: sensitivity / invariance shifts


def test_criterion_7_shift_ordering(shift_runs):
    rel = seed_averaged(shift_runs, "shift_relevant")
    irr = seed_averaged(shift_runs, "shift_irrelevant")
    assert rel["modpp"] > irr["modpp"], \
        f"relevant {rel['modpp']:.4f} vs irrelevant {irr['modpp']:.4f}"
    assert irr["modpp"] < irr["dpo"], \
        f"decoupled irrelevant shift {irr['modpp']:.4f} vs dpo {irr['dpo']:.4f}"
    report("criterion 7",
           f"decoupled mean|d|: relevant {rel['modpp']:.4f} > irrelevant {irr['modpp']:.4f}; "
           f"irrelevant below dpo's {irr['dpo']:.4f}")


# ---------------------------------------------------------------------------
# Criterion 8: corruption-strength ordering


def test_criterion_8_corruption_strength(benchmark_runs):
    acc = seed_averaged(benchmark_runs[0], "accuracy")
    t500, t10 = acc["modpp_desk"], acc["modpp_desk_t10"]
    assert t500 > t10, f"t=500 {t500:.2f} vs t=10 {t10:.2f}"
    report("criterion 8", f"diffusion t=500 {t500:.2f} beats t=10 {t10:.2f} "
                          f"({t500 - t10:+.2f}pp, 5-seed means)")


# ---------------------------------------------------------------------------
# Criterion 9: metric correctness


def test_criterion_9_metric_correctness():
    res = oracles.metrics_suite(seed=9)
    assert res.passed, res.detail
    report("criterion 9", "hand tally reproduced exactly; identities hold on "
                          "1000 random confusion tables")
