"""Independent verification oracles.

Every nontrivial computation in the package is checked against a second
route that shares none of its code:

    closed-form policy   vs  projected gradient ascent on the simplex,
                             and (for 3 responses) an exhaustive grid
    analytic gradients   vs  central finite differences
    stop-gradient step   vs  finite differences of a frozen surrogate in
                             which all detached/reference log-probs are
                             held constant
    dataset generator    vs  record-by-record re-derivation, plus fault
                             injection
    pass accounting      vs  a fixed table of passes per strength pattern

Each oracle is evaluated as a few array calls.  Finite differences build
the whole (2n, n) stack of perturbed points and evaluate it once: the
policy oracles score every perturbed parameter vector in one ``forward``
over stacked parameters.  The grid search reads a coarse simplex lattice
(and its p log p terms) built once per resolution and cached.

The ``run_all`` entry point executes the whole battery and is what the
command-line ``verify`` command wraps.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import core, synth
from . import train as training
from .core import Hyperparams
from .eval import MetricsReport
from .policy import backward, forward, init_params
from .train import PassCounter, TrainConfig, pair_loss_terms, train_step


# ---------------------------------------------------------------------------
# Simplex optimization oracles


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - cumsum) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - cumsum[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _objective_gradient(p, r, p_ref, q_inv, q_sens, hp: Hyperparams):
    # d/dp of E_p[r] - beta KL(p||ref) - beta_inv KL(p||q_inv)
    #         + beta_sens KL(p||q_sens), including the additive -tau from
    # the three (log + 1) terms so preconditioned directions stay exact.
    logp = np.log(p)
    return (
        r
        - hp.beta * (logp - np.log(p_ref))
        - hp.beta_inv * (logp - np.log(q_inv))
        + hp.beta_sens * (logp - np.log(q_sens))
        - hp.tau
    )


# Projected ascent: iteration cap, L1 move that ends the ascent, simplex floor.
_PGA_MAX_ITER = 20000
_PGA_TOL = 1e-11
_PGA_FLOOR = 1e-12


def pga_argmax(r, p_ref, q_inv, q_sens, hp: Hyperparams) -> np.ndarray:
    """Projected gradient ascent on the decoupled objective.

    Ascent runs on the floored simplex {p >= delta, sum p = 1}, delta =
    _PGA_FLOOR (an affine reparameterization of the standard projection),
    which keeps every log finite and bounded; components whose true
    optimum lies below the floor sit on it, costing at most V*delta in L1.
    The Armijo-style line search restarts each iteration from an enlarged
    step so one bad iteration cannot poison the rest.  Strict concavity
    (tau > 0) guarantees the maximizer is unique.
    """
    r = np.asarray(r, dtype=np.float64)
    p_ref = np.asarray(p_ref, dtype=np.float64)
    q_inv = np.asarray(q_inv, dtype=np.float64)
    q_sens = np.asarray(q_sens, dtype=np.float64)
    n, delta = r.size, _PGA_FLOOR
    scale = 1.0 - n * delta

    def project(v):
        return delta + scale * project_to_simplex((v - delta) / scale)

    def value(p):
        val = float(p @ r)
        val -= hp.beta * float(np.sum(p * np.log(p / p_ref)))
        val -= hp.beta_inv * float(np.sum(p * np.log(p / q_inv)))
        val += hp.beta_sens * float(np.sum(p * np.log(p / q_sens)))
        return val

    p = np.full(n, 1.0 / n)
    best = value(p)
    step = 1.0
    for _ in range(_PGA_MAX_ITER):
        grad = _objective_gradient(p, r, p_ref, q_inv, q_sens, hp)
        # Coordinate curvature is tau/p_i, so the natural (replicator)
        # direction p * (g - <p, g>) equalizes progress across twelve
        # orders of magnitude of p while staying tangent to the simplex;
        # the raw gradient is kept as a fallback direction.  Both are
        # ascent directions and every move is value-checked.
        directions = (p * (grad - float(p @ grad)) / hp.tau, grad)
        step = min(step * 4.0, 1.0)
        moved = False
        for direction in directions:
            trial = step
            while trial >= 1e-18:
                cand = project(p + trial * direction)
                cand_val = value(cand)
                if cand_val > best:
                    move = float(np.abs(cand - p).sum())
                    p, best, moved = cand, cand_val, True
                    step = trial
                    if move < _PGA_TOL:
                        return p
                    break
                trial *= 0.5
            if moved:
                break
        if not moved:
            return p
    return p


def _simplex_lattice(i, j, n: int):
    """(points, sum p log p) of the lattice points (i, j, n-i-j)/n with
    i, j >= 0 and i + j <= n; 0 log 0 is taken as 0."""
    keep = (i >= 0) & (j >= 0) & (i + j <= n)
    i, j = i[keep], j[keep]
    p = np.empty((i.size, 3))
    p[:, 0], p[:, 1], p[:, 2] = i, j, n - i - j
    p /= n
    logp = np.zeros_like(p)
    np.log(p, out=logp, where=p > 0)
    logp *= p
    return p, logp.sum(axis=1)


@lru_cache(maxsize=4)
def _coarse_lattice(n: int):
    """The whole lattice at resolution 1/n, built once per n (read-only)."""
    i, j = np.ogrid[: n + 1, : n + 1]
    lattice = _simplex_lattice(*np.broadcast_arrays(i, j), n)
    for array in lattice:
        array.flags.writeable = False
    return lattice


def grid_argmax_3(r, p_ref, q_inv, q_sens, hp: Hyperparams, grid_step: float = 1e-3):
    """Exhaustive argmax of the objective over the 3-simplex grid, refined.

    Evaluates every lattice point (i, j, n-i-j)/n with n = 1/grid_step,
    vectorized, then every point of the ten times finer lattice within two
    coarse cells of the best one, so the result localizes the argmax to
    about grid_step/10.  The objective is evaluated as

        p @ (r - sum_k c_k log q_k) + (sum_k c_k) * sum p log p

    with c = (-beta, -beta_inv, +beta_sens) for (p_ref, q_inv, q_sens), so
    only the first term depends on the instance; the coarse lattice and its
    p log p terms are cached per n.  Returns (argmax point, objective value
    there).
    """
    coeffs = (-hp.beta, -hp.beta_inv, +hp.beta_sens)
    logs = [np.log(np.asarray(q, dtype=np.float64)) for q in (p_ref, q_inv, q_sens)]
    linear = np.asarray(r, dtype=np.float64) - sum(c * log_q for c, log_q in zip(coeffs, logs))

    def best(p, plogp):
        """(point, value) of the best of the given lattice points."""
        values = p @ linear + sum(coeffs) * plogp
        k = int(np.argmax(values))
        return p[k], float(values[k])

    n = int(round(1.0 / grid_step))
    point, _ = best(*_coarse_lattice(n))
    i, j = np.rint(point[:2] * n).astype(int)
    window = np.arange(-20, 21)
    i, j = np.meshgrid(10 * i + window, 10 * j + window, indexing="ij")
    return best(*_simplex_lattice(i.ravel(), j.ravel(), 10 * n))


def random_instance(v: int, rng: np.random.Generator):
    """One random, well-conditioned closed-form test instance.

    Distributions are Dirichlet draws mixed with 5% uniform mass so every
    entry is safely positive; the temperature is kept away from zero so
    the strictly concave regime is well inside floating-point resolution.
    """

    def dist():
        raw = rng.dirichlet(np.full(v, rng.uniform(0.5, 4.0)))
        mixed = 0.95 * raw + 0.05 / v
        return mixed / mixed.sum()

    r = rng.uniform(-0.5, 0.5, size=v)
    while True:
        beta = rng.uniform(0.02, 0.4)
        beta_inv = rng.uniform(0.0, 0.15)
        beta_sens = rng.uniform(0.0, 0.15)
        if beta + beta_inv - beta_sens >= 0.05:
            break
    hp = Hyperparams(beta=beta, beta_inv=beta_inv, beta_sens=beta_sens, gamma_lpd=0.0)
    return r, dist(), dist(), dist(), hp


# ---------------------------------------------------------------------------
# Finite differences


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h for every i.

    x is a flat (n,) vector.  f is called once, on the (2n, n) stack whose
    rows are x + h e_0, ..., x + h e_{n-1}, then x - h e_0, ..., x - h e_{n-1},
    and returns the (2n,) vector of values at those points.
    """
    x = np.asarray(x, dtype=np.float64)
    steps = h * np.eye(x.size)
    values = np.asarray(f(np.concatenate([x + steps, x - steps])), dtype=np.float64)
    return (values[: x.size] - values[x.size :]) / (2.0 * h)


def policy_gradient_rel_error(params, audio, visual, prompt_ids, upstream: np.ndarray) -> float:
    """Max-norm relative error of backward() vs central differences for B
    input rows (audio (B, d_a), visual (B, d_v), prompt_ids (B,)) and a
    (B, V) upstream."""
    rows = (audio, visual, prompt_ids)
    analytic = backward(params, forward(params, *rows), upstream).to_vector()

    def f(stack):
        logprobs = forward(params.from_vector(stack), *rows).logprobs
        return np.sum(upstream * logprobs, axis=(-2, -1))

    numeric = finite_difference_gradient(f, params.to_vector())
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def frozen_surrogate_rel_error(params, ref_params, batch, cfg: TrainConfig, step: int,
                               pools=None) -> float:
    """Stop-gradient audit for one batch.

    The trainer's analytic step direction is compared against central
    finite differences of the surrogate loss in which every detached
    (corrupted-pass) and reference log-probability is frozen at its value
    for the current parameters; only the clean policy passes respond to
    the perturbation.  Relative error in L2.
    """
    ref = training.reference_logprobs(ref_params, batch, cfg)
    frozen, _, clean = training.evaluate_batch(params, ref, batch, cfg, step, pools)
    rows, y_w, y_l = np.arange(len(batch)), batch.y_w, batch.y_l

    def surrogate(stack):
        live = forward(params.from_vector(stack), clean.audio, clean.visual,
                       clean.prompt_ids).logprobs
        live = replace(frozen, policy_w=live[:, rows, y_w], policy_l=live[:, rows, y_l])
        return np.mean(pair_loss_terms(live, cfg)[0], axis=-1)

    updated, _, _ = train_step(params, ref, batch, cfg, step, pools)
    analytic = (params.to_vector() - updated.to_vector()) / cfg.lr
    numeric = finite_difference_gradient(surrogate, params.to_vector(), h=1e-6)
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


# ---------------------------------------------------------------------------
# Suite battery (shared by the CLI verify command and the test suite)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# Acceptance tolerances: L1 distance of the closed form from ascent, and
# the relative errors of the analytic gradients and of the stop-gradient step.
_L1_TOL = 1e-4
_GRADIENT_TOL = 1e-5
_STOP_GRADIENT_TOL = 1e-4


def closed_form_suite(n_instances: int = 200, grid_instances: int = None,
                      seed: int = 0) -> SuiteResult:
    """Closed form vs projected gradient ascent (and V=3 grid search)."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sizes = [2, 3, 5, 8]
    if grid_instances is None:
        grid_instances = n_instances  # grid-check every V=3 instance
    worst_pga = 0.0
    worst_grid = 0.0
    grid_done = 0
    for idx in range(n_instances):
        v = sizes[idx % len(sizes)]
        r, p_ref, q_inv, q_sens, hp = random_instance(v, rng)
        closed = core.closed_form_policy(r, p_ref, q_inv, q_sens, hp)
        numeric = pga_argmax(r, p_ref, q_inv, q_sens, hp)
        worst_pga = max(worst_pga, float(np.abs(closed - numeric).sum()))
        if v == 3 and grid_done < grid_instances:
            grid_point, grid_val = grid_argmax_3(r, p_ref, q_inv, q_sens, hp)
            worst_grid = max(worst_grid, float(np.abs(closed - grid_point).sum()))
            if core.mod_objective_value(closed, r, p_ref, q_inv, q_sens, hp) < grid_val - 1e-9:
                return SuiteResult("closed_form", False, "a grid point beat the closed form",
                                   time.perf_counter() - start)
            grid_done += 1
    # The grid can only localize the argmax to its own resolution.
    passed = worst_pga < _L1_TOL and worst_grid < 2e-3
    detail = (f"worst L1 vs ascent {worst_pga:.2e} (tol {_L1_TOL}), "
              f"vs grid {worst_grid:.2e} (tol 2e-3)")
    return SuiteResult("closed_form", passed, detail, time.perf_counter() - start)


def gradient_suite(n_triples: int = 100, seed: int = 0) -> SuiteResult:
    """n_triples single-row (params, input row, upstream) triples, then one
    batch of six rows over three prompts, so the batched backward's row sum
    and prompt-table scatter-add are audited too."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)

    def draw_params():
        return init_params(d_a=5, d_v=4, d_h=6, vocab_size=5, n_prompts=3,
                           seed=int(rng.integers(2 ** 31)))

    def draw_rows(n):
        """(audio, visual, prompt_ids) of n rows, each drawn in that order."""
        rows = [(rng.normal(size=5), rng.normal(size=4), int(rng.integers(3))) for _ in range(n)]
        return tuple(np.array(column) for column in zip(*rows))

    worst = 0.0
    for _ in range(n_triples):
        params, rows = draw_params(), draw_rows(1)
        worst = max(worst, policy_gradient_rel_error(params, *rows, rng.normal(size=(1, 5))))
    params, rows = draw_params(), draw_rows(6)
    worst = max(worst, policy_gradient_rel_error(params, *rows, rng.normal(size=(6, 5))))
    return SuiteResult("gradients", worst < _GRADIENT_TOL,
                       f"max relative error {worst:.2e} over {n_triples} contexts and a batch "
                       f"of 6 (tol {_GRADIENT_TOL})", time.perf_counter() - start)


def stop_gradient_suite(n_steps: int = 20, seed: int = 0) -> SuiteResult:
    """Audit modpp's analytic step against the frozen surrogate while training."""
    start = time.perf_counter()
    dataset = synth.generate_pairs(synth.SynthConfig(n_pairs=64, n_scenes=24, seed=seed,
                                                     world_seed=seed + 1))
    cfg = TrainConfig(lr=0.1, epochs=max(1, n_steps), batch_size=4, seed=seed, warmup_steps=30)
    ref = training.warmup_reference(dataset, cfg.warmup_steps, cfg.seed,
                                 lr=cfg.warmup_lr, batch_size=cfg.batch_size)
    params = ref.copy()
    pools = training.feature_pools(dataset)
    schedule = training.batch_schedule(dataset, cfg)
    worst = 0.0
    steps = 0
    for step, rows in enumerate(schedule[:n_steps]):
        batch = dataset[rows]
        worst = max(worst, frozen_surrogate_rel_error(params, ref, batch, cfg, step, pools))
        params, _, _ = train_step(params, training.reference_logprobs(ref, batch, cfg), batch,
                                  cfg, step, pools)
        steps = step + 1
    return SuiteResult("stop_gradient", worst < _STOP_GRADIENT_TOL,
                       f"max relative error {worst:.2e} over {steps} steps "
                       f"(tol {_STOP_GRADIENT_TOL})",
                       time.perf_counter() - start)


def dataset_suite(n_pairs: int = 500, n_seeds: int = 2) -> SuiteResult:
    """Round-trip (assemble then verify: zero violations) plus fault injection,
    on files in a temporary directory removed afterwards."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="modlab-verify-") as tmp_dir:
        for seed in range(n_seeds):
            path = os.path.join(tmp_dir, f"roundtrip-{seed}.jsonl")
            synth.assemble_dataset(synth.SynthConfig(n_pairs=n_pairs, n_scenes=300, seed=seed),
                                   path)
            report = synth.verify_dataset(path)
            if not report.ok or report.n_records != n_pairs:
                return SuiteResult("dataset_roundtrip", False,
                                   f"seed {seed}: {report.n_violations} violations, "
                                   f"{len(report.parse_errors)} parse errors",
                                   time.perf_counter() - start)
            # Fault injection: swap y_w / y_l on one line, expect exactly one bad line.
            with open(path) as fh:
                lines = fh.read().splitlines()
            rec = json.loads(lines[7])
            rec["y_w"], rec["y_l"] = rec["y_l"], rec["y_w"]
            lines[7] = json.dumps(rec)
            broken = os.path.join(tmp_dir, f"broken-{seed}.jsonl")
            with open(broken, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            shutil.copyfile(synth.stats_path(path), synth.stats_path(broken))
            injected = synth.verify_dataset(broken)
            bad_lines = {line for line, _ in injected.violations}
            if bad_lines != {8}:
                return SuiteResult("dataset_roundtrip", False,
                                   f"fault injection flagged lines {sorted(bad_lines)}, "
                                   "expected [8]", time.perf_counter() - start)
    return SuiteResult("dataset_roundtrip", True,
                       f"{n_seeds} seeds x {n_pairs} records clean; fault injection localized",
                       time.perf_counter() - start)


# Strength patterns and their per-pair passes.  gamma_lpd alone (2, 4, 2, 0) is
# left out: perfbench expects (6, 4, 2, 0) of every run labelled modpp, as it is.
_EXPECTED_COUNTERS = {
    Hyperparams(beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0): PassCounter(2, 2, 2, 0),
    Hyperparams(beta_sens=0.0, gamma_lpd=0.0): PassCounter(4, 2, 2, 0),
    Hyperparams(beta_inv=0.0, gamma_lpd=0.0): PassCounter(4, 2, 2, 0),
    Hyperparams(gamma_lpd=0.0): PassCounter(6, 2, 2, 0),
    Hyperparams(): PassCounter(6, 4, 2, 0),
}


def pass_count_suite(n_steps: int = 100, seed: int = 0) -> SuiteResult:
    """Per-pair counters of every step against the passes each strength
    pattern selects; the detail reports the fewest steps any pattern took."""
    start = time.perf_counter()
    dataset = synth.generate_pairs(synth.SynthConfig(n_pairs=2 * n_steps, n_scenes=60, seed=seed))
    steps = []
    for hp, expected in _EXPECTED_COUNTERS.items():
        cfg = TrainConfig(hp=hp, lr=0.05, epochs=1, batch_size=2, seed=seed, warmup_steps=0)
        result = training.train(dataset, cfg)
        if len(result.counters) < n_steps:
            return SuiteResult("pass_counts", False,
                               f"{hp}: only {len(result.counters)} steps",
                               time.perf_counter() - start)
        for step, counter in enumerate(result.counters):
            if counter != expected:
                return SuiteResult("pass_counts", False,
                                   f"{hp} step {step}: {counter} != {expected}",
                                   time.perf_counter() - start)
        steps.append(len(result.counters))
    return SuiteResult("pass_counts", True,
                       f"all {len(steps)} strength patterns exact over {min(steps)} steps",
                       time.perf_counter() - start)


def metrics_suite(seed: int = 0) -> SuiteResult:
    """A frozen hand tally, then 1000 random confusion tables: empty strata
    give None, the accuracy and harmonic-mean identities hold to 1e-12, and
    two zero strata give a flagged f1 of 0."""
    start = time.perf_counter()

    def fail(detail):
        return SuiteResult("metrics", False, detail, time.perf_counter() - start)

    # Frozen hand tally: 4 yes with 3 correct, 6 no with 5 correct.
    report = MetricsReport(yes_total=4, yes_correct=3, no_total=6, no_correct=5)
    expected = (80.0, 75.0, 250.0 / 3.0, 2 * 75.0 * (250.0 / 3.0) / (75.0 + 250.0 / 3.0))
    got = (report.accuracy, report.precision, report.recall, report.f1)
    if not np.allclose(got, expected, atol=1e-9):
        return fail(f"hand tally mismatch: {got}")
    printed = tuple(f"{v:.2f}" for v in (report.precision, report.recall, report.accuracy,
                                           report.f1))
    if printed != ("75.00", "83.33", "80.00", "78.95"):
        return fail(f"hand tally prints as {printed}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        yt, nt = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        report = MetricsReport(
            yes_total=yt, yes_correct=int(rng.integers(0, yt + 1)),
            no_total=nt, no_correct=int(rng.integers(0, nt + 1)))
        pre, rec, f1, acc = report.precision, report.recall, report.f1, report.accuracy
        if (yt == 0 and (pre is not None or f1 is not None)) or (nt == 0 and rec is not None):
            return fail("metric defined on an empty stratum")
        if report.total == 0:
            if acc is not None:
                return fail("accuracy defined on an empty table")
        elif abs(acc - 100.0 * (report.yes_correct + report.no_correct) / report.total) > 1e-12:
            return fail("accuracy identity violated")
        if pre is not None and rec is not None:
            if pre + rec > 0:
                if abs(f1 - 2 * pre * rec / (pre + rec)) > 1e-12:
                    return fail("harmonic identity violated")
            elif f1 != 0.0 or not report.degenerate_f1:
                return fail("zero strata give an unflagged or nonzero f1")
    return SuiteResult("metrics", True, "hand tally and identities hold",
                       time.perf_counter() - start)


def run_all(fast: bool = True, seed: int = 0):
    """The full oracle battery; fast mode shrinks instance counts."""
    if fast:
        return [
            closed_form_suite(n_instances=40, grid_instances=8, seed=seed),
            gradient_suite(n_triples=30, seed=seed),
            stop_gradient_suite(n_steps=5, seed=seed),
            dataset_suite(n_pairs=300, n_seeds=1),
            pass_count_suite(n_steps=20, seed=seed),
            metrics_suite(seed=seed),
        ]
    return [
        closed_form_suite(seed=seed),
        gradient_suite(seed=seed),
        stop_gradient_suite(seed=seed),
        dataset_suite(n_pairs=2000, n_seeds=2),
        pass_count_suite(seed=seed),
        metrics_suite(seed=seed),
    ]
