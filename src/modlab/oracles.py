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

Each oracle is evaluated as a few array calls, in blocks of bounded size
so that none holds a large array or wakes a BLAS worker thread.  Finite
differences evaluate the (2n, n) stack of perturbed points a block of row
pairs at a time (at most 256 KiB each): the policy oracles score each
block's perturbed parameter vectors in one ``forward`` over stacked
parameters.  The ascent solves every closed-form instance of one
vocabulary size in lock step, one (N, V) row each, and scores each line
search's whole halving ladder as one candidate array.  The grid search
scores the objective, a sum of one term per coordinate, from three 1-D
tables over each lattice box, 64 rows at a time, one instance at a time.

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
from functools import wraps

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import core, synth
from . import train as training
from .core import Hyperparams
from .eval import MetricsReport
from .policy import backward, forward, init_params
from .train import PassCounter, TrainConfig, pair_loss_terms, train_step


# ---------------------------------------------------------------------------
# Simplex optimization oracles


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of a (..., V) array onto
    {x >= 0, sum x = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    cumsum = np.cumsum(u, axis=-1)
    positive = u + (1.0 - cumsum) / np.arange(1, v.shape[-1] + 1) > 0
    rho = v.shape[-1] - 1 - np.argmax(np.flip(positive, axis=-1), axis=-1)[..., None]
    theta = (1.0 - np.take_along_axis(cumsum, rho, axis=-1)) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


# Projected ascent: iteration cap, L1 move that ends the ascent, simplex floor.
_PGA_MAX_ITER = 20000
_PGA_TOL = 1e-11
_PGA_FLOOR = 1e-12
# The line search's halving ladder: trial steps step * 0.5**j, j = 0, 1, ...,
# kept while >= 1e-18.  Steps never exceed 1, and 0.5**59 >= 1e-18 > 0.5**60.
_HALVINGS = 0.5 ** np.arange(60)


def pga_argmax(r, p_ref, q_inv, q_sens, hp) -> np.ndarray:
    """Projected gradient ascent on the decoupled objective, for one
    instance or a stack of them.

    r, p_ref, q_inv and q_sens are (V,) with hp one Hyperparams, or (N, V)
    with hp a sequence of N Hyperparams; the result has r's shape.  Every
    instance keeps its own point, best value and step, and all of them
    advance in lock step until each has stopped.

    Ascent runs on the floored simplex {p >= delta, sum p = 1}, delta =
    _PGA_FLOOR (an affine reparameterization of the standard projection),
    which keeps every log finite and bounded; components whose true
    optimum lies below the floor sit on it, costing at most V*delta in L1.
    The Armijo-style line search restarts each iteration from an enlarged
    step so one bad iteration cannot poison the rest.  Each direction's
    whole halving ladder is scored as one candidate array and the first
    trial that improves is taken: the steps step * 0.5**j are exact in
    binary, so this is the trial a search that halves one step at a time
    would accept.  Every operation is row-wise, so a row's result does not
    depend on the rows stacked with it.  Strict concavity (tau > 0)
    guarantees the maximizer is unique.
    """
    single = np.ndim(r) == 1
    r, p_ref, q_inv, q_sens = (np.atleast_2d(np.asarray(a, dtype=np.float64))
                               for a in (r, p_ref, q_inv, q_sens))
    # (N, 1) columns of each strength, so one row's hyperparameters scale its instance.
    beta, beta_inv, beta_sens, tau = np.array(
        [[h.beta, h.beta_inv, h.beta_sens, h.tau] for h in ([hp] if single else hp)]).T[..., None]
    log_ref, log_inv, log_sens = np.log(p_ref), np.log(q_inv), np.log(q_sens)
    n, v = r.shape
    delta = _PGA_FLOOR
    scale = 1.0 - v * delta

    def project(x):
        return delta + scale * project_to_simplex((x - delta) / scale)

    def value(p, sel):
        """(A, J) objective values of (A, J, V) points on the instances sel."""
        val = np.sum(p * r[sel, None], axis=-1)
        val -= beta[sel] * np.sum(p * np.log(p / p_ref[sel, None]), axis=-1)
        val -= beta_inv[sel] * np.sum(p * np.log(p / q_inv[sel, None]), axis=-1)
        val += beta_sens[sel] * np.sum(p * np.log(p / q_sens[sel, None]), axis=-1)
        return val

    p = np.full((n, v), 1.0 / v)
    best = value(p[:, None], slice(None))[:, 0]
    step = np.ones(n)
    active = np.ones(n, dtype=bool)  # the instances still ascending
    for _ in range(_PGA_MAX_ITER):
        # d/dp of E_p[r] - beta KL(p||ref) - beta_inv KL(p||q_inv)
        #         + beta_sens KL(p||q_sens), including the additive -tau from
        # the three (log + 1) terms so preconditioned directions stay exact.
        logp = np.log(p)
        grad = (r - beta * (logp - log_ref) - beta_inv * (logp - log_inv)
                + beta_sens * (logp - log_sens) - tau)
        # Coordinate curvature is tau/p_i, so the natural (replicator)
        # direction p * (g - <p, g>) equalizes progress across twelve
        # orders of magnitude of p while staying tangent to the simplex;
        # the raw gradient is kept as a fallback direction.  Both are
        # ascent directions and every move is value-checked.
        natural = p * (grad - np.sum(p * grad, axis=-1, keepdims=True)) / tau
        step = np.minimum(step * 4.0, 1.0)
        trials = step[:, None] * _HALVINGS
        searching = active.copy()
        new_p = p.copy()
        for direction in (natural, grad):
            sel = np.flatnonzero(searching)
            if sel.size == 0:
                break
            # The whole ladder as one (A, J, V) candidate array; the first
            # improving trial is the one a halving search would accept.
            cand = project(p[sel, None] + trials[sel, :, None] * direction[sel, None])
            values = value(cand, sel)
            better = (trials[sel] >= 1e-18) & (values > best[sel, None])
            hit = better.any(axis=1)
            first = np.argmax(better[hit], axis=1)
            a = sel[hit]
            new_p[a], best[a], step[a] = cand[hit, first], values[hit, first], trials[a, first]
            searching[a] = False
        active &= ~searching & (np.abs(new_p - p).sum(axis=-1) >= _PGA_TOL)
        p = new_p
        if not active.any():
            break
    return p[0] if single else p


# Rows of a lattice box scored at once: 64 rows of the coarse 1001-point box
# are 0.5 MB; 32 to 256 rows time alike, and fewer hold less memory.
_GRID_BLOCK_ROWS = 64


def _coordinate_table(index, n: int, weight: float, c: float) -> np.ndarray:
    """weight * p + c * p log p at each p = index / n (0 log 0 taken as 0),
    -inf where the index lies outside [0, n]."""
    p = index / n
    logp = np.zeros_like(p)
    np.log(p, out=logp, where=p > 0)
    table = weight * p + c * (logp * p)
    table[(index < 0) | (index > n)] = -np.inf
    return table


def _box_blocks(i0: int, j0: int, size: int, n: int, linear, c: float):
    """The objective at the lattice points (i, j, n-i-j)/n of the box
    i0 <= i < i0 + size, j0 <= j < j0 + size, as (first row, block) pairs
    of at most _GRID_BLOCK_ROWS box rows each, in row order.

    The objective p @ linear + c * sum p log p is one term per coordinate,
    so the block is F0[i] + F1[j] + F2[n-i-j] of three 1-D tables; the
    third is read through a sliding window, since n-i-j runs down by one
    along both i and j.  Points off the simplex score -inf; a block leaves
    out the columns past the last simplex point of its first row, and the
    blocks stop at the first row with no simplex point.
    """
    offsets = np.arange(size)
    first = _coordinate_table(i0 + offsets, n, linear[0], c)
    second = _coordinate_table(j0 + offsets, n, linear[1], c)
    # third[a + b] is the term of the third coordinate n - (i0 + a) - (j0 + b).
    third = _coordinate_table(n - i0 - j0 - np.arange(2 * size - 1), n, linear[2], c)
    windows = sliding_window_view(third, size)
    for a in range(0, size, _GRID_BLOCK_ROWS):
        width = min(size, n - i0 - j0 - a + 1)
        if width <= 0:
            break
        rows = slice(a, a + _GRID_BLOCK_ROWS)
        block = first[rows, None] + second[:width]
        block += windows[rows, :width]
        yield a, block


def _box_argmax(i0: int, j0: int, size: int, n: int, linear, c: float):
    """((i, j), value) of the box's best lattice point; of equal values the
    first in (i, j) order wins, as argmax over the whole box would pick."""
    where, best = None, -np.inf
    for a, block in _box_blocks(i0, j0, size, n, linear, c):
        k = int(np.argmax(block))
        if where is None or block.flat[k] > best:
            row, col = divmod(k, block.shape[1])
            where, best = (i0 + a + row, j0 + col), block.flat[k]
    return where, float(best)


def grid_argmax_3(r, p_ref, q_inv, q_sens, hp: Hyperparams, grid_step: float = 1e-3):
    """Exhaustive argmax of the objective over the 3-simplex grid, refined.

    Evaluates every lattice point (i, j, n-i-j)/n with n = 1/grid_step,
    then every point of the ten times finer lattice within two coarse
    cells of the best one, so the result localizes the argmax to about
    grid_step/10.  The objective is evaluated as

        p @ (r - sum_k c_k log q_k) + (sum_k c_k) * sum p log p

    with c = (-beta, -beta_inv, +beta_sens) for (p_ref, q_inv, q_sens),
    which is a sum of one term per coordinate of p; each box (the coarse
    lattice, then the refined 41 x 41 window) is scored from three 1-D
    tables a block of rows at a time (``_box_blocks``), so nothing holds
    the whole lattice.  Of equal values the first point in (i, j) order
    wins.  Returns (argmax point, objective value there).
    """
    coeffs = (-hp.beta, -hp.beta_inv, +hp.beta_sens)
    logs = [np.log(np.asarray(q, dtype=np.float64)) for q in (p_ref, q_inv, q_sens)]
    linear = np.asarray(r, dtype=np.float64) - sum(c * log_q for c, log_q in zip(coeffs, logs))
    c = sum(coeffs)
    n = int(round(1.0 / grid_step))
    (i, j), _ = _box_argmax(0, 0, n + 1, n, linear, c)
    (i, j), value = _box_argmax(10 * i - 20, 10 * j - 20, 41, 10 * n, linear, c)
    return np.array([i, j, 10 * n - i - j]) / (10 * n), value


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


# Bytes of perturbed points per call of f: 256 KiB holds 25 row pairs of the
# 648-parameter policy, so no call builds a stack of every perturbation.
_FD_BLOCK_BYTES = 256 * 1024


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h for every i.

    x is a flat (n,) vector.  f is called on blocks of m <= n coordinates
    i, ..., i+m-1, each as the (2m, n) stack whose rows are x + h e_i, ...,
    x + h e_{i+m-1}, then x - h e_i, ..., x - h e_{i+m-1}, and returns the
    (2m,) vector of values at those points.  A stack holds at most
    _FD_BLOCK_BYTES (and always at least one row pair), so an x of up to
    128 coordinates is one call.  f must score each row on its own; the
    result then does not depend on the blocking.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    pairs = max(1, _FD_BLOCK_BYTES // (2 * n * x.itemsize))
    plus = x + 0.0  # off the diagonal, x + h e_i holds x + 0.0 (-0.0 + 0.0 is 0.0)
    grad = np.empty(n)
    for start in range(0, n, pairs):
        coords = np.arange(start, min(start + pairs, n))
        m = coords.size
        rows = np.arange(m)
        stack = np.empty((2 * m, n))
        stack[:m], stack[m:] = plus, x
        stack[rows, coords] = x[coords] + h
        stack[m + rows, coords] = x[coords] - h
        values = np.asarray(f(stack), dtype=np.float64)
        grad[coords] = (values[:m] - values[m:]) / (2.0 * h)
    return grad


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
                               pools=None) -> tuple:
    """Stop-gradient audit for one batch: (relative error, the params the
    audited step returns).

    The analytic step direction of the step train() runs (evaluate_batch
    and train_step, on a schedule batch and its checked reference slots)
    is compared against central finite differences of the surrogate loss
    in which every detached (corrupted-pass) and reference log-probability
    is frozen at its value for the current parameters; only the clean
    policy passes, scored by the checked ``forward``, respond to the
    perturbation.  Relative error in L2.
    """
    ref = training.check_reference(training.reference_logprobs(ref_params, batch, cfg))
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
    return float(np.linalg.norm(analytic - numeric)) / denom, updated


# ---------------------------------------------------------------------------
# Suite battery (shared by the CLI verify command and the test suite)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _suite(name: str):
    """Decorate a suite body that returns (passed, detail): the suite
    returns them as the SuiteResult of that name, with the body's seconds."""
    def decorate(body):
        @wraps(body)
        def suite(*args, **kwargs) -> SuiteResult:
            start = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            return SuiteResult(name, passed, detail, time.perf_counter() - start)
        return suite
    return decorate


# Acceptance tolerances: L1 distance of the closed form from ascent, and
# the relative errors of the analytic gradients and of the stop-gradient step.
_L1_TOL = 1e-4
_GRADIENT_TOL = 1e-5
_STOP_GRADIENT_TOL = 1e-4


@_suite("closed_form")
def closed_form_suite(n_instances: int = 200, grid_instances: int = None, seed: int = 0):
    """Closed form vs projected gradient ascent (and V=3 grid search).

    Every instance is drawn first, cycling through the vocabulary sizes;
    the ascent then solves all instances of one size in one call."""
    rng = np.random.default_rng(seed)
    sizes = [2, 3, 5, 8]
    if grid_instances is None:
        grid_instances = n_instances  # grid-check every V=3 instance
    instances = [random_instance(sizes[idx % len(sizes)], rng) for idx in range(n_instances)]
    closed = [core.closed_form_policy(*instance) for instance in instances]
    worst_pga = 0.0
    for first in range(min(len(sizes), n_instances)):
        # Instances first, first + 4, ... share one vocabulary size.
        r, p_ref, q_inv, q_sens, hps = zip(*instances[first::len(sizes)])
        numeric = pga_argmax(*map(np.array, (r, p_ref, q_inv, q_sens)), hps)
        gaps = np.abs(np.array(closed[first::len(sizes)]) - numeric).sum(axis=1)
        worst_pga = max(worst_pga, float(gaps.max()))
    worst_grid = 0.0
    grid_done = 0
    for instance, policy in zip(instances, closed):
        if instance[0].size == 3 and grid_done < grid_instances:
            grid_point, grid_val = grid_argmax_3(*instance)
            worst_grid = max(worst_grid, float(np.abs(policy - grid_point).sum()))
            if core.mod_objective_value(policy, *instance) < grid_val - 1e-9:
                return False, "a grid point beat the closed form"
            grid_done += 1
    # The grid can only localize the argmax to its own resolution.
    return worst_pga < _L1_TOL and worst_grid < 2e-3, (
        f"worst L1 vs ascent {worst_pga:.2e} (tol {_L1_TOL}), vs grid {worst_grid:.2e} (tol 2e-3)")


@_suite("gradients")
def gradient_suite(n_triples: int = 100, seed: int = 0):
    """n_triples single-row (params, input row, upstream) triples, then one
    batch of six rows over three prompts, so the batched backward's row sum
    and prompt-table scatter-add are audited too."""
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
    return worst < _GRADIENT_TOL, (f"max relative error {worst:.2e} over {n_triples} contexts "
                                   f"and a batch of 6 (tol {_GRADIENT_TOL})")


@_suite("stop_gradient")
def stop_gradient_suite(n_steps: int = 20, seed: int = 0):
    """Audit modpp's analytic step against the frozen surrogate while training."""
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
        err, params = frozen_surrogate_rel_error(params, ref, batch, cfg, step, pools)
        worst = max(worst, err)
        steps = step + 1
    return worst < _STOP_GRADIENT_TOL, (f"max relative error {worst:.2e} over {steps} steps "
                                        f"(tol {_STOP_GRADIENT_TOL})")


@_suite("dataset_roundtrip")
def dataset_suite(n_pairs: int = 500, n_seeds: int = 2, seed: int = 0):
    """Round-trip (assemble then verify: zero violations) plus fault injection,
    on the datasets of seeds seed, ..., seed + n_seeds - 1, in files in a
    temporary directory removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="modlab-verify-") as tmp_dir:
        for data_seed in range(seed, seed + n_seeds):
            path = os.path.join(tmp_dir, f"roundtrip-{data_seed}.jsonl")
            config = synth.SynthConfig(n_pairs=n_pairs, n_scenes=300, seed=data_seed)
            synth.assemble_dataset(config, path)
            report = synth.verify_dataset(path)
            if not report.ok or report.n_records != n_pairs:
                return False, (f"seed {data_seed}: {report.n_violations} violations, "
                               f"{len(report.parse_errors)} parse errors")
            # Fault injection: swap y_w / y_l on one line, expect exactly one bad line.
            with open(path) as fh:
                lines = fh.read().splitlines()
            rec = json.loads(lines[7])
            rec["y_w"], rec["y_l"] = rec["y_l"], rec["y_w"]
            lines[7] = json.dumps(rec)
            broken = os.path.join(tmp_dir, f"broken-{data_seed}.jsonl")
            with open(broken, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            shutil.copyfile(synth.stats_path(path), synth.stats_path(broken))
            injected = synth.verify_dataset(broken)
            bad_lines = {line for line, _ in injected.violations}
            if bad_lines != {8}:
                return False, f"fault injection flagged lines {sorted(bad_lines)}, expected [8]"
    return True, f"{n_seeds} seeds x {n_pairs} records clean; fault injection localized"


# Strength patterns and their per-pair passes.  gamma_lpd alone (2, 4, 2, 0) is
# left out: perfbench expects (6, 4, 2, 0) of every run labelled modpp, as it is.
_EXPECTED_COUNTERS = {
    Hyperparams(beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0): PassCounter(2, 2, 2, 0),
    Hyperparams(beta_sens=0.0, gamma_lpd=0.0): PassCounter(4, 2, 2, 0),
    Hyperparams(beta_inv=0.0, gamma_lpd=0.0): PassCounter(4, 2, 2, 0),
    Hyperparams(gamma_lpd=0.0): PassCounter(6, 2, 2, 0),
    Hyperparams(): PassCounter(6, 4, 2, 0),
}


@_suite("pass_counts")
def pass_count_suite(n_steps: int = 100, seed: int = 0):
    """Per-pair counters of every step against the passes each strength
    pattern selects; the detail reports the fewest steps any pattern took."""
    dataset = synth.generate_pairs(synth.SynthConfig(n_pairs=2 * n_steps, n_scenes=60, seed=seed))
    steps = []
    for hp, expected in _EXPECTED_COUNTERS.items():
        cfg = TrainConfig(hp=hp, lr=0.05, epochs=1, batch_size=2, seed=seed, warmup_steps=0)
        result = training.train(dataset, cfg)
        if len(result.counters) < n_steps:
            return False, f"{hp}: only {len(result.counters)} steps"
        for step, counter in enumerate(result.counters):
            if counter != expected:
                return False, f"{hp} step {step}: {counter} != {expected}"
        steps.append(len(result.counters))
    return True, f"all {len(steps)} strength patterns exact over {min(steps)} steps"


@_suite("metrics")
def metrics_suite(seed: int = 0):
    """A frozen hand tally, then 1000 random confusion tables: empty strata
    give None, the accuracy and harmonic-mean identities hold to 1e-12, and
    two zero strata give a flagged f1 of 0."""
    # Frozen hand tally: 4 yes with 3 correct, 6 no with 5 correct.
    report = MetricsReport(yes_total=4, yes_correct=3, no_total=6, no_correct=5)
    expected = (80.0, 75.0, 250.0 / 3.0, 2 * 75.0 * (250.0 / 3.0) / (75.0 + 250.0 / 3.0))
    got = (report.accuracy, report.precision, report.recall, report.f1)
    if not np.allclose(got, expected, atol=1e-9):
        return False, f"hand tally mismatch: {got}"
    printed = tuple(f"{v:.2f}" for v in (report.precision, report.recall, report.accuracy,
                                           report.f1))
    if printed != ("75.00", "83.33", "80.00", "78.95"):
        return False, f"hand tally prints as {printed}"
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        yt, nt = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        report = MetricsReport(
            yes_total=yt, yes_correct=int(rng.integers(0, yt + 1)),
            no_total=nt, no_correct=int(rng.integers(0, nt + 1)))
        pre, rec, f1, acc = report.precision, report.recall, report.f1, report.accuracy
        if (yt == 0 and (pre is not None or f1 is not None)) or (nt == 0 and rec is not None):
            return False, "metric defined on an empty stratum"
        if report.total == 0:
            if acc is not None:
                return False, "accuracy defined on an empty table"
        elif abs(acc - 100.0 * (report.yes_correct + report.no_correct) / report.total) > 1e-12:
            return False, "accuracy identity violated"
        if pre is not None and rec is not None:
            if pre + rec > 0:
                if abs(f1 - 2 * pre * rec / (pre + rec)) > 1e-12:
                    return False, "harmonic identity violated"
            elif f1 != 0.0 or not report.degenerate_f1:
                return False, "zero strata give an unflagged or nonzero f1"
    return True, "hand tally and identities hold"


def run_all(fast: bool = True, seed: int = 0):
    """The full oracle battery; fast mode shrinks instance counts."""
    if fast:
        return [
            closed_form_suite(n_instances=40, grid_instances=8, seed=seed),
            gradient_suite(n_triples=30, seed=seed),
            stop_gradient_suite(n_steps=5, seed=seed),
            dataset_suite(n_pairs=300, n_seeds=1, seed=seed),
            pass_count_suite(n_steps=20, seed=seed),
            metrics_suite(seed=seed),
        ]
    return [
        closed_form_suite(seed=seed),
        gradient_suite(seed=seed),
        stop_gradient_suite(seed=seed),
        dataset_suite(n_pairs=2000, n_seeds=2, seed=seed),
        pass_count_suite(seed=seed),
        metrics_suite(seed=seed),
    ]
