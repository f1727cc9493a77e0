"""The verification machinery itself: projection, ascent, differences."""

import dataclasses
import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import core, oracles, synth
from modlab import train as training
from modlab.eval import MetricsReport
from modlab.oracles import (
    finite_difference_gradient,
    grid_argmax_3,
    pga_argmax,
    project_to_simplex,
)
from modlab.policy import forward, init_params


class TestSimplexProjection:
    def test_already_feasible_points_fixed(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)

    def test_output_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=int(rng.integers(2, 9)))
            p = project_to_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0)

    def test_is_nearest_point(self):
        # brute-force check against a fine grid on the 2-simplex
        rng = np.random.default_rng(1)
        grid = np.array([[i / 400, 1 - i / 400] for i in range(401)])
        for _ in range(50):
            v = rng.normal(scale=2.0, size=2)
            p = project_to_simplex(v)
            distances = np.sum((grid - v) ** 2, axis=1)
            best = grid[np.argmin(distances)]
            assert np.sum((p - v) ** 2) <= np.sum((best - v) ** 2) + 1e-9


class TestAscent:
    def test_recovers_entropy_maximum(self):
        # zero reward, all targets uniform: the optimum is uniform
        u = np.full(4, 0.25)
        hp = core.Hyperparams(beta=0.2, beta_inv=0.05, beta_sens=0.05)
        out = pga_argmax(np.zeros(4), u, u, u, hp)
        np.testing.assert_allclose(out, u, atol=1e-6)

    def test_monotone_objective(self):
        rng = np.random.default_rng(2)
        r, p_ref, q_inv, q_sens, hp = oracles.random_instance(5, rng)
        out = pga_argmax(r, p_ref, q_inv, q_sens, hp)
        start = core.mod_objective_value(np.full(5, 0.2), r, p_ref, q_inv, q_sens, hp)
        floored = np.maximum(out, 1e-300)
        end = core.mod_objective_value(floored / floored.sum(), r, p_ref, q_inv, q_sens, hp)
        assert end >= start


def sequential_pga_argmax(r, p_ref, q_inv, q_sens, hp):
    """The one-instance ascent that pga_argmax replaces: it tries one
    line-search step at a time and reads p @ r through a dot product."""
    n, delta = r.size, oracles._PGA_FLOOR
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
    for _ in range(oracles._PGA_MAX_ITER):
        logp = np.log(p)
        grad = (r - hp.beta * (logp - np.log(p_ref)) - hp.beta_inv * (logp - np.log(q_inv))
                + hp.beta_sens * (logp - np.log(q_sens)) - hp.tau)
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
                    if move < oracles._PGA_TOL:
                        return p
                    break
                trial *= 0.5
            if moved:
                break
        if not moved:
            return p
    return p


def stack(instances):
    """pga_argmax's arguments for a list of same-size instances."""
    columns = list(zip(*instances))
    return (*map(np.array, columns[:4]), columns[4])


class TestBatchedAscent:
    @settings(max_examples=40, deadline=None, database=None)
    @given(v=st.integers(2, 8), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_row_is_its_own_ascent(self, v, n, seed):
        rng = np.random.default_rng(seed)
        instances = [oracles.random_instance(v, rng) for _ in range(n)]
        rows = pga_argmax(*stack(instances))
        assert rows.shape == (n, v)
        for row, instance in zip(rows, instances):
            assert np.array_equal(row, pga_argmax(*instance))

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_the_sequential_ascent(self, seed):
        # closed_form_suite's draw: 40 instances cycling through its sizes
        rng = np.random.default_rng(seed)
        instances = [oracles.random_instance((2, 3, 5, 8)[k % 4], rng) for k in range(40)]
        for v in (2, 3, 5, 8):
            of_size = [instance for instance in instances if instance[0].size == v]
            for row, instance in zip(pga_argmax(*stack(of_size)), of_size):
                assert np.abs(row - sequential_pga_argmax(*instance)).sum() < 1e-6

    def test_projection_is_row_wise(self):
        rng = np.random.default_rng(3)
        points = rng.normal(scale=2.0, size=(4, 3, 5))
        projected = project_to_simplex(points)
        for k in np.ndindex(4, 3):
            assert np.array_equal(projected[k], project_to_simplex(points[k]))


class TestGrid:
    def test_grid_point_count_and_value(self):
        u = np.full(3, 1.0 / 3.0)
        hp = core.Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0)
        point, value = grid_argmax_3(np.zeros(3), u, u, u, hp, grid_step=0.05)
        np.testing.assert_allclose(point, u, atol=0.05)
        # the uniform optimum (value 0) sits off-lattice; the best lattice
        # point is within the grid resolution's value gap
        assert value == pytest.approx(0.0, abs=1e-3)
        assert value <= 0.0

    def test_argmax_equals_brute_force_on_the_lattice(self):
        # grid_step 0.2 refines to the 0.02 lattice; core.mod_objective_value
        # at every point of that lattice must pick the same point.
        rng = np.random.default_rng(5)
        n = 50
        lattice = [np.array([i, j, n - i - j]) / n for i in range(n + 1) for j in range(n + 1 - i)]
        for _ in range(5):
            instance = oracles.random_instance(3, rng)
            values = [core.mod_objective_value(p, *instance) for p in lattice]
            k = int(np.argmax(values))
            point, value = grid_argmax_3(*instance, grid_step=0.2)
            assert np.array_equal(point, lattice[k])
            assert value == pytest.approx(values[k], rel=0, abs=1e-12)

    @pytest.mark.parametrize("r, zeros", [
        (None, 0),
        (np.array([3.0, -3.0, -3.0]), 2),  # a vertex of the simplex
        (np.array([1.0, 1.2, -4.0]), 1),  # an edge: the third coordinate at 0
    ], ids=["interior", "vertex", "edge"])
    def test_block_values_are_the_objective_at_every_lattice_point(self, monkeypatch, r, zeros):
        # Every block grid_argmax_3 reads (the coarse 1/5 box, then the 1/50
        # refine window) holds core.mod_objective_value at each simplex point
        # of its box and -inf off it, and the refined point is the
        # brute-force argmax of the 1/50 lattice, on the boundary for a
        # vertex or edge optimum, whose refine window crosses it.
        instance = oracles.random_instance(3, np.random.default_rng(8))
        if r is not None:
            instance = (r,) + instance[1:]
        boxes = []
        box_blocks = oracles._box_blocks

        def recording(i0, j0, size, n, linear, c):
            seen = set()
            boxes.append((i0, j0, size, n, seen))
            for a, block in box_blocks(i0, j0, size, n, linear, c):
                assert block.shape[0] <= oracles._GRID_BLOCK_ROWS
                for (da, b), got in np.ndenumerate(block):
                    i, j = i0 + a + da, j0 + b
                    if i < 0 or j < 0 or i + j > n:
                        assert got == -np.inf
                    else:
                        p = np.array([i, j, n - i - j]) / n
                        assert abs(got - core.mod_objective_value(p, *instance)) <= 1e-15
                        seen.add((i, j))
                yield a, block

        monkeypatch.setattr(oracles, "_box_blocks", recording)
        point, value = grid_argmax_3(*instance, grid_step=0.2)
        assert [box[2:4] for box in boxes] == [(6, 5), (41, 50)]
        for i0, j0, size, n, seen in boxes:
            assert seen == {(i, j) for i in range(max(i0, 0), i0 + size)
                            for j in range(max(j0, 0), j0 + size) if i + j <= n}
        lattice = [np.array([i, j, 50 - i - j]) / 50 for i in range(51) for j in range(51 - i)]
        values = [core.mod_objective_value(p, *instance) for p in lattice]
        k = int(np.argmax(values))
        assert np.array_equal(point, lattice[k])
        assert abs(value - values[k]) <= 1e-15
        assert np.count_nonzero(point == 0) == zeros


def per_coordinate_differences(f, x, h):
    """The per-coordinate loop that finite_difference_gradient replaces:
    f takes one point and returns a float."""
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def stacked_policy_objective():
    """(f, x0): an objective of the 648-parameter default policy on four
    rows that scores a stack of parameter vectors, and the vector x0."""
    rng = np.random.default_rng(11)
    params = init_params(seed=3)
    audio, visual = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    prompt_ids = rng.integers(params.n_prompts, size=4)
    upstream = rng.normal(size=(4, params.vocab_size))

    def f(points):
        logprobs = forward(params.from_vector(points), audio, visual, prompt_ids).logprobs
        return np.sum(upstream * logprobs, axis=(-2, -1))

    return f, params.to_vector()


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        a = np.array([1.0, -2.0, 3.0])

        def f(points):
            return 0.5 * np.sum(points * points, axis=1) + points @ a

        x0 = np.array([0.3, 0.7, -1.1])
        grad = finite_difference_gradient(f, x0, h=1e-6)
        np.testing.assert_allclose(grad, x0 + a, atol=1e-8)

    def test_one_call_on_the_perturbed_points(self):
        x0 = np.array([0.3, -0.0, 1e-9, -2.5])
        calls = []

        def f(points):
            calls.append(points.copy())
            return points.sum(axis=1)

        finite_difference_gradient(f, x0, h=1e-5)
        assert len(calls) == 1
        for i in range(x0.size):
            e = np.zeros_like(x0)
            e[i] = 1e-5
            assert np.array_equal(calls[0][i], x0 + e)
            assert np.array_equal(calls[0][x0.size + i], x0 - e)

    def test_equals_per_coordinate_loop_on_a_policy_objective(self):
        rng = np.random.default_rng(11)
        params = init_params(seed=3)
        audio, visual = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        prompt_ids = rng.integers(params.n_prompts, size=4)
        upstream = rng.normal(size=(4, params.vocab_size))

        def one(vec):
            logprobs = forward(params.from_vector(vec), audio, visual, prompt_ids).logprobs
            return float(np.sum(upstream * logprobs))

        def stacked(points):
            logprobs = forward(params.from_vector(points), audio, visual, prompt_ids).logprobs
            return np.sum(upstream * logprobs, axis=(-2, -1))

        x0 = params.to_vector()
        assert np.array_equal(finite_difference_gradient(stacked, x0, h=1e-5),
                              per_coordinate_differences(one, x0, 1e-5))

    def test_row_blocks_are_the_stack_in_coordinate_order(self, monkeypatch):
        x0 = np.array([0.3, -0.0, 1e-9, -2.5, 7.0])
        monkeypatch.setattr(oracles, "_FD_BLOCK_BYTES", 2 * 2 * x0.nbytes)  # two row pairs
        calls = []

        def f(points):
            calls.append(points.copy())
            return points.sum(axis=1)

        finite_difference_gradient(f, x0, h=1e-5)
        assert [len(points) for points in calls] == [4, 4, 2]
        steps = 1e-5 * np.eye(x0.size)
        plus = np.concatenate([points[: len(points) // 2] for points in calls])
        minus = np.concatenate([points[len(points) // 2 :] for points in calls])
        assert plus.tobytes() == (x0 + steps).tobytes()
        assert minus.tobytes() == (x0 - steps).tobytes()

    def test_any_budget_gives_the_same_bits(self, monkeypatch):
        objective, x0 = stacked_policy_objective()
        pair = 2 * x0.nbytes  # the bytes of one row pair
        budgets = {"one row pair": pair, "default": oracles._FD_BLOCK_BYTES,
                   "n row pairs": x0.size * pair, "more than n": (x0.size + 7) * pair + 5}
        grads = {}
        for name, budget in budgets.items():
            monkeypatch.setattr(oracles, "_FD_BLOCK_BYTES", budget)
            rows = []

            def f(points):
                assert points.nbytes <= budget
                rows.append(len(points))
                return objective(points)

            grads[name] = finite_difference_gradient(f, x0, h=1e-5).tobytes()
            assert sum(rows) == 2 * x0.size
            assert len(rows) == -(-x0.size // (budget // pair))
        assert len(set(grads.values())) == 1


class TestSuites:
    def test_fast_battery_passes(self):
        results = oracles.run_all(fast=True, seed=1)
        assert len(results) == 6
        for res in results:
            assert res.passed, f"{res.name}: {res.detail}"

    @pytest.mark.parametrize("wrong_sizes, detail", [
        ((2, 5, 8), "worst L1 vs ascent"),
        ((3,), "a grid point beat the closed form"),
    ], ids=["ascent-catches", "grid-catches"])
    def test_closed_form_suite_fails_on_a_wrong_temperature(self, monkeypatch, wrong_sizes,
                                                             detail):
        right = core.closed_form_policy

        def closed_form(r, p_ref, q_inv, q_sens, hp):
            if len(r) not in wrong_sizes:
                return right(r, p_ref, q_inv, q_sens, hp)
            log_kernel = (r + hp.beta * np.log(p_ref) + hp.beta_inv * np.log(q_inv)
                          - hp.beta_sens * np.log(q_sens)) / (1.5 * hp.tau)
            kernel = np.exp(log_kernel - log_kernel.max())
            return kernel / kernel.sum()

        monkeypatch.setattr(core, "closed_form_policy", closed_form)
        res = oracles.closed_form_suite(n_instances=40, grid_instances=8, seed=1)
        assert not res.passed
        assert res.detail.startswith(detail)
        if detail == "worst L1 vs ascent":
            # only the ascent catches it: the grid still agrees with the closed form
            words = res.detail.split()
            assert float(words[4]) > oracles._L1_TOL and float(words[9]) < 2e-3

    def test_stop_gradient_suite_fails_on_a_perturbed_step_forward(self, monkeypatch):
        # Finite log-probabilities, off by half their value, from the forward
        # the trained step calls: the audit must see the step it runs.
        real = training.forward_unchecked

        def perturbed(*args):
            cache = real(*args)
            return dataclasses.replace(cache, logprobs=1.5 * cache.logprobs)

        monkeypatch.setattr(training, "forward_unchecked", perturbed)
        res = oracles.stop_gradient_suite(n_steps=5, seed=1)
        assert res.passed is False, res.detail

    def test_gradient_suite_fails_on_a_perturbed_backward(self, monkeypatch):
        real = oracles.backward

        def perturbed(params, cache, upstream):
            grads = real(params, cache, upstream)
            grads.scale(1.0 + 1e-3)
            return grads

        monkeypatch.setattr(oracles, "backward", perturbed)
        res = oracles.gradient_suite(n_triples=30, seed=1)
        assert res.passed is False, res.detail

    def test_pass_count_suite_fails_on_a_miscounted_step(self, monkeypatch):
        real = training._pass_counter

        def miscounted(blocks, ref_slots):
            return real(blocks + (blocks == 3), ref_slots)  # the modpp pattern counts 8

        monkeypatch.setattr(training, "_pass_counter", miscounted)
        res = oracles.pass_count_suite(n_steps=20, seed=1)
        assert res.passed is False and "PassCounter(fwd_policy=8" in res.detail, res.detail

    def test_metrics_suite_fails_on_a_perturbed_accuracy(self, monkeypatch):
        # Off by 1e-9 points: the hand tally still prints right, but the
        # accuracy identity, held to 1e-12, fails.
        real = MetricsReport.accuracy.fget
        monkeypatch.setattr(MetricsReport, "accuracy", property(
            lambda report: None if report.total == 0 else real(report) + 1e-9))
        res = oracles.metrics_suite(seed=1)
        assert res.passed is False and res.detail == "accuracy identity violated", res.detail

    def test_dataset_suite_leaves_no_files_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        res = oracles.dataset_suite(n_pairs=50, n_seeds=1)
        assert res.passed, res.detail
        assert list(tmp_path.iterdir()) == []

    def test_dataset_suite_fails_on_a_violation_in_the_clean_file(self, monkeypatch):
        real = synth.verify_dataset

        def verify(path):
            report = real(path)
            if "roundtrip" in str(path):
                report.violations.append((3, "injected"))
            return report

        monkeypatch.setattr(synth, "verify_dataset", verify)
        res = oracles.dataset_suite(n_pairs=50, n_seeds=1)
        assert res.passed is False and res.detail.startswith("seed 0:"), res.detail

    def test_dataset_suite_fails_when_the_broken_copy_goes_unflagged(self, monkeypatch):
        real = synth.verify_dataset

        def verify(path):
            report = real(path)
            if "broken" in str(path):
                report.violations.clear()
            return report

        monkeypatch.setattr(synth, "verify_dataset", verify)
        res = oracles.dataset_suite(n_pairs=50, n_seeds=1)
        assert res.passed is False, res.detail
        assert res.detail == "fault injection flagged lines [], expected [8]"

    def test_the_battery_round_trips_the_dataset_of_its_seed(self, monkeypatch):
        real, seeds = synth.assemble_dataset, []

        def assemble(cfg, path):
            seeds.append(cfg.seed)
            return real(cfg, path)

        monkeypatch.setattr(synth, "assemble_dataset", assemble)
        oracles.run_all(fast=True, seed=3)
        assert seeds == [3]


def traced_peak_bytes(call) -> int:
    """Peak bytes tracemalloc sees during call(), after an untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def other_threads_cpu_seconds() -> float:
    """utime + stime of every thread of this process but the calling one."""
    me = str(threading.get_native_id())
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if tid == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread has ended
            continue
        ticks += int(fields[11]) + int(fields[12])  # fields 14 and 15 of stat
    return ticks / os.sysconf("SC_CLK_TCK")


class TestFootprint:
    def test_grid_peak_memory(self):
        instance = oracles.random_instance(3, np.random.default_rng(3))
        assert traced_peak_bytes(lambda: grid_argmax_3(*instance)) < 3_000_000

    def test_finite_difference_peak_memory(self):
        f, x0 = stacked_policy_objective()
        assert x0.size == 648
        assert traced_peak_bytes(lambda: finite_difference_gradient(f, x0)) < 3_000_000

    def test_fast_battery_stays_on_one_core(self):
        if not os.path.isdir("/proc/self/task") or len(os.listdir("/proc/self/task")) == 1:
            pytest.skip("needs /proc/self/task and a second thread")
        before = other_threads_cpu_seconds()
        results = oracles.run_all(fast=True)
        assert all(res.passed for res in results)
        assert other_threads_cpu_seconds() - before < 0.030
