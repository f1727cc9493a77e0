"""Corruption strategies and the forward-noising schedule."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modlab.corrupt import (
    ALPHA_BAR,
    CORRUPTION_KINDS,
    T_MAX,
    CorruptionError,
    CorruptionSpec,
    corrupt,
)

ALPHA_BAR_SHA256 = "8d733306ef0280b0012870d677a1ab193083a3c7ecf4d903f496169bbf144293"


class TestSchedule:
    def test_starts_at_one(self):
        assert ALPHA_BAR[0] == 1.0

    def test_first_step(self):
        assert ALPHA_BAR[1] == pytest.approx(0.9999, abs=1e-12)

    def test_strictly_decreasing(self):
        assert np.all(np.diff(ALPHA_BAR) < 0)
        assert ALPHA_BAR[500] < ALPHA_BAR[50]

    def test_out_of_range(self):
        # The table has an entry for exactly the steps a spec admits.
        assert ALPHA_BAR.shape == (T_MAX + 1,)
        for t in (-1, T_MAX + 1):
            with pytest.raises(CorruptionError):
                CorruptionSpec(kind="diffusion", t=t)

    def test_matches_direct_product(self):
        betas = np.linspace(1e-4, 0.02, 1000)
        direct = np.prod(1.0 - betas[:50])
        assert ALPHA_BAR[50] == pytest.approx(direct, rel=1e-12)

    def test_pinned_bit_for_bit(self):
        # DDPM's linear schedule as one cumulative product; the digest is
        # that of the table every diffusion draw has used so far.
        expected = np.concatenate([[1.0], np.cumprod(1.0 - np.linspace(1e-4, 0.02, 1000))])
        assert ALPHA_BAR.tobytes() == expected.tobytes()
        assert hashlib.sha256(ALPHA_BAR.tobytes()).hexdigest() == ALPHA_BAR_SHA256

    def test_read_only(self):
        with pytest.raises(ValueError):
            ALPHA_BAR[1] = 0.5
        assert ALPHA_BAR[1] == pytest.approx(0.9999, abs=1e-12)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(CorruptionError):
            CorruptionSpec(kind="sandstorm")

    def test_step_bounds(self):
        with pytest.raises(CorruptionError):
            CorruptionSpec(kind="diffusion", t=1001)

    def test_a_spec_is_a_kind_and_a_step(self):
        # The caller passes the generator; gaussian noise is N(0, 1).
        assert [f.name for f in dataclasses.fields(CorruptionSpec)] == ["kind", "t"]
        for removed in ({"sigma": 1.0}, {"seed": 0}):
            with pytest.raises(TypeError):
                CorruptionSpec(**removed)


class TestCorrupt:
    def test_zeros(self):
        x = np.arange(6, dtype=float)
        out = corrupt(x, CorruptionSpec(kind="zeros"), None, np.random.default_rng(0))
        assert np.array_equal(out, np.zeros(6))

    def test_gaussian_is_replacement_noise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8) + 100.0  # far from zero-mean noise
        draws = np.array([corrupt(x, CorruptionSpec(kind="gaussian"), None,
                                  np.random.default_rng(s)) for s in range(500)])
        # replacement: mean ~ 0 rather than ~ x
        assert np.abs(draws.mean(axis=0)).max() < 0.2
        assert abs(draws.std() - 1.0) < 0.05

    def test_diffusion_identity_at_zero_steps(self):
        x = np.linspace(-1, 1, 8)
        out = corrupt(x, CorruptionSpec(kind="diffusion", t=0), None, np.random.default_rng(3))
        assert np.array_equal(out, x)

    def test_diffusion_one_step_signal_factor(self):
        x = np.ones(8)
        spec = CorruptionSpec(kind="diffusion", t=1)
        out = corrupt(x, spec, None, np.random.default_rng(5))
        eps = np.random.default_rng(5).standard_normal(8)
        expected = math.sqrt(0.9999) * x + math.sqrt(1 - 0.9999) * eps
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert math.sqrt(0.9999) == pytest.approx(0.99995, abs=1e-5)

    def test_determinism(self):
        x = np.linspace(0, 1, 8)
        for kind in ("gaussian", "diffusion"):
            spec = CorruptionSpec(kind=kind, t=200)
            assert np.array_equal(corrupt(x, spec, None, np.random.default_rng(42)),
                                  corrupt(x, spec, None, np.random.default_rng(42)))

    def test_outputs_finite_and_dimension_preserving(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        pool = [rng.normal(size=8) for _ in range(4)]
        for kind in ("zeros", "gaussian", "random_swap", "diffusion"):
            out = corrupt(x, CorruptionSpec(kind=kind, t=300), pool, np.random.default_rng(7))
            assert out.shape == x.shape
            assert np.all(np.isfinite(out))

    def test_random_swap_excludes_own_vector(self):
        x = np.ones(4)
        pool = [np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])]
        for seed in range(20):
            out = corrupt(x, CorruptionSpec(kind="random_swap"), pool, np.random.default_rng(seed))
            assert not np.array_equal(out, x)

    def test_random_swap_empty_pool(self):
        rng = np.random.default_rng(0)
        with pytest.raises(CorruptionError):
            corrupt(np.ones(4), CorruptionSpec(kind="random_swap"), [], rng)
        with pytest.raises(CorruptionError):
            corrupt(np.ones(4), CorruptionSpec(kind="random_swap"), [np.ones(4)], rng)

    def test_swap_returns_copy(self):
        pool = [np.zeros(3), np.full(3, 2.0)]
        spec = CorruptionSpec(kind="random_swap")
        out = corrupt(np.ones(3), spec, pool, np.random.default_rng(1))
        out += 1.0
        assert np.array_equal(pool[0], np.zeros(3)) and np.array_equal(pool[1], np.full(3, 2.0))


class TestRandomSwapBlock:
    SWAP = CorruptionSpec(kind="random_swap")

    def test_uniform_over_non_identical_members(self):
        # Three copies of the input and three other members: every pick of
        # a 6000-row block must be one of the three others, each about 2000
        # times (binomial sd ~37; the bound is over 5 sd).
        x = np.ones(4)
        others = [np.array([float(k), 0.0, 0.0, 0.0]) for k in (2, 3, 4)]
        pool = [x, others[0], x, others[1], x, others[2]]
        out = corrupt(np.tile(x, (6000, 1)), self.SWAP, pool=pool, rng=np.random.default_rng(3))
        assert not np.any(np.all(out == x, axis=1))
        counts = [int(np.sum(np.all(out == o, axis=1))) for o in others]
        assert sum(counts) == 6000
        assert all(abs(c - 2000) < 200 for c in counts), counts

    def test_pool_of_only_the_input_raises(self):
        x = np.ones(4)
        with pytest.raises(CorruptionError, match="no vector different from the input"):
            corrupt(np.tile(x, (3, 1)), self.SWAP, [x, x.copy(), x.copy()],
                    np.random.default_rng(0))

    def test_block_mixing_eligible_and_ineligible_rows_raises(self):
        x, y = np.ones(4), np.zeros(4)
        with pytest.raises(CorruptionError, match="no vector different from the input"):
            corrupt(np.stack([y, x, y]), self.SWAP, [x, x], np.random.default_rng(0))

    def test_dimension_mismatch(self):
        pool = [np.zeros(3), np.ones(3)]
        for features in (np.ones(4), np.ones((2, 4))):
            with pytest.raises(CorruptionError,
                               match="pool vectors must match the input dimension"):
                corrupt(features, self.SWAP, pool, np.random.default_rng(0))


class TestSnrOrdering:
    def test_correlation_with_original_decreases_in_t(self):
        # Seed-averaged correlation between input and corrupted output
        # must fall as the step count grows: t=10 > t=50 > t=500.
        rng = np.random.default_rng(11)
        mean_corr = {}
        for t in (10, 50, 500):
            corrs = []
            for trial in range(1000):
                x = rng.normal(size=8)
                x /= np.linalg.norm(x)
                out = corrupt(x, CorruptionSpec(kind="diffusion", t=t), None,
                              np.random.default_rng(trial))
                corrs.append(float(x @ out) / max(np.linalg.norm(out), 1e-12))
            mean_corr[t] = np.mean(corrs)
        assert mean_corr[10] > mean_corr[50] > mean_corr[500]

    def test_signal_coefficient_monotone(self):
        coeffs = [math.sqrt(ALPHA_BAR[t]) for t in range(0, T_MAX + 1, 50)]
        assert all(a > b for a, b in zip(coeffs, coeffs[1:]))


class TestSpecValues:
    @pytest.mark.parametrize("fields,problem", [
        ({"t": 10.5}, "t must be an integer"),  # used to index the schedule: IndexError
        ({"t": True}, "t must be an integer"),
        ({"t": -1}, "t must lie in"),
    ])
    def test_bad_value_names_the_field(self, fields, problem):
        with pytest.raises(CorruptionError, match=problem):
            CorruptionSpec(**fields)


finite_rows = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)))


class TestCorruptProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(x=finite_rows, kind=st.sampled_from(CORRUPTION_KINDS), t=st.integers(0, T_MAX),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_shape_finite_and_fixed_by_the_seed(self, x, kind, t, seed):
        # For random_swap, the rows themselves plus one member that differs
        # from every row in its first entry.
        free = next(k for k in range(len(x) + 1) if k not in x[:, 0])
        pool = np.vstack([x, np.full(x.shape[1], float(free))]) if kind == "random_swap" else None
        spec = CorruptionSpec(kind=kind, t=t)
        out = corrupt(x, spec, pool, np.random.default_rng(seed))
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))
        assert out.tobytes() == corrupt(x, spec, pool, np.random.default_rng(seed)).tobytes()
        if kind == "diffusion" and t == 0:
            assert out.tobytes() == x.tobytes()


def test_package_attribute_is_the_module():
    import modlab
    from modlab import corrupt as module

    assert module is modlab.corrupt and module.__name__ == "modlab.corrupt"
