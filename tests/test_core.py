"""Closed-form math: frozen examples, error contracts, and properties.

Expected values marked "hand arithmetic" were computed independently from
the implementation (plain math expressions, evaluated once and frozen).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modlab import core
from modlab.core import (
    ConfigurationError,
    DimensionError,
    DomainError,
    Hyperparams,
    PairLogProbs,
)

HP = Hyperparams(beta=0.1, beta_inv=0.02, beta_sens=0.05, gamma_lpd=0.05)

LN2 = 0.6931471805599453


def random_distribution(rng, n):
    raw = rng.dirichlet(np.ones(n))
    mixed = 0.9 * raw + 0.1 / n
    return mixed / mixed.sum()


def random_pair_logprobs(rng):
    vals = -rng.exponential(1.0, size=10)
    return PairLogProbs(*vals)


class TestHyperparams:
    def test_default_temperature_uses_minus_sign(self):
        assert HP.tau == pytest.approx(0.1 + 0.02 - 0.05)

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            Hyperparams(beta=-0.1)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.2)


class TestPairLogProbs:
    def test_positive_logprob_rejected(self):
        with pytest.raises(DomainError):
            PairLogProbs(policy_w=0.1, policy_l=-1.0, ref_w=-1.0, ref_l=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            PairLogProbs(policy_w=float("nan"), policy_l=-1.0, ref_w=-1.0, ref_l=-1.0)

    def test_optional_slots_default_to_none(self):
        pl = PairLogProbs(policy_w=-1.0, policy_l=-2.0, ref_w=-1.0, ref_l=-2.0)
        assert pl.inv_w is None and pl.text_l is None


class TestKlDivergence:
    def test_identical_distributions_give_zero(self):
        p = np.array([0.5, 0.5])
        assert core.kl_divergence(p, p) == 0.0

    def test_near_one_hot_vs_uniform(self):
        p = np.array([1.0 - 1e-12, 1e-12])
        q = np.array([0.5, 0.5])
        assert core.kl_divergence(p, q) == pytest.approx(LN2, abs=1e-9)

    def test_hand_arithmetic_example(self):
        # 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75), evaluated independently
        expected = 0.14384103622589042
        got = core.kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.1438, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            core.kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_zero_q_under_p_mass(self):
        with pytest.raises(DomainError):
            core.kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_zero_p_entries_are_fine(self):
        assert core.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(DomainError):
            core.kl_divergence([0.6, 0.6], [0.5, 0.5])

    def test_nonnegativity_and_identity_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = random_distribution(rng, n)
            q = random_distribution(rng, n)
            kl = core.kl_divergence(p, q)
            assert kl >= 0.0
            if not np.allclose(p, q):
                assert kl > 0.0
            assert core.kl_divergence(p, p) == 0.0

    @settings(max_examples=300, deadline=None, database=None)
    @given(weights=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(1e-300, 1e6)),
                            min_size=1, max_size=8))
    def test_nonnegative(self, weights):
        p, q = (np.array(w) for w in zip(*weights))
        assume(p.sum() > 0)
        assert core.kl_divergence(p / p.sum(), q / q.sum()) >= 0.0


class TestObjectiveValue:
    def test_all_terms_vanish(self):
        p = np.full(4, 0.25)
        hp = Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0)
        value = core.mod_objective_value(p, np.zeros(4), p, p, p, hp)
        assert value == 0.0

    def test_pure_expectation_when_distributions_coincide(self):
        p = np.full(3, 1.0 / 3.0)
        r = np.array([1.0, 0.0, 0.0])
        assert core.mod_objective_value(p, r, p, p, p, HP) == pytest.approx(1.0 / 3.0)

    def test_reward_length_mismatch(self):
        p = np.full(3, 1.0 / 3.0)
        with pytest.raises(DimensionError):
            core.mod_objective_value(p, np.zeros(4), p, p, p, HP)


class TestClosedFormPolicy:
    def test_collapses_to_reference(self):
        rng = np.random.default_rng(3)
        p_ref = random_distribution(rng, 5)
        hp = Hyperparams(beta=0.13, beta_inv=0.0, beta_sens=0.0)
        out = core.closed_form_policy(np.zeros(5), p_ref, p_ref, p_ref, hp)
        np.testing.assert_allclose(out, p_ref, atol=1e-15)

    def test_uniform_references_reduce_to_softmax(self):
        # exp(0.1/0.07) / (exp(0.1/0.07) + 2) and the symmetric tail,
        # evaluated independently.
        u = np.full(3, 1.0 / 3.0)
        r = np.array([0.1, 0.0, 0.0])
        out = core.closed_form_policy(r, u, u, u, HP)
        top = math.exp(0.1 / 0.07)
        np.testing.assert_allclose(out, [top / (top + 2), 1 / (top + 2), 1 / (top + 2)],
                                   rtol=1e-12)
        np.testing.assert_allclose(out, [0.676, 0.162, 0.162], atol=1e-3)

    def test_output_is_distribution_and_objective_value_matches_grid(self):
        from modlab.oracles import grid_argmax_3

        u = np.full(3, 1.0 / 3.0)
        r = np.array([0.1, 0.0, 0.0])
        out = core.closed_form_policy(r, u, u, u, HP)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        _, grid_value = grid_argmax_3(r, u, u, u, HP)
        value = core.mod_objective_value(out, r, u, u, u, HP)
        assert value == pytest.approx(grid_value, abs=1e-6)
        assert value >= grid_value - 1e-9

    def test_zero_in_q_sens_rejected(self):
        u = np.full(3, 1.0 / 3.0)
        bad = np.array([0.5, 0.5, 0.0])
        with pytest.raises(DomainError):
            core.closed_form_policy(np.zeros(3), u, u, bad, HP)

    def test_kernel_scaling_leaves_policy_bit_identical(self):
        # Multiplying the unnormalized kernel by a positive constant is
        # adding a constant to the reward; normalization absorbs it and the
        # output must not change by a single bit.
        rng = np.random.default_rng(21)
        r = rng.normal(size=5)
        p_ref, q_inv, q_sens = (random_distribution(rng, 5) for _ in range(3))
        base = core.closed_form_policy(r, p_ref, q_inv, q_sens, HP)
        for c in (0.37, -2.4, 11.0):
            scaled = core.closed_form_policy(r + c, p_ref, q_inv, q_sens, HP)
            np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=0)

    def test_w_cancellation_in_margins(self):
        # A shared normalizer shifts every log-probability by the same
        # constant and must leave margins and losses bit-identical.  All
        # values here are dyadic so the float additions are exact.
        pl = PairLogProbs(policy_w=-0.5, policy_l=-1.75, ref_w=-0.875, ref_l=-1.125,
                          inv_w=-1.0, inv_l=-1.25, sens_w=-0.75, sens_l=-1.5,
                          text_w=-1.0, text_l=-1.375)
        shift = -0.25
        shifted = PairLogProbs(*(getattr(pl, f) + shift for f in pl.__dataclass_fields__))
        assert core.margin(pl, HP) == core.margin(shifted, HP)
        assert core.pair_terms(pl, HP)[0] == core.pair_terms(shifted, HP)[0]


class TestMargins:
    def test_zero_differences_give_zero_margin(self):
        pl = PairLogProbs(policy_w=-1.0, policy_l=-1.0, ref_w=-2.0, ref_l=-2.0,
                          inv_w=-0.5, inv_l=-0.5, sens_w=-3.0, sens_l=-3.0)
        hp = Hyperparams(beta=0.1, beta_inv=0.02, beta_sens=0.05, gamma_lpd=0.0)
        assert core.margin_terms(pl, hp) == dict.fromkeys(("policy", "ref", "inv", "sens"), 0.0)
        assert core.margin(pl, hp) == 0.0

    def test_reduces_to_vanilla_margin(self):
        hp = Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)
        pl = PairLogProbs(policy_w=-0.5, policy_l=-2.5, ref_w=-1.0, ref_l=-2.0)
        terms = core.margin_terms(pl, hp)
        assert list(terms) == ["policy", "ref"]
        got = core.margin(pl, hp)
        assert got == pytest.approx(0.1 * ((-0.5 + 2.5) - (-1.0 + 2.0)), abs=1e-15)

    def test_hand_arithmetic_margin(self):
        # deltas: policy 1, ref 0.5, irrelevant-corrupted 0.2, relevant -0.3
        pl = PairLogProbs(policy_w=-1.0, policy_l=-2.0, ref_w=-1.0, ref_l=-1.5,
                          inv_w=-1.0, inv_l=-1.2, sens_w=-1.3, sens_l=-1.0)
        hp = replace(HP, gamma_lpd=0.0)
        terms = core.margin_terms(pl, hp)
        assert terms["policy"] == pytest.approx(0.07, abs=1e-15)
        assert terms["ref"] == pytest.approx(-0.05, abs=1e-15)
        assert terms["inv"] == pytest.approx(-0.004, abs=1e-15)
        assert terms["sens"] == pytest.approx(-0.015, abs=1e-15)
        expected = 0.07 * 1.0 - 0.1 * 0.5 - 0.02 * 0.2 + 0.05 * (-0.3)
        assert core.margin(pl, hp) == pytest.approx(expected, abs=1e-15)
        assert core.margin(pl, hp) == pytest.approx(0.001, abs=1e-12)

    def test_missing_slots_with_nonzero_strength_rejected(self):
        pl = PairLogProbs(policy_w=-1.0, policy_l=-2.0, ref_w=-1.0, ref_l=-1.5)
        with pytest.raises(DomainError, match="inv log-probs are required"):
            core.margin_terms(pl, HP)

    def test_lpd_margin_zero_strength(self):
        hp = Hyperparams(beta=0.1, beta_inv=0.02, beta_sens=0.05, gamma_lpd=0.0)
        pl = PairLogProbs(policy_w=-1.0, policy_l=-2.0, ref_w=-1.0, ref_l=-1.5,
                          inv_w=-1.0, inv_l=-1.0, sens_w=-1.0, sens_l=-1.0,
                          text_w=-1.0, text_l=-2.0)
        assert "text" not in core.margin_terms(pl, hp)

    def test_lpd_margin_symmetric_text_logprobs(self):
        pl = PairLogProbs(policy_w=-1.0, policy_l=-2.0, ref_w=-1.0, ref_l=-1.5,
                          inv_w=-1.0, inv_l=-1.0, sens_w=-1.0, sens_l=-1.0,
                          text_w=-1.3, text_l=-1.3)
        assert core.margin_terms(pl, HP)["text"] == 0.0

    def test_lpd_margin_hand_arithmetic(self):
        pl = PairLogProbs(policy_w=-1.0, policy_l=-2.0, ref_w=-1.0, ref_l=-1.5,
                          inv_w=-1.0, inv_l=-1.0, sens_w=-1.0, sens_l=-1.0,
                          text_w=-1.0, text_l=-2.0)
        assert core.margin_terms(pl, HP)["text"] == pytest.approx(-0.05, abs=1e-15)

    def test_a_zero_total_is_positive_zero(self):
        # Both terms are -0.0 (tau * (-0.0 - 0.0) and -beta * (0.0 - -0.0));
        # sum()'s leading 0 makes their sum +0.0.
        pl = PairLogProbs.checked(policy_w=np.array([-0.0]), policy_l=np.array([0.0]),
                                  ref_w=np.array([0.0]), ref_l=np.array([-0.0]))
        hp = Hyperparams(beta=0.5, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)
        assert not np.signbit(core.margin(pl, hp)).any()


class TestPairLoss:
    def test_zero_margin(self):
        assert core.pair_loss(0.0) == pytest.approx(LN2, abs=1e-15)
        assert core.pair_loss(0.0) == pytest.approx(0.6931, abs=1e-4)

    def test_saturation(self):
        assert core.pair_loss(50.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_margin_hand_arithmetic(self):
        # ln(1 + e), evaluated independently
        assert core.pair_loss(-1.0) == pytest.approx(1.3132616875182228, abs=1e-15)
        assert core.pair_loss(-1.0) == pytest.approx(1.3133, abs=1e-4)

    def test_strictly_decreasing(self):
        margins = np.linspace(-20, 20, 401)
        losses = [core.pair_loss(m) for m in margins]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_convexity_floor(self):
        rng = np.random.default_rng(11)
        for m in rng.normal(0, 3, size=200):
            total = core.pair_loss(m) + core.pair_loss(-m)
            assert total >= 2 * LN2 - 1e-12
        assert core.pair_loss(0.0) + core.pair_loss(-0.0) == pytest.approx(2 * LN2)

    def test_non_finite_margin_rejected(self):
        with pytest.raises(DomainError):
            core.pair_loss(float("inf"))


class TestModppPairLoss:
    def test_zero_margins_give_ln2(self):
        pl = PairLogProbs(policy_w=-1.0, policy_l=-1.0, ref_w=-1.0, ref_l=-1.0,
                          inv_w=-1.0, inv_l=-1.0, sens_w=-1.0, sens_l=-1.0,
                          text_w=-1.0, text_l=-1.0)
        assert core.pair_terms(pl, HP)[0] == pytest.approx(LN2)

    def test_inside_hand_arithmetic(self):
        # mod margin 0.5 plus debias margin -0.1 -> softplus(-0.4),
        # evaluated independently as ln(1 + e^-0.4)
        pl = PairLogProbs(
            policy_w=-0.1, policy_l=-0.1 - 0.5 / HP.tau, ref_w=-1.0, ref_l=-1.0,
            inv_w=-1.0, inv_l=-1.0, sens_w=-1.0, sens_l=-1.0,
            text_w=-1.0, text_l=-1.0 - 0.1 / HP.gamma_lpd,
        )
        terms = core.margin_terms(pl, HP)
        assert terms.pop("text") == pytest.approx(-0.1, abs=1e-12)
        assert sum(terms.values()) == pytest.approx(0.5, abs=1e-12)
        got = core.pair_terms(pl, HP)[0]
        assert got == pytest.approx(0.5130152523999526, abs=1e-12)
        assert got == pytest.approx(0.5130, abs=1e-4)



class TestReductionIdentity:
    def test_modpp_equals_vanilla_dpo_when_strengths_vanish(self):
        hp = Hyperparams(beta=0.1, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            pl = random_pair_logprobs(rng)
            vanilla = core.pair_loss(
                hp.beta * ((pl.policy_w - pl.policy_l) - (pl.ref_w - pl.ref_l)))
            assert abs(core.pair_terms(pl, hp)[0] - vanilla) <= 1e-12

    def test_monotone_in_policy_margin(self):
        rng = np.random.default_rng(9)
        pl = random_pair_logprobs(rng)
        deltas = np.linspace(-3, 3, 41)
        losses = []
        for d in deltas:
            moved = PairLogProbs(policy_w=-1.0 + min(d, 0.0), policy_l=-1.0 - max(d, 0.0),
                                 ref_w=pl.ref_w, ref_l=pl.ref_l, inv_w=pl.inv_w,
                                 inv_l=pl.inv_l, sens_w=pl.sens_w, sens_l=pl.sens_l,
                                 text_w=pl.text_w, text_l=pl.text_l)
            losses.append(core.pair_terms(moved, HP)[0])
        assert all(a > b for a, b in zip(losses, losses[1:]))


def _strengths(beta, beta_inv, beta_sens):
    assume(beta + beta_inv - beta_sens >= 1e-3)  # well inside the strictly concave regime
    return Hyperparams(beta=beta, beta_inv=beta_inv, beta_sens=beta_sens)


strengths = st.builds(_strengths, st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
positive_3 = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).map(
    lambda w: np.array(w) / np.sum(w))
log_probs = st.lists(st.floats(-20.0, -1e-3), min_size=10, max_size=10)


class TestProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(hp=strengths, r=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           p_ref=positive_3, q_inv=positive_3, q_sens=positive_3)
    def test_closed_form_maximizes_the_objective(self, hp, r, p_ref, q_inv, q_sens):
        from modlab.oracles import grid_argmax_3

        out = core.closed_form_policy(r, p_ref, q_inv, q_sens, hp)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        value = core.mod_objective_value(out, r, p_ref, q_inv, q_sens, hp)
        point, _ = grid_argmax_3(r, p_ref, q_inv, q_sens, hp, grid_step=0.02)
        assert core.mod_objective_value(point, r, p_ref, q_inv, q_sens, hp) <= value + 1e-12

    @settings(max_examples=200, deadline=None, database=None)
    @given(beta=st.floats(0.01, 1.0), values=log_probs)
    def test_pair_terms_reduce_to_dpo_at_zero_strengths(self, beta, values):
        hp = Hyperparams(beta=beta, beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)
        pl = PairLogProbs(*values)
        vanilla = core.pair_loss(beta * ((pl.policy_w - pl.policy_l) - (pl.ref_w - pl.ref_l)))
        assert abs(core.pair_terms(pl, hp)[0] - vanilla) <= 1e-12

    @settings(max_examples=200, deadline=None, database=None)
    @given(strengths=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 1.0))] * 4),
           values=log_probs)
    def test_margin_sums_the_terms_of_the_nonzero_strengths(self, strengths, values):
        beta, beta_inv, beta_sens, gamma_lpd = strengths
        assume(beta + beta_inv - beta_sens >= 1e-3)
        hp, pl = Hyperparams(*strengths), PairLogProbs(*values)
        d = {name: getattr(pl, f"{name}_w") - getattr(pl, f"{name}_l")
             for name in ("policy", "ref", "inv", "sens", "text")}
        want = (hp.tau * d["policy"] - beta * d["ref"] - beta_inv * d["inv"]
                + beta_sens * d["sens"] - gamma_lpd * d["text"])
        got = core.margin(pl, hp)
        assert abs(got - want) <= 1e-12
        strength = {name: getattr(hp, s) for name, _, _, s, _ in core.MARGIN_TERMS}
        unread = {f"{name}_{side}": None for name, s in strength.items() if not s for side in "wl"}
        assert core.margin(replace(pl, **unread), hp).hex() == got.hex()
        for name, s in strength.items():
            if s:
                with pytest.raises(DomainError, match="required"):
                    core.margin(replace(pl, **{f"{name}_w": None, f"{name}_l": None}), hp)
            for side in "wl":
                with pytest.raises(DomainError, match="given for both"):
                    core.margin(replace(pl, **{f"{name}_{side}": None}), hp)


class TestCheckNumbers:
    """One value rule for every numeric field of the config classes."""

    @pytest.mark.parametrize("value,problem", [
        (True, "beta must be a number, got True"),
        ("abc", "beta must be a number, got 'abc'"),
        (None, "beta must be a number, got None"),
        (-0.1, r"beta must lie in \[0, inf\), got -0.1"),
        (float("nan"), r"beta must lie in \[0, inf\), got nan"),
        (float("inf"), r"beta must lie in \[0, inf\), got inf"),
        pytest.param(10 ** 400, r"beta must lie in \[0, inf\), got 1000", id="huge-int"),
    ])
    def test_bad_strength_names_the_field(self, value, problem):
        with pytest.raises(ConfigurationError, match=f"^{problem}"):
            Hyperparams(beta=value)

    def test_integers_are_numbers(self):
        assert Hyperparams(beta=1, beta_inv=0, beta_sens=0, gamma_lpd=0).tau == 1

    @pytest.mark.parametrize("value,problem", [
        (2.0, "must be an integer"), (True, "must be an integer"), (np.int64(-1), "must lie in"),
        pytest.param(10 ** 400, "must lie in", id="huge-int"), (5, r"must lie in \[1, 4\]"),
    ])
    def test_integer_fields(self, value, problem):
        obj = type("Obj", (), {"n": value})()
        with pytest.raises(KeyError, match=f"n {problem}"):
            core.check_numbers(obj, KeyError, ("n",), integer=True, low=1, high=4)

    @pytest.mark.parametrize("value", [0, 1, 0.0, 1.0])
    def test_open_interval_excludes_both_ends(self, value):
        obj = type("Obj", (), {"x": value})()
        with pytest.raises(ValueError, match=r"x must lie in \(0, 1\)"):
            core.check_numbers(obj, ValueError, ("x",), high=1, above=True)

    def test_accepted_values_pass(self):
        obj = type("Obj", (), {"n": np.int64(3), "x": 0.5})()
        core.check_numbers(obj, ValueError, ("n",), integer=True, low=1, high=4)
        core.check_numbers(obj, ValueError, ("x", "n"), high=4, above=True)
