"""Toy policy: forward numerics, analytic gradients, checkpoints."""

import numpy as np
import pytest

from modlab.oracles import finite_difference_gradient, policy_gradient_rel_error
from modlab.policy import (
    GradAccumulator,
    ModalityContext,
    PolicyParams,
    apply_gradient_step,
    backward,
    forward,
    forward_detached,
    forward_logprobs,
    init_params,
    load_checkpoint,
    save_checkpoint,
    stack_contexts,
    zero_params_like,
)


def make_ctx(rng, d_a=5, d_v=4, n_prompts=3, tag="visual_related"):
    return ModalityContext(audio=rng.normal(size=d_a), visual=rng.normal(size=d_v),
                           prompt_id=int(rng.integers(n_prompts)), modality_tag=tag)


def make_params(seed=0):
    return init_params(d_a=5, d_v=4, d_h=6, vocab_size=5, n_prompts=3, seed=seed)


class TestForward:
    def test_zero_params_give_uniform(self):
        params = zero_params_like(make_params())
        ctx = make_ctx(np.random.default_rng(0))
        logprobs = forward_logprobs(params, ctx)
        np.testing.assert_allclose(logprobs, -np.log(5.0), atol=1e-15)

    def test_logit_shift_invariance(self):
        params = make_params(3)
        ctx = make_ctx(np.random.default_rng(1))
        base = forward_logprobs(params, ctx)
        shifted = params.copy()
        shifted.b = shifted.b + 7.5
        np.testing.assert_allclose(forward_logprobs(shifted, ctx), base, atol=1e-12)

    def test_matches_independent_reimplementation(self):
        # Straightforward re-evaluation with no shared code paths.
        params = make_params(7)
        rng = np.random.default_rng(2)
        ctx = make_ctx(rng)
        h = np.tanh(params.u_a @ ctx.audio + params.u_v @ ctx.visual
                    + params.e_x[ctx.prompt_id])
        logits = params.w_out @ h + params.b
        expected = logits - np.log(np.sum(np.exp(logits)))
        np.testing.assert_allclose(forward_logprobs(params, ctx), expected, atol=1e-12)

    def test_outputs_exponentiate_to_simplex(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            params = make_params(seed)
            probs = np.exp(forward_logprobs(params, make_ctx(rng)))
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs > 0)

    def test_determinism(self):
        params = make_params(5)
        ctx = make_ctx(np.random.default_rng(4))
        a = forward_logprobs(params, ctx)
        b = forward_logprobs(params, ctx)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        params = make_params()
        ctx = ModalityContext(audio=np.zeros(9), visual=np.zeros(4), prompt_id=0,
                              modality_tag="audio_related")
        with pytest.raises(ValueError):
            forward_logprobs(params, ctx)

    def test_prompt_out_of_range(self):
        params = make_params()
        ctx = ModalityContext(audio=np.zeros(5), visual=np.zeros(4), prompt_id=99,
                              modality_tag="audio_related")
        with pytest.raises(ValueError):
            forward_logprobs(params, ctx)


class TestDetached:
    def test_bit_identical_to_tracked_forward(self):
        params = make_params(11)
        ctx = make_ctx(np.random.default_rng(5))
        assert np.array_equal(forward_detached(params, ctx), forward_logprobs(params, ctx))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        params = make_params(13)
        ctx = make_ctx(np.random.default_rng(6))
        grads = backward(params, ctx, np.zeros(5))
        assert grads.max_abs() == 0.0

    def test_bias_gradient_closed_form(self):
        # d log pi(y) / d b = one_hot(y) - softmax(logits)
        params = make_params(17)
        ctx = make_ctx(np.random.default_rng(7))
        y = 2
        upstream = np.zeros(5)
        upstream[y] = 1.0
        grads = backward(params, ctx, upstream)
        probs = np.exp(forward_logprobs(params, ctx))
        expected = -probs
        expected[y] += 1.0
        np.testing.assert_allclose(grads.b, expected, atol=1e-12)

        def f(points):
            return forward(params.from_vector(points), *stack_contexts([ctx])).logprobs[:, 0, y]

        numeric = finite_difference_gradient(f, params.to_vector())
        np.testing.assert_allclose(grads.to_vector(), numeric, atol=1e-7)

    def test_matches_finite_differences_on_random_triples(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for i in range(100):
            params = make_params(int(rng.integers(2 ** 31)))
            ctx = make_ctx(rng, tag="audio_related" if i % 2 else "visual_related")
            upstream = rng.normal(size=5)
            worst = max(worst, policy_gradient_rel_error(params, ctx, upstream))
        assert worst < 1e-5


class TestGradAccumulator:
    def test_accumulation_and_scaling(self):
        params = make_params(19)
        rng = np.random.default_rng(9)
        ctx = make_ctx(rng)
        g1 = backward(params, ctx, rng.normal(size=5))
        g2 = backward(params, ctx, rng.normal(size=5))
        total = GradAccumulator(params)
        total.add(g1)
        total.add(g2)
        total.scale(0.5)
        np.testing.assert_allclose(total.b, 0.5 * (g1.b + g2.b), atol=1e-15)

    def test_gradient_step_returns_new_params(self):
        params = make_params(23)
        rng = np.random.default_rng(10)
        grads = backward(params, make_ctx(rng), rng.normal(size=5))
        before = params.to_vector().copy()
        updated = apply_gradient_step(params, grads, 0.1)
        assert np.array_equal(params.to_vector(), before)
        np.testing.assert_allclose(updated.to_vector(),
                                   before - 0.1 * grads.to_vector(), atol=1e-15)


class TestVectorRoundTrip:
    def test_to_from_vector(self):
        params = make_params(29)
        rebuilt = params.from_vector(params.to_vector())
        for f in PolicyParams.FIELDS:
            assert np.array_equal(getattr(params, f), getattr(rebuilt, f))

    def test_stack_of_vectors_gives_stacked_tensors(self):
        params = make_params(37)
        vectors = params.to_vector() + np.random.default_rng(12).normal(size=(3, 107))
        stacked = params.from_vector(vectors)
        for k, vec in enumerate(vectors):
            single = params.from_vector(vec)
            for f in PolicyParams.FIELDS:
                assert np.array_equal(getattr(stacked, f)[k], getattr(single, f))
        assert (stacked.vocab_size, stacked.n_prompts) == (params.vocab_size, params.n_prompts)

    def test_wrong_length_rejected(self):
        params = make_params()
        with pytest.raises(ValueError):
            params.from_vector(np.zeros(3))


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params = make_params(31)
        path = tmp_path / "policy.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for f in PolicyParams.FIELDS:
            assert np.array_equal(getattr(params, f), getattr(loaded, f))

    def test_save_is_byte_stable(self, tmp_path):
        params = make_params(37)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_versioned(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(make_params(), path)
        assert path.read_text().splitlines()[0] == "modlab-checkpoint v1"

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_ckpt.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestInit:
    def test_seeded_and_bounded(self):
        a = init_params(seed=123)
        b = init_params(seed=123)
        c = init_params(seed=124)
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert not np.array_equal(a.to_vector(), c.to_vector())
        assert np.max(np.abs(a.to_vector())) <= 0.1

    def test_default_shapes(self):
        p = init_params()
        assert p.u_a.shape == (16, 8) and p.u_v.shape == (16, 8)
        assert p.w_out.shape == (8, 16) and p.b.shape == (8,)
