"""Desk-scale laboratory for modality-decoupled preference optimization.

Subpackages:

    core      closed-form math: KL, decoupled objective, optimal policy,
              margins, pair losses
    policy    tiny differentiable audio/visual/text policy with analytic
              gradients and checkpoint I/O
    corrupt   feature corruption strategies (zeros / gaussian / swap /
              diffusion forward noising)
    synth     synthetic world oracle, preference/eval data pipeline and the
              columnar record tables every other module reads
    train     warm-up, alternating-batch preference training, pass counts
    eval      metrics, log-likelihood-shift analysis, model comparison
    oracles   independent verification routes (simplex ascent, grid,
              finite differences, round-trip audits)
    cli       command-line surface: synth / train / eval / verify / report
"""

__version__ = "0.1.0"
