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

from .core import (
    ConfigurationError,
    DimensionError,
    DomainError,
    Hyperparams,
    PairLogProbs,
    closed_form_policy,
    kl_divergence,
    lpd_margin,
    mod_margin,
    mod_objective_value,
    pair_loss,
)
from .corrupt import CorruptionSpec, NoiseSchedule, alpha_bar, corrupt
from .policy import (
    GradAccumulator,
    PolicyParams,
    backward,
    forward_logprobs,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .synth import (
    Entity,
    EvalConfig,
    EvalItem,
    ItemTable,
    PairTable,
    PreferencePair,
    Scene,
    SynthConfig,
    answer_for,
    assemble_dataset,
    assemble_eval_items,
    build_pair,
    classify_entity,
    verify_dataset,
)
from .train import PassCounter, TrainConfig

__version__ = "0.1.0"
