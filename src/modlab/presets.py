"""Named experiment presets.

Each preset is a TrainConfig factory at desk scale: the regularization
strengths are the tuned full-scale defaults of ``Hyperparams`` (beta=0.1,
beta_sens=0.05, beta_inv=0.02, gamma_lpd=0.05) while step size and epoch
budget are sized for the toy policy.  The strengths alone set the loss and
the passes (see train): the ladder and the ablations differ only in which
strengths they zero, and skip those strengths' passes; corruption presets
swap the corruption family or diffusion step count, and ``modpp_desk_t10``
is modpp_desk at the weak diffusion step, so every benchmark arm
(modlab.experiments) is a preset.
"""

from __future__ import annotations

from .core import Hyperparams
from .corrupt import CorruptionSpec
from .train import TrainConfig

# Step size and epoch budget sized for the toy policy; every other budget
# setting is TrainConfig's default.
DESK_SCALE = dict(lr=0.15, epochs=4)

_PRESETS = {
    # Loss ladder.
    "dpo": dict(hp=Hyperparams(beta_inv=0.0, beta_sens=0.0, gamma_lpd=0.0)),
    "mod": dict(hp=Hyperparams(gamma_lpd=0.0)),
    "modpp": dict(),
    # Invariance-dominant strengths tuned for the toy policy, the reverse of
    # the full-scale recommendation.  The single-token policy shares its
    # answer logits across all prompts, so the sensitivity weight's margin
    # credit mostly tracks the answer prior and stalls debiasing, while the
    # invariance weight's margin discount keeps pressure on corruption-stable
    # pairs and raises the effective margin temperature.
    "modpp_desk": dict(hp=Hyperparams(beta_inv=0.08, beta_sens=0.02, gamma_lpd=0.02)),
    # The corruption-strength ablation at the desk strengths (criterion 8).
    "modpp_desk_t10": dict(hp=Hyperparams(beta_inv=0.08, beta_sens=0.02, gamma_lpd=0.02),
                           corruption=CorruptionSpec(kind="diffusion", t=10)),
    # Component ablations: exactly one mechanism active at a time.
    "sens_only": dict(hp=Hyperparams(beta_inv=0.0, gamma_lpd=0.0)),
    "inv_only": dict(hp=Hyperparams(beta_sens=0.0, gamma_lpd=0.0)),
    "lpd_only": dict(hp=Hyperparams(beta_inv=0.0, beta_sens=0.0)),
    # Corruption families.
    "modpp_zeros": dict(corruption=CorruptionSpec(kind="zeros")),
    "modpp_gaussian": dict(corruption=CorruptionSpec(kind="gaussian")),
    "modpp_swap": dict(corruption=CorruptionSpec(kind="random_swap")),
    "modpp_diff_t10": dict(corruption=CorruptionSpec(kind="diffusion", t=10)),
    "modpp_diff_t50": dict(corruption=CorruptionSpec(kind="diffusion", t=50)),
    # The same config as modpp (diffusion at t=500 is CorruptionSpec's
    # default); kept while the benchmark's corruption_ablation workload
    # names it.
    "modpp_diff_t500": dict(corruption=CorruptionSpec(kind="diffusion", t=500)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def make_config(name: str, **overrides) -> TrainConfig:
    """TrainConfig for a named preset, with field overrides applied last."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return TrainConfig(**{**DESK_SCALE, **_PRESETS[name], **overrides})
