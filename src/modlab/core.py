"""Closed-form mathematics of modality-decoupled preference optimization.

This module is the numerical heart of the package: KL divergence, the
decoupled regularized objective, its closed-form optimal policy, reward
margins as one table of terms, and the Bradley-Terry pair loss.

Probability distributions over the response vocabulary are plain 1-D numpy
arrays of strictly positive entries summing to one; log-probabilities are
finite floats <= 0.  Everything here is a pure function of its arguments,
safe to call concurrently.

Sign conventions for a preference pair (y_w chosen, y_l rejected), writing
``dX = log X(y_w) - log X(y_l)``:

    margin = tau * d_policy
             - beta * d_ref
             - beta_inv * d_corrupt_irrelevant
             + beta_sens * d_corrupt_relevant
             - gamma_lpd * d_ref_text_only

with temperature ``tau = beta + beta_inv - beta_sens``, the value the
stationarity condition of the decoupled objective fixes, so the closed-form
policy is the objective's maximizer.  ``MARGIN_TERMS`` holds the four
weighted terms, in this order.  The pair loss is ``-log sigmoid(margin)``.
Only d_policy carries gradient (the other slots are detached or frozen), so
the debiasing term only scales each pair's sigmoid weight.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# Sum-to-one slack for validating distributions.
_SUM_TOL = 1e-9


class DimensionError(ValueError):
    """Vector lengths disagree."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of the operation."""


class ConfigurationError(ValueError):
    """Hyperparameters are ill-posed (e.g. non-positive temperature)."""


def _quoted(value) -> str:
    """The repr of value for an error line, cut at 60 characters (a string
    is cut before it is quoted)."""
    return repr(value[:60]) if isinstance(value, str) else repr(value)[:60]


def check_numbers(obj, error, names, *, integer=False, low=0, high=math.inf, above=False):
    """Raise error naming the first of obj's fields ``names`` whose value is
    not a number (with integer, not an integer; a bool is neither) or lies
    outside [low, high], or (low, high) when above.  A non-finite value and
    an integer too large for a float lie outside every interval."""
    kind = "an integer" if integer else "a number"
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integer else numbers.Real):
            raise error(f"{name} must be {kind}, got {_quoted(value)}")
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if not (math.isfinite(x) and (low < x < high if above else low <= x <= high)):
            closed = not above and math.isfinite(high)
            raise error(f"{name} must lie in {'(' if above else '['}{low}, {high}"
                        f"{']' if closed else ')'}, got {_quoted(value)}")


@dataclass(frozen=True)
class Hyperparams:
    """Regularization strengths and the derived margin temperature.

    beta:       pull toward the reference policy.
    beta_inv:   invariance pressure (stability under corruption of the
                prompt-irrelevant modality).
    beta_sens:  sensitivity pressure (shift under corruption of the
                prompt-relevant modality).
    gamma_lpd:  strength of the language-prior debiasing penalty.

    All strengths must be >= 0 and tau = beta + beta_inv - beta_sens must
    be > 0, which is what makes the decoupled objective strictly concave on
    the simplex.
    """

    beta: float = 0.1
    beta_inv: float = 0.02
    beta_sens: float = 0.05
    gamma_lpd: float = 0.05

    def __post_init__(self):
        check_numbers(self, ConfigurationError, [f.name for f in fields(self)])
        if self.tau <= 0:
            raise ConfigurationError(
                f"temperature tau must be positive, got {self.tau} "
                f"(beta={self.beta}, beta_inv={self.beta_inv}, "
                f"beta_sens={self.beta_sens})"
            )

    @property
    def tau(self) -> float:
        return self.beta + self.beta_inv - self.beta_sens


@dataclass(frozen=True)
class PairLogProbs:
    """Log-probabilities of (y_w, y_l) for one preference pair, or (B,)
    arrays of them for a batch of pairs: every margin and loss below works
    elementwise, so one call scores the whole batch.

    policy_w / policy_l: trainable policy on the clean input (the only
        slots gradients ever flow through).
    ref_w / ref_l:       frozen reference on the clean input.
    inv_w / inv_l:       policy on the input with the prompt-IRRELEVANT
        modality corrupted (detached).
    sens_w / sens_l:     policy on the input with the prompt-RELEVANT
        modality corrupted (detached).
    text_w / text_l:     reference on the text-only input (features zeroed),
        realizing the language prior.

    The caller assigns the irrelevant/relevant slots according to the
    prompt's modality tag, so the audio-symmetric form is just a slot swap.
    Corrupted and text slots may be omitted (None) when the corresponding
    strength is zero and the trainer never evaluated them.  Construction
    checks every given slot (finite, <= 0); ``checked`` skips that check
    for slots the caller has already checked.
    """

    policy_w: float
    policy_l: float
    ref_w: float
    ref_l: float
    inv_w: float | None = None
    inv_l: float | None = None
    sens_w: float | None = None
    sens_l: float | None = None
    text_w: float | None = None
    text_l: float | None = None

    def __post_init__(self):
        given = {name: value for name in self.__dataclass_fields__
                 if (value := getattr(self, name)) is not None}
        every = np.concatenate([np.ravel(value) for value in given.values()])
        if np.isfinite(every).all() and not np.greater(every, 0).any():
            return
        for name, value in given.items():
            if not np.isfinite(value).all():
                raise DomainError(f"{name} must be finite, got {value}")
            if np.greater(value, 0).any():
                raise DomainError(f"{name} is a log-probability and must be <= 0, got {value}")

    @classmethod
    def checked(cls, **slots) -> PairLogProbs:
        """The PairLogProbs of slots already known finite and <= 0, built
        without re-checking them; omitted slots are None."""
        pl = cls.__new__(cls)
        pl.__dict__.update(_NO_SLOTS, **slots)
        return pl


_NO_SLOTS = dict.fromkeys(PairLogProbs.__dataclass_fields__)


def _as_probability_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{name} has non-finite entries")
    if np.any(p < 0):
        raise DomainError(f"{name} has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise DomainError(f"{name} must sum to 1 within {_SUM_TOL}, got {total}")
    return p


def _as_strictly_positive_distribution(p, name: str) -> np.ndarray:
    p = _as_probability_vector(p, name)
    if np.any(p <= 0):
        raise DomainError(f"{name} must be strictly positive (zeros are rejected, not clamped)")
    return p


def kl_divergence(p, q) -> float:
    """KL(p || q) = sum_y p(y) * ln(p(y)/q(y)) in nats.

    Zero entries of p contribute nothing; a zero entry of q under positive
    p mass is a domain error (the divergence is infinite).  p and q sum to 1
    only to rounding, which can leave a divergence near zero slightly
    negative; it is returned as 0.
    """
    p = _as_probability_vector(p, "p")
    q = _as_probability_vector(q, "q")
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: p has {p.size} entries, q has {q.size}")
    support = p > 0
    if np.any(q[support] == 0):
        raise DomainError("q has zero mass where p is positive; KL(p||q) is infinite")
    ps = p[support]
    return max(0.0, float(np.sum(ps * np.log(ps / q[support]))))


def mod_objective_value(p, r, p_ref, q_inv, q_sens, hp: Hyperparams) -> float:
    """Value of the decoupled objective at policy p.

    E_p[r] - beta*KL(p||p_ref) - beta_inv*KL(p||q_inv) + beta_sens*KL(p||q_sens).

    The sensitivity KL enters with a positive sign: shifting away from the
    relevant-modality-corrupted distribution is rewarded.  Strictly concave
    in p exactly when tau > 0.
    """
    p = _as_probability_vector(p, "p")
    r = np.asarray(r, dtype=np.float64)
    if r.shape != p.shape:
        raise DimensionError(f"reward length {r.size} does not match policy length {p.size}")
    if not np.all(np.isfinite(r)):
        raise DomainError("reward vector has non-finite entries")
    value = float(p @ r)
    value -= hp.beta * kl_divergence(p, p_ref)
    value -= hp.beta_inv * kl_divergence(p, q_inv)
    value += hp.beta_sens * kl_divergence(p, q_sens)
    return value


def closed_form_policy(r, p_ref, q_inv, q_sens, hp: Hyperparams) -> np.ndarray:
    """Maximizer of the decoupled objective over the probability simplex.

    Proportional to exp(r/tau) * p_ref^(beta/tau) * q_inv^(beta_inv/tau)
    * q_sens^(-beta_sens/tau), computed in log space with a max shift and
    normalized.  Requires tau > 0 (enforced by Hyperparams) and strictly
    positive input distributions; zeros in q_sens would put a negative
    exponent on zero.
    """
    r = np.asarray(r, dtype=np.float64)
    p_ref = _as_strictly_positive_distribution(p_ref, "p_ref")
    if r.shape != p_ref.shape:
        raise DimensionError(f"reward length {r.size} does not match vocabulary size {p_ref.size}")
    if not np.all(np.isfinite(r)):
        raise DomainError("reward vector has non-finite entries")
    q_inv = _as_strictly_positive_distribution(q_inv, "q_inv")
    q_sens = _as_strictly_positive_distribution(q_sens, "q_sens")
    if q_inv.shape != p_ref.shape or q_sens.shape != p_ref.shape:
        raise DimensionError("all distributions must share one vocabulary")

    log_kernel = (
        r
        + hp.beta * np.log(p_ref)
        + hp.beta_inv * np.log(q_inv)
        - hp.beta_sens * np.log(q_sens)
    ) / hp.tau
    log_kernel -= log_kernel.max()
    kernel = np.exp(log_kernel)
    return kernel / kernel.sum()


# The margin's weighted terms in summation order, after the policy term
# tau * d_policy: (name, chosen slot, rejected slot, strength, sign).  A
# term adds sign * strength * (chosen - rejected).
MARGIN_TERMS = (
    ("ref", "ref_w", "ref_l", "beta", -1),
    ("inv", "inv_w", "inv_l", "beta_inv", -1),
    ("sens", "sens_w", "sens_l", "beta_sens", +1),
    ("text", "text_w", "text_l", "gamma_lpd", -1),
)


def margin_terms(pl: PairLogProbs, hp: Hyperparams) -> dict:
    """The margin's terms by name: "policy" (tau * d_policy), then each
    MARGIN_TERMS row with a nonzero strength (a zero one's slots may be
    None).  DomainError when a weighted row's slots are None, or when a slot
    is given without its partner."""
    terms = {"policy": hp.tau * (pl.policy_w - pl.policy_l)}
    for name, chosen, rejected, strength, sign in MARGIN_TERMS:
        w, l = getattr(pl, chosen), getattr(pl, rejected)
        if (w is None) != (l is None):
            raise DomainError(f"{name} log-probs must be given for both {chosen} and {rejected}")
        if weight := getattr(hp, strength):
            if w is None:
                raise DomainError(f"{name} log-probs are required when {strength} is nonzero")
            terms[name] = sign * weight * (w - l)
    return terms


def margin(pl: PairLogProbs, hp: Hyperparams):
    """The sum of the margin's terms in table order, from sum()'s 0 (so a
    -0.0 total is +0.0); DomainError as in margin_terms.  The closed-form
    normalizer cancels in every difference, so it is never computed."""
    return sum(margin_terms(pl, hp).values())


def pair_loss(margin):
    """Bradley-Terry negative log-likelihood -ln(sigmoid(margin)).

    Evaluated as softplus(-margin) = ln(1 + exp(-margin)) via logaddexp,
    which is stable for margins of either sign.  Strictly decreasing in
    the margin; equals ln 2 at zero.  A float for a float margin, an array
    for an array of margins.
    """
    if not np.isfinite(margin).all():
        raise DomainError(f"margin must be finite, got {margin}")
    loss = np.logaddexp(0.0, -np.asarray(margin))
    return float(loss) if loss.ndim == 0 else loss


def pair_terms(pl: PairLogProbs, hp: Hyperparams):
    """(loss, margin) of one preference pair, or of a batch of pairs.  The
    gradient flows through d_policy alone, scaled by tau."""
    m = margin(pl, hp)
    return pair_loss(m), m
