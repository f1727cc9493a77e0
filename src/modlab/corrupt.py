"""Feature-vector corruption strategies for audio/visual inputs.

Four ways to produce an uninformative (or partially informative) stand-in
for a feature vector:

    zeros        all-zero vector
    gaussian     i.i.d. N(0, sigma^2) replacement noise
    random_swap  a different vector drawn from a pool of real features
    diffusion    forward noising sqrt(abar_t)*x + sqrt(1-abar_t)*eps

Diffusion uses the standard linear-beta forward schedule; small t leaves
the vector close to the original (signal coefficient sqrt(abar_t) decays
monotonically in t), large t destroys it.  Corrupted vectors are not
renormalized to the input's scale statistics.

``corrupt`` takes one (d,) vector or a (B, d) block of rows and draws
from the generator it is given (default: a fresh ``default_rng(spec.seed)``,
so a call without one is deterministic given (input, spec)).  A block call
draws exactly what B row calls would draw from the same generator in row
order: gaussian and diffusion fill their (B, d) noise row-major, and
random_swap takes one pool index per row.  ``corrupt_rows`` corrupts the
masked rows of an audio/visual pair of blocks with one generator, audio
block first, into fresh arrays or into the caller's buffers, so a caller
that passes the same generator to successive calls fixes every draw by its
own seed and call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CORRUPTION_KINDS = ("zeros", "gaussian", "random_swap", "diffusion")

DEFAULT_T_MAX = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


class CorruptionError(ValueError):
    """Invalid corruption request (bad kind, step out of range, empty pool)."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear forward-noising schedule with precomputed cumulative products.

    alpha_bar[t] = prod_{s=1..t} (1 - beta_s) with beta_s interpolated
    linearly from beta_start to beta_end over T steps; alpha_bar[0] = 1
    and the sequence is strictly decreasing.
    """

    T: int = DEFAULT_T_MAX
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END
    alpha_bar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T < 1:
            raise CorruptionError(f"schedule length T must be >= 1, got {self.T}")
        if not (0 < self.beta_start <= self.beta_end < 1):
            raise CorruptionError(
                f"need 0 < beta_start <= beta_end < 1, got {self.beta_start}, {self.beta_end}"
            )
        betas = np.linspace(self.beta_start, self.beta_end, self.T)
        abar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        object.__setattr__(self, "alpha_bar", abar)


DEFAULT_SCHEDULE = NoiseSchedule()


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption draw: kind, parameters, and the seed that fixes it.

    t is only meaningful for diffusion (step count in [0, T]); sigma only
    for gaussian.
    """

    kind: str = "diffusion"
    t: int = 500
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise CorruptionError(f"kind must be one of {CORRUPTION_KINDS}, got {self.kind!r}")
        if not (0 <= self.t <= DEFAULT_T_MAX):
            raise CorruptionError(f"diffusion step t must be in [0, {DEFAULT_T_MAX}], got {self.t}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise CorruptionError(f"sigma must be finite and > 0, got {self.sigma}")


def alpha_bar(schedule: NoiseSchedule, t: int) -> float:
    """Cumulative signal retention prod_{s=1..t}(1 - beta_s), in (0, 1]."""
    if not (0 <= t <= schedule.T):
        raise CorruptionError(f"t must be in [0, {schedule.T}], got {t}")
    return float(schedule.alpha_bar[t])


def corrupt(features, spec: CorruptionSpec, pool=None, schedule: NoiseSchedule = DEFAULT_SCHEDULE,
            rng: np.random.Generator = None):
    """Corrupted copy of a (d,) feature vector or a (B, d) block of rows,
    shape-preserving and finite.

    gaussian replaces each row with pure noise (an uninformative input)
    rather than adding noise to it.  random_swap draws each row uniformly
    from the pool, excluding members identical to that row so the result
    is a genuinely different source.  diffusion at t=0 is the identity.
    rng defaults to default_rng(spec.seed); zeros and diffusion at t=0
    draw nothing from it.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise CorruptionError("features must be a (d,) vector or a (B, d) block of rows")
    if not np.all(np.isfinite(x)):
        raise CorruptionError("features must be finite")
    if rng is None:
        rng = np.random.default_rng(spec.seed)

    if spec.kind == "zeros":
        return np.zeros_like(x)

    if spec.kind == "gaussian":
        return rng.normal(0.0, spec.sigma, size=x.shape)

    if spec.kind == "random_swap":
        return _swap(x, pool, rng)

    # diffusion
    if spec.t == 0:
        return x.copy()
    abar = alpha_bar(schedule, spec.t)
    eps = rng.standard_normal(x.shape)
    return math.sqrt(abar) * x + math.sqrt(1.0 - abar) * eps


def _swap(x: np.ndarray, pool, rng: np.random.Generator) -> np.ndarray:
    """random_swap of a vector or block: one uniform pool index per row; a
    row whose pick equals it draws again, uniformly over the members that
    differ from it.  Both draws together are uniform over the non-identical
    members, and only the rejected rows are compared with the whole pool."""
    if pool is None or len(pool) == 0:
        raise CorruptionError("random_swap needs a non-empty feature pool")
    try:
        vectors = np.asarray(pool, dtype=np.float64)
    except ValueError:  # ragged: members of different lengths
        vectors = None
    if vectors is None or vectors.ndim != 2 or vectors.shape[1] != x.shape[-1]:
        raise CorruptionError("pool vectors must match the input dimension")
    rows = x.reshape(-1, x.shape[-1])
    picks = rng.integers(len(vectors), size=len(rows))
    rejected = np.flatnonzero(np.all(vectors[picks] == rows, axis=1))
    if rejected.size:
        differs = np.any(vectors != rows[rejected, None, :], axis=2)  # (R, N)
        counts = differs.sum(axis=1)
        if not counts.all():
            raise CorruptionError("random_swap pool contains no vector different from the input")
        nth = rng.integers(counts)
        picks[rejected] = np.argmax(np.cumsum(differs, axis=1) > nth[:, None], axis=1)
    return vectors[picks].reshape(x.shape)


def corrupt_rows(features: dict, spec: CorruptionSpec, masks: dict, rng: np.random.Generator,
                 pools=None, out: dict = None) -> dict:
    """Corrupted copies of stacked feature rows.

    features maps "audio"/"visual" to (B, d) arrays and masks maps a
    modality to the (B,) boolean mask of the rows to corrupt; a modality
    without a mask is kept.  Each modality's masked rows are corrupted as
    one block drawn from rng, audio before visual, rows in order.  pools
    maps a modality to its random_swap pool.  The result is written into
    out, which maps each modality to a (B, d) float64 array (a slice of a
    larger buffer, say), or into fresh arrays; inputs are left untouched.
    """
    if out is None:
        out = {m: np.empty(np.shape(x)) for m, x in features.items()}
    for m, x in features.items():
        out[m][...] = x
    for m in ("audio", "visual"):
        rows = masks.get(m)
        if rows is not None and rows.any():
            out[m][rows] = corrupt(out[m][rows], spec, pool=pools.get(m) if pools else None,
                                   rng=rng)
    return out


class FeaturePool:
    """Real feature vectors of one modality, stacked once into an (N, d)
    array for random_swap.

    len() and truth tests behave as for the list of vectors it replaces;
    np.asarray(pool) returns the stack without copying it.
    """

    def __init__(self, vectors):
        self.vectors = np.array(vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise CorruptionError("a feature pool needs equal-length 1-D vectors")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __array__(self, dtype=None, copy=None):
        arr = self.vectors if dtype is None else self.vectors.astype(dtype, copy=False)
        return arr.copy() if copy else arr
