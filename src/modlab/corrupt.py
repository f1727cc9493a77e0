"""Feature-vector corruption strategies for audio/visual inputs.

Four ways to produce an uninformative (or partially informative) stand-in
for a feature vector:

    zeros        all-zero vector
    gaussian     i.i.d. N(0, 1) replacement noise
    random_swap  a different vector drawn from a pool of real features
    diffusion    forward noising sqrt(abar_t)*x + sqrt(1-abar_t)*eps

Diffusion follows the fixed table ``ALPHA_BAR``: abar_t is the cumulative
product of (1 - beta_s) for s = 1..t, with DDPM's linear schedule, beta
from 1e-4 to 0.02 over T_MAX = 1000 steps (Ho et al., 2020), and
abar_0 = 1.  Small t leaves the vector close to the original (the signal
coefficient sqrt(abar_t) decays monotonically in t), large t destroys it.
Corrupted vectors are not renormalized to the input's scale statistics.

A ``CorruptionSpec`` is what the lab varies about a corruption: its
family and, for diffusion, its step.  The caller owns the randomness:
``corrupt`` takes one (d,) vector or a (B, d) block of rows and draws from
the generator it is given.  A block call draws exactly what B row calls
would draw from the same generator in row order: gaussian and diffusion
fill their (B, d) noise row-major, and random_swap takes one pool index
per row.  A caller that passes the same generator to successive calls
fixes every draw by its own seed and call order.  A random_swap pool is a
``FeaturePool``, the (N, d) stack built once; it stays a wrapper rather
than the bare array because the benchmark harness's traced run
truth-tests the pool argument of every ``corrupt`` call, which a 2-D
array refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_numbers

CORRUPTION_KINDS = ("zeros", "gaussian", "random_swap", "diffusion")

T_MAX = 1000
ALPHA_BAR = np.concatenate([[1.0], np.cumprod(1.0 - np.linspace(1e-4, 0.02, T_MAX))])
ALPHA_BAR.flags.writeable = False

# The scale of gaussian replacement noise.
GAUSSIAN_SIGMA = 1.0


class CorruptionError(ValueError):
    """Invalid corruption request (bad kind, step out of range, empty pool)."""


@dataclass(frozen=True)
class CorruptionSpec:
    """A corruption family and its step: t is only meaningful for diffusion
    (step count in [0, T_MAX])."""

    kind: str = "diffusion"
    t: int = 500

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise CorruptionError(f"kind must be one of {CORRUPTION_KINDS}, got {self.kind!r}")
        check_numbers(self, CorruptionError, ("t",), integer=True, high=T_MAX)


def corrupt(features, spec: CorruptionSpec, pool, rng: np.random.Generator):
    """Corrupted copy of a (d,) feature vector or a (B, d) block of rows,
    shape-preserving and finite.

    gaussian replaces each row with pure noise (an uninformative input)
    rather than adding noise to it.  random_swap draws each row uniformly
    from the pool, excluding members identical to that row so the result
    is a genuinely different source; the other kinds ignore pool.
    diffusion at t=0 is the identity.  Draws come from rng; zeros and
    diffusion at t=0 draw nothing from it.  diffusion follows ALPHA_BAR.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise CorruptionError("features must be a (d,) vector or a (B, d) block of rows")
    if not np.isfinite(x).all():
        raise CorruptionError("features must be finite")

    if spec.kind == "zeros":
        return np.zeros_like(x)

    if spec.kind == "gaussian":
        return rng.normal(0.0, GAUSSIAN_SIGMA, size=x.shape)

    if spec.kind == "random_swap":
        return _swap(x, pool, rng)

    # diffusion
    if spec.t == 0:
        return x.copy()
    abar = float(ALPHA_BAR[spec.t])
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
