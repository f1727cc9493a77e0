"""A tiny differentiable audio/visual/text policy with analytic gradients.

The network maps a modality context (audio features a, visual features v,
prompt id x) to a log-probability vector over a small response vocabulary:

    h       = tanh(U_a a + U_v v + E_x[prompt])
    logits  = W_out h + b
    output  = log_softmax(logits)

Responses are single vocabulary items, so a whole-response log-probability
is one entry of the output.  Gradients are hand-derived reverse-mode
(log-softmax -> linear -> tanh) and audited against central finite
differences by the test suite; there is no autodiff anywhere.

``forward_detached`` is numerically identical to ``forward_logprobs`` and
exists purely as a contract marker: values obtained through it enter loss
values but must never contribute to gradients.  The trainer honors this by
only ever calling ``backward`` with upstreams assembled from tracked
(clean-input) passes.

Checkpoints are written as a flat named-tensor text format with a version
header (see ``save_checkpoint``); %.17g formatting makes round-trips exact
and outputs byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHECKPOINT_HEADER = "modlab-checkpoint v1"

MODALITY_TAGS = ("audio_related", "visual_related", "audiovisual")

# (prompt-relevant, prompt-irrelevant) modality of each single-modality tag.
_MODALITY_ROLES = {"visual_related": ("visual", "audio"), "audio_related": ("audio", "visual")}


def modality_roles(tag: str) -> tuple:
    """(relevant, irrelevant) modality names for a single-modality tag."""
    if tag not in _MODALITY_ROLES:
        raise ValueError(f"relevant/irrelevant modalities are undefined for tag {tag!r}")
    return _MODALITY_ROLES[tag]


@dataclass(frozen=True)
class ModalityContext:
    """One (audio, visual, prompt) input with its modality-relevance tag."""

    audio: np.ndarray
    visual: np.ndarray
    prompt_id: int
    modality_tag: str

    def __post_init__(self):
        if self.modality_tag not in MODALITY_TAGS:
            raise ValueError(f"modality_tag must be one of {MODALITY_TAGS}, got {self.modality_tag!r}")
        object.__setattr__(self, "audio", np.asarray(self.audio, dtype=np.float64))
        object.__setattr__(self, "visual", np.asarray(self.visual, dtype=np.float64))
        if not (np.all(np.isfinite(self.audio)) and np.all(np.isfinite(self.visual))):
            raise ValueError("context features must be finite")

    def text_only(self) -> "ModalityContext":
        """Copy with both feature vectors zeroed (the architecture's null input)."""
        return ModalityContext(
            audio=np.zeros_like(self.audio),
            visual=np.zeros_like(self.visual),
            prompt_id=self.prompt_id,
            modality_tag=self.modality_tag,
        )

    def with_features(self, audio=None, visual=None) -> "ModalityContext":
        return ModalityContext(
            audio=self.audio if audio is None else audio,
            visual=self.visual if visual is None else visual,
            prompt_id=self.prompt_id,
            modality_tag=self.modality_tag,
        )


@dataclass
class PolicyParams:
    """All trainable tensors.  d_h x d_a, d_h x d_v, P x d_h, V x d_h, V."""

    u_a: np.ndarray
    u_v: np.ndarray
    e_x: np.ndarray
    w_out: np.ndarray
    b: np.ndarray

    FIELDS = ("u_a", "u_v", "e_x", "w_out", "b")

    def copy(self) -> "PolicyParams":
        return PolicyParams(*(getattr(self, f).copy() for f in self.FIELDS))

    @property
    def vocab_size(self) -> int:
        return self.b.shape[0]

    @property
    def n_prompts(self) -> int:
        return self.e_x.shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in self.FIELDS])

    def from_vector(self, vec: np.ndarray) -> "PolicyParams":
        """New params with the same shapes, values taken from a flat vector."""
        out, offset = [], 0
        for f in self.FIELDS:
            shape = getattr(self, f).shape
            size = int(np.prod(shape))
            out.append(np.asarray(vec[offset : offset + size], dtype=np.float64).reshape(shape))
            offset += size
        if offset != vec.size:
            raise ValueError(f"flat vector has {vec.size} entries, expected {offset}")
        return PolicyParams(*out)


class GradAccumulator:
    """Additive gradient buffers matching PolicyParams shapes."""

    def __init__(self, params: PolicyParams):
        self.u_a = np.zeros_like(params.u_a)
        self.u_v = np.zeros_like(params.u_v)
        self.e_x = np.zeros_like(params.e_x)
        self.w_out = np.zeros_like(params.w_out)
        self.b = np.zeros_like(params.b)

    def add(self, other: "GradAccumulator") -> None:
        for f in PolicyParams.FIELDS:
            buf = getattr(self, f)
            buf += getattr(other, f)
            if not np.all(np.isfinite(buf)):
                raise FloatingPointError(f"gradient accumulator {f} became non-finite")

    def scale(self, factor: float) -> None:
        for f in PolicyParams.FIELDS:
            getattr(self, f).__imul__(factor)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in PolicyParams.FIELDS])

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(getattr(self, f)))) for f in PolicyParams.FIELDS)


def init_params(
    d_a: int = 8,
    d_v: int = 8,
    d_h: int = 16,
    vocab_size: int = 8,
    n_prompts: int = 16,
    seed: int = 0,
    scale: float = 0.1,
) -> PolicyParams:
    """Seeded uniform(-scale, scale) initialization of every tensor."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-scale, scale, size=shape)

    return PolicyParams(
        u_a=draw(d_h, d_a),
        u_v=draw(d_h, d_v),
        e_x=draw(n_prompts, d_h),
        w_out=draw(vocab_size, d_h),
        b=draw(vocab_size),
    )


def zero_params_like(params: PolicyParams) -> PolicyParams:
    return PolicyParams(*(np.zeros_like(getattr(params, f)) for f in PolicyParams.FIELDS))


def _pre_activation(params: PolicyParams, ctx: ModalityContext) -> np.ndarray:
    if ctx.audio.shape[0] != params.u_a.shape[1]:
        raise ValueError(
            f"audio feature length {ctx.audio.shape[0]} does not match d_a={params.u_a.shape[1]}"
        )
    if ctx.visual.shape[0] != params.u_v.shape[1]:
        raise ValueError(
            f"visual feature length {ctx.visual.shape[0]} does not match d_v={params.u_v.shape[1]}"
        )
    if not (0 <= ctx.prompt_id < params.n_prompts):
        raise ValueError(f"prompt_id {ctx.prompt_id} outside table of size {params.n_prompts}")
    return params.u_a @ ctx.audio + params.u_v @ ctx.visual + params.e_x[ctx.prompt_id]


def forward_logprobs(params: PolicyParams, ctx: ModalityContext) -> np.ndarray:
    """log_softmax(W_out tanh(U_a a + U_v v + E_x[p]) + b), length V."""
    h = np.tanh(_pre_activation(params, ctx))
    logits = params.w_out @ h + params.b
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def forward_detached(params: PolicyParams, ctx: ModalityContext) -> np.ndarray:
    """Same numerics as forward_logprobs; marks a stop-gradient evaluation.

    The returned values may enter loss expressions but the caller must not
    route any upstream through them into ``backward``.
    """
    return forward_logprobs(params, ctx)


def backward(params: PolicyParams, ctx: ModalityContext, upstream: np.ndarray) -> GradAccumulator:
    """Gradient of upstream . log_softmax(logits) w.r.t. every parameter.

    upstream is a length-V vector of partial derivatives of the scalar loss
    with respect to the output log-probabilities.  Chain rule through
    log-softmax: d(logprob_j)/d(logit_k) = delta_jk - softmax_k, so the
    logit gradient is upstream - sum(upstream) * softmax(logits).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (params.vocab_size,):
        raise ValueError(f"upstream must have length {params.vocab_size}, got {upstream.shape}")
    if not np.all(np.isfinite(upstream)):
        raise ValueError("upstream must be finite")

    pre = _pre_activation(params, ctx)
    h = np.tanh(pre)
    logits = params.w_out @ h + params.b
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()

    g_logits = upstream - upstream.sum() * probs
    g_h = params.w_out.T @ g_logits
    g_pre = g_h * (1.0 - h * h)

    grads = GradAccumulator(params)
    grads.b += g_logits
    grads.w_out += np.outer(g_logits, h)
    grads.u_a += np.outer(g_pre, ctx.audio)
    grads.u_v += np.outer(g_pre, ctx.visual)
    grads.e_x[ctx.prompt_id] += g_pre
    return grads


def apply_gradient_step(params: PolicyParams, grads: GradAccumulator, lr: float) -> PolicyParams:
    """Plain gradient-descent update, returning new params (inputs untouched)."""
    return PolicyParams(
        *(getattr(params, f) - lr * getattr(grads, f) for f in PolicyParams.FIELDS)
    )


def save_checkpoint(params: PolicyParams, path) -> None:
    """Write the named-tensor text format.

    Line 1 is the version header; each tensor is introduced by
    ``tensor <name> <dim0> [dim1]`` followed by one line of %.17g values
    per row.  %.17g round-trips IEEE doubles exactly.
    """
    lines = [CHECKPOINT_HEADER]
    for f in PolicyParams.FIELDS:
        tensor = getattr(params, f)
        dims = " ".join(str(d) for d in tensor.shape)
        lines.append(f"tensor {f} {dims}")
        rows = tensor.reshape(tensor.shape[0], -1) if tensor.ndim == 2 else tensor.reshape(1, -1)
        for row in rows:
            lines.append(" ".join("%.17g" % v for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> PolicyParams:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"not a recognized checkpoint file: {path}")
    tensors: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        head = lines[i].split()
        if head[0] != "tensor" or len(head) < 3:
            raise ValueError(f"malformed tensor header at line {i + 1} of {path}")
        name, dims = head[1], [int(d) for d in head[2:]]
        n_rows = dims[0] if len(dims) == 2 else 1
        rows = [np.array([float(v) for v in lines[i + 1 + r].split()]) for r in range(n_rows)]
        tensors[name] = np.vstack(rows).reshape(dims)
        i += 1 + n_rows
    missing = [f for f in PolicyParams.FIELDS if f not in tensors]
    if missing:
        raise ValueError(f"checkpoint {path} is missing tensors: {missing}")
    return PolicyParams(*(tensors[f] for f in PolicyParams.FIELDS))
