"""A tiny differentiable audio/visual/text policy with analytic gradients.

The network maps one input row (audio features a, visual features v,
prompt id x) to a log-probability vector over a small response vocabulary:

    h       = tanh(U_a a + U_v v + E_x[prompt])
    logits  = W_out h + b
    output  = log_softmax(logits)

Responses are single vocabulary items, so a whole-response log-probability
is one entry of the output.  Gradients are hand-derived reverse-mode
(log-softmax -> linear -> tanh) and audited against central finite
differences by the test suite; there is no autodiff anywhere.

The kernels are batch-first.  ``forward(params, A, V, prompt_ids)`` takes
B stacked rows (A is (B, d_a), V is (B, d_v), prompt_ids is (B,)) and
returns a ``ForwardCache``: the (B, V) log-probabilities plus the inputs,
hidden activations and softmax that ``backward(params, cache, upstream)``
needs for a (B, V) upstream.  ``forward`` is ``check_inputs``, every input
check and its message, then ``forward_unchecked``, the arithmetic alone,
which the trainer and its warm-up call on rows checked once per run.

The backward pass sums gradients over rows (the prompt table through
``np.bincount`` over flat (prompt, column) indices, so repeated prompts
accumulate, in row order).  Slicing a cache (``cache[:n]``) keeps those
rows only, which is how the trainer back-propagates through its clean
rows and nothing else: its corrupted and reference rows enter loss values
but never ``backward``.  The rows come straight from the columns of a
``synth`` record table.

``PolicyParams`` and ``GradAccumulator`` keep their five named tensors
as views into one flat vector, so a copy, a gradient step, a scaling or a
finiteness check is one array operation.  ``backward`` builds that vector
with one ``np.concatenate`` of the five gradient blocks in layout order
(the prompt table's block accumulated into zeros).  ``PolicyParams``
binds its five views on construction, since every forward reads them; a
``GradAccumulator`` binds a view only when its field is read, and a
training step reads none.  ``forward_logprobs`` (the log-probabilities
without the cache) and ``GradAccumulator.add`` have no caller in the
package; they stay only because the benchmark harness wraps them by name.

Checkpoints are written as a flat named-tensor text format with a version
header (see ``save_checkpoint``); %.17g formatting makes round-trips exact
and outputs byte-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

CHECKPOINT_HEADER = "modlab-checkpoint v1"


class _FlatTensors:
    """The policy's five named tensors as views into one flat float64
    ``vector``, so arithmetic on the whole set is one array operation.
    ``layout`` holds each field's (name, start, stop, shape) in the vector;
    a (K, n) vector gives K stacked sets, every field gaining a leading K
    axis.  Assigning to a field writes into its view of the vector."""

    def _bind(self, vector: np.ndarray, layout: tuple) -> None:
        state, lead = self.__dict__, vector.shape[:-1]
        state["vector"], state["layout"] = vector, layout
        for name, start, stop, shape in layout:
            state[name] = vector[..., start:stop].reshape(lead + shape)

    @classmethod
    def _wrap(cls, vector: np.ndarray, layout: tuple):
        """An instance whose fields are views into vector (no copy)."""
        tensors = cls.__new__(cls)
        tensors._bind(vector, layout)
        return tensors

    def __setattr__(self, name, value):
        if name not in PolicyParams.FIELDS:
            object.__setattr__(self, name, value)
        elif value is not (view := getattr(self, name)):  # `grads.b += x` returns the view
            view[...] = value

    def to_vector(self) -> np.ndarray:
        """A copy of the flat vector: (n,), or (K, n) for a stack."""
        return self.vector.copy()


class PolicyParams(_FlatTensors):
    """All trainable tensors.  d_h x d_a, d_h x d_v, P x d_h, V x d_h, V.
    Built from five arrays, it copies them into one flat vector."""

    FIELDS = ("u_a", "u_v", "e_x", "w_out", "b")

    def __init__(self, u_a, u_v, e_x, w_out, b):
        tensors = [np.asarray(t, dtype=np.float64) for t in (u_a, u_v, e_x, w_out, b)]
        stops = list(itertools.accumulate(t.size for t in tensors))
        self._bind(np.concatenate([t.ravel() for t in tensors]),
                   tuple(zip(self.FIELDS, [0, *stops], stops, (t.shape for t in tensors))))

    def copy(self) -> "PolicyParams":
        return self._wrap(self.vector.copy(), self.layout)

    @property
    def vocab_size(self) -> int:
        return self.b.shape[-1]

    @property
    def n_prompts(self) -> int:
        return self.e_x.shape[-2]

    def from_vector(self, vec: np.ndarray) -> "PolicyParams":
        """New params with the same shapes whose fields are views into a
        flat vector.

        A (K, n) stack of flat vectors gives K stacked parameter sets: every
        tensor gains a leading K axis, which ``forward`` broadcasts over.
        """
        vec, size = np.asarray(vec, dtype=np.float64), self.layout[-1][2]
        if vec.shape[-1] != size:
            raise ValueError(f"flat vector has {vec.shape[-1]} entries, expected {size}")
        return self._wrap(vec, self.layout)


class GradAccumulator(_FlatTensors):
    """Gradient buffers matching PolicyParams shapes, zeroed; ``_wrap``
    takes a flat gradient vector instead.  A field's view is bound when it
    is first read, so a training step, which reads only the vector, binds
    none."""

    def __init__(self, params: PolicyParams):
        self._bind(np.zeros(params.vector.shape), params.layout)

    def _bind(self, vector: np.ndarray, layout: tuple) -> None:
        self.__dict__.update(vector=vector, layout=layout)

    def __getattr__(self, name):  # reached only by a field not yet bound
        if name not in PolicyParams.FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _, start, stop, shape = self.layout[PolicyParams.FIELDS.index(name)]
        lead = self.vector.shape[:-1]
        view = self.__dict__[name] = self.vector[..., start:stop].reshape(lead + shape)
        return view

    def add(self, other: "GradAccumulator") -> None:
        self.vector += other.vector
        self.check_finite()

    def check_finite(self) -> None:
        """Raise FloatingPointError naming the first field holding a
        non-finite entry (looked up only after the whole-vector check)."""
        if not np.isfinite(self.vector).all():
            bad = next(name for name, start, stop, _ in self.layout
                       if not np.isfinite(self.vector[..., start:stop]).all())
            raise FloatingPointError(f"gradient accumulator {bad} became non-finite")

    def scale(self, factor: float) -> None:
        self.vector *= factor


def init_params(d_a: int = 8, d_v: int = 8, d_h: int = 16, vocab_size: int = 8,
                n_prompts: int = 16, seed: int = 0) -> PolicyParams:
    """Seeded uniform(-0.1, 0.1) initialization of every tensor."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    return PolicyParams(
        u_a=draw(d_h, d_a),
        u_v=draw(d_h, d_v),
        e_x=draw(n_prompts, d_h),
        w_out=draw(vocab_size, d_h),
        b=draw(vocab_size),
    )


@dataclass(eq=False)
class ForwardCache:
    """One batched forward pass: its inputs, intermediates and output.

    audio (B, d_a), visual (B, d_v), prompt_ids (B,), h (B, d_h) the hidden
    activations, probs (B, V) the softmax and logprobs (B, V) its log.
    """

    audio: np.ndarray
    visual: np.ndarray
    prompt_ids: np.ndarray
    h: np.ndarray
    probs: np.ndarray
    logprobs: np.ndarray

    def __getitem__(self, rows) -> "ForwardCache":
        """The cache of a subset of rows (a slice or an index array)."""
        return ForwardCache(self.audio[rows], self.visual[rows], self.prompt_ids[rows],
                            self.h[rows], self.probs[rows], self.logprobs[rows])


def check_inputs(params: PolicyParams, audio, visual, prompt_ids, rows=slice(None)):
    """``forward``'s input checks, the one place their messages live.

    Raises ValueError when audio or visual is not a 2-D array of width d_a
    or d_v, when prompt_ids is not a 1-D integer array, when the three
    differ in row count, or when a prompt id of ``prompt_ids[rows]`` lies
    outside the table, naming the first such id in that order.  Returns
    (audio, visual, prompt_ids) as arrays, the features float64, ready for
    ``forward_unchecked``.
    """
    audio = np.asarray(audio, dtype=np.float64)
    visual = np.asarray(visual, dtype=np.float64)
    prompt_ids = np.asarray(prompt_ids)
    for m, x, width in (("audio", audio, params.u_a.shape[-1]),
                        ("visual", visual, params.u_v.shape[-1])):
        if x.ndim != 2:
            raise ValueError(f"{m} features must be a 2-D (rows, d_{m[0]}) array, got shape "
                             f"{x.shape}")
        if x.shape[1] != width:
            raise ValueError(f"{m} feature length {x.shape[1]} does not match d_{m[0]}={width}")
    if prompt_ids.ndim != 1 or prompt_ids.dtype.kind not in "iu":
        raise ValueError(f"prompt_ids must be a 1-D integer array, got shape "
                         f"{prompt_ids.shape} of {prompt_ids.dtype}")
    if not (audio.shape[0] == visual.shape[0] == prompt_ids.shape[0]):
        raise ValueError(f"row counts differ: audio {audio.shape[0]}, visual "
                         f"{visual.shape[0]}, prompt_ids {prompt_ids.shape[0]}")
    visited = prompt_ids[rows]
    bad = (visited < 0) | (visited >= params.n_prompts)
    if bad.any():
        raise ValueError(f"prompt_id {visited[bad][0]} outside table of size {params.n_prompts}")
    return audio, visual, prompt_ids


def forward(params: PolicyParams, audio, visual, prompt_ids) -> ForwardCache:
    """log_softmax(W_out tanh(U_a a + U_v v + E_x[p]) + b) for every row.

    With K stacked parameter sets (``PolicyParams.from_vector`` of a (K, n)
    stack) every row is scored under each set: h, probs and logprobs gain a
    leading K axis.  The cache of a stacked call is not for ``backward``.
    """
    return forward_unchecked(params, *check_inputs(params, audio, visual, prompt_ids))


def forward_unchecked(params: PolicyParams, audio: np.ndarray, visual: np.ndarray,
                      prompt_ids: np.ndarray) -> ForwardCache:
    """``forward``'s arithmetic without its checks, for float64 rows whose
    widths, row counts and prompt ids ``check_inputs`` has already passed
    (the trainer's and the warm-up's rows, checked once per run).  A prompt
    id outside the table is not caught here: -1 wraps silently."""
    h = np.tanh(audio @ params.u_a.mT + visual @ params.u_v.mT
                + params.e_x.take(prompt_ids, axis=-2))
    logits = h @ params.w_out.mT + params.b[..., None, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    return ForwardCache(audio, visual, prompt_ids, h, exp / total, shifted - np.log(total))


def forward_logprobs(params: PolicyParams, audio, visual, prompt_ids) -> np.ndarray:
    """The (B, V) log-probabilities of ``forward``, without its cache."""
    return forward(params, audio, visual, prompt_ids).logprobs


# The column offsets 0, ..., d_h - 1 of a prompt-table row, by d_h (read-only).
_COLUMNS = {}


def backward(params: PolicyParams, cache, upstream: np.ndarray) -> GradAccumulator:
    """Gradient of sum_rows upstream . log_softmax(logits) w.r.t. every parameter.

    cache is a ForwardCache and upstream, of its (B, V) shape, holds the
    partial derivatives of the scalar loss with respect to the output
    log-probabilities.  Chain rule through log-softmax:
    d(logprob_j)/d(logit_k) = delta_jk - softmax_k, so the logit gradient
    is upstream - sum(upstream) * softmax(logits).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != cache.probs.shape:
        raise ValueError(f"upstream must have shape {cache.probs.shape}, got {upstream.shape}")
    if not np.isfinite(upstream).all():
        raise ValueError("upstream must be finite")

    g_logits = upstream - upstream.sum(axis=1, keepdims=True) * cache.probs
    g_pre = (g_logits @ params.w_out) * (1.0 - cache.h * cache.h)

    # The prompt table's gradient: each (prompt, column) entry sums its rows,
    # in row order, so repeated prompts accumulate.
    d_h = g_pre.shape[1]
    columns = _COLUMNS.get(d_h)
    if columns is None:
        columns = _COLUMNS[d_h] = np.arange(d_h)
        columns.flags.writeable = False
    flat = (cache.prompt_ids.astype(np.intp, copy=False)[:, None] * d_h + columns).ravel()
    g_e_x = np.bincount(flat, weights=g_pre.ravel(), minlength=params.e_x.size)
    return GradAccumulator._wrap(np.concatenate([  # in layout order: u_a, u_v, e_x, w_out, b
        (g_pre.T @ cache.audio).ravel(), (g_pre.T @ cache.visual).ravel(), g_e_x,
        (g_logits.T @ cache.h).ravel(), g_logits.sum(axis=0)]), params.layout)


def apply_gradient_step(params: PolicyParams, grads: GradAccumulator, lr: float) -> PolicyParams:
    """Plain gradient-descent update, returning new params (inputs untouched)."""
    return PolicyParams._wrap(params.vector - lr * grads.vector, params.layout)


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


class CheckpointError(ValueError):
    """A checkpoint file that cannot be loaded; the message names the file,
    the line and the problem."""


_TENSOR_NDIM = {"u_a": 2, "u_v": 2, "e_x": 2, "w_out": 2, "b": 1}

# (tensor, axis, tensor, axis) pairs whose sizes must agree: d_h and V.
_SHAPE_LINKS = (("u_v", 0, "u_a", 0), ("e_x", 1, "u_a", 0), ("w_out", 1, "u_a", 0),
                ("b", 0, "w_out", 0))


def load_checkpoint(path) -> PolicyParams:
    """Read the named-tensor text format written by ``save_checkpoint``.

    Raises CheckpointError("<path>, line <n>: <problem>") for a bad header,
    a malformed tensor line, a truncated tensor, a non-numeric or
    non-finite value, a row of the wrong length, a missing, repeated or
    unknown tensor, and tensor shapes that disagree (d_h or V).
    """
    def fail(line: int, problem: str):
        raise CheckpointError(f"{path}, line {line}: {problem}")

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        fail(data.count(b"\n", 0, exc.start) + 1, "not ASCII text")
    if not lines or lines[0] != CHECKPOINT_HEADER:
        fail(1, f"not a checkpoint: the first line must be {CHECKPOINT_HEADER!r}")
    tensors, header_line = {}, {}
    i = 1
    while i < len(lines):
        head = lines[i].split()
        if not head:
            i += 1
            continue
        if head[0] != "tensor" or len(head) < 2 or head[1] not in _TENSOR_NDIM:
            fail(i + 1, f"expected 'tensor <name> <dims>' with a name in {PolicyParams.FIELDS}, "
                        f"got {lines[i][:60]!r}")
        name = head[1]
        try:  # int() reads at most 4,300 digits
            dims = [int(d) for d in head[2:] if d.isdigit()]
        except ValueError:
            dims = []
        if len(head) != 2 + _TENSOR_NDIM[name] or len(dims) != len(head) - 2 or 0 in dims:
            fail(i + 1, f"tensor {name} needs {_TENSOR_NDIM[name]} positive integer "
                        f"dimensions, got {str(head[2:])[:60]}")
        if name in tensors:
            fail(i + 1, f"tensor {name} appears twice")
        n_rows, width = dims if len(dims) == 2 else (1, dims[0])
        rows = []
        for r in range(n_rows):
            n = i + 2 + r  # 1-based line number of row r
            if n > len(lines) or lines[n - 1].startswith("tensor"):
                fail(min(n, len(lines)), f"tensor {name} ends after {r} of {n_rows} rows")
            values = lines[n - 1].split()
            try:
                row = [float(v) for v in values]
            except ValueError:
                fail(n, f"non-numeric value in tensor {name}: {lines[n - 1][:60]!r}")
            if len(row) != width:
                fail(n, f"tensor {name} row has {len(row)} values, expected {width}")
            if not all(math.isfinite(v) for v in row):
                fail(n, f"non-finite value in tensor {name}")
            rows.append(row)
        tensors[name] = np.array(rows, dtype=np.float64).reshape(dims)
        header_line[name] = i + 1
        i += 1 + n_rows
    missing = [f for f in PolicyParams.FIELDS if f not in tensors]
    if missing:
        fail(len(lines), f"missing tensors {missing}")
    for name, axis, other, other_axis in _SHAPE_LINKS:
        size, want = tensors[name].shape[axis], tensors[other].shape[other_axis]
        if size != want:
            fail(header_line[name], f"tensor {name} has {size} {('rows', 'columns')[axis]} "
                                    f"but {other} has {want} {('rows', 'columns')[other_axis]}")
    return PolicyParams(*(tensors[f] for f in PolicyParams.FIELDS))
