"""Baseline and theta-controlled cross-attention for both block types.

Two mechanisms are implemented:

* token-axis concatenation of per-stream queries/keys/values followed by one
  softmax (``joint_attention``), extended with a soft key-weighting factor
  theta between a background stream and an entity stream
  (``coupled_qkv_attention``);
* self-attention over a unified [text; image] sequence (``branch_attention``)
  with the two branch image outputs merged by interpolation
  (``merge_image_states``).

Every mechanism runs through one core, which gives all the query streams
of a call one score block, (..., all query tokens, live key tokens), and
one ``softmax_rows(Q K^T / norm)`` over it; each stream's output is the
product of its rows of that block with the concatenated values.  A key
stream whose scale factor is exactly 0 is dropped rather than scaled (a
literal 0-scaled key would still receive weight proportional to e^0), which
makes the theta in {0, 1} reductions exact: the surviving streams go
through the same calls on the same operands as the plain two-stream path.

The matrix products stay one per stream: each stream's Q, K and V
projection, its rows of ``Q K^T`` and its rows of ``P V``.  The bits of a
product's row can depend on how many rows the product has (numpy takes
gemv for a one-row operand, and BLAS picks its kernel by size), so one
product over all query rows is not exact.  Measured with OpenBLAS 0.3.31
on an AVX-512 Xeon, one ``Q K^T`` changed text rows at d32 and d64 with
64 or 100 image tokens, a one-token stream's rows at
every d, and the theta == 0 reduction to ``joint_attention`` at d64 with 2
text tokens; one ``P V`` changed text rows from about 520 keys.  Per
stream, every product is the call the stream would get alone, so the
reductions hold whatever the BLAS; the elementwise passes (the division by
the norm and the softmax), which cost more than the products at the
default config, run once per call.

Streams are (tokens, d) matrices or (E, tokens, d) stacks with a leading
batch axis, every stream of a call having the same E and d.  The sampler
stacks the coupled entities of one call that way: they share the weights and
the theta of every step, so theta stays one float per call.  Keys and values
are concatenated on axis -2 and scored against their last two axes swapped,
the softmax reduces over the last axis, and numpy runs the matrix products
of a stack slice by slice, so each slice of a stacked call equals the 2-D
call on that slice bit for bit.  A state a caller builds checks its
streams once and holds the float64 arrays the check returns.  The states
computed from checked streams (attention results, block outputs, the
sampler's step state) are built by ``_computed`` and not checked again.

The score block is computed into one flat float64 workspace owned by this
module and scaled and softmaxed there in place: each stream's ``Q K^T``
goes into its rows of a view of the workspace through
``np.matmul(..., out=)``, ``np.divide(..., out=)`` divides the block by the
norm and ``softmax_rows(..., out=)`` normalises it, so no score temporary
is allocated and every output is bit-identical to the same calls with
fresh temporaries.  The workspace grows to the largest block seen and never
shrinks (1.78 MB for 3 stacked entities at d32, 16x16; 8.65 MB for one
entity at d64, 32x32).  No result aliases it, since each output is the
fresh product of a view of the softmaxed block and V.  The package runs
single-threaded; two threads in this module at once would share the
workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .numerics import ShapeError, as_matrices, softmax_rows

__all__ = [
    "AttentionWeights",
    "NormConst",
    "StreamState",
    "CoupledStreamState",
    "norm_for",
    "joint_attention",
    "coupled_qkv_attention",
    "branch_attention",
    "merge_image_states",
]


@dataclass(frozen=True)
class AttentionWeights:
    """Square projection matrices producing Q, K, V and the output mix."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            m = getattr(self, name)
            if m.shape != (d, d):
                raise ShapeError(f"{name} must be {d}x{d}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has non-finite entries")

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class NormConst:
    """Positive denominator for the attention scores."""

    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError(f"norm constant must be positive and finite, got {self.value}")


def norm_for(d_text: int, d_img: int) -> NormConst:
    """Default score denominator sqrt(d_text + d_img)."""
    return NormConst(math.sqrt(d_text + d_img))


@dataclass(frozen=True)
class StreamState:
    text: np.ndarray
    image: np.ndarray

    def __post_init__(self):
        _hold_checked(self)


@dataclass(frozen=True)
class CoupledStreamState:
    """The streams of a coupled attention call, and also the sampler's
    state through the blocks of a step."""

    background: np.ndarray
    entity: np.ndarray
    image: np.ndarray

    def __post_init__(self):
        _hold_checked(self)


def _hold_checked(state) -> None:
    """Replace the fields of a state by the arrays _check_streams returns."""
    _hold(state, _check_streams(**{f.name: getattr(state, f.name) for f in fields(state)}))


def _computed(cls, *streams):
    """A cls state over streams computed from checked ones, built without
    __post_init__, so they are not checked again."""
    state = object.__new__(cls)
    _hold(state, streams)
    return state


def _hold(state, arrays) -> None:
    for f, m in zip(fields(state), arrays):
        object.__setattr__(state, f.name, m)


def _check_streams(**streams) -> list[np.ndarray]:
    """The named streams as float64 arrays: each (tokens, d) or
    (E, tokens, d) with at least one token, all with the same E and d."""
    arrays = []
    for name, s in streams.items():
        m = as_matrices(s)
        if m.shape[-2] < 1:
            raise ShapeError(f"{name} stream must have at least one token")
        if arrays and m.shape[-1] != arrays[0].shape[-1]:
            raise ShapeError(
                f"{name} stream has feature dim {m.shape[-1]}, expected {arrays[0].shape[-1]}"
            )
        if arrays and m.shape[:-2] != arrays[0].shape[:-2]:
            raise ShapeError(
                f"{name} stream has batch shape {m.shape[:-2]}, expected {arrays[0].shape[:-2]}"
            )
        arrays.append(m)
    return arrays


_workspace = np.empty(0)  # the score blocks; see the module docstring


def _score_block(shape) -> np.ndarray:
    """A view of the given shape over the start of the workspace, which is
    first grown to hold it if it is smaller."""
    global _workspace
    n = math.prod(shape)
    if _workspace.size < n:
        _workspace = np.empty(n)
    return _workspace[:n].reshape(shape)


def _multi_stream_attention(streams, w: AttentionWeights, key_scales, norm: NormConst):
    """Shared attention core over streams that _check_streams accepted.

    Returns one output per input stream (the rows whose queries came from
    that stream), in order.  ``key_scales[j] == 0.0`` drops stream j's keys
    and values; any other scale multiplies its key vectors literally.
    """
    d = streams[0].shape[-1]
    if w.d_model != d:
        raise ShapeError(f"weights are {w.d_model}x{w.d_model}, streams have d={d}")
    ends = list(accumulate(s.shape[-2] for s in streams))
    spans = list(zip([0, *ends], ends))
    live = [(s, scale) for s, scale in zip(streams, key_scales) if scale != 0.0]
    k = np.concatenate(
        [s @ w.w_k if scale == 1.0 else scale * (s @ w.w_k) for s, scale in live], axis=-2
    )
    v = np.concatenate([s @ w.w_v for s, _ in live], axis=-2)
    k_t = k.swapaxes(-1, -2)
    p = _score_block(streams[0].shape[:-2] + (ends[-1], k.shape[-2]))
    for s, (start, stop) in zip(streams, spans):
        np.matmul(s @ w.w_q, k_t, out=p[..., start:stop, :])
    np.divide(p, norm.value, out=p)
    softmax_rows(p, out=p)
    return [p[..., start:stop, :] @ v for start, stop in spans]


def joint_attention(state: StreamState, w: AttentionWeights, norm: NormConst) -> StreamState:
    """Token-axis QKV concatenation over (text, image), one softmax, split back."""
    return _computed(StreamState, *_multi_stream_attention(
        (state.text, state.image), w, (1.0, 1.0), norm
    ))


def coupled_qkv_attention(
    state: CoupledStreamState,
    w: AttentionWeights,
    theta: float,
    norm: NormConst,
) -> CoupledStreamState:
    """Dual-text attention with keys scaled by (1-theta) / theta.

    Background keys are weighted by (1-theta) and entity keys by theta;
    queries and values stay unscaled.  At theta == 0 the entity keys and
    values are dropped entirely (and symmetrically for the background at
    theta == 1), so the boundary cases coincide exactly with
    ``joint_attention`` over the two surviving streams.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    return _computed(CoupledStreamState, *_multi_stream_attention(
        (state.background, state.entity, state.image), w, (1.0 - theta, theta, 1.0), norm
    ))


def branch_attention(text, image, w: AttentionWeights, norm: NormConst):
    """Self-attention over the unified [text; image] sequence, split back.

    The streams are checked here, since they come as bare arrays.
    """
    streams = _check_streams(text=text, image=image)
    text_out, image_out = _multi_stream_attention(streams, w, (1.0, 1.0), norm)
    return text_out, image_out


def merge_image_states(img_ent, img_bg, theta: float) -> np.ndarray:
    """Weighted interpolation theta * img_ent + (1 - theta) * img_bg, for
    two matrices or two stacks of the same shape.

    The boundaries return one branch unchanged (same array contents, no
    arithmetic) so that theta in {0, 1} reduces bit-identically.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    a = as_matrices(img_ent)
    b = as_matrices(img_bg)
    if a.shape != b.shape:
        raise ShapeError(f"branch shapes differ: {a.shape} vs {b.shape}")
    if theta == 1.0:
        return a.copy()
    if theta == 0.0:
        return b.copy()
    return theta * a + (1.0 - theta) * b
