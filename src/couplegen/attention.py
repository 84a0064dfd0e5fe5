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
of a call one score block of flat rows, (all query rows, live key tokens),
and one ``softmax_rows(Q K^T / norm)`` over it; each stream's output is
the product of its run of rows with the concatenated values.  A key
stream whose scale factor is exactly 0 is dropped rather than scaled (a
literal 0-scaled key would still receive weight proportional to e^0), which
makes the theta in {0, 1} reductions exact: the surviving streams go
through the same calls on the same operands as the plain two-stream path.

The matrix products stay one per stream and weight: each stream's Q, K and
V projection, its rows of ``Q K^T`` and its rows of ``P V``.  The bits of a
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
the theta of every step, so theta stays one float per call.  It also keeps
the background and entity text of a step as one (2, E, tokens, d) stack,
the ``text`` of ``CoupledStreamState``, whose two members are its
``background`` and ``entity``.  ``coupled_qkv_attention`` projects that
stack by one product per weight and puts its members' keys and values on
the token axis; ``branch_attention`` takes it as the texts of two branches
over one image, whose Q, K and V are projected once and broadcast to both.
Keys and values are concatenated on axis -2 and scored against their last
two axes swapped, the softmax reduces over the last axis, and numpy runs
the matrix products of a stack slice by slice, broadcasting an operand
with fewer batch axes, so each slice of a stacked call equals the 2-D call
on that slice bit for bit.  A state a caller builds checks its streams
once and holds the float64 arrays the check returns.  The states computed
from checked streams (attention results, block outputs, the sampler's step
state) are built by ``_computed`` or ``_coupled`` and not checked again.

The score block is computed into one flat float64 workspace per thread,
owned by this module, and scaled and softmaxed there in place: the block is
laid out as rows, one contiguous run per query stream, each stream's
``Q K^T`` goes into its run through ``np.matmul(..., out=)``,
``np.divide(..., out=)`` divides the block by the norm and
``softmax_rows(..., out=)`` normalises it, so no score temporary is
allocated and every output is bit-identical to the same calls with fresh
temporaries.  A thread's workspace grows to the largest block it has seen
and never shrinks.  A coupled call's block is (N + 2T)^2 * 8 bytes per
entity for N image and T text tokens (592 KB at d32, 16x16; 8.65 MB at
d64, 32x32); a single block's stacked branches at 0 < theta < 1 take up to
2 (N + T)^2 * 8 bytes per entity (1.12 MB and 17.0 MB there).  No result
aliases it, since each output is the fresh product of a view of the
softmaxed block and V.  Since each thread has its own workspace, threads
may run attention calls at once, as the sampler's pool does with the chunks
of a call (see ``pipeline``); numpy releases the GIL inside the products
and the elementwise passes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def text(self) -> np.ndarray:
        """The background and entity streams as one (2, ...) stack; a state
        built by _coupled holds the stack its two streams are members of."""
        if self.background.shape != self.entity.shape:
            raise ShapeError(
                f"background {self.background.shape} and entity {self.entity.shape} "
                "streams do not stack"
            )
        return np.stack((self.background, self.entity))


def _hold_checked(state) -> None:
    """Replace the fields of a state by the arrays _check_streams returns."""
    _hold(state, _check_streams(**{name: getattr(state, name) for name in state.__match_args__}))


def _computed(cls, *streams):
    """A cls state over streams computed from checked ones, built without
    __post_init__, so they are not checked again."""
    state = object.__new__(cls)
    _hold(state, streams)
    return state


def _coupled(text, image) -> CoupledStreamState:
    """A computed state whose background and entity are the two members of
    the (2, ...) text stack, which it holds as its text."""
    state = object.__new__(CoupledStreamState)
    state.__dict__.update(background=text[0], entity=text[1], image=image, text=text)
    return state


def _hold(state, arrays) -> None:
    # __match_args__ names the fields in order; a frozen dataclass keeps
    # them in its __dict__
    state.__dict__.update(zip(state.__match_args__, arrays))


def _check_streams(branches: bool = False, **streams) -> list[np.ndarray]:
    """The named streams as float64 arrays: each (tokens, d) or (E, tokens, d)
    with at least one token, all with the same E and d.  With branches, the
    first stream may stack branches on one more leading axis, (B, tokens, d)
    or (B, E, tokens, d), over which the other streams are broadcast."""
    arrays = []
    for name, s in streams.items():
        if branches and not arrays and np.ndim(s) == 4:
            m = np.asarray(s, dtype=np.float64)
        else:
            m = as_matrices(s)
        if m.shape[-2] < 1:
            raise ShapeError(f"{name} stream must have at least one token")
        if arrays and m.shape[-1] != arrays[0].shape[-1]:
            raise ShapeError(
                f"{name} stream has feature dim {m.shape[-1]}, expected {arrays[0].shape[-1]}"
            )
        batch = arrays[0].shape[:-2] if arrays else m.shape[:-2]
        if branches:
            batch = batch[max(0, len(batch) - m.ndim + 2):]
        if m.shape[:-2] != batch:
            raise ShapeError(f"{name} stream has batch shape {m.shape[:-2]}, expected {batch}")
        arrays.append(m)
    return arrays


class _Workspace(threading.local):
    """The score blocks of the calling thread; see the module docstring."""

    def __init__(self):
        self.scores = np.empty(0)


_workspace = _Workspace()


def _score_block(shape) -> np.ndarray:
    """A view of the given shape over the start of this thread's workspace,
    which is first grown to hold it if it is smaller."""
    n = math.prod(shape)
    if _workspace.scores.size < n:
        _workspace.scores = np.empty(n)
    return _workspace.scores[:n].reshape(shape)


def _multi_stream_attention(streams, w: AttentionWeights, key_scales, norm: NormConst):
    """Shared attention core over streams that _check_streams accepted.

    Returns one output per input stream (the rows whose queries came from
    that stream), in order.  A key scale is a float, or a tuple of one float
    per member for a stream that stacks member streams on its leading axis;
    each stream is projected by one product per weight, and the members'
    keys and values are then concatenated on the token axis like streams.
    A scale of 0.0 drops the keys and values of its stream or member; any
    other scale multiplies its key vectors literally.  The key parts (a stream's
    keys, or each member's) have the first part's batch shape, except that
    the last, the image's, may have fewer axes and is then broadcast over
    the first's leading ones; each stream's run of scores has the longer of
    its own and the keys' batch shape.
    """
    d = streams[0].shape[-1]
    if w.d_model != d:
        raise ShapeError(f"weights are {w.d_model}x{w.d_model}, streams have d={d}")
    keys, values = [], []
    for s, scale in zip(streams, key_scales):
        if scale != 0.0:
            k, v = s @ w.w_k, s @ w.w_v
            parts = ([(k[i], v[i], c) for i, c in enumerate(scale)]
                     if isinstance(scale, tuple) else [(k, v, scale)])
            for k, v, c in parts:
                if c != 0.0:
                    keys.append(k if c == 1.0 else c * k)
                    values.append(v)
    k, v = _concatenated(keys), _concatenated(values)
    k_t = k.swapaxes(-1, -2)
    shapes = [(s if s.ndim > k.ndim else k).shape[:-2] + (s.shape[-2], k.shape[-2])
              for s in streams]
    ends = list(accumulate(math.prod(shape[:-1]) for shape in shapes))
    p = _score_block((ends[-1], k.shape[-2]))
    runs = [p[start:stop].reshape(shape) for start, stop, shape in zip([0, *ends], ends, shapes)]
    for s, run in zip(streams, runs):
        np.matmul(s @ w.w_q, k_t, out=run)
    np.divide(p, norm.value, out=p)
    softmax_rows(p, out=p)
    return [run @ v for run in runs]


def _concatenated(parts) -> np.ndarray:
    """parts concatenated on the token axis; the last part, the image's, is
    broadcast to the first one's batch shape when it has fewer axes."""
    if parts[-1].ndim == parts[0].ndim:
        return np.concatenate(parts, axis=-2)
    batch = parts[0].shape[:-2]
    out = np.empty(batch + (sum(m.shape[-2] for m in parts), parts[0].shape[-1]))
    start = 0
    for m in parts:
        stop = start + m.shape[-2]
        out[..., start:stop, :] = m
        start = stop
    return out


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
    if state.background.shape == state.entity.shape:
        return _coupled(*_multi_stream_attention(
            (state.text, state.image), w, ((1.0 - theta, theta), 1.0), norm
        ))
    return _computed(CoupledStreamState, *_multi_stream_attention(
        (state.background, state.entity, state.image), w, (1.0 - theta, theta, 1.0), norm
    ))


def branch_attention(text, image, w: AttentionWeights, norm: NormConst):
    """Self-attention over the unified [text; image] sequence, split back.

    text may stack the texts of several branches on a leading axis over one
    image, such as the (2, E, tokens, d) background and entity text over an
    (E, tokens, d) image: the image is projected once, and both outputs have
    the branch axis.  The streams are checked here, since they come as bare
    arrays.
    """
    streams = _check_streams(branches=True, text=text, image=image)
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
