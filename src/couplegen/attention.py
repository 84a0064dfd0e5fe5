"""Baseline and theta-controlled cross-attention for both block types.

Two mechanisms are implemented:

* token-axis concatenation of per-stream queries/keys/values followed by one
  softmax (``joint_attention``), extended with a soft key-weighting factor
  theta between a background stream and an entity stream
  (``coupled_qkv_attention``);
* self-attention over a unified [text; image] sequence (``branch_attention``)
  with the two branch image outputs merged by interpolation
  (``merge_image_states``).

Every mechanism runs through one core, which attends one text against one
image: their query rows share one score block of flat rows, (all query
rows, live key tokens), and one ``softmax_rows(Q K^T / norm)``; each
output is the product of its run of rows with the concatenated values.
A coupled call's text stacks the background and entity as members whose
keys are scaled by 1 - theta and theta, and a member of scale exactly 0 is
dropped rather than scaled (a literal 0-scaled key would still receive
weight proportional to e^0), so the theta in {0, 1} reductions are exact:
the surviving keys go through the same calls as ``joint_attention``'s.

The matrix products stay one per stream and weight: the text's and the
image's Q, K and V projections, their rows of ``Q K^T`` and of ``P V``.
The bits of a product's row can depend on how many rows the product has
(numpy takes gemv for a one-row operand, and BLAS picks its kernel by
size), so one product over all query rows is not exact.  Measured with
OpenBLAS 0.3.31 on an AVX-512 Xeon, one ``Q K^T`` changed text rows at d32
and d64 with 64 or 100 image tokens, a one-token stream's rows at every d,
and the theta == 0 reduction to ``joint_attention`` at d64 with 2
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
which a coupled call takes as the ``text`` of its ``CoupledStreamState``,
whose two members are its ``background`` and ``entity``.  ``coupled_qkv_attention`` projects that
stack by one product per weight and puts its members' keys and values on
the token axis; ``branch_attention`` takes it as the texts of two branches
over one image, whose Q, K and V are projected once and broadcast to both.
Keys and values are concatenated on axis -2 and scored against their last
two axes swapped, the softmax reduces over the last axis, and numpy runs
the matrix products of a stack slice by slice, broadcasting an operand
with fewer batch axes, so each slice of a stacked call equals the 2-D call
on that slice bit for bit.  A state a caller builds checks its streams
once and holds the float64 arrays the check returns.  The states computed
from checked streams (attention results, and the states the sampler's
blocks build over their arrays) are built by ``_computed`` or ``_coupled``
and not checked again.

The score block is computed into one flat float64 workspace per thread,
owned by this module, and scaled and softmaxed there in place: the block is
laid out as rows, one contiguous run each for the text's and the image's
queries, whose ``Q K^T`` goes into it through ``np.matmul(..., out=)``,
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
    """The streams of a coupled attention call: a background and an entity
    text of one shape over an image."""

    background: np.ndarray
    entity: np.ndarray
    image: np.ndarray

    def __post_init__(self):
        _hold_checked(self)
        if self.background.shape != self.entity.shape:
            raise ShapeError(
                f"background {self.background.shape} and entity {self.entity.shape} "
                "streams do not stack"
            )

    @cached_property
    def text(self) -> np.ndarray:
        """The background and entity streams as one (2, ...) stack; a state
        built by _coupled holds the stack its two streams are members of."""
        return np.stack((self.background, self.entity))


def _hold_checked(state) -> None:
    """Replace the fields of a state by the arrays _check_streams returns."""
    # __match_args__ names the fields in order; a frozen dataclass keeps
    # them in its __dict__
    names = state.__match_args__
    state.__dict__.update(zip(names, _check_streams(**{n: getattr(state, n) for n in names})))


def _computed(cls, *streams, **cached):
    """A cls state, with any cached property values, over streams computed
    from checked ones, built without __post_init__: they are not checked again."""
    state = object.__new__(cls)
    state.__dict__.update(zip(cls.__match_args__, streams), **cached)
    return state


def _coupled(text, image) -> CoupledStreamState:
    """A computed state whose background and entity are the two members of
    the (2, ...) text stack, which it holds as its text."""
    return _computed(CoupledStreamState, text[0], text[1], image, text=text)


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


def _attention(text, image, w: AttentionWeights, norm: NormConst, members=None):
    """Shared attention core over a text and an image that _check_streams
    accepted; returns the text's and the image's outputs.

    Without members, the text's leading axes are batch axes: the image has
    the text's batch shape or fewer axes, and is then broadcast over the
    text's leading ones.  With members, one float per member, the text's
    leading axis stacks member texts of the image's batch shape: the text is
    projected by one product per weight, and each member's keys and values
    go onto the token axis ahead of the image's.  A member whose scale is
    0.0 is dropped; any other scale multiplies its key vectors literally.
    """
    d = text.shape[-1]
    if w.d_model != d:
        raise ShapeError(f"weights are {w.d_model}x{w.d_model}, streams have d={d}")
    k, v = text @ w.w_k, text @ w.w_v
    if members is None:
        keys, values = [k], [v]
    else:
        keys = [k[i] if c == 1.0 else c * k[i] for i, c in enumerate(members) if c != 0.0]
        values = [v[i] for i, c in enumerate(members) if c != 0.0]
    keys.append(image @ w.w_k)
    values.append(image @ w.w_v)
    k, v = _concatenated(keys), _concatenated(values)
    n_keys = k.shape[-2]
    rows = math.prod(text.shape[:-1])
    image_shape = k.shape[:-2] + (image.shape[-2], n_keys)
    p = _score_block((rows + math.prod(image_shape[:-1]), n_keys))
    runs = p[:rows].reshape(text.shape[:-1] + (n_keys,)), p[rows:].reshape(image_shape)
    k_t = k.swapaxes(-1, -2)
    np.matmul(text @ w.w_q, k_t, out=runs[0])
    np.matmul(image @ w.w_q, k_t, out=runs[1])
    np.divide(p, norm.value, out=p)
    softmax_rows(p, out=p)
    return runs[0] @ v, runs[1] @ v


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
    return _computed(StreamState, *_attention(state.text, state.image, w, norm))


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
    return _coupled(*_attention(state.text, state.image, w, norm, members=(1.0 - theta, theta)))


def branch_attention(text, image, w: AttentionWeights, norm: NormConst):
    """Self-attention over the unified [text; image] sequence, split back.

    text may stack the texts of several branches on a leading axis over one
    image, such as the (2, E, tokens, d) background and entity text over an
    (E, tokens, d) image: the image is projected once, and both outputs have
    the branch axis.  The streams are checked here, since they come as bare
    arrays.
    """
    return _attention(*_check_streams(branches=True, text=text, image=image), w, norm)


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
