"""Baseline and theta-controlled cross-attention for both block types.

Two mechanisms are implemented:

* token-axis concatenation of per-stream queries/keys/values followed by one
  softmax (``joint_attention``), extended with a soft key-weighting factor
  theta between a background stream and an entity stream
  (``coupled_qkv_attention``);
* self-attention over a unified [text; image] sequence (``branch_attention``)
  with the two branch image outputs merged by interpolation
  (``merge_image_states``).

Every mechanism runs through one core: the keys and values of the live
streams are concatenated and each query stream gets
``softmax_rows(Q K^T / norm) V``.  A key stream whose scale factor is exactly
0 is dropped rather than scaled (a literal 0-scaled key would still receive
weight proportional to e^0), which makes the theta in {0, 1} reductions exact:
the surviving streams go through the same calls on the same operands as the
plain two-stream path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, as_matrix, softmax_rows

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
        _check_streams(text=self.text, image=self.image)


@dataclass(frozen=True)
class CoupledStreamState:
    background: np.ndarray
    entity: np.ndarray
    image: np.ndarray

    def __post_init__(self):
        _check_streams(
            background=self.background, entity=self.entity, image=self.image
        )


def _check_streams(**streams) -> None:
    d = None
    for name, s in streams.items():
        m = as_matrix(s)
        if m.shape[0] < 1:
            raise ShapeError(f"{name} stream must have at least one token")
        if d is None:
            d = m.shape[1]
        elif m.shape[1] != d:
            raise ShapeError(
                f"{name} stream has feature dim {m.shape[1]}, expected {d}"
            )


def _multi_stream_attention(streams, w: AttentionWeights, key_scales, norm: NormConst):
    """Shared attention core.

    Returns one output matrix per input stream (the rows whose queries came
    from that stream).  ``key_scales[j] == 0.0`` drops stream j's keys and
    values; any other scale multiplies its key vectors literally.
    """
    streams = [as_matrix(s) for s in streams]
    d = streams[0].shape[1]
    for s in streams:
        if s.shape[1] != d:
            raise ShapeError("streams must share the feature dimension")
    if w.d_model != d:
        raise ShapeError(f"weights are {w.d_model}x{w.d_model}, streams have d={d}")

    live = [(s, scale) for s, scale in zip(streams, key_scales) if scale != 0.0]
    k = np.concatenate([scale * (s @ w.w_k) for s, scale in live])
    v = np.concatenate([s @ w.w_v for s, _ in live])
    return [softmax_rows((s @ w.w_q) @ k.T / norm.value) @ v for s in streams]


def joint_attention(state: StreamState, w: AttentionWeights, norm: NormConst) -> StreamState:
    """Token-axis QKV concatenation over (text, image), one softmax, split back."""
    text_out, image_out = _multi_stream_attention(
        [state.text, state.image], w, (1.0, 1.0), norm
    )
    return StreamState(text=text_out, image=image_out)


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
    bg_out, ent_out, img_out = _multi_stream_attention(
        [state.background, state.entity, state.image],
        w,
        (1.0 - theta, theta, 1.0),
        norm,
    )
    return CoupledStreamState(background=bg_out, entity=ent_out, image=img_out)


def branch_attention(text, image, w: AttentionWeights, norm: NormConst):
    """Self-attention over the unified [text; image] sequence, split back.

    Projections are linear, so projecting the concatenated sequence equals
    concatenating per-stream projections; the block core exploits that.
    """
    text_out, image_out = _multi_stream_attention([text, image], w, (1.0, 1.0), norm)
    return text_out, image_out


def merge_image_states(img_ent, img_bg, theta: float) -> np.ndarray:
    """Weighted interpolation theta * img_ent + (1 - theta) * img_bg.

    The boundaries return one branch unchanged (same array contents, no
    arithmetic) so that theta in {0, 1} reduces bit-identically.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    a = as_matrix(img_ent)
    b = as_matrix(img_bg)
    if a.shape != b.shape:
        raise ShapeError(f"branch shapes differ: {a.shape} vs {b.shape}")
    if theta == 1.0:
        return a.copy()
    if theta == 0.0:
        return b.copy()
    return theta * a + (1.0 - theta) * b
