"""Background-similarity and alignment metrics plus their weighted combination.

The background score masks out the union of all entity regions (the joint
entity region, "JER"), rescales by the fraction of surviving pixels, and
averages pairwise squared distances between the masked images.  The
alignment scorer is a deterministic hash-embedding stand-in for an external
embedding model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import Rng, ShapeError, as_image, as_mask, text_seed, uniform_rows

__all__ = [
    "DegenerateMaskError",
    "WeightOverflowError",
    "Lambdas",
    "MetricReport",
    "HashAlignmentScorer",
    "jer",
    "validity_ratio",
    "background_similarity",
    "combined_metric",
]


class DegenerateMaskError(ValueError):
    """Raised when the joint entity region covers the whole frame (R = 0)."""


class WeightOverflowError(ValueError):
    """Raised when a finite lambda weight makes the combined metric overflow;
    `weight` names it ("lambda_bg" or "lambda_ti")."""

    def __init__(self, weight: str, message: str):
        super().__init__(message)
        self.weight = weight


@dataclass(frozen=True)
class Lambdas:
    lambda_bg: float = 300.0
    lambda_ti: float = 1.0 / 30.0

    def __post_init__(self):
        for name in ("lambda_bg", "lambda_ti"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def jer(masks: Sequence[np.ndarray]) -> np.ndarray:
    """Joint entity region: pixelwise union of all entity masks."""
    if len(masks) < 2:
        raise ValueError(f"need at least 2 masks, got {len(masks)}")
    masks = [as_mask(m) for m in masks]
    shape = masks[0].shape
    for i, m in enumerate(masks):
        if m.shape != shape:
            raise ShapeError(f"mask {i} has shape {m.shape}, expected {shape}")
    union = masks[0].copy()
    for m in masks[1:]:
        union |= m
    return union


def validity_ratio(mask) -> float:
    """Fraction of pixels outside the joint entity region."""
    m = as_mask(mask)
    return 1.0 - int(m.sum()) / (m.shape[0] * m.shape[1])


def background_similarity(images: Sequence[np.ndarray], joint_mask) -> float:
    """-(2 / (n (n-1) R)) * sum over pairs of masked mean squared distance.

    Entity pixels are zeroed (background retained); the squared distance is
    the mean over all H*W pixels, and the validity ratio R compensates
    for the masked area.  Identical images score exactly 0; otherwise the
    score is negative.
    """
    if len(images) < 2:
        raise ValueError(f"need at least 2 images, got {len(images)}")
    imgs = [as_image(im) for im in images]
    mask = as_mask(joint_mask)
    shape = imgs[0].shape
    for i, im in enumerate(imgs):
        if im.shape != shape:
            raise ShapeError(f"image {i} has shape {im.shape}, expected {shape}")
    if mask.shape != shape:
        raise ShapeError(f"mask shape {mask.shape} does not match image {shape}")
    ratio = validity_ratio(mask)
    if ratio == 0.0:
        raise DegenerateMaskError("joint entity region covers every pixel (R = 0)")

    keep = ~mask
    masked = [im * keep for im in imgs]
    n = len(imgs)
    total = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            diff = masked[j] - masked[k]
            total += float(np.mean(diff * diff))
    return -(2.0 / (n * (n - 1) * ratio)) * total


class HashAlignmentScorer:
    """Deterministic stand-in for an external text-image embedding scorer.

    Prompt texts are embedded by seeding the kernel PRNG from a keyed hash of
    the text; images are embedded by a fixed seeded random linear projection
    of their pixels.  The score is the cosine similarity between the two
    embeddings mapped affinely to [0, 100].
    """

    DIM = 32  # embedding width

    def __init__(self):
        self._projections: dict[tuple, np.ndarray] = {}

    def text_embedding(self, text: str) -> np.ndarray:
        return uniform_rows([text_seed(text, 0)], self.DIM, -1.0, 1.0)[0]

    def image_embedding(self, image) -> np.ndarray:
        img = as_image(image)
        flat = img.reshape(-1)
        proj = self._projections.get(img.shape)
        if proj is None:
            proj = Rng(0xA5A5A5A5A5A5A5A5).fill(self.DIM, flat.size, -1.0, 1.0)
            self._projections[img.shape] = proj
        return proj @ flat

    def score(self, text: str, image) -> float:
        a = self.text_embedding(text)
        b = self.image_embedding(image)
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
        if na == 0.0 or nb == 0.0:
            cos = 0.0
        elif np.array_equal(a, b):
            cos = 1.0  # avoid rounding drift in the identical-vector case
        else:
            cos = float(a @ b) / (na * nb)
        return 50.0 * (1.0 + cos)


def combined_metric(f_bg: float, f_ti: Sequence[float], lambdas: Lambdas) -> float:
    """lambda_bg * f_bg + (lambda_ti / n) * sum(f_ti)."""
    if len(f_ti) == 0:
        raise ValueError("f_ti must be non-empty")
    total = 0.0
    for x in f_ti:
        total += float(x)
    return lambdas.lambda_bg * float(f_bg) + (lambdas.lambda_ti / len(f_ti)) * total


@dataclass(frozen=True)
class MetricReport:
    """The scores as floats and their combination f_c; an f_c that overflows
    to +-inf raises WeightOverflowError naming lambda_bg if its term
    overflowed, else lambda_ti."""

    f_bg: float
    f_ti: tuple[float, ...]
    validity_ratio: float
    lambdas: Lambdas
    f_c: float = field(init=False)

    def __post_init__(self):
        f_bg, lambdas = float(self.f_bg), self.lambdas
        f_c = combined_metric(f_bg, self.f_ti, lambdas)
        if not math.isfinite(f_c):
            weight = "lambda_ti" if math.isfinite(lambdas.lambda_bg * f_bg) else "lambda_bg"
            raise WeightOverflowError(
                weight, f"{weight} = {getattr(lambdas, weight)} makes f_c overflow to {f_c}"
            )
        self.__dict__.update(f_bg=f_bg, f_ti=tuple(float(x) for x in self.f_ti),
                             validity_ratio=float(self.validity_ratio), f_c=f_c)

    def to_dict(self) -> dict:
        return {
            "f_bg": self.f_bg,
            "f_ti": list(self.f_ti),
            "validity_ratio": self.validity_ratio,
            "f_c": self.f_c,
            "lambda_bg": self.lambdas.lambda_bg,
            "lambda_ti": self.lambdas.lambda_ti,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
