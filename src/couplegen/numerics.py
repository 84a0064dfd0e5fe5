"""Deterministic float64 numeric kernel.

Everything downstream (attention, the toy sampler, the metrics) is built on
three primitives: a shape-checked dense matmul, a masked row softmax, and a
splitmix64 PRNG.  Matrices are plain 2-D float64 numpy arrays in row-major
order.  Summation order is fixed within this build; determinism is
per-platform, not bit-exact across interpreters.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "ShapeError",
    "DegenerateRowError",
    "Rng",
    "as_matrix",
    "matmul",
    "softmax_rows",
    "save_f32t",
    "load_f32t",
]

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood; same values as the java.util
# reference implementation).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class ShapeError(ValueError):
    """Raised when matrix operands have incompatible shapes."""


class DegenerateRowError(ValueError):
    """Raised when a softmax row is entirely masked (-inf)."""


class Rng:
    """splitmix64 generator with a 64-bit state.

    Identical seeds produce identical streams; there is no hidden global
    state, so independent instances never interfere.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit_real(self) -> float:
        # Top 53 bits -> [0, 1) with full double precision.
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_unit_real()

    def fill(self, rows: int, cols: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Row-major matrix of uniforms in [lo, hi)."""
        out = np.empty((rows, cols), dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.uniform(lo, hi)
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def matmul(a, b) -> np.ndarray:
    """Shape-checked dense product of two 2-D float64 matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def softmax_rows(m) -> np.ndarray:
    """Row softmax with -inf entries treated as masked (exact 0 weight).

    Rows are shift-invariant: the row max is subtracted before
    exponentiation.  A row that is entirely -inf has no finite
    normalization and raises DegenerateRowError.
    """
    m = as_matrix(m)
    row_max = np.max(m, axis=1)
    if np.any(np.isneginf(row_max)):
        bad = int(np.argmax(np.isneginf(row_max)))
        raise DegenerateRowError(f"row {bad} is entirely masked")
    z = m - row_max[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1)[:, None]
    return z


_F32T_MAGIC = b"F32T"


def save_f32t(path, array) -> None:
    """Write a tensor as magic 'F32T', u32-LE ndim, u32-LE dims, f32-LE data."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(_F32T_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes())


def load_f32t(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _F32T_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_F32T_MAGIC!r}")
        (ndim,) = struct.unpack("<I", fh.read(4))
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        data = np.frombuffer(fh.read(), dtype="<f4")
    expected = int(np.prod(dims)) if dims else 1
    if data.size != expected:
        raise ValueError(f"payload has {data.size} values, dims {dims} need {expected}")
    return data.reshape(dims).astype(np.float64)
