"""Deterministic float64 numeric kernel.

Everything downstream (attention, the toy sampler, the metrics) is built on
three primitives: a shape-checked dense matmul, a masked row softmax, and a
splitmix64 PRNG.  Matrices are plain 2-D float64 numpy arrays in row-major
order.  Summation order is fixed within this build; determinism is
per-platform, not bit-exact across interpreters.

splitmix64 is counter-based: its k-th output (k = 1, 2, ...) from seed s is
mix(s + k*gamma mod 2**64) and depends on nothing else.  `uniform_rows`
draws whole streams that way with wrapping uint64 array arithmetic, bit for
bit the values the scalar `Rng.uniform` returns, and `Rng.fill` draws through
it and then advances its state by n*gamma.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = [
    "ShapeError",
    "DegenerateRowError",
    "Rng",
    "uniform_rows",
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
# The same constants as numpy scalars: numpy 1.x and 2.x promote a Python int
# against a uint64 array differently, so array code uses only these.
_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)


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
        """Row-major matrix of the next rows*cols uniforms in [lo, hi).

        The values are those of rows*cols `uniform(lo, hi)` calls, drawn at
        once by `uniform_rows`; the state then advances by rows*cols*gamma
        (mod 2**64), so later scalar draws continue the same stream.
        """
        n = rows * cols
        out = uniform_rows([self.state], n, lo, hi).reshape(rows, cols)
        self.state = (self.state + n * _GAMMA) & _MASK64
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def uniform_rows(seeds, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """(len(seeds), n) array whose row i is the first n `Rng(seeds[i])` uniforms.

    Computes z = seed + k*gamma for k = 1..n and the three mix steps in
    wrapping uint64 arithmetic, then maps the top 53 bits to [lo, hi) with
    the same float operations as `Rng.uniform`.
    """
    if n < 0:
        raise ValueError(f"cannot draw {n} values")
    s = np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    z = np.arange(1, n + 1, dtype=np.uint64) * _U_GAMMA + s[:, None]
    z ^= z >> np.uint64(30)
    z *= _U_MIX1
    z ^= z >> np.uint64(27)
    z *= _U_MIX2
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return lo + (hi - lo) * u


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
        blob = fh.read()
    magic = blob[:4]
    if magic != _F32T_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_F32T_MAGIC!r}")
    if len(blob) < 8:
        raise ValueError("truncated header: no ndim")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    start = 8 + 4 * ndim
    if len(blob) < start:
        raise ValueError(f"truncated header: {ndim} dims need {start} bytes, file has {len(blob)}")
    dims = struct.unpack_from(f"<{ndim}I", blob, 8)
    expected = math.prod(dims)
    if len(blob) - start != 4 * expected:
        raise ValueError(
            f"payload has {len(blob) - start} bytes, dims {dims} need {4 * expected}"
        )
    return np.frombuffer(blob, dtype="<f4", offset=start).reshape(dims).astype(np.float64)
