"""Binary PGM (P5) / PPM (P6) image and mask files.

Pixel value v maps to the real v / 255.  Masks are PGM files restricted to
{0, 255}; anything else is rejected.  Readers accept only maxval 255,
positive decimal dimensions and exactly the raster those dimensions need;
anything else raises ValueError.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quantize",
    "write_pgm",
    "read_pgm",
    "write_ppm",
    "read_ppm",
    "write_mask",
    "read_mask",
]


def quantize(image) -> np.ndarray:
    """Snap [0, 1] reals to the 8-bit grid used by the image files."""
    a = np.asarray(image, dtype=np.float64)
    return np.round(a * 255.0) / 255.0


def _to_bytes(image, channels: int) -> np.ndarray:
    a = np.asarray(image, dtype=np.float64)
    if channels == 1 and a.ndim == 3 and a.shape[2] == 1:
        a = a[:, :, 0]
    expected_ndim = 2 if channels == 1 else 3
    if a.ndim != expected_ndim or (channels == 3 and a.shape[2] != 3):
        raise ValueError(f"expected {channels}-channel image, got shape {a.shape}")
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError("pixel values must lie in [0, 1]")
    return np.round(a * 255.0).astype(np.uint8)


def _read_header(fh, magic: bytes):
    got = fh.read(2)
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ValueError("truncated header")
        fields.extend(line.split(b"#", 1)[0].split())
    if len(fields) > 3:
        raise ValueError(f"unexpected header fields after maxval: {fields[3:]!r}")
    for name, tok in zip(("width", "height", "maxval"), fields):
        if not tok.isdigit() or int(tok) < 1:
            raise ValueError(f"{name} {tok!r} is not a positive integer")
    width, height, maxval = (int(tok) for tok in fields)
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    return width, height


def _read_raster(path, magic: bytes, channels: int, what: str):
    """The flat uint8 raster of a P5/P6 file, which must hold exactly
    width * height * channels bytes after the header, and its height and width."""
    with open(path, "rb") as fh:
        w, h = _read_header(fh, magic)
        raster = fh.read()
    size = w * h * channels
    if len(raster) < size:
        raise ValueError(f"truncated {what} data")
    if len(raster) > size:
        raise ValueError(f"{len(raster) - size} trailing bytes after the {what} data")
    return np.frombuffer(raster, dtype=np.uint8), h, w


def _write_raster(path, magic: bytes, data: np.ndarray) -> None:
    """A P5/P6 file of the height x width (x channels) uint8 raster data."""
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_pgm(path, image) -> None:
    _write_raster(path, b"P5", _to_bytes(image, channels=1))


def read_pgm(path) -> np.ndarray:
    data, h, w = _read_raster(path, b"P5", 1, "pixel")
    return data.reshape(h, w).astype(np.float64) / 255.0


def write_ppm(path, image) -> None:
    _write_raster(path, b"P6", _to_bytes(image, channels=3))


def read_ppm(path) -> np.ndarray:
    data, h, w = _read_raster(path, b"P6", 3, "pixel")
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


def write_mask(path, mask) -> None:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be HxW, got shape {m.shape}")
    _write_raster(path, b"P5", np.where(m.astype(bool), 255, 0).astype(np.uint8))


def read_mask(path) -> np.ndarray:
    data, h, w = _read_raster(path, b"P5", 1, "mask")
    bad = np.setdiff1d(np.unique(data), [0, 255])
    if bad.size:
        raise ValueError(f"mask contains values other than 0/255: {bad.tolist()}")
    return (data.reshape(h, w) == 255)
