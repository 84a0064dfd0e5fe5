"""Binary PGM (P5) grayscale image and mask files.

Pixel value v maps to the real v / 255.  Masks are PGM files restricted to
{0, 255}: one comparison pass finds any other byte, and the error names the
distinct ones in ascending order.  That check does not use np.unique, whose
first call under numpy 2.x imports numpy.ma, which no command otherwise
loads.  Readers accept only maxval 255, positive decimal dimensions and
exactly the raster those dimensions need; anything else raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .numerics import as_image, as_mask

__all__ = [
    "quantize",
    "write_pgm",
    "read_pgm",
    "write_mask",
    "read_mask",
]


def quantize(image) -> np.ndarray:
    """Snap [0, 1] reals to the 8-bit grid used by the image files."""
    a = np.asarray(image, dtype=np.float64)
    return np.round(a * 255.0) / 255.0


def _read_header(fh):
    got = fh.read(2)
    if got != b"P5":
        raise ValueError(f"bad magic {got!r}, expected b'P5'")
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


def _read_raster(path, what: str):
    """The flat uint8 raster of a P5 file, which must hold exactly
    width * height bytes after the header, and its height and width."""
    with open(path, "rb") as fh:
        w, h = _read_header(fh)
        raster = fh.read()
    size = w * h
    if len(raster) < size:
        raise ValueError(f"truncated {what} data")
    if len(raster) > size:
        raise ValueError(f"{len(raster) - size} trailing bytes after the {what} data")
    return np.frombuffer(raster, dtype=np.uint8), h, w


def _write_raster(path, data: np.ndarray) -> None:
    """A P5 file of the height x width uint8 raster data."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_pgm(path, image) -> None:
    _write_raster(path, np.round(as_image(image) * 255.0).astype(np.uint8))


def read_pgm(path) -> np.ndarray:
    data, h, w = _read_raster(path, "pixel")
    return data.reshape(h, w).astype(np.float64) / 255.0


def write_mask(path, mask) -> None:
    _write_raster(path, np.where(as_mask(mask), 255, 0).astype(np.uint8))


def read_mask(path) -> np.ndarray:
    data, h, w = _read_raster(path, "mask")
    bad = data[(data != 0) & (data != 255)]
    if bad.size:
        raise ValueError(f"mask contains values other than 0/255: {sorted(set(bad.tolist()))}")
    return (data.reshape(h, w) == 255)
