"""PGM image and mask files: round trips and strict readers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplegen.pnm import read_mask, read_pgm, write_mask, write_pgm


@pytest.fixture(scope="module")
def pnm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pnm") / "file.pgm"


def test_round_trips(tmp_path):
    gray = np.arange(12).reshape(3, 4) / 255.0
    write_pgm(tmp_path / "g.pgm", gray)
    assert np.array_equal(read_pgm(tmp_path / "g.pgm"), gray)
    mask = np.eye(3, 4, dtype=bool)
    write_mask(tmp_path / "m.pgm", mask)
    assert np.array_equal(read_mask(tmp_path / "m.pgm"), mask)


@pytest.mark.parametrize("magic", [b"P5"])
@pytest.mark.parametrize(
    "dims, match",
    [
        (b"0 2", "width"),
        (b"2 0", "height"),
        (b"-1 -1", "width"),
        (b"x y", "width"),
        (b"2.0 2", "width"),
        (b"2 2 255 7", "after maxval"),
    ],
)
def test_bad_dims_rejected(tmp_path, magic, dims, match):
    path = tmp_path / "bad.pgm"
    path.write_bytes(magic + b"\n" + dims + b"\n255\n" + b"\0" * 12)
    with pytest.raises(ValueError, match=match):
        read_pgm(path)


def test_colour_ppm_rejected(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 12)
    with pytest.raises(ValueError, match="bad magic"):
        read_pgm(path)


@pytest.mark.parametrize("reader", [read_pgm, read_mask])
def test_trailing_bytes_rejected(tmp_path, reader):
    path = tmp_path / "t.pgm"
    write_mask(path, np.zeros((2, 2), dtype=bool))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        reader(path)


HEADER_TOKENS = [b"2", b"8", b"0", b"-1", b"x", b"255", b"65535", b"#c"]


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        lambda magic, tokens: magic + b"\n" + b" ".join(tokens) + b"\n",
        st.sampled_from([b"P5", b"P6", b"P5 "]),
        st.lists(st.sampled_from(HEADER_TOKENS), max_size=5),
    )
    | st.binary(max_size=12),
    st.binary(max_size=80),
)
def test_readers_return_array_or_value_error(pnm_path, header, body):
    pnm_path.write_bytes(header + body)
    for reader in (read_pgm, read_mask):
        try:
            out = reader(pnm_path)
        except ValueError:
            continue
        assert isinstance(out, np.ndarray) and out.ndim == 2 and out.size > 0
