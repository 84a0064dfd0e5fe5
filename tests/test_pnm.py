"""PGM image and mask files: round trips and strict readers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplegen.pnm import read_mask, read_pgm, write_mask, write_pgm
from oracles import setdiff_read_mask


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


@pytest.mark.parametrize("bad", [np.nan, -0.01, 1.01])
def test_out_of_range_pixel_not_written(tmp_path, bad):
    # a NaN pixel would be cast to 0 with only numpy's cast warning
    gray = np.full((3, 4), 0.5)
    gray[1, 2] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_pgm(tmp_path / "g.pgm", gray)
    assert not (tmp_path / "g.pgm").exists()


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


def test_bad_mask_bytes_named_once_in_order(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([7, 3, 7, 0]))
    with pytest.raises(ValueError) as info:
        read_mask(path)
    assert str(info.value) == "mask contains values other than 0/255: [3, 7]"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_read_mask_matches_setdiff_oracle(pnm_path, width, height, data):
    # rasters one byte short, exact or one byte long, mostly 0 and 255
    size = width * height
    raster = data.draw(st.lists(st.sampled_from([0, 255]) | st.integers(0, 255),
                                min_size=size - 1, max_size=size + 1))
    pnm_path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + bytes(raster))
    outcomes = []
    for reader in (read_mask, setdiff_read_mask):
        try:
            outcomes.append(reader(pnm_path))
        except ValueError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == bool and np.array_equal(got, want)
