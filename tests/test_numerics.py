"""Kernel tests: masked softmax, the splitmix64 RNG and the image check."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from couplegen.numerics import (
    DegenerateRowError,
    Rng,
    ShapeError,
    as_image,
    softmax_rows,
)

from oracles import reference_softmax_rows, splitmix64_reference

SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
BOUNDS = st.integers(-5, 5) | st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def fills(draw):
    """(seed, rows, cols): seeds anywhere in [0, 2**64), or placed so that
    seed + k*gamma wraps past 2**64 to within 256 of zero at a k <= rows*cols."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    near_wrap = st.builds(
        lambda k, d: (d - k * SPLITMIX64_GAMMA) % 2**64,
        st.integers(1, max(rows * cols, 1)),
        st.integers(-256, 256),
    )
    seed = draw(st.integers(0, 2**64 - 1) | near_wrap | st.sampled_from([0, 2**64 - 1]))
    return seed, rows, cols


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, np.array([[0.5, 0.5]]))

    def test_masked_entry_is_exact_zero(self):
        for x in (-3.0, 0.0, 17.5):
            out = softmax_rows(np.array([[x, -np.inf]]))
            assert np.array_equal(out, np.array([[1.0, 0.0]]))

    def test_against_extended_precision(self):
        row = [1.0, 2.0, 3.0]
        with mpmath.workdps(60):
            exps = [mpmath.exp(x) for x in row]
            z = sum(exps)
            expected = [float(e / z) for e in exps]
        np.testing.assert_allclose(softmax_rows(np.array([row]))[0], expected, atol=1e-15)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError, match="row 1"):
            softmax_rows(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (4, 5), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-30, 30)),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, m, c):
        np.testing.assert_allclose(softmax_rows(m + c), softmax_rows(m), atol=1e-12)


@st.composite
def masked_scores(draw):
    """2-D or 3-D score arrays with -inf entries, some rows fully masked."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=3, max_side=5))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(-50, 50) | st.just(-np.inf)))


class TestSoftmaxOut:
    @settings(max_examples=100, deadline=None)
    @given(masked_scores())
    def test_in_place_equals_fresh(self, m):
        try:
            want = softmax_rows(m)
        except DegenerateRowError:
            with pytest.raises(DegenerateRowError):
                z = m.copy()
                softmax_rows(z, out=z)
            return
        z = m.copy()
        assert softmax_rows(z, out=z) is z
        assert np.array_equal(z, want)
        buf = np.full_like(m, np.nan)
        assert softmax_rows(m, out=buf) is buf
        assert np.array_equal(buf, want)

    def test_all_masked_row_raises_in_place(self):
        z = np.array([[[0.0, 1.0], [-np.inf, -np.inf]]])
        with pytest.raises(DegenerateRowError, match="row 1"):
            softmax_rows(z, out=z)


@st.composite
def tied_scores(draw):
    """2-D or 3-D score arrays of 1 to 40 keys, drawn mostly from a few
    values, so that rows tie, 0.0 meets -0.0 and -inf entries are common;
    rows of 8 keys and more are summed pairwise, not in order."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6)) + (
        draw(st.integers(1, 40)),)
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, -np.inf]) | st.floats(-50, 50)
    return draw(hnp.arrays(np.float64, shape, elements=values))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSoftmaxMatchesReference:
    """The row max as one segment reduction gives the bits of a per-row max."""

    @settings(max_examples=300, deadline=None)
    @given(tied_scores(), st.sampled_from(["fresh", "alias", "buffer"]))
    def test_same_bits(self, m, out):
        try:
            want = reference_softmax_rows(m)
        except DegenerateRowError as exc:
            with pytest.raises(DegenerateRowError, match=f"^{exc}$"):
                softmax_rows(m.copy())
            return
        z = {"fresh": None, "alias": m.copy(), "buffer": np.full_like(m, np.nan)}[out]
        got = softmax_rows(z if out == "alias" else m, out=z)
        assert z is None or got is z
        assert same_bits(got, want)

    @pytest.mark.parametrize("m", [
        np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, -np.inf]]),
        np.array([[[-0.0, -1.0, 0.0]], [[-np.inf, -0.0, 0.0]]]),
        np.array([[2.0], [-0.0], [-7.5]]),  # K = 1
        np.array([[[1.0]], [[-0.0]]]),
    ])
    def test_ties_and_one_key(self, m):
        assert same_bits(softmax_rows(m), reference_softmax_rows(m))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0), (2, 3, 0)])
    def test_zero_width_rows_rejected(self, shape):
        with pytest.raises(ValueError):
            softmax_rows(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0, 3)])
    def test_no_rows(self, shape):
        assert softmax_rows(np.zeros(shape)).shape == shape


class TestRng:
    def test_seed_zero_golden_pair(self):
        ref = splitmix64_reference(0, 2)
        expected = [(z >> 11) * 2.0**-53 for z in ref]
        r = Rng(0)
        assert [r.uniform(0.0, 1.0), r.uniform(0.0, 1.0)] == expected

    def test_unit_reals_in_range(self):
        r = Rng(123)
        xs = [r.uniform(0.0, 1.0) for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_equal_seeds_equal_streams(self):
        a, b = Rng(42), Rng(42)
        assert [a.uniform(0.0, 1.0) for _ in range(1000)] == [
            b.uniform(0.0, 1.0) for _ in range(1000)
        ]

    def test_different_seeds_differ(self):
        ref1 = splitmix64_reference(1, 1)[0]
        ref2 = splitmix64_reference(2, 1)[0]
        assert ref1 != ref2
        assert Rng(1).uniform(0.0, 1.0) == (ref1 >> 11) * 2.0**-53
        assert Rng(2).uniform(0.0, 1.0) == (ref2 >> 11) * 2.0**-53

    def test_long_stream_matches_reference(self):
        r = Rng(987654321)
        got = [r.next_u64() for _ in range(500)]
        assert got == splitmix64_reference(987654321, 500)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(fills(), BOUNDS, BOUNDS)
    def test_fill_matches_reference_and_advances_state(self, fill, lo, hi):
        seed, rows, cols = fill
        ref = splitmix64_reference(seed, rows * cols + 1)
        expected = [lo + (hi - lo) * ((z >> 11) * 2.0**-53) for z in ref[:-1]]
        r = Rng(seed)
        got = r.fill(rows, cols, lo, hi)
        assert got.shape == (rows, cols) and got.dtype == np.float64
        assert np.array_equal(got, np.array(expected, dtype=np.float64).reshape(rows, cols))
        assert r.next_u64() == ref[-1]

    @pytest.mark.parametrize("shape", [(-1, 3), (3, -1), (-2, -3)])
    def test_negative_fill_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            Rng(0).fill(*shape)

    def test_shuffle_is_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        Rng(5).shuffle(a)
        Rng(5).shuffle(b)
        assert a == b and sorted(a) == list(range(10))

    @pytest.mark.parametrize("seed, n", [(5, 10), (0, 1), (2**64 - 1, 2), (123, 37)])
    def test_shuffle_is_reference_fisher_yates(self, seed, n):
        ref = splitmix64_reference(seed, n)
        want = list(range(n))
        for i, z in zip(range(n - 1, 0, -1), ref):
            j = z % (i + 1)
            want[i], want[j] = want[j], want[i]
        r = Rng(seed)
        got = list(range(n))
        r.shuffle(got)
        assert got == want
        assert r.next_u64() == ref[n - 1]  # n - 1 draws taken, the stream goes on

    def test_scalar_draws_do_not_fill(self, monkeypatch):
        def no_fill(*args):
            raise AssertionError("Rng.fill called")

        monkeypatch.setattr(Rng, "fill", no_fill)
        r = Rng(9)
        ref = splitmix64_reference(9, 12)
        assert r.next_u64() == ref[0]
        assert r.uniform(0.0, 1.0) == (ref[1] >> 11) * 2.0**-53
        assert r.uniform(-2.0, 3.0) == -2.0 + 5.0 * ((ref[2] >> 11) * 2.0**-53)
        r.shuffle(list(range(9)))
        assert r.next_u64() == ref[11]


class TestAsImage:
    def test_keeps_unit_interval(self):
        img = np.array([[0.0, 0.25], [0.5, 1.0]])
        assert np.array_equal(as_image(img), img)
        assert as_image(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 3)])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1e-300, 1.0 + 2**-52])
    def test_rejects_values_outside(self, where, bad):
        img = np.full((3, 4), 0.5)
        img[where] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            as_image(img)

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            as_image(np.full((2, 2), np.nan))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            as_image(np.zeros((2, 2, 1)))
