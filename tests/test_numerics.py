"""Kernel tests: matmul, masked softmax, splitmix64 RNG, .f32t files."""

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
    load_f32t,
    matmul,
    save_f32t,
    softmax_rows,
)

from oracles import matmul_loops, splitmix64_reference


class TestMatmul:
    def test_identity_left_and_right(self):
        m = np.array([[1.5, -2.0], [0.25, 7.0]])
        eye = np.eye(2)
        assert np.array_equal(matmul(eye, m), m)
        assert np.array_equal(matmul(m, eye), m)

    def test_hand_expanded_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        expected = matmul_loops(a, b)
        assert np.array_equal(expected, np.array([[2.0], [4.0]]))
        assert np.allclose(matmul(a, b), expected)

    def test_random_against_triple_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            np.testing.assert_allclose(matmul(a, b), matmul_loops(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))


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


class TestRng:
    def test_seed_zero_golden_pair(self):
        ref = splitmix64_reference(0, 2)
        expected = [(z >> 11) * 2.0**-53 for z in ref]
        r = Rng(0)
        assert [r.next_unit_real(), r.next_unit_real()] == expected

    def test_unit_reals_in_range(self):
        r = Rng(123)
        xs = [r.next_unit_real() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_equal_seeds_equal_streams(self):
        a, b = Rng(42), Rng(42)
        assert [a.next_unit_real() for _ in range(1000)] == [
            b.next_unit_real() for _ in range(1000)
        ]

    def test_different_seeds_differ(self):
        ref1 = splitmix64_reference(1, 1)[0]
        ref2 = splitmix64_reference(2, 1)[0]
        assert ref1 != ref2
        assert Rng(1).next_unit_real() == (ref1 >> 11) * 2.0**-53
        assert Rng(2).next_unit_real() == (ref2 >> 11) * 2.0**-53

    def test_long_stream_matches_reference(self):
        r = Rng(987654321)
        got = [r.next_u64() for _ in range(500)]
        assert got == splitmix64_reference(987654321, 500)

    def test_shuffle_is_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        Rng(5).shuffle(a)
        Rng(5).shuffle(b)
        assert a == b and sorted(a) == list(range(10))


@pytest.fixture(scope="module")
def f32t_path(tmp_path_factory):
    return tmp_path_factory.mktemp("f32t") / "fuzz.f32t"


class TestTensorFiles:
    def test_roundtrip_2d(self, tmp_path):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        path = tmp_path / "t.f32t"
        save_f32t(path, arr)
        back = load_f32t(path)
        np.testing.assert_allclose(back, arr, atol=1e-6)
        assert back.shape == (3, 4)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.f32t"
        save_f32t(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"F32T"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 3
        assert len(raw) == 16 + 6 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.f32t"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_f32t(path)

    @pytest.mark.parametrize("cut", [4, 6, 8, 12, 15])
    def test_truncated_header_rejected(self, tmp_path, cut):
        path = tmp_path / "t.f32t"
        save_f32t(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated header"):
            load_f32t(path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([b"", b"F32T", b"F32T\x02\x00\x00\x00", b"F32T\xff\xff\xff\xff"]),
        st.binary(max_size=40),
    )
    def test_fuzz_array_or_value_error(self, f32t_path, prefix, payload):
        f32t_path.write_bytes(prefix + payload)
        try:
            out = load_f32t(f32t_path)
        except ValueError:
            return
        assert out.dtype == np.float64
