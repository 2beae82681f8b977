import numpy as np
import pytest

from sparseconv.numerics import (
    SparseResult,
    dense_vector,
    derivative,
    naive_convolve,
    norm_ge,
    norm_le,
    round_to_int,
    support_ge,
)


def brute_force_convolve(a, b):
    """Independent oracle: literal double loop over the definition."""
    n = len(a)
    out = [0.0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            out[i + j] += a[i] * b[j]
    return np.array(out)


class TestDenseVector:
    def test_accepts_nonnegative(self):
        v = dense_vector([0, 1, 2.5])
        assert v.dtype == np.float64 and v.tolist() == [0.0, 1.0, 2.5]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dense_vector([1.0, -0.1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dense_vector([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dense_vector([1.0, float("inf")])

    def test_returns_contiguous_float64_input_itself(self):
        src = np.array([1.0, 2.0])
        assert dense_vector(src) is src

    @pytest.mark.parametrize("src", [np.arange(8.0)[::2], np.array([1, 2, 3])], ids=["strided", "int"])
    def test_converts_other_input_to_contiguous_float64(self, src):
        v = dense_vector(src)
        assert v.dtype == np.float64 and v.flags.c_contiguous
        assert v.tolist() == src.tolist()

    def test_rejects_0d(self):
        with pytest.raises(ValueError, match="1-D"):
            dense_vector(np.array(1.0))


class TestDerivative:
    def test_golden_base1(self):
        a = dense_vector([3, 1, 2, 1, 2, 1, 1])
        assert derivative(a, 1).tolist() == [3, 2, 6, 4, 10, 6, 7]

    def test_base0(self):
        a = dense_vector([3, 1, 2, 1, 2, 1, 1])
        assert derivative(a, 0).tolist() == [0, 1, 4, 3, 8, 5, 6]

    def test_zero_fixed_point(self):
        assert derivative(np.zeros(5), 0).tolist() == [0] * 5

    def test_bad_base(self):
        with pytest.raises(ValueError):
            derivative(np.ones(3), 2)


class TestNaiveConvolve:
    def test_golden_example_1(self):
        c = naive_convolve(dense_vector([1, 2, 4, 3, 5, 0, 7]), dense_vector([1, 4, 3, 6, 7, 8, 9]))
        assert c.tolist() == [1, 6, 15, 31, 48, 75, 93, 129, 116, 109, 94, 56, 63]

    def test_golden_example_2(self):
        a = dense_vector([0, 1, 0, 1, 0, 1, 0])
        assert naive_convolve(a, a).tolist() == [0, 0, 1, 0, 2, 0, 3, 0, 2, 0, 1, 0, 0]

    def test_golden_example_3(self):
        a = dense_vector([0, 1, 0, 1, 0, 1, 0])
        b = dense_vector([0, 1, 0, 1, 1, 1, 1])
        assert naive_convolve(a, b).tolist() == [0, 0, 1, 0, 2, 1, 3, 2, 2, 2, 1, 1, 0]

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 33))
            a, b = rng.random(n), rng.random(n)
            np.testing.assert_allclose(naive_convolve(a, b), brute_force_convolve(a, b), atol=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            a, b = rng.random(n), rng.random(n)
            # fp summation order flips, so allow last-ulp wiggle
            np.testing.assert_allclose(naive_convolve(a, b), naive_convolve(b, a), rtol=1e-12)
            ia = rng.integers(0, 9, n).astype(float)
            ib = rng.integers(0, 9, n).astype(float)
            np.testing.assert_array_equal(naive_convolve(ia, ib), naive_convolve(ib, ia))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            naive_convolve(np.ones(3), np.ones(4))


def test_product_rule():
    # derivative(A*B) = dA*B + A*dB at base 0, up to 1e-9 relative on
    # integer-valued inputs
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 10, n).astype(float)
        b = rng.integers(0, 10, n).astype(float)
        lhs = derivative(naive_convolve(a, b), 0)
        rhs = naive_convolve(derivative(a, 0), b) + naive_convolve(a, derivative(b, 0))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestNormsAndSupport:
    def test_norm_ge(self):
        assert norm_ge(np.array([1, 6, 15, 31]), 10) == 2

    def test_norm_le(self):
        assert norm_le(np.array([0.001, 5, 0.002]), 0.01) == 2

    def test_support_ge(self):
        assert support_ge(np.array([0, 0, 1, 0, 2]), 1) == {2, 4}

    def test_partition_when_band_empty(self):
        # no entry in (c_small, c_big) => counts partition the length
        a = np.array([0.0, 0.001, 3.0, 7.0, 0.0002])
        assert norm_ge(a, 1.0) + norm_le(a, 0.01) == len(a)


class TestRoundToInt:
    @pytest.mark.parametrize(
        "x,expected",
        [(4.98, 5), (5.0, 5), (2.5, 3), (0.49, 0), (-2.5, -3), (-0.2, 0), (7.5, 8)],
    )
    def test_values(self, x, expected):
        assert round_to_int(x) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError):
            round_to_int(bad)


class TestSparseResult:
    def test_basics(self):
        r = SparseResult({5: 2.0, 1: 7.0})
        assert len(r) == 2 and 5 in r and r[1] == 7.0
        assert r.get(99) == 0.0
        assert r.support() == {1, 5}
        assert r.sorted_items() == [(1, 7.0), (5, 2.0)]

    def test_to_dense(self):
        r = SparseResult({0: 1.0, 3: 4.0})
        assert r.to_dense(5).tolist() == [1, 0, 0, 4, 0]
        with pytest.raises(ValueError):
            r.to_dense(3)

    def test_equality_ignores_insertion_order(self):
        assert SparseResult({1: 2.0, 3: 4.0}) == SparseResult({3: 4.0, 1: 2.0})
