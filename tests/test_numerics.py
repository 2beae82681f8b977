import math

import numpy as np
import pytest

from sparseconv.approx import ceil_log2
from sparseconv.exact import residual_norm
from sparseconv.fft import pad_length
from sparseconv.harness import run_benchmark
from sparseconv.hashing import fold_sparse, primes_in_range
from sparseconv.numerics import (
    SparseResult,
    as_int,
    as_real,
    dense_vector,
    derivative,
    naive_convolve,
    round_to_int,
)
from sparseconv.sketch import extract_candidates

from oracle import one_sketch


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


@pytest.mark.parametrize("flag", [True, False])
def test_as_int_rejects_bools(flag):
    # bool is an int subclass: JSON's true would run as 1
    with pytest.raises(ValueError, match="k must be an integer"):
        as_int(flag, "k")


def test_as_real_returns_a_float_inside_the_interval():
    assert as_real(1, "lo", "[1, inf)") == 1.0 and type(as_real(1, "lo", "[1, inf)")) is float
    assert as_real(np.float32(0.5), "c2", "(0, 1)") == 0.5 and type(as_real(np.int64(0), "d", "[0, 1]")) is float
    for value, interval in ((1, "(1, 2)"), (2, "[1, 2)"), (math.inf, "(0, inf)"), (10**400, "[1, inf)")):
        with pytest.raises(ValueError, match=rf"^x must lie in \{interval[0]}"):
            as_real(value, "x", interval)


_SKETCH = one_sketch(3, np.zeros(3), np.zeros(3), 5)
# Scalar arguments outside the engines' params, each with its field name
# and a value of the right type outside its range.
SCALAR_SITES = {
    "extract_candidates-c1": (lambda v, out: extract_candidates(_SKETCH, v, 0.25), "c1", -1.0),
    "extract_candidates-tau": (lambda v, out: extract_candidates(_SKETCH, 0.5, v), "tau", 0.5),
    "residual_norm-c1": (lambda v, out: residual_norm(np.ones(4), np.ones(4), SparseResult(), v, 1, 0), "c1", 0),
    "fold_sparse-p": (lambda v, out: fold_sparse([1], [1.0], v, 8), "p", 0),
    "pad_length": (lambda v, out: pad_length(v), "min_len", 0),
    "primes_in_range": (lambda v, out: primes_in_range(v), "m", 1),
    "ceil_log2": (lambda v, out: ceil_log2(v), "x", 0),
    "run_benchmark-jobs": (lambda v, out: run_benchmark({"engines": ["fft"]}, out, jobs=v), "jobs", 0),
}


@pytest.mark.parametrize("kind", ["bool", "str", "nan", "range"])
@pytest.mark.parametrize("site", SCALAR_SITES)
def test_a_bad_scalar_is_a_value_error_naming_it(site, kind, tmp_path):
    # a bool would run as 1, a string would raise TypeError or be coerced,
    # and p = 0 would fold to a wrong answer with only a RuntimeWarning
    call, name, out_of_range = SCALAR_SITES[site]
    value = {"bool": True, "str": "0.5", "nan": math.nan, "range": out_of_range}[kind]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(value, tmp_path / "out")
    assert not (tmp_path / "out").exists()


class TestSparseResult:
    def test_basics(self):
        r = SparseResult({5: 2.0, 1: 7.0})
        assert len(r) == 2 and 5 in r and r[1] == 7.0
        assert r.get(99) == 0.0
        assert r.support() == {1, 5}
        assert r.sorted_items() == [(1, 7.0), (5, 2.0)]
        assert r == {5: 2.0, 1: 7.0} and isinstance(r, dict) and r.entries is r

    def test_equality_ignores_insertion_order(self):
        assert SparseResult({1: 2.0, 3: 4.0}) == SparseResult({3: 4.0, 1: 2.0})
