import math

import numpy as np
import pytest

from sparseconv.fft import cyclic_convolve
from sparseconv.hashing import fold, fold_sparse, primes_in_range, sample_prime
from sparseconv.numerics import derivative, naive_convolve


def chi2_critical(df: int, z: float = 3.0902) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile; z=3.0902
    corresponds to the 0.999 level."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


class TestSamplePrime:
    def test_small_ranges(self):
        rng = np.random.default_rng(0)
        assert {sample_prime(2, rng) for _ in range(40)} <= {2, 3}
        assert {sample_prime(10, rng) for _ in range(80)} == {11, 13, 17, 19}

    def test_primality(self):
        rng = np.random.default_rng(1)
        for m in (16, 100, 5000):
            p = sample_prime(m, rng)
            assert m <= p <= 2 * m
            assert all(p % q for q in range(2, int(p**0.5) + 1))

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            primes_in_range(1)

    def test_uniform_over_primes(self):
        # 10^4 draws from the primes in [10^6, 2*10^6], chi-square over
        # equal-count bins at the 0.001 level
        m = 10**6
        primes = primes_in_range(m)
        rng = np.random.default_rng(2)
        draws = np.array([sample_prime(m, rng) for _ in range(10**4)])
        n_bins = 50
        edges = primes[np.linspace(0, len(primes), n_bins + 1).astype(int)[1:-1]]
        counts = np.bincount(np.searchsorted(edges, draws, side="right"), minlength=n_bins)
        # bins hold equal prime counts up to rounding; expected is uniform
        expected = len(draws) / n_bins
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < chi2_critical(n_bins - 1)


class TestFold:
    def test_modulus_must_be_positive(self):
        # True would fold as p = 1; numpy would reject the others without naming p
        for p in (0, -1, True, "0.5", math.nan, 2.0):
            with pytest.raises(ValueError, match="^p must be"):
                fold(np.ones(4), p)

    def test_identity_when_p_large(self):
        a = np.array([3.0, 1, 2, 1, 2, 1, 1])
        out = fold(a, 9)
        assert out.tolist() == [3, 1, 2, 1, 2, 1, 1, 0, 0]

    def test_bucket_sums_mod_3(self):
        # residues mod 3 of indices 0..6 are 0,1,2,0,1,2,0
        out = fold(np.array([3.0, 1, 2, 1, 2, 1, 1]), 3)
        assert out.tolist() == [3 + 1 + 1, 1 + 2, 2 + 1]

    def test_zero_fixed_point(self):
        assert fold(np.zeros(10), 3).tolist() == [0, 0, 0]

    def test_mass_preserved_exactly_on_integers(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            p = int(rng.integers(1, 40))
            a = rng.integers(0, 50, n).astype(float)
            assert fold(a, p).sum() == a.sum()

    def test_matches_direct_bucketing(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 100))
            p = int(rng.integers(1, 20))
            a = rng.random(n)
            direct = np.zeros(p)
            for j, v in enumerate(a):
                direct[j % p] += v
            np.testing.assert_allclose(fold(a, p), direct, atol=1e-12)

    def test_moment_identity_case_is_the_weighted_copy(self):
        # p >= n embeds a and arange(n)*a bit for bit, as lossless levels need
        a = np.random.default_rng(6).random(7)
        for p in (7, 9):
            v, w = fold(a, p, moment=True)
            assert v.tolist() == a.tolist() + [0.0] * (p - 7)
            assert w.tolist() == (np.arange(7) * a).tolist() + [0.0] * (p - 7)

    def test_moment_p1_sums_everything(self):
        a = np.array([3.0, 1, 2, 1, 2, 1, 1])
        v, w = fold(a, 1, moment=True)
        assert v.tolist() == [11.0]
        assert w.tolist() == [float(np.dot(np.arange(7), a))]

    def test_moment_tail_shorter_than_p(self):
        # n = 2p + 2: residues 0 and 1 get three entries, residues 2..4 two
        a = np.arange(1.0, 13.0)
        v, w = fold(a, 5, moment=True)
        j = np.arange(12)
        assert v.tolist() == [float(a[j % 5 == i].sum()) for i in range(5)]
        assert w.tolist() == [float((j * a)[j % 5 == i].sum()) for i in range(5)]

    def test_moment_exact_on_integers(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            p = int(rng.integers(1, 2 * n + 2))
            a = rng.integers(0, 1000, n).astype(float)
            v, w = fold(a, p, moment=True)
            assert np.array_equal(v, fold(a, p))
            assert np.array_equal(w, fold(derivative(a, 0), p))


class TestFoldSparse:
    def test_matches_dense_fold(self):
        dense = np.zeros(50)
        entries = {3: 2.0, 17: 5.0, 44: 1.5}
        for i, v in entries.items():
            dense[i] = v
        v, w = fold_sparse(entries.keys(), entries.values(), 7, 50)
        dense_v, dense_w = fold(dense, 7, moment=True)
        np.testing.assert_allclose(v, dense_v, atol=1e-12)
        np.testing.assert_allclose(w, dense_w, atol=1e-12)

    def test_no_entries_fold_to_float_zeros(self):
        for out in fold_sparse([], [], 7, 50):
            assert out.dtype == np.float64 and out.tolist() == [0.0] * 7

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fold_sparse([50], [1.0], 7, 50)


def test_fold_commutes_with_convolution():
    # fold(A*B, p) equals cyclic conv of the folds, for all small primes
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for _ in range(5):
            n = int(rng.integers(2, 65))
            a, b = rng.random(n) * 4, rng.random(n) * 4
            lhs = fold(naive_convolve(a, b), p)
            rhs = cyclic_convolve(fold(a, p), fold(b, p), p)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_universality_bound():
    # collision frequency of fixed distinct keys stays below
    # 2*log2(U)/m times a 1.5 slack
    U = 2**20
    m = 64 * 20
    primes = primes_in_range(m)
    rng = np.random.default_rng(6)
    bound = 2 * math.log2(U) / m * 1.5
    for x, y in [(0, 1283), (12345, 999999), (7, 2 * 1289 + 7)]:
        draws = primes[rng.integers(len(primes), size=10**4)]
        freq = float(np.mean((x % draws) == (y % draws)))
        assert freq <= bound, (x, y, freq, bound)
