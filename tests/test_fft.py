import threading

import numpy as np
import pytest

from sparseconv.fft import (
    cyclic_convolve,
    fft_convolve,
    fft_forward,
    fft_inverse_real,
    fft_work,
    pad_length,
    reset_fft_work,
    transform_work,
)
from sparseconv.hashing import fold
from sparseconv.numerics import dense_vector, naive_convolve


def brute_force_cyclic(a, b, m):
    out = np.zeros(m)
    for i in range(m):
        for j in range(m):
            out[(i + j) % m] += a[i] * b[j]
    return out


def test_golden_examples_match_naive():
    pairs = [
        ([1, 2, 4, 3, 5, 0, 7], [1, 4, 3, 6, 7, 8, 9]),
        ([0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0]),
        ([0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 1, 1, 1]),
    ]
    for a, b in pairs:
        a, b = dense_vector(a), dense_vector(b)
        np.testing.assert_allclose(fft_convolve(a, b), naive_convolve(a, b), atol=1e-9)


def test_impulse_identity():
    rng = np.random.default_rng(5)
    b = rng.random(16)
    a = np.zeros(16)
    a[0] = 1.0
    out = fft_convolve(a, b)
    np.testing.assert_allclose(out[:16], b, atol=1e-12)
    np.testing.assert_allclose(out[16:], 0.0, atol=1e-12)


def test_random_pairs_match_naive():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        a, b = rng.random(n) * 8, rng.random(n) * 8
        np.testing.assert_allclose(fft_convolve(a, b), naive_convolve(a, b), atol=1e-8)


def test_length_mismatch():
    with pytest.raises(ValueError):
        fft_convolve(np.ones(3), np.ones(5))


def test_forward_rejects_input_longer_than_the_transform():
    with pytest.raises(ValueError, match="longer"):
        fft_forward(np.ones(9), 8)


def test_cyclic_all_ones():
    np.testing.assert_allclose(cyclic_convolve(np.ones(3), np.ones(3), 3), [3, 3, 3], atol=1e-12)


def test_cyclic_shift_identity():
    rng = np.random.default_rng(7)
    m = 11
    b = rng.random(m)
    a = np.zeros(m)
    a[1] = 1.0
    np.testing.assert_allclose(cyclic_convolve(a, b, m), np.roll(b, 1), atol=1e-12)


def test_cyclic_matches_double_loop():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 5, 7, 13, 31):
        a, b = rng.random(m), rng.random(m)
        np.testing.assert_allclose(cyclic_convolve(a, b, m), brute_force_cyclic(a, b, m), atol=1e-9)


def test_cyclic_at_an_odd_transform_length():
    # m = 8: the length-15 product runs at 15 = 3 * 5 points, no padding
    assert pad_length(2 * 8 - 1) == 15
    rng = np.random.default_rng(14)
    a, b = rng.random(8), rng.random(8)
    np.testing.assert_allclose(cyclic_convolve(a, b, 8), fold(naive_convolve(a, b), 8), atol=1e-12)


def test_cyclic_length_check():
    with pytest.raises(ValueError):
        cyclic_convolve(np.ones(4), np.ones(4), 5)


def test_cyclic_linearity():
    rng = np.random.default_rng(9)
    m = 17
    a, a2, b = rng.random(m), rng.random(m), rng.random(m)
    lhs = cyclic_convolve(a + a2, b, m)
    rhs = cyclic_convolve(a, b, m) + cyclic_convolve(a2, b, m)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_pad_length():
    assert pad_length(1) == 1
    assert pad_length(2) == 2
    assert pad_length(3) == 3
    assert pad_length(61439) == 61440
    with pytest.raises(ValueError):
        pad_length(0)
    # a numpy integer, such as a prime read out of an array, counts as its int
    assert pad_length(np.int64(5)) == 5
    assert pad_length(np.int64(2 * 1129 - 1)) == pad_length(2 * 1129 - 1) == 2304
    assert transform_work(np.int64(2304)) == transform_work(2304)
    with pytest.raises(ValueError):
        pad_length(np.int64(0))


@pytest.mark.parametrize("size", [16, 15, 2304])
def test_two_dimensional_transforms_are_rows_of_one_dimensional_ones(size):
    # each row is transformed, bit for bit, as alone, zero-padded to the
    # transform length as a sketch's (fold, moment) rows are, and charged
    # as one transform
    rows = np.random.default_rng(size).random((4, size // 2))
    reset_fft_work()
    spectra = fft_forward(rows, size)
    assert fft_work() == 4 * transform_work(size)
    padded = np.zeros((4, size))
    padded[:, : size // 2] = rows
    assert np.array_equal(fft_forward(padded, size), spectra)
    assert all(np.array_equal(spectra[i], fft_forward(rows[i], size)) for i in range(4))
    reset_fft_work()
    signals = fft_inverse_real(spectra[:2], size)
    assert fft_work() == 2 * transform_work(size)
    assert all(np.array_equal(signals[i], fft_inverse_real(spectra[i], size)) for i in range(2))


def test_work_counter_counts_three_transforms_per_convolution():
    reset_fft_work()
    fft_convolve(np.ones(100), np.ones(100))
    size = pad_length(199)  # 200 = 2^3 * 5^2
    assert size == 200
    assert fft_work() == 3 * transform_work(200)
    reset_fft_work()
    assert fft_work() == 0


def test_work_meter_is_per_thread():
    reset_fft_work()
    fft_convolve(np.ones(8), np.ones(8))
    before = fft_work()

    seen = []

    def other():
        reset_fft_work()
        fft_convolve(np.ones(64), np.ones(64))
        seen.append(fft_work())

    worker = threading.Thread(target=other)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [3 * transform_work(128)]
    assert fft_work() == before == 3 * transform_work(15)
