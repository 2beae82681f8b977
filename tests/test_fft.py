import threading

import numpy as np
import pytest

from sparseconv.fft import (
    cyclic_convolve,
    fft_convolve,
    fft_work,
    pad_length,
    reset_fft_work,
    transform_work,
)
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
    assert pad_length(3) == 4
    assert pad_length(61439) == 65536
    with pytest.raises(ValueError):
        pad_length(0)


def test_work_counter_counts_three_transforms_per_convolution():
    reset_fft_work()
    fft_convolve(np.ones(100), np.ones(100))
    size = pad_length(199)  # 256
    assert fft_work() == 3 * size * 8
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
    assert fft_work() == before == 3 * transform_work(16)
