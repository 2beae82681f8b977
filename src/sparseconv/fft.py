"""The package's transform seam and the convolutions built on it.

fft_forward and fft_inverse_real are the only transforms the package
runs: numpy.fft real transforms (rfft / irfft) of power-of-two length.

Work accounting is analytic: every transform of length N, forward or
inverse, adds N * log2(N) to the module counter, whatever the backend
does inside. Callers that want a per-phase reading should
reset_fft_work() before the phase and read fft_work() after it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fft_convolve",
    "cyclic_convolve",
    "fft_forward",
    "fft_inverse_real",
    "pad_length",
    "fft_work",
    "reset_fft_work",
]

_fft_work_total = 0


def fft_work() -> int:
    """Cumulative sum of N * log2(N) over executed transforms."""
    return _fft_work_total


def reset_fft_work() -> None:
    global _fft_work_total
    _fft_work_total = 0


def pad_length(min_len: int) -> int:
    """Smallest power of two >= min_len."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    return 1 << (min_len - 1).bit_length()


def _charge(n: int) -> None:
    global _fft_work_total
    if n & (n - 1):
        raise ValueError(f"transform length {n} is not a power of two")
    _fft_work_total += n * (n.bit_length() - 1)


def fft_forward(a: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum (n//2 + 1 bins) of a real vector zero-padded to
    length n (a power of two)."""
    if len(a) > n:
        raise ValueError("input longer than transform length")
    _charge(n)
    return np.fft.rfft(a, n)


def fft_inverse_real(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Length-n real signal whose half spectrum is `spectrum`."""
    _charge(n)
    return np.fft.irfft(spectrum, n)


def fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two equal-length vectors via zero-padded FFT.

    Output length is 2n-1 and matches naive_convolve to within 1e-8 for
    desk-scale magnitudes (<= 2^20) and lengths (<= 2^21).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    out_len = 2 * n - 1
    size = pad_length(out_len)
    fa = fft_forward(a, size)
    fb = fft_forward(b, size)
    return fft_inverse_real(fa * fb, size)[:out_len]


def fold_linear_to_cyclic(full: np.ndarray, m: int) -> np.ndarray:
    """Wrap a length-(2m-1) linear convolution onto indices mod m."""
    out = full[:m].copy()
    out[: m - 1] += full[m:]
    return out


def cyclic_convolve(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cyclic convolution of two length-m vectors: indices wrap mod m.

    m need not be a power of two (in practice it is a prime); the
    computation zero-pads the linear convolution and folds the tail.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != m or len(b) != m:
        raise ValueError(f"both inputs must have length m={m}")
    if m == 1:
        return np.array([a[0] * b[0]])
    return fold_linear_to_cyclic(fft_convolve(a, b), m)
