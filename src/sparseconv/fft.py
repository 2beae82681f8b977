"""The package's transform seam and the convolutions built on it.

fft_forward and fft_inverse_real are the only transforms the package
runs: numpy.fft real transforms (rfft / irfft) at pad_length's lengths,
2^a * 3^b * 5^c, which pocketfft runs at about the per-point speed of
powers of two; padding to them costs a few percent at sketch lengths,
where padding to the next power of two can cost up to 2x.

Work accounting is analytic: every transform of length N, forward or
inverse, adds transform_work(N) = round(N * log2(N)) to the thread's
counter, whatever the backend does inside; sketch.route_price prices
sketch routes in the same unit. Callers that want a per-phase reading
should reset_fft_work() before the phase and read fft_work() after it.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from functools import lru_cache

import numpy as np

from .numerics import as_int

__all__ = [
    "fft_convolve",
    "cyclic_convolve",
    "fft_forward",
    "fft_inverse_real",
    "pad_length",
    "transform_work",
    "fft_work",
    "reset_fft_work",
]

_fft_work = ContextVar("fft_work", default=0)


def fft_work() -> int:
    """Cumulative sum of N * log2(N) over the transforms this thread ran."""
    return _fft_work.get()


def reset_fft_work() -> None:
    _fft_work.set(0)


@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 must not hit 1's entry
def pad_length(min_len: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= min_len, an integer >= 1 (memoised)."""
    best, p5 = 1 << (as_int(min_len, "min_len", 1) - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches min_len
            best = min(best, p35 << (-(-min_len // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def transform_work(n: int) -> int:
    """Work charged for one transform of length n (2^a * 3^b * 5^c):
    round(n * log2(n)), exact for powers of two."""
    if n < 1 or pad_length(n) != n:
        raise ValueError(f"transform length {n} is not of the form 2^a * 3^b * 5^c")
    return round(n * math.log2(n))


def _charge(n: int) -> None:
    _fft_work.set(_fft_work.get() + transform_work(n))


def fft_forward(a: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum (n//2 + 1 bins) of a real vector zero-padded to
    length n (2^a * 3^b * 5^c)."""
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
    spectrum = fft_forward(a, size)
    spectrum *= fft_forward(b, size)
    return fft_inverse_real(spectrum, size)[:out_len]


def fold_linear_to_cyclic(full: np.ndarray, m: int) -> np.ndarray:
    """Wrap a length-(2m-1) linear convolution onto indices mod m."""
    out = full[:m].copy()
    out[: m - 1] += full[m:]
    return out


def cyclic_convolve(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cyclic convolution of two length-m vectors: indices wrap mod m.

    m may be any length (in practice it is a prime); the computation
    zero-pads the linear convolution and folds the tail.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != m or len(b) != m:
        raise ValueError(f"both inputs must have length m={m}")
    return fold_linear_to_cyclic(fft_convolve(a, b), m)
