"""Core plumbing: validated dense vectors and scalar knobs (as_int,
as_real), the index-weighted derivative, the brute-force convolution
oracle, half-away-from-zero rounding.

Nothing here mutates its arguments; dense_pair, the engines' one input
check, returns contiguous float64 input itself, not a copy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SparseResult",
    "dense_vector",
    "dense_pair",
    "as_int",
    "as_real",
    "derivative",
    "naive_convolve",
    "round_to_int",
]

def dense_vector(values) -> np.ndarray:
    """Validate a non-negative 1-D vector as contiguous float64: `values`
    itself when it already is one, else a converted copy.

    Raises ValueError on complex, non-1-D or empty input, non-finite
    entries, or any negative entry.
    """
    if np.iscomplexobj(values):  # the float64 cast would drop the imaginary parts
        raise ValueError("vector entries must be real")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("vector must have length >= 1")
    # one uint64 max accepts [+0, largest finite]; min and max decide (and word) only what it rejects
    if arr.view(np.uint64).max() > np.uint64(0x7FEFFFFFFFFFFFFF) and not (arr.min() >= 0 and arr.max() < math.inf):
        raise ValueError(f"vector entries must be {'non-negative' if np.all(np.isfinite(arr)) else 'finite'}")
    return np.ascontiguousarray(arr)  # after the ndim check: it makes 0-d input 1-D


def dense_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """dense_vector on both inputs; ValueError unless their lengths are equal."""
    a, b = dense_vector(a), dense_vector(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return a, b


def as_int(value, name: str, least: int | None = None) -> int:
    """A count or seed given as an int or numpy integer, not a bool, as an
    int; ValueError naming it otherwise, or when it is below `least`."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):  # JSON's true would run as 1
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)  # numpy integers have no bit_length


def as_real(value, name: str, interval: str) -> float:
    """A knob given as an int, float or numpy real, not a bool or a string,
    as a float in `interval`, "(lo, hi)" with "[" or "]" for a closed end
    and "inf)" for no upper bound; ValueError naming it otherwise."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan  # NaN lies in no interval
    except OverflowError:  # an int beyond float's range
        x = math.nan
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if (lo <= x if interval[0] == "[" else lo < x) and (x <= hi if interval[-1] == "]" else x < hi):
        return x
    raise ValueError(f"{name} must lie in {interval}, not {value!r}")


class SparseResult(dict):
    """Sparse index -> value map produced by the recovery engines: a dict
    whose get defaults to 0.0, the value of an index it leaves out.

    Indices are 0-based positions in the length 2n-1 convolution output.
    Equality is plain dict equality, so two runs with the same seed can
    be compared bit for bit.
    """

    @property
    def entries(self) -> SparseResult:
        # the result itself, for code written against the old field: perfbench/run.py reads result.entries
        return self

    def get(self, index: int, default: float = 0.0) -> float:
        return super().get(index, default)

    def support(self) -> set[int]:
        return set(self)

    def sorted_items(self) -> list[tuple[int, float]]:
        return sorted(self.items())


def derivative(a: np.ndarray, index_base: int = 0) -> np.ndarray:
    """Index-weighted vector: entry i becomes (i + index_base) * a_i.

    Base 0 is the convention used by the recovery algorithms (the bucket
    ratio then returns the true array index directly); base 1 exists only
    to match the classic presentation of the operator.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    a = np.asarray(a, dtype=np.float64)
    return (np.arange(len(a), dtype=np.float64) + index_base) * a


def naive_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct-summation convolution, C_k = sum_i A_i * B_{k-i}: numpy's
    direct sum, never an FFT.

    Quadratic time; this is the reference oracle every faster
    convolution path is tested against.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    out = np.convolve(a, b)
    out[len(a) - 1] = np.dot(a, b[::-1])  # summed as every other entry; np.convolve unrolls it for n <= 11
    return out


def round_to_int(x: float) -> int:
    """Nearest integer, ties rounding away from zero (2.5 -> 3)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot round non-finite value {x!r}")
    return int(math.copysign(math.floor(abs(x) + 0.5), x))

