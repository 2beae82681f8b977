"""Core vector plumbing: validated dense vectors, the index-weighted
derivative, the brute-force convolution oracle, generalized norms and
support, and half-away-from-zero rounding.

Nothing here mutates its arguments; dense_pair, the engines' one input
check, returns contiguous float64 input itself, not a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SparseResult",
    "dense_vector",
    "dense_pair",
    "as_int",
    "derivative",
    "naive_convolve",
    "norm_ge",
    "norm_le",
    "support_ge",
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
    if not (arr.min() >= 0 and arr.max() < math.inf):  # two reductions decide; NaN fails both
        raise ValueError(f"vector entries must be {'non-negative' if np.all(np.isfinite(arr)) else 'finite'}")
    return np.ascontiguousarray(arr)  # after the ndim check: it makes 0-d input 1-D


def dense_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """dense_vector on both inputs; ValueError unless their lengths are equal."""
    a, b = dense_vector(a), dense_vector(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return a, b


def as_int(value, name: str, least: int | None = None) -> int:
    """A count or seed given as an int or numpy integer, as an int;
    ValueError naming it otherwise, or when it is below `least`."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)  # numpy integers have no bit_length


@dataclass
class SparseResult:
    """Sparse index -> value map produced by the recovery engines.

    Indices are 0-based positions in the length 2n-1 convolution output.
    Equality is plain dict equality, so two runs with the same seed can
    be compared bit for bit.
    """

    entries: dict[int, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, index: int) -> bool:
        return index in self.entries

    def __getitem__(self, index: int) -> float:
        return self.entries[index]

    def get(self, index: int, default: float = 0.0) -> float:
        return self.entries.get(index, default)

    def support(self) -> set[int]:
        return set(self.entries)

    def sorted_items(self) -> list[tuple[int, float]]:
        return sorted(self.entries.items())

    def to_dense(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        for i, v in self.entries.items():
            if not 0 <= i < length:
                raise ValueError(f"index {i} out of range for length {length}")
            out[i] = v
        return out


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


def norm_ge(a: np.ndarray, threshold: float) -> int:
    """Count of entries >= threshold."""
    return int(np.count_nonzero(np.asarray(a) >= threshold))


def norm_le(a: np.ndarray, threshold: float) -> int:
    """Count of entries <= threshold."""
    return int(np.count_nonzero(np.asarray(a) <= threshold))


def support_ge(a: np.ndarray, threshold: float) -> set[int]:
    """Indices of entries >= threshold."""
    return {int(i) for i in np.flatnonzero(np.asarray(a) >= threshold)}


def round_to_int(x: float) -> int:
    """Nearest integer, ties rounding away from zero (2.5 -> 3)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot round non-finite value {x!r}")
    return int(math.copysign(math.floor(abs(x) + 0.5), x))

