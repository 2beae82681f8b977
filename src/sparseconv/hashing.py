"""Random-prime hashing: sieve-backed prime sampling and the mod-p fold
of a vector onto residue classes.

The hash family is g(x) = x mod p with p drawn uniformly from the primes
in [m, 2m]. Folding a vector sums its entries within each residue class,
so folding commutes with convolution (linear conv folds to cyclic conv).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "primes_in_range",
    "sample_prime",
    "fold",
    "fold_sparse",
]

# Sieve results are cached per m: sampling is called once per hash
# repetition and re-sieving would dominate at small scale. Build-once,
# read-many; safe for concurrent readers after construction.
_prime_cache: dict[int, np.ndarray] = {}


def primes_in_range(m: int) -> np.ndarray:
    """All primes p with m <= p <= 2m, by sieve of Eratosthenes.

    Bertrand's postulate guarantees the result is non-empty for m >= 2.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    cached = _prime_cache.get(m)
    if cached is not None:
        return cached
    limit = 2 * m
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = False
    primes = np.flatnonzero(is_prime[m:]) + m
    _prime_cache[m] = primes
    return primes


def sample_prime(m: int, rng: np.random.Generator) -> int:
    """Uniformly random prime in [m, 2m] from the caller's seeded rng."""
    primes = primes_in_range(m)
    return int(primes[rng.integers(len(primes))])


def fold(a: np.ndarray, p: int) -> np.ndarray:
    """Length-p vector whose entry i sums a_j over all j = i (mod p).

    Preserves total mass. For p >= len(a) this is the identity embedding
    padded with zeros.
    """
    if p < 1:
        raise ValueError("modulus must be >= 1")
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    out = np.zeros(p)
    if n <= p:
        out[:n] = a
        return out
    full = n // p
    np.sum(a[: full * p].reshape(full, p), axis=0, out=out)
    out[: n - full * p] += a[full * p :]
    return out


def fold_sparse(indices, values, p: int, universe: int) -> np.ndarray:
    """Fold a sparse index -> value collection; cost O(len(indices)).

    Indices must lie in [0, universe); out-of-range entries are an error
    because they can only come from a corrupted partial result.
    """
    idx = np.asarray(list(indices), dtype=np.int64)
    val = np.asarray(list(values), dtype=np.float64)
    if idx.size and (idx.min() < 0 or idx.max() >= universe):
        raise ValueError("sparse index out of range")
    out = np.zeros(p)
    np.add.at(out, idx % p, val)
    return out
