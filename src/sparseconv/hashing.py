"""Random-prime hashing: sieve-backed prime sampling and the mod-p fold
of a vector onto residue classes.

The hash family is g(x) = x mod p with p drawn uniformly from the primes
in [m, 2m]. Folding a vector sums its entries within each residue class,
so folding commutes with convolution (linear conv folds to cyclic conv).
A sketch folds each vector twice, plain and index-weighted; fold(a, p,
moment=True) does both in one pass over a, as one numpy.matmul, and
fold_sparse returns the same pair for a vector given by its entries.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import as_int

__all__ = [
    "primes_in_range",
    "sample_prime",
    "fold",
    "fold_sparse",
]

# Sieve results are cached per m: sampling is called once per hash
# repetition and re-sieving would dominate at small scale. Callers only
# read the returned array.
@functools.lru_cache(maxsize=None, typed=True)  # typed: True and 2.0 must not hit 2's entry
def primes_in_range(m: int) -> np.ndarray:
    """All primes p with m <= p <= 2m, for an integer m >= 2, by sieve.

    Bertrand's postulate guarantees the result is non-empty for m >= 2.
    """
    limit = 2 * as_int(m, "m", 2)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = False
    return np.flatnonzero(is_prime[m:]) + m


def sample_prime(m: int, rng: np.random.Generator) -> int:
    """Uniformly random prime in [m, 2m] from the caller's seeded rng."""
    primes = primes_in_range(m)
    return int(primes[rng.integers(len(primes))])


def fold(a: np.ndarray, p: int, moment: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Length-p vector whose entry i sums a_j over all j = i (mod p).

    Preserves total mass. For p >= len(a) this is the identity embedding
    padded with zeros. p must be an integer >= 1.

    With moment=True, returns (fold(a), fold of j*a_j) from one read of
    a: writing j = i + p*q, the moment's entry i is
    i*fold(a)_i + p*sum_q q*a_{i+pq}, so both are rows of one product of
    a (2, rows) weight matrix with the (rows, p) view of a. In the
    identity case the moment is arange(n)*a, bit for bit.
    """
    p = as_int(p, "p", 1)
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    if n <= p:
        out = np.zeros((2, p))
        out[0, :n] = a
        out[1, :n] = np.arange(n) * a
    else:
        rows = n // p
        weights = np.stack([np.ones(rows), p * np.arange(rows)])
        out = np.matmul(weights, a[: rows * p].reshape(rows, p))
        tail = a[rows * p :]
        out[0, : len(tail)] += tail
        out[1, : len(tail)] += (rows * p) * tail
        out[1] += np.arange(p) * out[0]
    return (out[0], out[1]) if moment else out[0]


def fold_sparse(indices, values, p: int, universe: int) -> tuple[np.ndarray, np.ndarray]:
    """fold(x, p, moment=True) for x[indices] = values, from one pass
    over the entries in O(len(indices)), summing in input order.

    p is an integer >= 1 and indices lie in [0, universe): an index out
    of range can only come from a corrupted partial result.
    """
    p = as_int(p, "p", 1)
    idx = np.asarray(list(indices), dtype=np.int64)
    val = np.asarray(list(values), dtype=np.float64)
    if idx.size and (idx.min() < 0 or idx.max() >= universe):
        raise ValueError("sparse index out of range")
    buckets = idx % p  # astype: bincount over no entries returns int64 zeros
    return tuple(np.bincount(buckets, weights=x, minlength=p).astype(np.float64, copy=False) for x in (val, idx * val))
