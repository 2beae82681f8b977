"""Approximate sparse convolution: L independent hash repetitions,
candidate pooling, and per-index medians.

Each repetition samples its own prime, sketches the product, and reads
candidates off isolated buckets. A significant output index is isolated
under most primes, so across repetitions it collects many near-identical
value votes; the per-index median then shrugs off the few collided ones.
Indices with fewer than min_votes_frac * L votes are dropped, which kills
the occasional collision artifact that happens to land on an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import sample_prime
from .numerics import SparseResult, dense_vector, lower_median
from .sketch import SketchCache, build_sketch, dense_route, extract_candidates

__all__ = ["ApproxParams", "approx_sparse_convolve", "approx_plan", "ceil_log2"]


def ceil_log2(x: int) -> int:
    """Smallest t with 2^t >= x, for x >= 1."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class ApproxParams:
    """Knobs for the median-boosted recovery.

    k bounds the significant support of the product; delta is the
    allowed failure probability. c1 separates significant entries from
    the noise band and tau is how close a bucket ratio must be to an
    integer to be believed. The multipliers scale the modulus range and
    the repetition count; the defaults are far leaner than worst-case
    analysis constants and are validated statistically by the test
    suite.
    """

    k: int
    delta: float
    c1: float = 0.5
    tau: float = 0.25
    m_mult: float = 4.0
    L_mult: float = 8.0
    min_votes_frac: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if not 0 < self.tau < 0.5:
            raise ValueError("tau must lie in (0, 0.5)")
        if self.m_mult < 4:
            raise ValueError("m_mult must be >= 4")
        if self.L_mult < 1:
            raise ValueError("L_mult must be >= 1")
        if not 0 < self.min_votes_frac <= 1:
            raise ValueError("min_votes_frac must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def approx_plan(params: ApproxParams, n: int) -> tuple[int, int]:
    """Modulus base m and repetition count L for input length n."""
    m = max(
        int(math.ceil(params.m_mult * params.k * ceil_log2(n) * max(ceil_log2(params.k), 1))),
        16,
    )
    L = max(int(math.ceil(params.L_mult * math.log2(params.k / params.delta))), 3)
    return m, L


def approx_sparse_convolve(
    a: np.ndarray, b: np.ndarray, params: ApproxParams
) -> SparseResult:
    """Recover the significant entries of A*B with small point-wise error.

    With probability >= 1 - delta over the seed (on instances whose
    product splits into k entries >= c1 and noise <= c2 = o(n^-2)), the
    returned map has exactly the significant support and each value is
    within o(1) of the true one.

    Deterministic given (a, b, params): repetition l draws its prime
    from a generator seeded by (seed, l), so repetitions are independent
    and could run in parallel.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors.
    """
    a, b = dense_vector(a), dense_vector(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    out_len = 2 * n - 1
    m, L = approx_plan(params, n)
    cache = SketchCache(a, b, dense_route(n, m, L))

    pool: dict[int, list[float]] = {}
    for l in range(1, L + 1):
        rng = np.random.default_rng([params.seed, l])
        p = sample_prime(m, rng)
        sk = build_sketch(a, b, p, cache=cache)
        for cand in extract_candidates(sk, params.c1, params.tau, out_len):
            pool.setdefault(cand.index, []).append(cand.value)

    min_votes = math.ceil(params.min_votes_frac * L)
    result = {
        i: lower_median(votes)
        for i, votes in pool.items()
        if len(votes) >= min_votes
    }
    return SparseResult(result)
