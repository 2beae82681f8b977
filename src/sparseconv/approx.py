"""Approximate sparse convolution: L independent hash repetitions,
one pooled sort of their votes, and per-index lower medians.

Each repetition samples its own prime, sketches the product, and reads
(index, value) records off isolated buckets. A significant output index
is isolated under most primes, so it collects many near-identical value
votes. All repetitions' records are sorted once by (index, value), and
each index keeps its lower-median vote, which shrugs off the few collided
ones. Indices with fewer than min_votes_frac * L votes are dropped, which
kills the occasional collision artifact that happens to land on an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .hashing import sample_prime
from .numerics import SparseResult, dense_pair
from .sketch import Sketch, SketchCache, build_sketch, dense_route, extract_candidates

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
    allowed failure probability; c1 separates significant entries from
    the noise band. L_mult scales the repetition count; it stays
    settable because the acceptance suite's FFT-work criterion also runs
    the engine at L_mult=1, the leanest legal parameters.

    The constants are far leaner than worst-case analysis constants and
    are validated statistically by the test suite: tau is how close a
    bucket ratio must be to an integer to be believed, m_mult scales the
    modulus, and an index needs min_votes_frac * L votes to be kept.
    """

    tau: ClassVar[float] = 0.25
    m_mult: ClassVar[int] = 4
    min_votes_frac: ClassVar[float] = 0.5

    k: int
    delta: float
    c1: float = 0.5
    L_mult: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if self.L_mult < 1:
            raise ValueError("L_mult must be >= 1")
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
    a: np.ndarray, b: np.ndarray, params: ApproxParams,
    cache: SketchCache | None = None, heavy: list | None = None, reps: int | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B with small point-wise error.

    With probability >= 1 - delta over the seed (on instances whose
    product splits into k entries >= c1 and noise <= c2 = o(n^-2)), the
    returned map has exactly the significant support and each value is
    within o(1) of the true one.

    Deterministic given (a, b, params): repetition l draws its prime
    from a generator seeded by (seed, l), so repetitions are independent
    and could run in parallel. A given SketchCache is used as it is,
    route and inputs included, so a and b are not read; without one,
    dense_route prices this call's sketches, and ValueError is raised
    unless a and b are equal-length, finite, non-negative 1-D vectors.
    A list passed as `heavy` gets each repetition's heavy buckets,
    (buckets, Sketch(p, V[buckets], W[buckets])) for V >= c1; the
    repetitions it already holds are reused, not rebuilt, and `reps`
    replaces the plan's count L, so a caller can grow one call's vote.
    """
    if cache is None:
        a, b = dense_pair(a, b)
        cache = SketchCache(a, b, dense_route(len(a), approx_plan(params, len(a))))
    n = len(cache.a)
    out_len = 2 * n - 1
    m, L = approx_plan(params, n)
    L = reps or L

    records = [extract_candidates(sk, params.c1, params.tau, out_len) for _, sk in (heavy or [])[:L]]
    for l in range(len(records) + 1, L + 1):
        rng = np.random.default_rng([params.seed, l])
        p = sample_prime(m, rng)
        sk = build_sketch(cache.a, cache.b, p, cache=cache)
        if heavy is not None:  # extraction then reads the kept buckets alone
            buckets = np.flatnonzero(sk.v >= params.c1)
            sk = Sketch(p, sk.v[buckets], sk.w[buckets])
            heavy.append((buckets, sk))
        records.append(extract_candidates(sk, params.c1, params.tau, out_len))

    votes = np.concatenate(records)
    votes = votes[np.lexsort((votes["value"], votes["index"]))]
    starts = np.flatnonzero(np.diff(votes["index"], prepend=-1))  # indices are >= 0
    counts = np.diff(starts, append=len(votes))
    kept = counts >= math.ceil(params.min_votes_frac * L)
    lower_medians = votes[starts[kept] + (counts[kept] - 1) // 2]
    return SparseResult(dict(lower_medians.tolist()))
