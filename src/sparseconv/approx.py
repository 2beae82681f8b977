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
from .numerics import SparseResult, as_int, dense_pair
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
        object.__setattr__(self, "k", as_int(self.k, "k", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.c1 < math.inf:
            raise ValueError(f"c1 must lie in (0, inf), not {self.c1!r}")
        if not 1 <= self.L_mult < math.inf:
            raise ValueError(f"L_mult must lie in [1, inf), not {self.L_mult!r}")


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
    Each repetition keeps its sketch at the heavy buckets extraction
    reads (Sketch.heavy), in `heavy` when a list is given; the
    repetitions it already holds are reused, not rebuilt, and `reps`
    (an integer >= 1) replaces the plan's L, so a caller can grow its vote.
    """
    if reps is not None:
        reps = as_int(reps, "reps", 1)
    if cache is None:
        a, b = dense_pair(a, b)
        cache = SketchCache(a, b, dense_route(len(a), approx_plan(params, len(a))))
    n = len(cache.a)
    m, L = approx_plan(params, n)
    L = L if reps is None else reps
    stored = [] if heavy is None else heavy
    for l in range(len(stored) + 1, L + 1):
        p = sample_prime(m, np.random.default_rng([params.seed, l]))
        stored.append(build_sketch(cache.a, cache.b, p, cache=cache).heavy(params.c1))

    votes = np.concatenate([extract_candidates(sk, params.c1, params.tau, 2 * n - 1) for sk in stored[:L]])
    votes = votes[np.lexsort((votes["value"], votes["index"]))]
    starts = np.flatnonzero(np.diff(votes["index"], prepend=-1))  # indices are >= 0
    counts = np.diff(starts, append=len(votes))
    kept = counts >= math.ceil(params.min_votes_frac * L)
    lower_medians = votes[starts[kept] + (counts[kept] - 1) // 2]
    return SparseResult(dict(lower_medians.tolist()))
