"""Exact sparse convolution: the approximate engine's isolate-vote-peel
path (sparseconv.approx) with every merge rounded to an integer.

The peel's levels fold nothing and transform nothing: each peels C off
the stored heavy sketches, so the call's SketchCache and route are its
starting sketches' alone. A fixed point certifies C only when the stored
primes fold losslessly (p >= 2n-1 on the dense route); otherwise
certification waits for a fresh-prime residual check (ROADMAP, certified
exact). residual_norm and run_correction_level, at exact_plan's modulus
with repetition_schedule's counts, are its reference: the paper's
correction levels, each on fresh primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .approx import (
    ApproxParams, CorrectionTrace, _level, _level_count, approx_sparse_convolve, ceil_log2, isolation_reps,
)
from .hashing import sample_prime
from .numerics import SparseResult, as_int, dense_pair
# extract_candidates runs only in sparseconv.approx; perfbench's layer trace also
# looks it up here, and reads every extraction metric as absent without it
from .sketch import SketchCache, build_residual_sketch, dense_route, extract_candidates  # noqa: F401

__all__ = [
    "ExactParams",
    "exact_sparse_convolve",
    "exact_plan",
    "isolation_reps",
    "repetition_schedule",
    "run_correction_level",
    "residual_norm",
    "CorrectionTrace",
]


@dataclass(frozen=True)
class ExactParams(ApproxParams):
    """Approximate-engine knobs plus integer rounding.

    integer_mode rounds every recovered value to the nearest integer;
    the exact-recovery guarantee needs significant product entries to be
    integers. Run with integer_mode=False on non-integer instances to
    get a 0.01 value tolerance instead of exact equality.

    The constants fix the fresh-prime correction levels: m_mult_exact
    scales their modulus, R_mult and the inherited level_base their
    repetition schedule.
    """

    m_mult_exact: ClassVar[int] = 8
    R_mult: ClassVar[int] = 2

    integer_mode: bool = True


def exact_plan(params: ExactParams, n: int) -> tuple[int, int]:
    """Modulus base m and level count L.

    The larger modulus (extra log k factor over the approximate plan)
    keeps collisions rare enough for the residual to contract at every
    level.
    """
    lk = max(ceil_log2(params.k), 1)
    m = max(int(math.ceil(params.m_mult_exact * params.k * ceil_log2(n) * lk * lk)), 16)
    return m, _level_count(params)


def repetition_schedule(params: ExactParams) -> list[int]:
    """Repetitions per level: R_l = ceil(R_mult * log2(2L/delta) / base^(l-1)),
    floored at one."""
    levels = _level_count(params)
    base_count = params.R_mult * math.log2(2 * levels / params.delta)
    return [
        max(int(math.ceil(base_count / params.level_base ** (l - 1))), 1)
        for l in range(1, levels + 1)
    ]


def _lossless(cache: SketchCache, m: int) -> bool:
    # primes p >= m >= 2n-1 fold the dense product and the partial result
    # by identity, so every residual sketch at modulus m is the same array
    return cache.dense and m >= 2 * len(cache.a) - 1


def _residual_sketches(cache, current, m, reps, key):
    """The cache's residual sketches of A*B - current, repetition r = 1..reps
    with its prime drawn from (*key, r); one at a lossless modulus, where all tie."""
    if _lossless(cache, m):
        reps = 1
    for r in range(1, reps + 1):
        p = sample_prime(m, np.random.default_rng([*key, r]))
        yield build_residual_sketch(cache.a, cache.b, current, p, cache=cache)


def run_correction_level(
    a: np.ndarray,
    b: np.ndarray,
    current: SparseResult,
    level: int,
    reps: int,
    m: int,
    params: ExactParams,
    cache: SketchCache | None = None,
) -> tuple[SparseResult, int]:
    """One correction level against the partial result `current`.

    _level over `reps` residual sketches with primes drawn from streams
    seeded by (seed, level, r), so ties go to the smallest r. At a
    lossless modulus all sketches are equal, so only r = 1 is built.
    Returns the updated result and the chosen prime. Inputs are the given
    cache's, or else checked as in approx_sparse_convolve; ValueError
    unless reps >= 1 and m >= 2 are integers.
    """
    reps, m = as_int(reps, "reps", 1), as_int(m, "m", 2)
    if cache is None:
        a, b = dense_pair(a, b)
        cache = SketchCache(a, b, dense_route(len(a), (m, reps)))
    sketches = _residual_sketches(cache, current, m, reps, (params.seed, level))
    return _level(sketches, current, params, params.integer_mode, 2 * len(cache.a) - 1)


def exact_sparse_convolve(
    a: np.ndarray,
    b: np.ndarray,
    params: ExactParams,
    trace: CorrectionTrace | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B exactly (integer_mode) or
    within 0.01 (otherwise), with probability >= 1 - delta.

    approx_sparse_convolve with params.integer_mode: the one path
    (sparseconv.approx), rounding at each merge in integer_mode. A call
    whose stored sketches do not peel C clean at the paper's count
    raises one RuntimeWarning: k is probably under-stated. A given
    CorrectionTrace is filled with what the call ran, for diagnostics.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors.
    """
    return approx_sparse_convolve(a, b, params, integer_mode=params.integer_mode, trace=trace)


def residual_norm(
    a: np.ndarray,
    b: np.ndarray,
    c: SparseResult,
    c1: float,
    trials: int,
    seed: int,
    m: int | None = None,
) -> int:
    """Estimated count of residual entries with |A*B - C| >= c1.

    Draws `trials` fresh primes, counts residual-sketch buckets with
    |V_i| >= c1, and reports the maximum. Collisions can only merge
    residual entries, so each trial undercounts at worst; a modulus of at
    least the output length (the default) makes every trial the same
    exact count, so one is run. Diagnostic only, never on the recovery path.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors, 0 < c1 < inf, and trials >= 1 and any given
    m >= 2 are integers.
    """
    a, b = dense_pair(a, b)
    if not 0 < c1 < math.inf:
        raise ValueError(f"c1 must lie in (0, inf), not {c1!r}")
    trials = as_int(trials, "trials", 1)
    m = max(2 * len(a) - 1, 16) if m is None else as_int(m, "m", 2)
    cache = SketchCache(a, b, dense_route(len(a), (m, trials)))
    return max(
        np.count_nonzero(np.abs(sk.v) >= c1)
        for sk in _residual_sketches(cache, c, m, trials, (seed,))
    )
