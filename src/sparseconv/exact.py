"""Exact sparse convolution: the approximate engine's separate-vote-peel
result (sparseconv.approx) rounded once to integers, in integer_mode.
Each attempt's sketches separate every pair of significant indices in
some stored sketch, so no pair leaves the peel stuck.

The peel's levels fold nothing and transform nothing: each peels C off
the stored heavy sketches, so each attempt's SketchCache is its
sketches' alone. A fixed point certifies C only when the stored
primes fold losslessly (p >= 2n-1, the dense route); otherwise
certification waits for a fresh-prime residual check (ROADMAP, certified
exact). residual_norm and run_correction_level, at exact_plan's modulus
with repetition_schedule's counts, are its reference: the paper's
correction levels, each on fresh primes, whose residuals are built in
stages as one Sketch, as approx's stored sketches are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .approx import ApproxParams, CorrectionTrace, _level, _level_count, approx_sparse_convolve, ceil_log2
from .hashing import sample_prime
from .numerics import SparseResult, as_int, as_real, dense_pair, round_to_int
# extract_candidates runs only in sparseconv.approx; perfbench's layer trace also
# looks it up here, and reads every extraction metric as absent without it
from .sketch import SketchCache, build_residual_sketch, extract_candidates  # noqa: F401

__all__ = [
    "ExactParams",
    "exact_sparse_convolve",
    "exact_plan",
    "repetition_schedule",
    "run_correction_level",
    "residual_norm",
]


@dataclass(frozen=True)
class ExactParams(ApproxParams):
    """Approximate-engine knobs plus integer rounding.

    integer_mode rounds the recovered values once, after the last level,
    to the nearest integer; the exact-recovery guarantee needs
    significant product entries to be integers. Run with
    integer_mode=False on non-integer instances to get a 0.01 value
    tolerance instead of exact equality.

    The constants fix the fresh-prime correction levels: m_mult_exact
    scales their modulus, R_mult and the inherited level_base their
    repetition schedule.
    """

    m_mult_exact: ClassVar[int] = 8
    R_mult: ClassVar[int] = 2

    integer_mode: bool = True


def exact_plan(params: ExactParams, n: int) -> tuple[int, int]:
    """Modulus base m and level count L; ValueError unless n >= 1 is an integer.

    m = m_mult_exact*k*ceil(log2 n)*ceil(log2 k)^2 (an extra log k over
    approx's grid) keeps the residual contracting at every level, up to
    the least lossless base 2n-1, past which m only sieves more; >= 16.
    """
    n = as_int(n, "n", 1)
    lk = max(ceil_log2(params.k), 1)
    m = max(min(params.m_mult_exact * params.k * ceil_log2(n) * lk * lk, 2 * n - 1), 16)
    return m, _level_count(params)


def repetition_schedule(params: ExactParams) -> list[int]:
    """Repetitions per level: R_l = ceil(R_mult * log2(2L/delta) / base^(l-1)),
    each >= 1 as the logarithm is positive (L >= 1 > delta)."""
    levels = _level_count(params)
    base_count = params.R_mult * math.log2(2 * levels / params.delta)
    return [math.ceil(base_count / params.level_base ** (l - 1)) for l in range(1, levels + 1)]


def _residual_sketch(a, b, current, m, reps, key):
    """Residual sketch of A*B - current on checked a, b, under repetition
    r = 1..reps's prime drawn from (*key, r), built in stages; one prime
    at a lossless modulus, where all tie."""
    # primes p >= m >= 2n-1 fold the dense product and the partial result
    # by identity, so every residual sketch at modulus m is the same array
    reps = 1 if m >= 2 * len(a) - 1 else reps
    primes = [sample_prime(m, np.random.default_rng([*key, r])) for r in range(1, reps + 1)]
    return build_residual_sketch(a, b, current, primes, cache=SketchCache(a, b))


def _rounded(c: SparseResult) -> SparseResult:
    """C with each value rounded to the nearest integer and the zeros dropped."""
    return SparseResult({i: float(r) for i, v in c.items() if (r := round_to_int(v))})


def run_correction_level(
    a: np.ndarray,
    b: np.ndarray,
    current: SparseResult,
    level: int,
    reps: int,
    m: int,
    params: ExactParams,
) -> tuple[SparseResult, int]:
    """One correction level against the partial result `current`.

    _level over `reps` residual sketches with primes drawn from streams
    seeded by (seed, level, r), so ties go to the smallest r. At a
    lossless modulus all sketches are equal, so only r = 1 is built.
    Returns the merged result, rounded once in integer_mode as exact's
    is, and the chosen prime. Raises ValueError as approx_sparse_convolve
    does on a and b, and unless level >= 0, reps >= 1 and m >= 2 are
    integers.
    """
    level, reps, m = as_int(level, "level", 0), as_int(reps, "reps", 1), as_int(m, "m", 2)
    a, b = dense_pair(a, b)
    merged, p = _level(_residual_sketch(a, b, current, m, reps, (params.seed, level)), current, params)
    return _rounded(merged) if params.integer_mode else merged, p


def exact_sparse_convolve(
    a: np.ndarray,
    b: np.ndarray,
    params: ExactParams,
    trace: CorrectionTrace | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B exactly (integer_mode) or
    within 0.01 (otherwise), with probability >= 1 - delta.

    approx_sparse_convolve's result, rounded once in integer_mode: the
    one path (sparseconv.approx). Each attempt separates every pair with
    probability >= 1 - delta/4 at its k; a peel that is not clean plans again at 2k,
    and a call that raised k warns. A given CorrectionTrace is filled
    with what approx ran: its snapshots are unrounded, and the result is
    the last one rounded in integer_mode.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors.
    """
    result = approx_sparse_convolve(a, b, params, trace=trace)
    return _rounded(result) if params.integer_mode else result


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

    Draws `trials` fresh primes, counts each one's residual buckets with
    |V_i| >= c1, and reports the maximum. Collisions can only merge
    residual entries, so each trial undercounts at worst; a modulus of at
    least the output length (the default) makes every trial the same
    exact count, so one is run. Diagnostic only, never on the recovery path.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors, c1 is a real in (0, inf), and trials >= 1,
    seed >= 0 and any given m >= 2 are integers.
    """
    a, b = dense_pair(a, b)
    c1 = as_real(c1, "c1", "(0, inf)")
    trials, seed = as_int(trials, "trials", 1), as_int(seed, "seed", 0)
    m = max(2 * len(a) - 1, 16) if m is None else as_int(m, "m", 2)
    sk = _residual_sketch(a, b, c, m, trials, (seed,))
    return int(np.bincount(sk.keys[np.abs(sk.v) >= c1] // sk.K, minlength=len(sk.primes)).max())
