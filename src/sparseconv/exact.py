"""Exact sparse convolution by iterative error correction.

A bootstrap pass of the approximate engine produces a first sparse
reconstruction C and keeps each repetition's heavy buckets (V >= c1).
Each correction level peels C off them: folding is linear, so a stored
sketch minus fold_sparse(C, p) is the residual A*B - C's sketch, and as
C >= 0 every residual bucket >= c1 is a stored one. A level keeps the
stored sketch exposing the most (ties to the earliest repetition) and
folds its candidates into C, with no transform and no read of A or B,
so the call's SketchCache and route are the bootstrap's alone. The peel
is deterministic: the first level that leaves C unchanged is a fixed
point and ends the run, after at most len(schedule) levels.

A fixed point certifies C only when the stored primes fold losslessly
(p >= 2n-1 on the dense route); otherwise certification waits for a
fresh-prime residual check (ROADMAP, certified exact); residual_norm
and run_correction_level, at exact_plan's modulus, are its reference.

Only positive residual mass is recoverable by a level: buckets holding
overshoot fall below the c1 threshold and are invisible. Overshoot is
covered by the bootstrap's failure budget, not by correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .approx import ApproxParams, approx_plan, approx_sparse_convolve, ceil_log2
from .hashing import sample_prime
from .numerics import SparseResult, dense_pair, round_to_int
from .sketch import SketchCache, _peeled, build_residual_sketch, dense_route, extract_candidates

__all__ = [
    "ExactParams",
    "exact_sparse_convolve",
    "exact_plan",
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
    scales their modulus, R_mult and level_base their repetition schedule.
    """

    m_mult_exact: ClassVar[int] = 8
    R_mult: ClassVar[int] = 2
    level_base: ClassVar[float] = 1.5

    integer_mode: bool = True


@dataclass
class CorrectionTrace:
    """Per-level diagnostics: C snapshots after the bootstrap and after
    each of the `levels` levels run (at most len(schedule), ending at
    the first that leaves C unchanged: a fixed point, which certifies C
    only when the stored primes fold losslessly), and the stored
    bootstrap prime each level chose."""

    snapshots: list[SparseResult] = field(default_factory=list)
    schedule: list[int] = field(default_factory=list)
    chosen_primes: list[int] = field(default_factory=list)
    levels: int = 0


def _level_count(params: ExactParams) -> int:
    # Grows like log log k; k <= 2 needs no contraction beyond the
    # bootstrap, hence the floor of one level.
    lg = ceil_log2(params.k)
    if lg < 2:
        return 1
    return math.ceil(math.log(lg) / math.log(params.level_base))


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


def _merged(current: SparseResult, pairs, params: ExactParams) -> SparseResult:
    """`current` plus the (index, value) pairs, each rounded in
    integer_mode; FFT round-off can leave -0.0003-style ghosts, so
    anything at or below tau is noise-band and dropped."""
    out = dict(current.entries)
    for i, v in pairs:
        out[i] = out.get(i, 0.0) + (float(round_to_int(v)) if params.integer_mode else v)
    return SparseResult({i: v for i, v in out.items() if abs(v) > params.tau})


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

    Builds `reps` residual sketches with primes drawn from streams
    seeded by (seed, level, r), keeps the one exposing the most
    significant buckets (ties to the smallest r), and folds its
    candidates into a copy of `current`. At a lossless modulus all
    sketches are equal, so only r = 1 is built. Returns the updated
    result and the chosen prime. Inputs are the given cache's, or else
    checked as in approx_sparse_convolve.
    """
    if cache is None:
        a, b = dense_pair(a, b)
        cache = SketchCache(a, b, dense_route(len(a), (m, reps)))
    chosen = max(
        _residual_sketches(cache, current, m, reps, (params.seed, level)),
        key=lambda sk: np.count_nonzero(sk.v >= params.c1),
    )
    candidates = extract_candidates(chosen, params.c1, params.tau, 2 * len(cache.a) - 1)
    return _merged(current, candidates.tolist(), params), chosen.p


def exact_sparse_convolve(
    a: np.ndarray,
    b: np.ndarray,
    params: ExactParams,
    trace: CorrectionTrace | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B exactly (integer_mode) or
    within 0.01 (otherwise), with probability >= 1 - delta.

    Failure budget: delta/2 to the bootstrap, delta/2 to the levels,
    which peel its stored heavy buckets until C stops changing. A
    CorrectionTrace collects per-level snapshots for diagnostics.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors.
    """
    a, b = dense_pair(a, b)
    n = len(a)
    schedule = repetition_schedule(params)
    shared = {f.name: getattr(params, f.name) for f in fields(ApproxParams)}
    bootstrap_params = ApproxParams(**{**shared, "delta": params.delta / 2})
    cache = SketchCache(a, b, dense_route(n, approx_plan(bootstrap_params, n)))

    stored = []
    state = approx_sparse_convolve(a, b, bootstrap_params, cache=cache, heavy=stored)
    if params.integer_mode:
        state = _merged(SparseResult(), state.entries.items(), params)

    if trace is not None:
        trace.schedule = list(schedule)
        trace.snapshots = [SparseResult(dict(state.entries))]
        trace.chosen_primes = []

    for l in range(1, len(schedule) + 1):
        prev = state
        peeled = (_peeled(heavy, state, 2 * n - 1) for heavy in stored)
        chosen = max(peeled, key=lambda sk: np.count_nonzero(sk.v >= params.c1))
        state = _merged(state, extract_candidates(chosen, params.c1, params.tau, 2 * n - 1).tolist(), params)
        if trace is not None:
            trace.levels = l
            trace.chosen_primes.append(chosen.p)
            trace.snapshots.append(SparseResult(dict(state.entries)))
        if state == prev:
            break

    return state


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
    non-negative 1-D vectors, c1 > 0 and trials >= 1.
    """
    a, b = dense_pair(a, b)
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m is None:
        m = max(2 * len(a) - 1, 16)
    cache = SketchCache(a, b, dense_route(len(a), (m, trials)))
    return max(
        np.count_nonzero(np.abs(sk.v) >= c1)
        for sk in _residual_sketches(cache, c, m, trials, (seed,))
    )
