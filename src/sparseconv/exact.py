"""Exact sparse convolution by iterative error correction.

A bootstrap pass of the approximate engine produces a first sparse
reconstruction. Each subsequent level sketches the residual
A*B - C^{l-1} directly (folding is linear, so the partial result is
subtracted inside the sketch), picks the repetition whose sketch
exposes the most significant buckets, and folds the recovered mass back
into C. Residual support shrinks doubly exponentially, so level
repetition counts decay geometrically and the first level dominates
the work.

Only positive residual mass is recoverable by a level: buckets holding
overshoot fall below the c1 threshold and are invisible. Overshoot is
covered by the bootstrap's failure budget, not by correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .approx import ApproxParams, approx_sparse_convolve, ceil_log2
from .hashing import sample_prime
from .numerics import SparseResult, dense_vector, round_to_int
from .sketch import SketchCache, build_residual_sketch, dense_route, extract_candidates

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
    """Approximate-engine knobs plus the correction-level schedule.

    integer_mode rounds every recovered value to the nearest integer;
    the exact-recovery guarantee needs significant product entries to be
    integers. Run with integer_mode=False on non-integer instances to
    get a 0.01 value tolerance instead of exact equality.
    """

    m_mult_exact: float = 8.0
    R_mult: float = 2.0
    level_base: float = 1.5
    integer_mode: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.m_mult_exact < 1:
            raise ValueError("m_mult_exact must be >= 1")
        if self.R_mult < 1:
            raise ValueError("R_mult must be >= 1")
        if not self.level_base > 1:
            raise ValueError("level_base must exceed 1")


@dataclass
class CorrectionTrace:
    """Per-level diagnostics: C snapshots after the bootstrap and after
    each correction level, plus the primes and schedule used."""

    snapshots: list[SparseResult] = field(default_factory=list)
    schedule: list[int] = field(default_factory=list)
    chosen_primes: list[int] = field(default_factory=list)
    m: int = 0
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


def _rounded(entries: dict[int, float], tau: float) -> dict[int, float]:
    out = {}
    for i, v in entries.items():
        r = float(round_to_int(v))
        if abs(r) > tau:
            out[i] = r
    return out


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
    candidates into a copy of `current`. Returns the updated result and
    the chosen prime.
    """
    if cache is None:
        cache = SketchCache(a, b, dense_route(len(a), m, reps))
    out_len = 2 * len(cache.a) - 1
    best = None  # (score, r, sketch)
    for r in range(1, reps + 1):
        rng = np.random.default_rng([params.seed, level, r])
        p = sample_prime(m, rng)
        sk = build_residual_sketch(a, b, current, p, cache=cache)
        score = int(np.count_nonzero(sk.v >= params.c1))
        if best is None or score > best[0]:
            best = (score, r, sk)
    chosen = best[2]

    nxt = dict(current.entries)
    for cand in extract_candidates(chosen, params.c1, params.tau, out_len):
        inc = float(round_to_int(cand.value)) if params.integer_mode else cand.value
        nxt[cand.index] = nxt.get(cand.index, 0.0) + inc
    # FFT round-off can leave -0.0003-style ghosts; anything at or below
    # tau is noise-band and dropped.
    return SparseResult({i: v for i, v in nxt.items() if abs(v) > params.tau}), chosen.p


def exact_sparse_convolve(
    a: np.ndarray,
    b: np.ndarray,
    params: ExactParams,
    trace: CorrectionTrace | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B exactly (integer_mode) or
    within 0.01 (otherwise), with probability >= 1 - delta.

    Failure budget: delta/2 to the bootstrap, delta/2 spread over the
    correction levels. Pass a CorrectionTrace to collect per-level
    snapshots for convergence diagnostics.

    Raises ValueError unless a and b are equal-length, finite,
    non-negative 1-D vectors.
    """
    a, b = dense_vector(a), dense_vector(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    shared = {f.name: getattr(params, f.name) for f in fields(ApproxParams)}
    bootstrap_params = ApproxParams(**{**shared, "delta": params.delta / 2})
    c0 = approx_sparse_convolve(a, b, bootstrap_params)
    current = dict(c0.entries)
    if params.integer_mode:
        current = _rounded(current, params.tau)

    m, levels = exact_plan(params, n)
    schedule = repetition_schedule(params)

    if trace is not None:
        trace.m = m
        trace.levels = levels
        trace.schedule = list(schedule)
        trace.snapshots = [SparseResult(dict(current))]
        trace.chosen_primes = []

    cache = SketchCache(a, b, dense_route(n, m, sum(schedule)))
    state = SparseResult(current)
    for l in range(1, levels + 1):
        state, chosen_p = run_correction_level(
            a, b, state, l, schedule[l - 1], m, params, cache=cache
        )
        if trace is not None:
            trace.chosen_primes.append(chosen_p)
            trace.snapshots.append(SparseResult(dict(state.entries)))

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
    residual entries, so each trial undercounts at worst; the default
    modulus exceeds the output length, making every trial an exact
    count. Diagnostic only, never on the recovery path.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(a)
    if m is None:
        m = max(2 * n - 1, 16)
    cache = SketchCache(a, b, dense_route(n, m, trials))
    worst = 0
    for t in range(1, trials + 1):
        rng = np.random.default_rng([seed, t])
        p = sample_prime(m, rng)
        sk = build_residual_sketch(a, b, c, p, cache=cache)
        worst = max(worst, int(np.count_nonzero(np.abs(sk.v) >= c1)))
    return worst
