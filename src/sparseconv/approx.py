"""Both engines' one recovery path: isolate, vote, peel, and grow while
the peel is not clean; exact_sparse_convolve rounds at each merge.

Repetition l draws its prime from a generator seeded by (seed, l),
sketches the product and keeps the sketch at its heavy buckets
(V >= c1). The vote sorts the (index, value) records of all stored
sketches once and keeps each index's lower-median value when it has
min_votes_frac of the votes, which shrugs off collided buckets. A peel
then repairs what the vote drops, with no transform and no read of A or
B: a stored sketch's residual is A*B - C's sketch at its buckets, and as
C >= 0 every residual bucket >= c1 is a stored one. Each level step
merges the candidates of the residual exposing the most.

The peel needs each significant index isolated in one stored sketch,
not a majority, so a call starts with isolation_reps sketches (3 at the
benchmark shapes) and doubles them while they do not peel C clean, up
to the paper's count L at delta/2; not clean at that cap, the paper's
vote plus a peel, it warns. Overshoot falls below c1, where levels
cannot see it; the clean check does (|V| >= c1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .hashing import primes_in_range, sample_prime
from .numerics import SparseResult, as_int, dense_pair, round_to_int
from .sketch import SketchCache, build_sketch, dense_route, extract_candidates, residual

__all__ = ["ApproxParams", "approx_sparse_convolve", "approx_plan", "ceil_log2", "isolation_reps", "CorrectionTrace"]


def ceil_log2(x: int) -> int:
    """Smallest t with 2^t >= x, for x >= 1."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class ApproxParams:
    """Knobs for the isolate-vote-peel recovery.

    k bounds the significant support of the product; delta is the
    allowed failure probability; c1 separates significant entries from
    the noise band. L_mult scales the paper's repetition count, which
    caps the call's growth; it stays settable because the acceptance
    suite's FFT-work criterion also runs the engine at L_mult=1, the
    leanest legal parameters.

    The constants are far leaner than worst-case analysis constants and
    are validated statistically by the test suite: tau is how close a
    bucket ratio must be to an integer to be believed, m_mult scales the
    modulus, an index needs min_votes_frac of the votes to be kept, and
    level_base sets how slowly the peel's level count grows with k.
    """

    tau: ClassVar[float] = 0.25
    m_mult: ClassVar[int] = 4
    min_votes_frac: ClassVar[float] = 0.5
    level_base: ClassVar[float] = 1.5

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


@dataclass
class CorrectionTrace:
    """What one call ran: its repetition counts, one per vote (e.g. [3],
    or [3, 6, 12] after two doublings), and for the last vote C's
    snapshots after it and after each level (up to the first that leaves
    C unchanged; the last is the result) and the stored prime each level
    chose, one fewer."""

    snapshots: list[SparseResult] = field(default_factory=list)
    chosen_primes: list[int] = field(default_factory=list)
    bootstrap_reps: list[int] = field(default_factory=list)


def approx_plan(params: ApproxParams, n: int) -> tuple[int, int]:
    """Modulus base m and the paper's repetition count L for input length n."""
    m = max(
        int(math.ceil(params.m_mult * params.k * ceil_log2(n) * max(ceil_log2(params.k), 1))),
        16,
    )
    L = max(int(math.ceil(params.L_mult * math.log2(params.k / params.delta))), 3)
    return m, L


def _capped_plan(params: ApproxParams, n: int) -> tuple[int, int]:
    """m and the cap: the paper's count at delta/2, the vote's half of the budget."""
    return approx_plan(replace(params, delta=params.delta / 2), n)


def isolation_reps(params: ApproxParams, n: int) -> int:
    """Repetitions a call starts with: the least L >= 3 with
    k * q^L <= delta/4, capped at the paper's count at delta/2.

    With m the modulus base and pi(m) the number of primes in [m, 2m],
    outputs x != y collide under p when p divides x - y, a nonzero
    integer below 2n in magnitude, which has at most
    r = ceil(log(2n) / log m) prime factors >= m. So a pair collides
    with probability <= r / pi(m), a significant index with one of the
    other k - 1 with <= q = (k - 1) r / pi(m), in all L independent
    repetitions with <= q^L, and some significant index with <= k q^L.
    The floor of 3 is approx_plan's, keeping >= 2 agreeing votes.
    """
    m, cap = _capped_plan(params, n)
    q = (params.k - 1) * math.ceil(math.log(2 * n) / math.log(m)) / len(primes_in_range(m))
    L = 3
    while L < cap and params.k * q**L > params.delta / 4:
        L += 1
    return L


def _level_count(params: ApproxParams) -> int:
    # Grows like log log k; k <= 2 needs no contraction beyond the
    # vote, hence the floor of one level.
    lg = ceil_log2(params.k)
    if lg < 2:
        return 1
    return math.ceil(math.log(lg) / math.log(params.level_base))


def _vote(cache: SketchCache, params: ApproxParams, stored: list, reps: int) -> SparseResult:
    """Grow `stored` to `reps` heavy sketches (Sketch.heavy), repetition l
    with its prime drawn from (seed, l), and return their vote: each
    index's lower-median record, kept with >= min_votes_frac * reps records."""
    reps = as_int(reps, "reps", 1)
    n = len(cache.a)
    m, _ = approx_plan(params, n)
    for l in range(len(stored) + 1, reps + 1):
        p = sample_prime(m, np.random.default_rng([params.seed, l]))
        stored.append(build_sketch(cache.a, cache.b, p, cache=cache).heavy(params.c1))

    votes = np.concatenate([extract_candidates(sk, params.c1, params.tau, 2 * n - 1) for sk in stored])
    votes = votes[np.lexsort((votes["value"], votes["index"]))]
    starts = np.flatnonzero(np.diff(votes["index"], prepend=-1))  # indices are >= 0
    counts = np.diff(starts, append=len(votes))
    kept = counts >= math.ceil(params.min_votes_frac * reps)
    lower_medians = votes[starts[kept] + (counts[kept] - 1) // 2]
    return SparseResult(dict(lower_medians.tolist()))


def _merged(current: SparseResult, pairs, params: ApproxParams, integer_mode: bool) -> SparseResult:
    """`current` plus the (index, value) pairs, each rounded in
    integer_mode; FFT round-off can leave -0.0003-style ghosts, so a
    value at or below tau is noise-band and dropped unless it is >= c1."""
    out = dict(current.entries)
    for i, v in pairs:
        out[i] = out.get(i, 0.0) + (float(round_to_int(v)) if integer_mode else v)
    return SparseResult({i: v for i, v in out.items() if abs(v) > params.tau or abs(v) >= params.c1})


def _level(sketches, current: SparseResult, params: ApproxParams, integer_mode: bool, out_len: int):
    """One level step: keep the residual sketch exposing the most buckets
    >= c1 (ties to the earliest) and merge its candidates into `current`;
    returns the new result and the chosen sketch's prime."""
    chosen = max(sketches, key=lambda sk: np.count_nonzero(sk.v >= params.c1))
    candidates = extract_candidates(chosen, params.c1, params.tau, out_len)
    return _merged(current, candidates.tolist(), params, integer_mode), chosen.p


def _peel(stored, state: SparseResult, params: ApproxParams, integer_mode: bool, out_len: int, trace: CorrectionTrace):
    """Run up to _level_count(params) level steps from `state` on the
    residuals of the stored heavy sketches, recording each in `trace`;
    returns C and whether every stored sketch peels it clean: C's indices
    all in its buckets and |V| < c1 at each of them, as holds for a
    correct C, whose residual is noise."""
    for _ in range(_level_count(params)):
        prev = state
        peeled = [residual(s, state, out_len) for s in stored]
        state, p = _level(peeled, state, params, integer_mode, out_len)
        trace.chosen_primes.append(p)
        trace.snapshots.append(SparseResult(dict(state.entries)))
        if state == prev:
            break
    else:  # no fixed point: peel the final C for the check
        peeled = [residual(s, state, out_len) for s in stored]
    return state, all(
        {i % sk.p for i in state.entries} <= set(sk.buckets.tolist()) and np.all(np.abs(sk.v) < params.c1)
        for sk in peeled
    )


def approx_sparse_convolve(
    a: np.ndarray, b: np.ndarray, params: ApproxParams, cache: SketchCache | None = None,
    *, integer_mode: bool = False, trace: CorrectionTrace | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B with small point-wise error.

    With probability >= 1 - delta over the seed (on instances whose
    product splits into k entries >= c1 and noise <= c2 = o(n^-2)), the
    returned map has exactly the significant support and each value is
    within o(1) of the true one.

    One failure budget delta: the starting count isolates every
    significant index in some stored sketch with probability
    >= 1 - delta/4, and the cap is the paper's count at delta/2, so a
    capped call is the paper's vote, failing with probability
    <= delta/2, plus a peel. A call not clean at the cap raises one
    RuntimeWarning: k is probably under-stated.

    integer_mode rounds each merge to an integer: exact_sparse_convolve
    is this call with ExactParams.integer_mode, so without it this is
    exact's result with integer_mode=False, bit for bit. Only the
    ApproxParams fields of params are read. A given CorrectionTrace is
    filled with what the call ran.

    Deterministic given (a, b, params). A given SketchCache is used as
    it is, route and inputs included, so a and b are not read; without
    one, dense_route prices the call's starting sketches, and ValueError
    is raised unless a and b are equal-length, finite, non-negative 1-D
    vectors.
    """
    if cache is None:
        a, b = dense_pair(a, b)
    n = len(a if cache is None else cache.a)
    m, cap = _capped_plan(params, n)
    reps = isolation_reps(params, n)
    if cache is None:
        cache = SketchCache(a, b, dense_route(n, (m, reps)))
    trace = CorrectionTrace() if trace is None else trace
    trace.bootstrap_reps = []

    stored = []
    while True:
        state = _merged(SparseResult(), _vote(cache, params, stored, reps).entries.items(), params, integer_mode)
        trace.bootstrap_reps.append(reps)
        trace.snapshots = [SparseResult(dict(state.entries))]
        trace.chosen_primes = []
        state, clean = _peel(stored, state, params, integer_mode, 2 * n - 1, trace)
        if clean or reps == cap:
            break
        reps = min(2 * reps, cap)

    if not clean:
        warnings.warn(
            f"{cap} stored sketches still do not peel clean; k={params.k} is probably under-stated",
            RuntimeWarning,
            stacklevel=2,
        )
    return state
