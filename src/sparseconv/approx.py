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
not a majority, so a call starts with the fewest sketches whose
collision bound isolates every index, and doubles them while they do
not peel C clean, up to the paper's count L at delta/2; not clean at
that cap, the paper's vote plus a peel, it warns. Overshoot falls below
c1, where levels cannot see it; the clean check does (|V| >= c1).

The paper fixes the modulus only up to a constant, m = Theta(k log n
log k), and a smaller m makes each sketch cheaper but needs more of
them, so approx_plan prices each call's modulus, count and route.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .fft import pad_length, transform_work
from .hashing import primes_in_range, sample_prime
from .numerics import SparseResult, as_int, dense_pair, round_to_int
from .sketch import SketchCache, build_sketch, dense_route, extract_candidates, residual

__all__ = ["ApproxParams", "Plan", "approx_sparse_convolve", "approx_plan", "ceil_log2", "CorrectionTrace"]

# Besides fft_work(), the plan prices each transform at TRANSFORM_WORK
# more (call overhead, spectrum products), and each sketch at FOLD_WORK
# per input entry folded with its moment plus SKETCH_WORK for the rest
# (extraction, vote, peel), all in fft_work() units. Measured on a 2-core
# x86 VM (numpy 2.4), medians of 7 calls per forced plan, each route at
# every grid modulus with a count <= 40, n = 2^12-2^20, k = 16 and 64,
# three instances: least-squares fits of wall time gave 1.2-1.3 ns per
# unit, 24k-29k units per transform, 0.42-0.78 per folded entry (the low
# end from fits at n up to 2^20, where folds weigh) and 144k-280k per
# sketch. On those 37 shape-instance pairs these values pick plans 1.02x
# slower than the fastest measured (geometric mean, worst 1.25x); without
# TRANSFORM_WORK, short cyclic sketches win near-ties they lose (n = 2^14,
# k = 16: 5 at m = 896 over one dense product, 1.1-1.3x slower).
TRANSFORM_WORK = 25_000
FOLD_WORK = 0.5
SKETCH_WORK = 150_000


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
    bucket ratio must be to an integer to be believed, an index needs
    min_votes_frac of the votes to be kept, and level_base sets how
    slowly the peel's level count grows with k. The modulus has no
    constant: approx_plan prices it per call.
    """

    tau: ClassVar[float] = 0.25
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


class Plan(NamedTuple):
    """One call's plan: primes in [m, 2m], `reps` starting sketches, at
    most `cap` of them, folding one dense product when `dense`."""

    m: int
    reps: int
    cap: int
    dense: bool


def approx_plan(params: ApproxParams, n: int) -> Plan:
    """The cheapest plan for length-n inputs that isolates every
    significant index in some starting sketch.

    The cap is the paper's count L = L_mult * log2(k/delta) at delta/2
    (at least 3). Each modulus base m of _grid gets its starting count
    by _isolation_reps; an m whose count exceeds the cap is dropped, and
    the rest are priced by _price, the least price winning and ties
    going to the larger m. With every m dropped, the plan is the largest
    m at the cap. The route is dense_route's for (m, reps). Memoised on
    (k, delta, L_mult, n): the seed changes no plan.
    """
    return _plan(params.k, params.delta, params.L_mult, n)


@functools.cache
def _plan(k: int, delta: float, L_mult: float, n: int) -> Plan:
    cap = max(math.ceil(L_mult * math.log2(2 * k / delta)), 3)
    grid = _grid(k, n)
    priced = [(_price(n, m, reps), m, reps) for m in grid if (reps := _isolation_reps(k, delta, n, m, cap))]
    # min keeps the first of equal prices, and the grid runs downward
    _, m, reps = min(priced, key=lambda c: c[0], default=(None, grid[0], cap))
    return Plan(m, reps, cap, dense_route(n, (m, reps)))


def _grid(k: int, n: int) -> list[int]:
    """Modulus bases 4k*ceil(log2 n)*ceil(log2 k) / 2^j, largest first,
    down to the floor of 16."""
    grid = [max(4 * k * ceil_log2(n) * max(ceil_log2(k), 1), 16)]
    while grid[-1] > 16:
        grid.append(max(grid[-1] // 2, 16))
    return grid


def _isolation_reps(k: int, delta: float, n: int, m: int, cap: int) -> int | None:
    """The least L in [3, cap] with k * q^L <= delta/4 at modulus base m,
    or None.

    With pi(m) the number of primes in [m, 2m], outputs x != y collide
    under p when p divides d = x - y, with 0 < |d| <= 2n - 2. r + 1
    distinct prime factors >= m would make m^(r+1) <= |d|, so d has at
    most r = _max_factors(n, m) of them. So a pair collides with
    probability <= r / pi(m), a significant index with one of the other
    k - 1 with <= q = (k - 1) r / pi(m), in all L independent
    repetitions with <= q^L, and some significant index with <= k q^L.
    The floor of 3 keeps >= 2 agreeing votes.
    """
    q = (k - 1) * _max_factors(n, m) / len(primes_in_range(m))
    if q >= 1:  # no count meets it, and q**L may overflow
        return None
    return next((L for L in range(3, cap + 1) if k * q**L <= delta / 4), None)


def _max_factors(n: int, m: int) -> int:
    """The largest r with m^r <= 2n - 2, in integers: the float floor of
    log(2n - 2) / log(m) falls one short at exact powers (m = 48, r = 3)."""
    r, power = 0, m
    while power <= 2 * n - 2:
        r, power = r + 1, power * m
    return r


def _price(n: int, m: int, reps: int) -> float:
    """fft_work() units for `reps` sketches at modulus base m on length-n
    inputs: the transforms of dense_route's route, each TRANSFORM_WORK
    over its work, plus per sketch FOLD_WORK for each of the 2n entries
    folded with its moment (the two inputs, or the dense product) and
    SKETCH_WORK for the rest."""
    if dense_route(n, (m, reps)):
        transforms = 3 * (transform_work(pad_length(2 * n - 1)) + TRANSFORM_WORK)
    else:
        transforms = reps * 6 * (transform_work(pad_length(3 * m - 1)) + TRANSFORM_WORK)
    return reps * (FOLD_WORK * 2 * n + SKETCH_WORK) + transforms


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
    m = approx_plan(params, n).m
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
    a: np.ndarray, b: np.ndarray, params: ApproxParams,
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
    capped call is the paper's vote plus a peel, at the plan's modulus.
    That vote keeps an index isolated in a majority of its sketches;
    the paper's analysis bounds its failure by delta/2 at the paper's
    m, and a cheaper m shrinks the margin (q in _isolation_reps: 0.31
    at n = 2^17, k = 64, against 0.026 at the grid's top). A call not
    clean at the cap raises one RuntimeWarning: k is probably
    under-stated.

    integer_mode rounds each merge to an integer: exact_sparse_convolve
    is this call with ExactParams.integer_mode, so without it this is
    exact's result with integer_mode=False, bit for bit. Only the
    ApproxParams fields of params are read. A given CorrectionTrace is
    filled with what the call ran.

    Deterministic given (a, b, params). approx_plan fixes the call's
    modulus, starting count, cap and route (its one SketchCache's).
    Raises ValueError unless
    a and b are equal-length, finite, non-negative 1-D vectors.
    """
    a, b = dense_pair(a, b)
    n = len(a)
    _, reps, cap, dense = approx_plan(params, n)
    cache = SketchCache(a, b, dense)
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
