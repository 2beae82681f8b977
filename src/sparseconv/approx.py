"""Both engines' one recovery path: separate, vote, peel, and replan at 2k
while the peel is not clean; exact_sparse_convolve rounds its result once.

An attempt runs in stages. It draws all of its primes first, repetition
l's from a generator seeded by (seed, l); build_sketch then folds A for
every prime, then B, and transforms each prime's pair, into one Sketch
kept at its heavy buckets (V >= c1). The vote extracts once over every
prime, sorts the (index, value) records once and keeps each index's
lower-median value when it has min_votes_frac of the votes and two at
least, which shrugs off collided buckets. A peel then repairs what the
vote drops, with no transform and no read of A or B: the stored
sketch's residual (sketch.residual) is A*B - C's sketch at its buckets,
and as C >= 0 every residual bucket >= c1 is a stored one. Each level
keeps the prime whose residual exposes the most buckets >= c1 and
merges those of its candidates that hash into a heavy bucket of every
stored prime, as every significant index does. A level whose residuals
expose no bucket >= c1 extracts nothing and leaves C as it is: the
peel's fixed point, where it stops.

An index hidden by a collision is exposed once its partners are peeled,
so the peel stalls only on a set of significant indices each sharing a
bucket with another of the set in every stored sketch. An attempt runs
the fewest sketches whose collision bound separates every pair at its
k, the least such set; larger ones are left to the clean check. A peel
that is not clean says k was under-stated: the call plans again at 2k
with fresh sketches, up to a clean peel or a lossless plan (m >= 2n-1),
and warns. Overshoot falls below c1, where levels cannot see it; the
clean check does (|V| >= c1).

The paper fixes the modulus only up to a constant, m = Theta(k log n
log k), and a smaller m makes each sketch cheaper but needs more of
them, so approx_plan prices each call's modulus and count; the route
follows the primes (sketch.build_sketch).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .hashing import primes_in_range, sample_prime
from .numerics import SparseResult, as_int, as_real, dense_pair
from .sketch import Sketch, SketchCache, build_sketch, extract_candidates, lossless, residual, route_price

__all__ = ["ApproxParams", "Plan", "approx_sparse_convolve", "approx_plan", "ceil_log2", "CorrectionTrace"]

def ceil_log2(x: int) -> int:
    """Smallest t with 2^t >= x; ValueError unless x >= 1 is an integer."""
    return (as_int(x, "x", 1) - 1).bit_length()


@dataclass(frozen=True)
class ApproxParams:
    """Knobs for the separate-vote-peel recovery.

    k bounds the significant support of the product; delta is the
    allowed failure probability; c1 separates significant entries from
    the noise band; README's knob table gives each one's range.

    The constants are far leaner than worst-case analysis constants and
    are validated statistically by the test suite: tau is how close a
    bucket ratio must be to an integer to be believed, an index needs
    min_votes_frac of the votes, and two, to be kept, level_base sets
    how slowly the peel's level count grows with k. The modulus and the
    count have no constant: approx_plan prices them per call.
    """

    tau: ClassVar[float] = 0.25
    min_votes_frac: ClassVar[float] = 0.5
    level_base: ClassVar[float] = 1.5

    k: int
    delta: float
    c1: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "k", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))
        object.__setattr__(self, "delta", as_real(self.delta, "delta", "(0, 1)"))
        object.__setattr__(self, "c1", as_real(self.c1, "c1", "(0, inf)"))


@dataclass
class CorrectionTrace:
    """What one call ran: its repetition counts, one per attempt, attempt
    i at k * 2^i (e.g. [2], or [2, 3, 5] after two raises), and for the
    last attempt C's snapshots after its vote and after each level (up
    to the first that leaves C unchanged; the last is the result) and the
    stored prime each level chose, one fewer."""

    snapshots: list[SparseResult] = field(default_factory=list)
    chosen_primes: list[int] = field(default_factory=list)
    bootstrap_reps: list[int] = field(default_factory=list)


class Plan(NamedTuple):
    """One attempt's plan: `reps` sketches on primes in [m, 2m], lossless
    folds of one dense product at m >= 2n-1 and cyclic sketches below."""

    m: int
    reps: int


def approx_plan(params: ApproxParams, n: int) -> Plan:
    """The cheapest plan for length-n inputs that separates every pair
    of significant indices in some sketch.

    The first candidate is the lossless plan (max(2n-1, 16), 2): its
    primes fold the dense product by the identity, so its 2 sketches
    separate every pair, and no larger base does better. Each hashing
    base m of _grid (below 2n-1) gets its count by _separation_reps; an
    m no count separates at is dropped. All are priced by route_price,
    the least price winning, ties going to the lossless plan and then to
    the larger m. Memoised on (k, delta, n): the seed changes no plan.
    ValueError unless n >= 1 is an integer.
    """
    return _plan(params.k, params.delta, as_int(n, "n", 1))


@functools.cache
def _plan(k: int, delta: float, n: int) -> Plan:
    lossless = max(2 * n - 1, 16)  # primes_in_range needs m >= 2
    priced = [(route_price(n, m, reps), m, reps) for m in _grid(k, n) if (reps := _separation_reps(k, delta, n, m))]
    # min keeps the first of equal prices, and the grid runs downward
    _, m, reps = min([(route_price(n, lossless, 2), lossless, 2), *priced], key=lambda c: c[0])
    return Plan(m, reps)


def _grid(k: int, n: int) -> list[int]:
    """Bases floor(top / 2^(j/4)) for j = 0, 1, ..., four per octave from
    top = 4k*ceil(log2 n)*ceil(log2 k) down to the floor of 16, those
    below 2n-1 alone: a base at or above it folds the product by the
    identity, as _plan's lossless plan does at the least price."""
    grid = [top := max(4 * k * ceil_log2(n) * max(ceil_log2(k), 1), 16)]
    while grid[-1] > 16:
        grid.append(max(int(top / 2 ** (len(grid) / 4)), 16))
    return [m for m in grid if not lossless(n, m)]


def _separation_reps(k: int, delta: float, n: int, m: int) -> int | None:
    """The least L >= 2 with C(k, 2) * rho^L <= delta/4 at modulus base
    m, or None when q = (k - 1) rho >= 1.

    With pi(m) the number of primes in [m, 2m], outputs x != y collide
    under p when p divides d = x - y, with 0 < |d| <= 2n - 2. r + 1
    distinct prime factors >= m would make m^(r+1) <= |d|, so d has at
    most r = _max_factors(n, m) of them, and a pair collides with
    probability <= rho = r / pi(m). A stuck peel, or a wrong C that
    peels clean, needs a set of significant indices each of which shares
    a bucket with another of the set in every stored sketch; a pair is
    the least such set, and some pair does so in all L sketches, each on
    a new prime, with <= C(k, 2) rho^L. Larger sets are left to the
    clean check and the replan at 2k. q < 1, under one expected partner
    per index per sketch, admits m. The floor of 2 lets _vote keep an
    index only on 2 agreeing records.
    """
    rho = _max_factors(n, m) / len(primes_in_range(m))
    if (k - 1) * rho >= 1:  # q >= 1 is not admitted
        return None
    return next(L for L in itertools.count(2) if k * (k - 1) / 2 * rho**L <= delta / 4)


def _max_factors(n: int, m: int) -> int:
    """The largest r with m^r <= 2n - 2, in integers: the float floor of
    log(2n - 2) / log(m) falls one short at exact powers (m = 48, r = 3)."""
    r, power = 0, m
    while power <= 2 * n - 2:
        r, power = r + 1, power * m
    return r


def _level_count(params: ApproxParams) -> int:
    # Grows like log log k; k <= 2 needs no contraction beyond the
    # vote, hence the floor of one level.
    lg = ceil_log2(params.k)
    if lg < 2:
        return 1
    return math.ceil(math.log(lg) / math.log(params.level_base))


def _stored(cache: SketchCache, params: ApproxParams, m: int, reps: int) -> Sketch:
    """One Sketch on `reps` primes in [m, 2m], distinct while any is new,
    repetition l's drawn from (seed, l), every prime drawn before one
    sketch is built (build_sketch's stages), at its heavy buckets."""
    primes: list[int] = []
    for l in range(1, reps + 1):
        rng = np.random.default_rng([params.seed, l])
        p = sample_prime(m, rng)
        while p in primes and len(primes) < len(primes_in_range(m)):
            p = sample_prime(m, rng)  # a prime drawn twice would count one sketch's votes twice
        primes.append(p)
    return build_sketch(cache.a, cache.b, primes, cache=cache).heavy(params.c1)


def _vote(stored: Sketch, params: ApproxParams) -> SparseResult:
    """The stored sketches' vote, from one extraction over every prime:
    each index's lower-median record, kept at max(2, ceil(min_votes_frac *
    reps)) records."""
    votes = extract_candidates(stored, params.c1, params.tau)
    order = np.lexsort((votes["value"], votes["index"]))
    index, value = votes["index"][order], votes["value"][order]
    starts = np.flatnonzero(np.diff(index, prepend=-1))  # indices are >= 0
    counts = np.diff(starts, append=len(index))
    kept = counts >= max(2, math.ceil(params.min_votes_frac * len(stored.primes)))
    lower_medians = starts[kept] + (counts[kept] - 1) // 2
    return SparseResult(zip(index[lower_medians].tolist(), value[lower_medians].tolist()))


def _level(peeled: Sketch, current: SparseResult, params: ApproxParams):
    """One level step on residual sketches: keep the prime exposing the
    most buckets >= c1 (ties to the earliest) and merge those of its
    candidates that hash into a bucket every prime holds (a stored
    sketch's heavy ones, where every significant index lies, as inputs
    are non-negative), so a collided bucket's in-class decode stays out
    of C; returns the new result and the chosen prime. Residuals
    exposing no bucket >= c1 have nothing to extract. FFT round-off can
    leave -0.0003-style ghosts, so a value at or below tau is noise-band
    and dropped unless it is >= c1."""
    exposed = np.bincount(peeled.keys[peeled.v >= params.c1] // peeled.K, minlength=len(peeled.primes))
    s = int(np.argmax(exposed))
    out = dict(current)
    if exposed[s]:
        found = extract_candidates(peeled.member(s), params.c1, params.tau)
        found = found[peeled.locate(found["index"])[1].reshape(len(peeled.primes), -1).all(axis=0)]
        for i, v in found.tolist():
            out[i] = out.get(i, 0.0) + v
    kept = SparseResult({i: v for i, v in out.items() if abs(v) > params.tau or abs(v) >= params.c1})
    return kept, int(peeled.primes[s])


def _peel(stored: Sketch, state: SparseResult, params: ApproxParams, trace: CorrectionTrace):
    """Run up to _level_count(params) level steps from `state` on the
    residuals of the stored heavy sketches, recording each in `trace`, up
    to the first that leaves C as it is; returns C and whether every
    stored sketch peels it clean: C's indices all in its buckets and
    |V| < c1 at each of them, as holds for a correct C, whose residual
    is noise."""
    for _ in range(_level_count(params)):
        prev, peeled = state, residual(stored, state)
        state, p = _level(peeled, state, params)
        trace.chosen_primes.append(p)
        trace.snapshots.append(SparseResult(state))
        if state == prev:
            break
    else:  # no fixed point: peel the final C for the check
        peeled = residual(stored, state)
    held = stored.locate(np.fromiter(state, np.int64, len(state)))[1]
    return state, bool(held.all() and np.all(np.abs(peeled.v) < params.c1))


def approx_sparse_convolve(
    a: np.ndarray, b: np.ndarray, params: ApproxParams, *, trace: CorrectionTrace | None = None,
) -> SparseResult:
    """Recover the significant entries of A*B with small point-wise error.

    With probability >= 1 - delta over the seed (on instances whose
    product splits into k entries >= c1 and noise <= c2 = o(n^-2)), the
    returned map has exactly the significant support and each value is
    within o(1) of the true one.

    Each attempt's plan separates every pair of significant indices in
    some stored sketch with probability >= 1 - delta/4 for any true k at
    or below its own, so no pair leaves the peel stuck, and a correct C
    then peels clean. An attempt whose peel is
    not clean is followed by one at 2k with fresh sketches, each with the
    whole delta, until a peel is clean or the plan is lossless (its
    sketches are the product itself). A call whose first peel is not
    clean raises one RuntimeWarning naming the given and the final k.

    Nothing is rounded: exact_sparse_convolve is this call's result
    rounded once, and float values are this call's. Only the ApproxParams
    fields of params are read. A given CorrectionTrace is filled with
    what the call ran.

    Deterministic given (a, b, params). approx_plan fixes each attempt's
    modulus and count, and its primes the route. Raises ValueError
    unless a and b are equal-length, finite, non-negative 1-D vectors.
    """
    a, b = dense_pair(a, b)
    trace = CorrectionTrace() if trace is None else trace
    trace.bootstrap_reps = []
    attempt = params
    while True:
        m, reps = approx_plan(attempt, len(a))
        stored = _stored(SketchCache(a, b), attempt, m, reps)
        state = _vote(stored, attempt)
        trace.bootstrap_reps.append(reps)
        trace.snapshots = [SparseResult(state)]
        trace.chosen_primes = []
        state, clean = _peel(stored, state, attempt, trace)
        if clean or lossless(len(a), m):
            break
        attempt = replace(attempt, k=2 * attempt.k)

    if attempt.k > params.k or not clean:
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__package__") == __package__:  # warn at either engine's caller
            frame, level = frame.f_back, level + 1
        warnings.warn(f"k={params.k} did not peel clean; the call ran to k={attempt.k}"
                      f"{'' if clean else ', still not clean'}: k is probably under-stated", RuntimeWarning, level)
    return state
