"""Hashed convolution sketches and the ratio trick.

A sketch for prime p is the pair (V, W): V folds the convolution mass
onto residues mod p, W folds the index-weighted mass. In a bucket whose
mass comes from a single output index x, W/V equals x and V equals the
output value, so (index, value) records can be read straight off
isolated buckets into one record array (extract_candidates), at indices
in [0, out_len) (each sketch carries its product's length, 2n-1) that
hash to the bucket they are read from.

Per the product rule, the index-weighted convolution splits as
dC = dA * B + A * dB (all at index base 0), which is what lets W be
assembled from folds of the inputs alone; fold(x, p, moment=True) gives
the folds of x and dx in one pass, so dA and dB are never built.

Two equivalent evaluation routes are used:

* cyclic route: fold A and B with their moments to length p and run
  cyclic convolutions, six transforms of pad_length(2p-1) points per
  sketch in three calls, one forward over each input's fold and moment
  as two rows and one inverse over the two spectrum products (cost
  scales with p, independent of n) - the output-sensitive path;
* dense route, taken when every prime is at least 2n-1: compute A*B
  once, three transforms of pad_length(2n-1) points, and fold it with
  its moment for every sketch, by the identity, so the sketch is exact.

Both give the same V and W up to FFT round-off, because folding commutes
with convolution; building A*B pays only where its fold loses nothing,
so the route follows the primes, and route_price prices a family on the
route its modulus [m, 2m] gives. build_sketch builds one
prime's sketch, or several primes' in stages: on the cyclic route it
folds A for every prime, then B, so each input stays cache-warm across
its folds, and only then transforms.

A Sketch holds the sketches of one or more primes as one record, in the
cell-table layout of invertible Bloom lookup tables: prime s's bucket b
at key s*K + b, K = max(primes) + 1, so keys increase. heavy(c1) keeps
the buckets with V >= c1, all extraction reads. residual subtracts a
sparse C's fold and moment at every bucket held, in O(|C|) per prime,
giving A*B - C's sketch there; as C >= 0, its buckets >= c1 are A*B's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fft import fft_convolve, fft_forward, fft_inverse_real, fold_linear_to_cyclic, pad_length, transform_work
# fold_sparse, the residual's reference, runs nowhere here; perfbench's layer
# trace looks it up here, and reads the sparse-fold count as absent without it
from .hashing import fold, fold_sparse  # noqa: F401
from .numerics import SparseResult, as_int, as_real, dense_pair

__all__ = [
    "Sketch",
    "SketchCache",
    "lossless",
    "route_price",
    "build_sketch",
    "build_residual_sketch",
    "residual",
    "extract_candidates",
]


@dataclass(frozen=True, eq=False)
class Sketch:
    """Folded convolution mass (v) and folded index-weighted mass (w) under
    each of `primes`, at increasing `keys`, prime s's bucket b at s*K + b,
    of a product of length out_len, whose output indices lie in [0, out_len)."""

    primes: np.ndarray
    keys: np.ndarray
    v: np.ndarray
    w: np.ndarray
    out_len: int

    @classmethod
    def of(cls, primes: Sequence[int], pairs: Sequence[np.ndarray], out_len: int) -> Sketch:
        """Every bucket of each prime's (V, W) pair, in the primes' order."""
        primes = np.array(primes, dtype=np.int64)
        K = int(primes.max()) + 1
        keys = np.concatenate([s * K + np.arange(p) for s, p in enumerate(primes)])
        return cls(primes, keys, *(np.concatenate([pair[i] for pair in pairs]) for i in (0, 1)), out_len)

    @property
    def K(self) -> int:
        return int(self.primes.max()) + 1

    def heavy(self, c1: float) -> Sketch:
        """This sketch at its buckets with V >= c1 alone."""
        keep = self.v >= c1
        return Sketch(self.primes, self.keys[keep], self.v[keep], self.w[keep], self.out_len)

    def member(self, s: int) -> Sketch:
        """Prime s's sketch alone."""
        lo, hi = np.searchsorted(self.keys, [s * self.K, (s + 1) * self.K])
        return Sketch(self.primes[s : s + 1], self.keys[lo:hi] - s * self.K, self.v[lo:hi], self.w[lo:hi], self.out_len)

    def locate(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each prime keeps each index's bucket, prime by prime and
        in the indices' order within one, and whether it holds it."""
        q = (np.arange(len(self.primes))[:, None] * self.K + indices % self.primes[:, None]).ravel()
        at = np.searchsorted(self.keys, q)
        held = at < len(self.keys)
        held[held] = self.keys[at[held]] == q[held]
        return at, held


# Besides fft_work(), route_price charges each transform TRANSFORM_WORK
# more (call overhead, spectrum products), and each sketch FOLD_WORK per
# input entry folded with its moment plus SKETCH_WORK for the rest
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


def lossless(n: int, m: int) -> bool:
    """Whether every prime p >= m folds length-n inputs' product, 2n-1 long, by the identity."""
    return m >= 2 * n - 1


def route_price(n: int, m: int, count: int) -> float:
    """fft_work() units for `count` sketches with primes in [m, 2m] on
    length-n inputs: at m >= 2n-1 the dense route's three transforms of
    pad_length(2n-1) points, once, and below it the cyclic route's six of
    pad_length(3m-1) points per sketch, at the family's middle prime
    (within 12% of the mean over [m, 2m]'s primes for m = 16-447 and 6%
    for m >= 448, at approx_plan's moduli). Each
    transform costs TRANSFORM_WORK over its work, and each sketch
    FOLD_WORK for each of the 2n entries it folds with their moment (the
    two inputs, or the dense product) plus SKETCH_WORK, on either route.
    """
    if lossless(n, m):
        transforms = 3 * (transform_work(pad_length(2 * n - 1)) + TRANSFORM_WORK)
    else:
        transforms = count * 6 * (transform_work(pad_length(3 * m - 1)) + TRANSFORM_WORK)
    return count * (FOLD_WORK * 2 * n + SKETCH_WORK) + transforms


class SketchCache:
    """One (A, B) pair shared by one sketch family (an engine call's, or a
    level's), held by reference and checked by the call that built it;
    build_sketch and build_residual_sketch given one take it as their
    inputs, and build A*B by dense_products for a lossless family."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    def dense_products(self) -> np.ndarray:
        # folding it with its moment gives dA*B + A*dB's fold as well
        return fft_convolve(self.a, self.b)


def build_sketch(
    a: np.ndarray,
    b: np.ndarray,
    p: int | Sequence[int],
    cache: SketchCache | None = None,
) -> Sketch:
    """The (V, W) pair for prime p, or, given a sequence of primes, each
    one's built in stages, as one Sketch at every bucket, in the primes'
    order (one prime's bucket b is its key b).

    V = cyc_p(fold(A), fold(B)) and
    W = cyc_p(fold(dA), fold(B)) + cyc_p(fold(A), fold(dB)).

    Each input is read once per prime, by fold(X, p, moment=True). The
    route follows the primes: when every one is at least 2n-1, for the
    inputs' length n, the sketch folds the dense product A*B by the
    identity, its FFT work charged once; otherwise the cyclic route folds
    A for every prime, then B, and then transforms each prime's pair in
    three calls: one forward over each input's (fold, moment) rows,
    fold(A)'s and fold(B)'s spectra shared between V and W, and one
    inverse over V's product and W's two products merged in the spectrum
    domain, 4 forward + 2 inverse transforms per prime. Inputs are the
    cache's, or else a and b, checked by dense_pair. Its out_len is 2n-1.
    ValueError, before anything is transformed, unless p is an integer
    >= 1 or a nonempty sequence of them.
    """
    if cache is None:
        cache = SketchCache(*dense_pair(a, b))
    primes = [as_int(q, "p", 1) for q in ([p] if np.ndim(p) == 0 else p)]
    if not primes:
        raise ValueError("p must hold at least one prime")
    if lossless(len(cache.a), min(primes)):
        product = cache.dense_products()
        pairs = [fold(product, q, moment=True) for q in primes]
    else:
        folds = [[fold(x, q, moment=True) for q in primes] for x in (cache.a, cache.b)]
        pairs = [_cyclic_pair(q, fa, fb) for q, fa, fb in zip(primes, *folds)]
    return Sketch.of(primes, pairs, 2 * len(cache.a) - 1)


def _cyclic_pair(p: int, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Prime p's (V, W) rows from the (fold, moment) rows of A and of B."""
    size = pad_length(2 * p - 1)
    (sa, sda), (sb, sdb) = fft_forward(fa, size), fft_forward(fb, size)
    products = np.empty((2, size // 2 + 1), dtype=complex)
    np.multiply(sa, sb, out=products[0])
    np.add(sda * sb, sa * sdb, out=products[1])
    return fold_linear_to_cyclic(fft_inverse_real(products, size)[:, : 2 * p - 1], p)


def build_residual_sketch(
    a: np.ndarray,
    b: np.ndarray,
    c_prev: SparseResult,
    p: int | Sequence[int],
    cache: SketchCache | None = None,
) -> Sketch:
    """Sketch of A*B minus a sparse partial reconstruction, the residual
    of build_sketch's, for a prime or a sequence of them, on the same
    route; V entries can go negative where C_prev overshoots. Inputs and
    checks are build_sketch's."""
    return residual(build_sketch(a, b, p, cache=cache), c_prev)


def residual(s: Sketch, c: SparseResult) -> Sketch:
    """s minus C's fold and its moment's at every bucket s holds: one
    searchsorted finds each of C's indices' bucket under every prime, and
    two bincounts sum C's values and index-weighted values there in C's
    order from 0.0, as fold_sparse does. ValueError unless C's indices
    lie in [0, s.out_len)."""
    index = np.fromiter(c.keys(), np.int64, len(c))
    value = np.fromiter(c.values(), np.float64, len(c))
    if index.size and (index.min() < 0 or index.max() >= s.out_len):
        raise ValueError("sparse index out of range")
    at, held = s.locate(index)
    fc, fdc = (np.bincount(at[held], np.tile(x, len(s.primes))[held], len(s.keys)) for x in (value, index * value))
    return Sketch(s.primes, s.keys, s.v - fc, s.w - fdc, s.out_len)


def extract_candidates(s: Sketch, c1: float, tau: float) -> np.recarray:
    """Read (index, value) pairs off buckets with V_i >= c1, under every
    prime of s at once.

    A bucket is accepted when its ratio W_i/V_i is within tau of an
    integer inside [0, s.out_len) that hashes to the bucket itself (is
    congruent to its number mod its prime, the pure-cell check of
    invertible Bloom lookup tables); everything else is silently rejected
    (collisions and corrupted residuals produce off-integer, out-of-range
    or out-of-class ratios). Returns a record array of the accepted
    buckets' index (int64) and value (float64) fields, in key order.
    ValueError unless c1 lies in (0, inf) and tau in (0, 0.5).
    """
    as_real(c1, "c1", "(0, inf)")
    as_real(tau, "tau", "(0, 0.5)")
    at = np.flatnonzero(s.v >= c1)
    ratio = s.w[at] / s.v[at]
    finite = np.isfinite(ratio)
    at, ratio = at[finite], ratio[finite]
    # half-away-from-zero, as round_to_int
    nearest = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio)
    prime, bucket = np.divmod(s.keys[at], s.K)
    keep = (np.abs(ratio - nearest) <= tau) & (nearest >= 0) & (nearest < s.out_len) & (nearest % s.primes[prime] == bucket)
    return np.rec.fromarrays([nearest[keep], s.v[at[keep]]], dtype=[("index", np.int64), ("value", np.float64)])
