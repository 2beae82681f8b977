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
* dense route: compute A*B once, three transforms of pad_length(2n-1)
  points, and fold it with its moment for every sketch.

Both give the same V and W up to FFT round-off, because folding commutes
with convolution, so the route is a cost choice, made once per sketch
family (a SketchCache) by route_price, which prices the family by each
route, cyclic transforms at the middle prime 3m/2 of its [m, 2m], and
takes the cheaper. A one-off sketch, without a cache, takes the cyclic route.
build_sketch builds one prime's sketch, or a family's in stages: on the
cyclic route it folds A for every prime, then B, so each input stays
cache-warm across its folds, and only then transforms.

A sketch may hold some of its buckets only (Sketch.buckets): heavy(c1)
keeps those with V >= c1, all extraction reads. residual subtracts a
sparse C's fold_sparse (fold, moment) pair at a sketch's buckets in
O(|C|), giving A*B - C's sketch there; as C >= 0, its buckets >= c1 are A*B's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fft import fft_convolve, fft_forward, fft_inverse_real, fold_linear_to_cyclic, pad_length, transform_work
from .hashing import fold, fold_sparse
from .numerics import SparseResult, as_real, dense_pair

__all__ = [
    "Sketch",
    "SketchCache",
    "route_price",
    "build_sketch",
    "build_residual_sketch",
    "residual",
    "extract_candidates",
]


@dataclass(frozen=True, eq=False)
class Sketch:
    """Folded convolution mass (v) and folded index-weighted mass (w) for
    one prime modulus, at the increasing bucket numbers `buckets` (None: all),
    of a product of length out_len, whose output indices lie in [0, out_len).
    Several sketches read as one (sparseconv.approx's family) hold each
    bucket's prime in p, an array aligned with v."""

    p: int | np.ndarray
    v: np.ndarray
    w: np.ndarray
    out_len: int
    buckets: np.ndarray | None = None

    def heavy(self, c1: float) -> Sketch:
        """This sketch at its buckets with V >= c1 alone."""
        keep = np.flatnonzero(self.v >= c1)
        buckets = keep if self.buckets is None else self.buckets[keep]
        return Sketch(self.p, self.v[keep], self.w[keep], self.out_len, buckets)


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


def route_price(n: int, m: int, count: int) -> tuple[float, bool]:
    """fft_work() units for `count` sketches with primes in [m, 2m] on
    length-n inputs by the cheaper route, and whether that is the dense
    one (ties go dense).

    The cyclic route runs six transforms of pad_length(3m-1) points per
    sketch, at the family's middle prime (within 12% of the mean over
    [m, 2m]'s primes for m = 16-447 and 6% for m >= 448, at approx_plan's
    moduli); the dense route runs the product's three, once. Each
    transform costs TRANSFORM_WORK over its work, and each sketch
    FOLD_WORK for each of the 2n entries it folds with their moment (the
    two inputs, or the dense product) plus SKETCH_WORK, on either route.
    """
    dense = 3 * (transform_work(pad_length(2 * n - 1)) + TRANSFORM_WORK)
    cyclic = count * 6 * (transform_work(pad_length(3 * m - 1)) + TRANSFORM_WORK)
    return count * (FOLD_WORK * 2 * n + SKETCH_WORK) + min(dense, cyclic), dense <= cyclic


class SketchCache:
    """Arrays derived from one (A, B) pair, shared by one sketch family (an
    engine call's, or a level's), all on the route `dense` fixes.

    A and B are held by reference, checked by the call that built the
    cache; build_sketch and build_residual_sketch given one take them as
    their inputs. The dense route builds A*B up front and its FFT work is
    charged once; the cyclic route folds the inputs themselves.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, dense: bool):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.dense = dense
        if dense:
            self.conv = self.dense_products()

    def dense_products(self) -> np.ndarray:
        # folding it with its moment gives dA*B + A*dB's fold as well
        return fft_convolve(self.a, self.b)


def build_sketch(
    a: np.ndarray,
    b: np.ndarray,
    p: int | Sequence[int],
    cache: SketchCache | None = None,
) -> Sketch | list[Sketch]:
    """Build the (V, W) pair for prime p, or, given a sequence of primes,
    each one's pair in stages, as a list in the primes' order.

    V = cyc_p(fold(A), fold(B)) and
    W = cyc_p(fold(dA), fold(B)) + cyc_p(fold(A), fold(dB)).

    Each input is read once per prime, by fold(X, p, moment=True). The
    cyclic route folds A for every prime, then B, and then transforms
    each sketch in three calls: one forward over each input's (fold,
    moment) rows, fold(A)'s and fold(B)'s spectra shared between V and
    W, and one inverse over V's product and W's two products merged in
    the spectrum domain, 4 forward + 2 inverse transforms per sketch.
    The dense route folds the cache's product once per prime. Route and
    inputs are the cache's; without one, dense_pair checks a and b and
    the sketches take the cyclic route. A sketch's out_len is 2n-1 for
    the inputs' length n. fold checks each prime, before anything is
    transformed.
    """
    if cache is None:
        cache = SketchCache(*dense_pair(a, b), dense=False)
    primes = [p] if np.ndim(p) == 0 else list(p)
    out_len = 2 * len(cache.a) - 1
    if cache.dense:
        sketches = [Sketch(q, *fold(cache.conv, q, moment=True), out_len) for q in primes]
    else:
        folds = [[fold(x, q, moment=True) for q in primes] for x in (cache.a, cache.b)]
        sketches = [_cyclic_sketch(q, fa, fb, out_len) for q, fa, fb in zip(primes, *folds)]
    return sketches if np.ndim(p) else sketches[0]


def _cyclic_sketch(p: int, fa: np.ndarray, fb: np.ndarray, out_len: int) -> Sketch:
    """Prime p's sketch from the (fold, moment) rows of A and of B."""
    size = pad_length(2 * p - 1)
    (sa, sda), (sb, sdb) = fft_forward(fa, size), fft_forward(fb, size)
    products = np.empty((2, size // 2 + 1), dtype=complex)
    np.multiply(sa, sb, out=products[0])
    np.add(sda * sb, sa * sdb, out=products[1])
    v, w = fold_linear_to_cyclic(fft_inverse_real(products, size)[:, : 2 * p - 1], p)
    return Sketch(p, v, w, out_len)


def build_residual_sketch(
    a: np.ndarray,
    b: np.ndarray,
    c_prev: SparseResult,
    p: int,
    cache: SketchCache | None = None,
) -> Sketch:
    """Sketch of A*B minus a sparse partial reconstruction, the residual
    of build_sketch's, on the same route; V entries can go negative where
    C_prev overshoots. Inputs are the given cache's, or else a and b,
    checked as in build_sketch."""
    return residual(build_sketch(a, b, p, cache=cache), c_prev)


def residual(s: Sketch, c: SparseResult) -> Sketch:
    """s minus fold_sparse's pair for C, its fold and its moment's, at
    s's buckets, in O(|C|); C's indices lie in [0, s.out_len)."""
    fc, fdc = fold_sparse(c.keys(), c.values(), s.p, s.out_len)
    if s.buckets is not None:
        fc, fdc = fc[s.buckets], fdc[s.buckets]
    return Sketch(s.p, s.v - fc, s.w - fdc, s.out_len, s.buckets)


def extract_candidates(s: Sketch, c1: float, tau: float) -> np.recarray:
    """Read (index, value) pairs off buckets with V_i >= c1; s may be a
    family read as one sketch, with a prime per bucket.

    A bucket is accepted when its ratio W_i/V_i is within tau of an
    integer inside [0, s.out_len) that hashes to the bucket itself (is
    congruent to its number mod p, the pure-cell check of invertible
    Bloom lookup tables); everything else is silently rejected
    (collisions and corrupted residuals produce off-integer, out-of-range
    or out-of-class ratios). Returns a record array of the accepted
    buckets' index (int64) and value (float64) fields, in bucket order.
    ValueError unless c1 lies in (0, inf) and tau in (0, 0.5).
    """
    as_real(c1, "c1", "(0, inf)")
    as_real(tau, "tau", "(0, 0.5)")
    buckets = np.flatnonzero(s.v >= c1)
    ratio = s.w[buckets] / s.v[buckets]
    finite = np.isfinite(ratio)
    buckets, ratio = buckets[finite], ratio[finite]
    # half-away-from-zero, as round_to_int
    nearest = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio)
    bucket = buckets if s.buckets is None else s.buckets[buckets]
    p = s.p[buckets] if np.ndim(s.p) else s.p
    keep = (np.abs(ratio - nearest) <= tau) & (nearest >= 0) & (nearest < s.out_len) & (nearest % p == bucket)
    return np.rec.fromarrays([nearest[keep], s.v[buckets[keep]]], dtype=[("index", np.int64), ("value", np.float64)])
