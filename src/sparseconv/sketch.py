"""Hashed convolution sketches and the ratio trick.

A sketch for prime p is the pair (V, W): V folds the convolution mass
onto residues mod p, W folds the index-weighted mass. In a bucket whose
mass comes from a single output index x, W/V equals x and V equals the
output value, so (index, value) records can be read straight off
isolated buckets into one record array (extract_candidates).

Per the product rule, the index-weighted convolution splits as
dC = dA * B + A * dB (all at index base 0), which is what lets W be
assembled from folds of the inputs alone; fold(x, p, moment=True) gives
the folds of x and dx in one pass, so dA and dB are never built.

Two equivalent evaluation routes are used:

* cyclic route: fold A and B with their moments to length p and run
  cyclic convolutions, six transforms of pad_length(2p-1) points per
  sketch (cost scales with p, independent of n) - the output-sensitive path;
* dense route: compute A*B once, three transforms of pad_length(2n-1)
  points, and fold it with its moment for every sketch.

Both give the same V and W up to FFT round-off, because folding commutes
with convolution, so the route is a cost choice. dense_route() makes it
once per engine call, from the call's one plan: its cyclic transforms,
each priced at the middle prime 3m/2 of the plan's [m, 2m], are weighed
against the one dense product in fft_work() units. Folds cost about the
same on both routes.

A residual sketch subtracts fold_sparse's (fold, moment) pair for a
sparse partial result C, in O(|C|): it is the sketch of A*B - C. As
C >= 0, its buckets >= c1 are among A*B's, which _peeled reads alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fft import fft_convolve, fft_forward, fft_inverse_real, fold_linear_to_cyclic, pad_length, transform_work
from .hashing import fold, fold_sparse
from .numerics import SparseResult, dense_pair

__all__ = [
    "Sketch",
    "SketchCache",
    "dense_route",
    "build_sketch",
    "build_residual_sketch",
    "extract_candidates",
]


@dataclass(frozen=True, eq=False)
class Sketch:
    """Folded convolution mass (v) and folded index-weighted mass (w)
    for one prime modulus."""

    p: int
    v: np.ndarray
    w: np.ndarray


def dense_route(n: int, plan: tuple[int, int]) -> bool:
    """Whether one call's sketches on length-n inputs, `count` of them with
    primes in [m, 2m] for its plan (m, count), should fold one dense product.

    Prices both routes in fft_work() units: six cyclic transforms of
    pad_length(3m-1) points per sketch, at the family's middle prime
    (within 3% of the mean over [m, 2m]'s primes, m = 448-40,960),
    against the dense product's three, which it builds once.
    """
    m, count = plan
    return count * 2 * transform_work(pad_length(3 * m - 1)) >= transform_work(pad_length(2 * n - 1))


class SketchCache:
    """Arrays derived from one (A, B) pair, shared by the sketches of one
    engine call, which all take the route `dense` fixes (see dense_route).

    A and B are held by reference and were checked by whoever built the
    cache; a call given one takes them as its inputs. The dense route
    builds the product A*B up front and its FFT work is charged once; the
    cyclic route folds the inputs themselves.
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
    p: int,
    cache: SketchCache | None = None,
) -> Sketch:
    """Build the (V, W) pair for prime p.

    V = cyc_p(fold(A), fold(B)) and
    W = cyc_p(fold(dA), fold(B)) + cyc_p(fold(A), fold(dB)).

    Each input is read once, by fold(X, p, moment=True). The cyclic route
    shares the forward transforms of fold(A), fold(B) between V and W and
    merges W's two products in the spectrum domain: 4 forward + 2 inverse
    transforms per sketch. Route and inputs are the cache's; without one,
    dense_pair checks a and b and dense_route decides for this sketch alone.
    """
    if cache is None:
        a, b = dense_pair(a, b)
        cache = SketchCache(a, b, dense_route(len(a), (p, 1)))
    if cache.dense:
        return Sketch(p, *fold(cache.conv, p, moment=True))

    fa_, fda = fold(cache.a, p, moment=True)
    fb_, fdb = fold(cache.b, p, moment=True)
    size = pad_length(2 * p - 1)
    sa = fft_forward(fa_, size)
    sb = fft_forward(fb_, size)
    sda = fft_forward(fda, size)
    sdb = fft_forward(fdb, size)
    v_full = fft_inverse_real(sa * sb, size)[: 2 * p - 1]
    w_full = fft_inverse_real(sda * sb + sa * sdb, size)[: 2 * p - 1]
    return Sketch(p, fold_linear_to_cyclic(v_full, p), fold_linear_to_cyclic(w_full, p))


def build_residual_sketch(
    a: np.ndarray,
    b: np.ndarray,
    c_prev: SparseResult,
    p: int,
    cache: SketchCache | None = None,
) -> Sketch:
    """Sketch of A*B minus a sparse partial reconstruction.

    Subtracts fold_sparse's pair for C_prev, its fold and its moment's,
    from (V, W) in O(|C_prev|). V entries can go negative where C_prev
    overshoots. Inputs and the output length are the given cache's, or
    else a and b, checked as in build_sketch.
    """
    sk = build_sketch(a, b, p, cache=cache)
    n = len(a if cache is None else cache.a)
    fc, fdc = fold_sparse(c_prev.entries.keys(), c_prev.entries.values(), p, 2 * n - 1)
    # in place: a sketch's arrays are its own, and p can reach 4n
    np.subtract(sk.v, fc, out=sk.v)
    np.subtract(sk.w, fdc, out=sk.w)
    return sk


def _peeled(heavy: tuple[np.ndarray, Sketch], c_prev: SparseResult, out_len: int) -> Sketch:
    """build_residual_sketch at a sketch's heavy buckets, from the
    (buckets, Sketch(p, V[buckets], W[buckets])) approx_sparse_convolve
    stores; extract_candidates reads it like a full sketch."""
    buckets, top = heavy
    fc, fdc = fold_sparse(c_prev.entries.keys(), c_prev.entries.values(), top.p, out_len)
    return Sketch(top.p, top.v - fc[buckets], top.w - fdc[buckets])


def extract_candidates(s: Sketch, c1: float, tau: float, out_len: int) -> np.recarray:
    """Read (index, value) pairs off buckets with V_i >= c1.

    A bucket is accepted when its ratio W_i/V_i is within tau of an
    integer inside [0, out_len); everything else is silently rejected
    (collisions and corrupted residuals produce off-integer or
    out-of-range ratios). Returns a record array of the accepted buckets'
    index (int64) and value (float64) fields, in bucket order.
    """
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    if not 0 < tau < 0.5:
        raise ValueError("tau must lie in (0, 0.5)")
    buckets = np.flatnonzero(s.v >= c1)
    ratio = s.w[buckets] / s.v[buckets]
    finite = np.isfinite(ratio)
    buckets, ratio = buckets[finite], ratio[finite]
    # half-away-from-zero, as round_to_int
    nearest = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio)
    keep = (np.abs(ratio - nearest) <= tau) & (nearest >= 0) & (nearest < out_len)
    return np.rec.fromarrays([nearest[keep], s.v[buckets[keep]]], dtype=[("index", np.int64), ("value", np.float64)])
