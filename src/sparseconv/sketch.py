"""Hashed convolution sketches and the ratio trick.

A sketch for prime p is the pair (V, W): V folds the convolution mass
onto residues mod p, W folds the index-weighted mass. In a bucket whose
mass comes from a single output index x, W/V equals x and V equals the
output value, so (index, value) pairs can be read straight off isolated
buckets.

Per the product rule, the index-weighted convolution splits as
dC = dA * B + A * dB (all at index base 0), which is what lets W be
assembled from folds of the inputs alone.

Two equivalent evaluation routes are used:

* cyclic route: fold A, B, dA and dB to length p and run cyclic
  convolutions, six transforms of length pad(2p-1) per sketch (FFT cost
  scales with p, independent of n) - the output-sensitive path;
* dense route: compute A*B and its index-weighted copy once, three
  transforms of length pad(2n-1), and fold that pair for every sketch.

Both give the same V and W up to FFT round-off, because folding commutes
with convolution, so the route is a cost choice. dense_route() makes it
once per engine call: the call's sketches all draw primes from [m, 2m],
and their cyclic transforms, priced at the smallest prime, are weighed
against the one dense product in fft_work() units. Folds cost about the
same on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fft import fft_convolve, fft_forward, fft_inverse_real, fold_linear_to_cyclic, pad_length, transform_work
from .hashing import fold, fold_sparse
from .numerics import SparseResult, derivative, round_to_int

__all__ = [
    "Sketch",
    "Candidate",
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


@dataclass(frozen=True)
class Candidate:
    index: int
    value: float


def dense_route(n: int, m: int, count: int) -> bool:
    """Whether the `count` sketches of one call on length-n inputs, with
    primes in [m, 2m], should fold one shared dense product.

    Prices both routes in fft_work() units: six cyclic transforms per
    sketch at the smallest prime against the three transforms of the
    dense product, which is built once.
    """
    return count * 2 * transform_work(pad_length(2 * m - 1)) >= transform_work(pad_length(2 * n - 1))


class SketchCache:
    """Arrays derived from one (A, B) pair, shared by the sketches of one
    engine call, which all take the route `dense` fixes (see dense_route).

    The dense route builds the product pair up front and its FFT work is
    charged once; the cyclic route builds the input derivatives instead.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, dense: bool):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.dense = dense
        if dense:
            self.conv, self.dconv = self.dense_products()
        else:
            self.da = derivative(self.a, 0)
            self.db = derivative(self.b, 0)

    def dense_products(self) -> tuple[np.ndarray, np.ndarray]:
        conv = fft_convolve(self.a, self.b)
        # index-weighting the product equals dA*B + A*dB exactly
        return conv, np.arange(len(conv), dtype=np.float64) * conv


def build_sketch(
    a: np.ndarray,
    b: np.ndarray,
    p: int,
    cache: SketchCache | None = None,
) -> Sketch:
    """Build the (V, W) pair for prime p.

    V = cyc_p(fold(A), fold(B)) and
    W = cyc_p(fold(dA), fold(B)) + cyc_p(fold(A), fold(dB)).

    The cyclic route shares the forward transforms of fold(A), fold(B)
    between V and W and merges W's two products in the spectrum domain:
    4 forward + 2 inverse transforms per sketch. The route is the cache's;
    without a cache, dense_route decides for this sketch alone.
    """
    if cache is None:
        cache = SketchCache(a, b, dense_route(len(a), p, 1))
    if cache.dense:
        return Sketch(p, fold(cache.conv, p), fold(cache.dconv, p))

    fa_ = fold(cache.a, p)
    fb_ = fold(cache.b, p)
    fda = fold(cache.da, p)
    fdb = fold(cache.db, p)
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

    Subtracts fold(C_prev) from V and fold(dC_prev) from W; the partial
    result is folded sparsely in O(|C_prev|). V entries can go negative
    where C_prev overshoots.
    """
    if cache is None:
        cache = SketchCache(a, b, dense_route(len(a), p, 1))
    base = build_sketch(a, b, p, cache=cache)
    universe = 2 * len(cache.a) - 1
    idx = list(c_prev.entries.keys())
    val = list(c_prev.entries.values())
    v = base.v - fold_sparse(idx, val, p, universe)
    dval = [i * x for i, x in zip(idx, val)]
    w = base.w - fold_sparse(idx, dval, p, universe)
    return Sketch(p, v, w)


def extract_candidates(s: Sketch, c1: float, tau: float, out_len: int) -> list[Candidate]:
    """Read (index, value) pairs off buckets with V_i >= c1.

    A bucket is accepted when its ratio W_i/V_i is within tau of an
    integer inside [0, out_len); everything else is silently rejected
    (collisions and corrupted residuals produce off-integer or
    out-of-range ratios). Candidates come back in bucket order.
    """
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    if not 0 < tau < 0.5:
        raise ValueError("tau must lie in (0, 0.5)")
    buckets = np.flatnonzero(s.v >= c1)
    out: list[Candidate] = []
    for i in buckets:
        ratio = s.w[i] / s.v[i]
        if not np.isfinite(ratio):
            continue
        nearest = round_to_int(float(ratio))
        if abs(ratio - nearest) <= tau and 0 <= nearest < out_len:
            out.append(Candidate(nearest, float(s.v[i])))
    return out
