"""Property tests for the identities the recovery engines rest on:
folding commutes with convolution, one pass folds a vector and its
index-weighted copy alike, from its dense or its sparse form, an
isolated bucket's W/V ratio names its output index, and at a lossless
modulus every residual sketch is the residual itself. A heavy sketch's
residual for a non-negative partial result is the full sketch's
residual at its buckets, bit for bit, and loses none of its heavy
buckets. Vectorised extraction is checked against the bucket-by-bucket
loop it replaced. Transforms pad to the next
2^a * 3^b * 5^c length and are charged N * log2(N). The engines'
starting count is the least one, from 3 up to its cap, meeting its
isolation bound, and never grows with delta, and approx is exact
without rounding, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparseconv.approx import ApproxParams, approx_plan, approx_sparse_convolve
from sparseconv.exact import ExactParams, exact_sparse_convolve, isolation_reps
from sparseconv.fft import cyclic_convolve, fft_convolve, pad_length, transform_work
from sparseconv.hashing import fold, fold_sparse, primes_in_range
from sparseconv.numerics import SparseResult, naive_convolve, round_to_int
from sparseconv.sketch import Sketch, SketchCache, build_residual_sketch, build_sketch, extract_candidates, residual

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


@PROPERTY
@given(st.data())
def test_fold_commutes_with_convolution_for_any_modulus(data):
    # p ranges past 2n-1, where folding is the identity embedding
    n = data.draw(st.integers(1, 64), label="n")
    p = data.draw(st.integers(1, 4 * n), label="p")
    vectors = arrays(np.float64, n, elements=st.floats(0, 10))
    a, b = data.draw(vectors, label="a"), data.draw(vectors, label="b")
    lhs = fold(naive_convolve(a, b), p)
    rhs = cyclic_convolve(fold(a, p), fold(b, p), p)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * (1 + a.sum() * b.sum()))


@PROPERTY
@given(st.data())
def test_moment_fold_matches_folding_the_weighted_copy(data):
    n = data.draw(st.integers(1, 4096), label="n")
    p = data.draw(st.integers(1, 4 * n), label="p")
    a = data.draw(arrays(np.float64, n, elements=st.floats(0, 10)), label="a")
    v, w = fold(a, p, moment=True)
    np.testing.assert_array_equal(v, fold(a, p))
    np.testing.assert_allclose(w, fold(np.arange(n) * a, p), rtol=1e-12, atol=0)
    # the sparse form of a gives the same pair, below and above p = n
    support = np.flatnonzero(a)
    sparse_v, sparse_w = fold_sparse(support, a[support], p, n)
    np.testing.assert_allclose(sparse_v, v, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sparse_w, w, rtol=1e-12, atol=0)


@PROPERTY
@given(
    st.data(),
    st.booleans(),
    st.floats(1, 10),
    st.floats(1, 10),
)
def test_single_significant_entry_is_read_back_exactly(data, dense, u, v):
    n = data.draw(st.integers(1, 256), label="n")
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
    p = data.draw(st.integers(1, 4 * n), label="p")
    a, b = np.zeros(n), np.zeros(n)
    a[i], b[j] = u, v
    sk = build_sketch(a, b, p, cache=SketchCache(a, b, dense=dense))
    (cand,) = extract_candidates(sk, c1=0.5, tau=0.25, out_len=2 * n - 1)
    assert cand.index == i + j
    assert abs(cand.value - u * v) <= 1e-9 * u * v


@PROPERTY
@given(st.data())
def test_residual_sketch_at_a_lossless_prime_is_the_residual(data):
    n = data.draw(st.integers(1, 64), label="n")
    out_len = 2 * n - 1
    primes = np.union1d(primes_in_range(max(out_len, 2)), primes_in_range(4 * n)).tolist()
    p, q = data.draw(st.sampled_from(primes), label="p"), data.draw(st.sampled_from(primes), label="q")
    vectors = arrays(np.float64, n, elements=st.floats(0, 10))
    a, b = data.draw(vectors, label="a"), data.draw(vectors, label="b")
    partial = SparseResult(data.draw(
        st.dictionaries(st.integers(0, out_len - 1), st.floats(0.5, 100), max_size=8), label="c"
    ))
    conv, index, c = fft_convolve(a, b), np.arange(out_len), partial.to_dense(out_len)
    for prime in (p, q):
        sk = build_residual_sketch(a, b, partial, prime)
        assert np.array_equal(sk.v[:out_len], conv - c)
        assert np.array_equal(sk.w[:out_len], index * conv - index * c)
        assert not sk.v[out_len:].any() and not sk.w[out_len:].any()


@PROPERTY
@given(st.data(), st.floats(0.1, 10))
def test_peeled_heavy_buckets_are_the_residual_sketchs_heavy_buckets(data, c1):
    n = data.draw(st.integers(1, 64), label="n")
    out_len = 2 * n - 1
    # lossy primes in [n/2, n] and lossless ones in [2n, 4n]
    primes = np.union1d(primes_in_range(max(n // 2, 2)), primes_in_range(2 * n)).tolist()
    p = data.draw(st.sampled_from(primes), label="p")
    vectors = arrays(np.float64, n, elements=st.floats(0, 10))
    a, b = data.draw(vectors, label="a"), data.draw(vectors, label="b")
    partial = SparseResult(data.draw(
        st.dictionaries(st.integers(0, out_len - 1), st.floats(0, 100), max_size=8), label="c"
    ))
    sk = build_sketch(a, b, p)
    top = sk.heavy(c1)  # what approx_sparse_convolve stores
    assert np.array_equal(top.buckets, np.flatnonzero(sk.v >= c1))
    peeled, full = residual(top, partial, out_len), residual(sk, partial, out_len)
    assert np.array_equal(peeled.buckets, top.buckets)
    assert np.array_equal(peeled.v, full.v[top.buckets])
    assert np.array_equal(peeled.w, full.w[top.buckets])
    # C >= 0 only lowers buckets, so none rises to c1 outside the stored ones
    assert set(np.flatnonzero(full.v >= c1)) <= set(top.buckets)


def extract_by_loop(s, c1, tau, out_len):
    out = []
    for i in np.flatnonzero(s.v >= c1):
        ratio = s.w[i] / s.v[i]
        if not np.isfinite(ratio):
            continue
        nearest = round_to_int(float(ratio))
        if abs(ratio - nearest) <= tau and 0 <= nearest < out_len:
            out.append((nearest, float(s.v[i])))
    return out


@PROPERTY
@given(st.data(), st.floats(0.1, 2), st.floats(0.01, 0.49), st.integers(1, 200))
def test_extraction_matches_the_bucket_loop(data, c1, tau, out_len):
    p = data.draw(st.integers(1, 64), label="p")
    v = data.draw(arrays(np.float64, p, elements=st.floats(-10, 1e3)), label="v")
    ratios = st.one_of(st.floats(-50, 250), st.integers(-5, 205).map(float))
    w = v * data.draw(arrays(np.float64, p, elements=ratios), label="ratio")
    w[data.draw(st.lists(st.integers(0, p - 1), max_size=3), label="bad")] = data.draw(
        st.sampled_from([np.inf, -np.inf, np.nan]), label="bad value"
    )
    s = Sketch(p, v, w)
    assert extract_candidates(s, c1, tau, out_len).tolist() == extract_by_loop(s, c1, tau, out_len)


def _is_5_smooth(x):
    for f in (2, 3, 5):
        while x % f == 0:
            x //= f
    return x == 1


@PROPERTY
@given(st.integers(1, 2**20))
def test_pad_length_is_the_next_5_smooth_length(x):
    n = pad_length(x)
    assert n >= x and _is_5_smooth(n)
    assert not any(_is_5_smooth(y) for y in range(x, n))


@PROPERTY
@given(st.integers(0, 40))
def test_powers_of_two_pad_to_themselves_and_cost_t_times_2_to_the_t(t):
    assert pad_length(2**t) == 2**t
    assert transform_work(2**t) == t * 2**t


@pytest.mark.parametrize("n", [0, 7, 14])
def test_transform_work_rejects_lengths_the_seam_never_runs(n):
    with pytest.raises(ValueError):
        transform_work(n)


sizes = st.integers(0, 22).flatmap(lambda t: st.integers(2**t, 2**(t + 1) - 1))
deltas = st.floats(1e-4, 0.99)


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas)
def test_bootstrap_count_is_the_least_meeting_the_isolation_bound(n, k, delta):
    # q bounds one significant index's chance of sharing its bucket under
    # one prime of [m, 2m]; the count is the least L >= 3 with
    # k * q^L <= delta/4, unless the cap (approx's count at delta/2) binds
    m, cap = approx_plan(ApproxParams(k=k, delta=delta / 2), n)
    q = (k - 1) * math.ceil(math.log(2 * n) / math.log(m)) / len(primes_in_range(m))
    L = isolation_reps(ExactParams(k=k, delta=delta), n)
    assert 3 <= L <= cap
    assert k * q**L <= delta / 4 or L == cap
    assert L == 3 or k * q ** (L - 1) > delta / 4


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas, deltas)
def test_bootstrap_count_does_not_grow_with_delta(n, k, d1, d2):
    lo, hi = sorted((d1, d2))
    assert isolation_reps(ExactParams(k=k, delta=hi), n) <= isolation_reps(ExactParams(k=k, delta=lo), n)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_approx_is_exact_without_rounding(data):
    # one path: same output, same warning, for any k, delta, L_mult and
    # seed, k under-stated included
    n = data.draw(st.integers(4, 512), label="n")
    support = st.dictionaries(st.integers(0, n - 1), st.floats(0.5, 20), max_size=6)
    a, b = np.zeros(n), np.zeros(n)
    for v, label in ((a, "a"), (b, "b")):
        entries = data.draw(support, label=label)
        v[list(entries)] = list(entries.values())
    params = dict(
        k=data.draw(st.integers(1, 40), label="k"),
        delta=data.draw(deltas, label="delta"),
        L_mult=data.draw(st.floats(1, 8), label="L_mult"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    runs = []
    for engine, p in (
        (approx_sparse_convolve, ApproxParams(**params)),
        (exact_sparse_convolve, ExactParams(**params, integer_mode=False)),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append((engine(a, b, p).entries, [str(w.message) for w in caught]))
    assert runs[0] == runs[1]
