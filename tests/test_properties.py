"""Property tests for the identities the recovery engines rest on:
folding commutes with convolution, one pass folds a vector and its
index-weighted copy alike, from its dense or its sparse form, an
isolated bucket's W/V ratio names its output index, and at a lossless
modulus every residual sketch is the residual itself. A heavy sketch's
residual for a non-negative partial result is the full sketch's
residual at its buckets, bit for bit, and loses none of its heavy
buckets. Vectorised extraction is checked against the bucket-by-bucket
loop it replaced. Transforms pad to the next
2^a * 3^b * 5^c length and are charged N * log2(N). No difference of
two outputs has more prime factors >= m than the isolation bound counts. The
engines' plan is the cheapest grid modulus whose isolation bound its least
count meets by the cap, that count never grows with delta at one
modulus nor the plan's price at any, and approx is exact without
rounding, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparseconv.approx import (
    ApproxParams, _grid, _isolation_reps, _max_factors, _price, approx_plan, approx_sparse_convolve,
)
from sparseconv.exact import ExactParams, exact_sparse_convolve
from sparseconv.fft import cyclic_convolve, fft_convolve, pad_length, transform_work
from sparseconv.hashing import fold, fold_sparse, primes_in_range
from sparseconv.numerics import SparseResult, naive_convolve, round_to_int
from sparseconv.sketch import (
    Sketch, SketchCache, build_residual_sketch, build_sketch, dense_route, extract_candidates, residual,
)

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
    # one prime of the plan's [m, 2m]; the count is the least L >= 3 with
    # k * q^L <= delta/4, unless no grid modulus meets it by the cap
    # (the paper's count at delta/2): then the plan is the top modulus at the cap
    m, L, cap, _ = approx_plan(ExactParams(k=k, delta=delta), n)
    r = sum(1 for t in range(1, 64) if m**t <= 2 * n - 2)  # m^r <= the largest difference
    q = (k - 1) * r / len(primes_in_range(m))

    def isolates(count):
        return q < 1 and k * q**count <= delta / 4

    assert 3 <= L <= cap == max(math.ceil(8 * math.log2(2 * k / delta)), 3)
    assert isolates(L) or (L == cap and m == _grid(k, n)[0])
    assert L == 3 or not isolates(L - 1)


@PROPERTY
@given(st.integers(1, 2**11), st.integers(1, 1024))
def test_no_output_difference_has_more_prime_factors_than_the_bound_counts(n, k):
    # outputs x != y of a length-n product differ by d in [1, 2n - 2];
    # at every grid modulus m, no such d is divisible by more than
    # _max_factors(n, m) of the primes in [m, 2m] (larger ones divide none)
    d = np.arange(1, 2 * n - 1)
    for m in _grid(k, n):
        primes = primes_in_range(m)
        primes = primes[primes <= 2 * n - 2]
        most = int((d[:, None] % primes == 0).sum(axis=1).max(initial=0))
        assert most <= _max_factors(n, m), (m, most)


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas, deltas)
def test_bootstrap_count_does_not_grow_with_delta(n, k, d1, d2):
    # at any one modulus; the plan's own count can grow with delta, as a
    # laxer delta can price a smaller modulus
    lo, hi = sorted((d1, d2))
    cap = approx_plan(ApproxParams(k=k, delta=lo), n).cap
    for m in _grid(k, n):
        at_lo = _isolation_reps(k, lo, n, m, cap)
        assert at_lo is None or _isolation_reps(k, hi, n, m, cap) <= at_lo


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas, st.floats(1, 16))
def test_the_plan_is_the_cheapest_grid_modulus_isolating_by_the_cap(n, k, delta, L_mult):
    # every other grid modulus that meets the bound by the cap, at its
    # least count, prices at least as high; ties go to the larger modulus
    m, reps, cap, dense = approx_plan(ApproxParams(k=k, delta=delta, L_mult=L_mult), n)
    assert dense is dense_route(n, (m, reps))
    price = _price(n, m, reps)
    for other in _grid(k, n):
        count = _isolation_reps(k, delta, n, other, cap)
        if count is not None:
            assert price < _price(n, other, count) or (price == _price(n, other, count) and m >= other)


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas, deltas)
def test_the_plans_price_does_not_grow_with_delta(n, k, d1, d2):
    # at the default L_mult; near L_mult = 1 the cap can fall faster than
    # a modulus's count as delta grows, dropping the cheapest modulus
    # (n = 377,445, k = 200, L_mult = 1: delta 0.757 -> 0.948 trades
    # m = 7600 at 10 sketches for m = 15,200 at 6)
    lo, hi = sorted((d1, d2))
    plans = [approx_plan(ApproxParams(k=k, delta=d), n) for d in (hi, lo)]
    assert _price(n, plans[0].m, plans[0].reps) <= _price(n, plans[1].m, plans[1].reps)


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
