"""Property tests for the identities the recovery engines rest on:
folding commutes with convolution, one pass folds a vector and its
index-weighted copy alike, from its dense or its sparse form, an
isolated bucket's W/V ratio names its output index, and at a lossless
modulus every residual sketch is the residual itself. A heavy sketch's
residual for a non-negative partial result is the full sketch's
residual at its buckets, bit for bit, and loses none of its heavy
buckets, and a family of sketches peels each of them as its own
residual does, bit for bit. Vectorised extraction is checked against
the bucket-by-bucket loop it replaced, and a bucket two significant
indices share yields no index outside its own class. Transforms pad to the next
2^a * 3^b * 5^c length and are charged N * log2(N). No difference of
two outputs has more prime factors >= m than the pair bound counts, and
every significant index hashes into a heavy bucket of every sketch. A
plan's route is the cheaper of the two by one price, the engines' plan is
the cheapest of four modulus bases per octave whose pair bound some
count meets, at its least such count, that count never grows with delta
at one modulus nor the plan's price at any, and approx is exact without
rounding, bit for bit, and with it approx's result rounded once, with
the same warnings and trace. A call with k under-stated plans again at 2k
until its peel is clean or its plan lossless, and warns once exactly
when it raised k or ends not clean. A real knob's check returns a float
inside its interval or raises ValueError naming the knob, and the input
check's one uint64 reduction accepts and rejects as min and max do."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sparseconv.approx
from sparseconv.approx import (
    ApproxParams, CorrectionTrace, _Family, _grid, _separation_reps, _max_factors, approx_plan,
    approx_sparse_convolve,
)
from sparseconv.exact import ExactParams, exact_sparse_convolve
from sparseconv.fft import cyclic_convolve, fft_convolve, pad_length, transform_work
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.hashing import fold, fold_sparse, primes_in_range
from sparseconv.numerics import SparseResult, as_real, dense_vector, naive_convolve, round_to_int
from sparseconv.sketch import (
    FOLD_WORK, SKETCH_WORK, TRANSFORM_WORK, Sketch, SketchCache, build_residual_sketch, build_sketch,
    extract_candidates, residual, route_price,
)

from oracle import rounded

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
    (cand,) = extract_candidates(sk, c1=0.5, tau=0.25)
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
    conv, index, c = fft_convolve(a, b), np.arange(out_len), np.zeros(out_len)
    c[list(partial)] = list(partial.values())
    # on the dense route, which exact's one-repetition shortcut at a
    # lossless modulus relies on, the fold at p >= 2n-1 is the identity
    for prime in (p, q):
        sk = build_residual_sketch(a, b, partial, prime, cache=SketchCache(a, b, True))
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
    peeled, full = residual(top, partial), residual(sk, partial)
    assert sk.out_len == top.out_len == peeled.out_len == full.out_len == out_len
    assert np.array_equal(peeled.buckets, top.buckets)
    assert np.array_equal(peeled.v, full.v[top.buckets])
    assert np.array_equal(peeled.w, full.w[top.buckets])
    # C >= 0 only lowers buckets, so none rises to c1 outside the stored ones
    assert set(np.flatnonzero(full.v >= c1)) <= set(top.buckets)


@PROPERTY
@given(st.data())
def test_a_familys_residuals_are_its_sketches_residuals(data):
    # one locate and two bincounts give each sketch's residual, summed
    # in C's order as fold_sparse sums it, whether the sketch holds all
    # its buckets or some, and name the buckets each sketch holds
    out_len = data.draw(st.integers(1, 300), label="out_len")
    sketches = []
    for s in range(data.draw(st.integers(1, 4), label="sketches")):
        p = data.draw(st.sampled_from([2, 3, 7, 13, 31, 101, 307, 401]), label=f"p{s}")
        values = st.floats(-50, 1e3, allow_subnormal=False)
        v = data.draw(arrays(np.float64, p, elements=values), label=f"v{s}")
        w = data.draw(arrays(np.float64, p, elements=values), label=f"w{s}")
        full = Sketch(p, v, w, out_len)
        sketches.append(full if data.draw(st.booleans(), label=f"full{s}") else full.heavy(
            data.draw(st.sampled_from([-100.0, 0.0, 0.5, 10.0, 2e3]), label=f"c1 {s}")))
    c = SparseResult(data.draw(st.dictionaries(
        st.integers(0, out_len - 1), st.floats(-100, 100, allow_subnormal=False), max_size=30), label="c"))
    peeled, held = _Family.of(sketches).residual(c)
    held = held.reshape(len(sketches), len(c))
    for s, sk in enumerate(sketches):
        mine, theirs = peeled.member(s), residual(sk, c)
        buckets = np.arange(sk.p) if sk.buckets is None else sk.buckets
        assert mine.p == sk.p and np.array_equal(mine.buckets, buckets)
        assert mine.v.tobytes() == theirs.v.tobytes() and mine.w.tobytes() == theirs.w.tobytes()
        assert held[s].tolist() == [i % sk.p in set(buckets.tolist()) for i in c]


@PROPERTY
@given(st.data(), st.integers(16, 2**10), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
def test_every_significant_index_hashes_into_a_heavy_bucket_of_every_sketch(data, n, s_a, s_b, seed):
    # inputs are non-negative, so a bucket's V is at least each of its
    # outputs: a significant index's bucket is heavy under any prime, the
    # fact _level's filter rests on; heavy buckets are strictly increasing,
    # as its searchsorted needs
    inst = generate_instance(InstanceSpec(n=n, s_a=s_a, s_b=s_b, seed=seed))
    significant = np.flatnonzero(naive_convolve(inst.a, inst.b) >= inst.c1_effective)
    m = data.draw(st.integers(2, 2 * n), label="m")  # lossy primes and lossless ones
    p = data.draw(st.sampled_from(primes_in_range(m).tolist()), label="p")
    c1 = ApproxParams(k=1, delta=0.1).c1
    top = build_sketch(inst.a, inst.b, p).heavy(c1)
    assert np.all(np.diff(top.buckets) > 0) and np.all(np.diff(top.heavy(2 * c1).buckets) > 0)
    assert set((significant % p).tolist()) <= set(top.buckets.tolist())


def extract_by_loop(s, c1, tau, out_len):
    out = []
    for i, bucket in enumerate(range(s.p) if s.buckets is None else s.buckets):
        if not s.v[i] >= c1:
            continue
        ratio = s.w[i] / s.v[i]
        if not np.isfinite(ratio):
            continue
        nearest = round_to_int(float(ratio))
        if abs(ratio - nearest) <= tau and 0 <= nearest < out_len and nearest % s.p == bucket:
            out.append((nearest, float(s.v[i])))
    return out


@PROPERTY
@given(st.data(), st.floats(0.1, 2), st.floats(0.01, 0.49), st.integers(1, 200))
def test_extraction_matches_the_bucket_loop(data, c1, tau, out_len):
    p = data.draw(st.integers(1, 64), label="p")
    v = data.draw(arrays(np.float64, p, elements=st.floats(-10, 1e3)), label="v")
    ratios = st.one_of(st.floats(-50, 250), st.integers(-5, 205).map(float))
    w = v * data.draw(arrays(np.float64, p, elements=ratios), label="ratio")
    # some buckets decode to an index in their own class, b + p*q
    own = np.array(data.draw(st.lists(st.integers(0, p - 1), max_size=p), label="own class"), dtype=np.int64)
    w[own] = v[own] * (own + p * data.draw(st.integers(0, 4), label="q"))
    w[data.draw(st.lists(st.integers(0, p - 1), max_size=3), label="bad")] = data.draw(
        st.sampled_from([np.inf, -np.inf, np.nan]), label="bad value"
    )
    s = Sketch(p, v, w, out_len)
    assert extract_candidates(s, c1, tau).tolist() == extract_by_loop(s, c1, tau, out_len)
    # a heavy sketch reads bucket numbers from its buckets, not its positions
    heavy = s.heavy(data.draw(st.floats(-10, 2), label="heavy c1"))
    assert extract_candidates(heavy, c1, tau).tolist() == extract_by_loop(heavy, c1, tau, out_len)


@PROPERTY
@given(st.integers(2, 64), st.data(), st.integers(1, 50), st.integers(1, 50))
def test_a_collided_bucket_yields_only_an_index_in_its_class(p, data, v1, v2):
    # two significant indices b + p*q1 and b + p*q2 share bucket b; their
    # weighted mean decodes to an integer outside the class whenever
    # p*(v1*q1 + v2*q2)/(v1 + v2) is whole but not a multiple of p
    b = data.draw(st.integers(0, p - 1), label="bucket")
    q1, q2 = data.draw(st.lists(st.integers(0, 20), min_size=2, max_size=2, unique=True), label="q")
    out_len = b + p * max(q1, q2) + 1
    fv, fw = fold_sparse([b + p * q1, b + p * q2], [float(v1), float(v2)], p, out_len)
    for s in (Sketch(p, fv, fw, out_len), Sketch(p, fv, fw, out_len).heavy(0.5)):
        assert all(index % p == b for index in extract_candidates(s, 0.5, 0.25).index)


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
@given(sizes, st.integers(1, 1024), deltas, deltas)
def test_bootstrap_count_is_the_least_meeting_the_pair_bound(n, k, delta, other):
    # rho bounds the chance that two given outputs share a bucket under
    # one prime of the plan's [m, 2m]; the count is the least L >= 2 with
    # C(k, 2) rho^L <= delta/4, at a grid modulus where q = (k - 1) rho < 1
    # or, when none has one, at the lossless 2n - 1, where nothing
    # collides; at that modulus a larger delta never asks for more
    m, L, _ = approx_plan(ExactParams(k=k, delta=delta), n)
    r = sum(1 for t in range(1, 64) if m**t <= 2 * n - 2)  # m^r <= the largest difference
    rho = r / len(primes_in_range(m))

    def separates(count, d=delta):
        return (k - 1) * rho < 1 and k * (k - 1) / 2 * rho**count <= d / 4

    assert m in _grid(k, n) or m == 2 * n - 1
    assert L >= 2 and separates(L)
    assert L == 2 or not separates(L - 1)
    # C(k, 2) rho^count falls as the count grows (k = 1 makes it 0), so the
    # least count at the larger delta is at most L
    assert separates(L, max(delta, other))


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
    # at any one modulus, where delta decides the count but not whether
    # there is one; the plan's own count can grow with delta, as a laxer
    # delta can price a smaller modulus
    lo, hi = sorted((d1, d2))
    for m in _grid(k, n):
        at_lo, at_hi = _separation_reps(k, lo, n, m), _separation_reps(k, hi, n, m)
        assert (at_lo is None) == (at_hi is None)
        assert at_lo is None or at_hi <= at_lo


@PROPERTY
@given(sizes, st.integers(16, 2**20), st.integers(1, 200))
def test_the_route_is_the_cheaper_by_the_one_price(n, m, count):
    # both routes fold 2n entries per sketch; the dense one runs the
    # product's three transforms once, the cyclic one six per sketch at
    # the middle prime 3m/2, each transform TRANSFORM_WORK over its work
    per_sketch = count * (FOLD_WORK * 2 * n + SKETCH_WORK)
    dense = per_sketch + 3 * (transform_work(pad_length(2 * n - 1)) + TRANSFORM_WORK)
    cyclic = per_sketch + count * 6 * (transform_work(pad_length(3 * m - 1)) + TRANSFORM_WORK)
    assert route_price(n, m, count) == (min(dense, cyclic), dense <= cyclic)


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas)
def test_the_plan_is_the_cheapest_isolating_grid_modulus(n, k, delta):
    # every other grid modulus that meets the bound, at its least count,
    # prices at least as high; ties go to the larger modulus. With none
    # meeting it, the plan is 2 sketches at the lossless 2n - 1
    m, reps, dense = approx_plan(ApproxParams(k=k, delta=delta), n)
    price, cheaper_is_dense = route_price(n, m, reps)
    assert dense is cheaper_is_dense
    counts = {other: _separation_reps(k, delta, n, other) for other in _grid(k, n)}
    if set(counts.values()) == {None}:
        assert (m, reps) == (2 * n - 1, 2)
    else:
        assert counts[m] == reps
    for other, count in counts.items():
        if count is not None:
            other_price = route_price(n, other, count)[0]
            assert price < other_price or (price == other_price and m >= other)


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas)
def test_the_plan_is_the_cheapest_of_four_bases_per_octave(n, k, delta):
    # the bases are top / 2^(j/4), floored, from the top 4k ceil(log2 n)
    # ceil(log2 k) down to 16, cut at the least lossless one (>= 2n - 1);
    # the plan prices least among those some count isolates at, ties to
    # the larger, else it is 2 sketches at the lossless 2n - 1
    top = max(4 * k * (n - 1).bit_length() * max((k - 1).bit_length(), 1), 16)
    bases = [max(math.floor(top / 2 ** (j / 4)), 16) for j in range(4 * top.bit_length() + 1)]
    bases = bases[: bases.index(16) + 1]
    lossless = [m for m in bases if m >= 2 * n - 1]
    bases = [m for m in bases if m <= min(lossless, default=top)]
    assert _grid(k, n) == bases
    priced = {m: route_price(n, m, L)[0] for m in bases if (L := _separation_reps(k, delta, n, m)) is not None}
    plan = approx_plan(ApproxParams(k=k, delta=delta), n)
    if priced:
        least = min(priced.values())
        assert plan.m == max(m for m, price in priced.items() if price == least)
    else:
        assert (plan.m, plan.reps) == (2 * n - 1, 2)


@PROPERTY
@given(sizes, st.integers(1, 1024), deltas, deltas)
def test_the_plans_price_does_not_grow_with_delta(n, k, d1, d2):
    lo, hi = sorted((d1, d2))
    plans = [approx_plan(ApproxParams(k=k, delta=d), n) for d in (hi, lo)]
    assert route_price(n, plans[0].m, plans[0].reps)[0] <= route_price(n, plans[1].m, plans[1].reps)[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_approx_is_exact_without_rounding(data):
    # one path: same output, same warning, same trace, for any k, delta
    # and seed, k under-stated included; exact's integer_mode rounds the
    # output once and changes nothing else, on integer and float inputs
    n = data.draw(st.integers(4, 512), label="n")
    integer_values = data.draw(st.booleans(), label="integer values")
    values = st.integers(1, 20).map(float) if integer_values else st.floats(0.5, 20)
    support = st.dictionaries(st.integers(0, n - 1), values, max_size=6)
    a, b = np.zeros(n), np.zeros(n)
    for v, label in ((a, "a"), (b, "b")):
        entries = data.draw(support, label=label)
        v[list(entries)] = list(entries.values())
    params = dict(
        k=data.draw(st.integers(1, 40), label="k"),
        delta=data.draw(deltas, label="delta"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    runs = []
    for engine, p in (
        (approx_sparse_convolve, ApproxParams(**params)),
        (exact_sparse_convolve, ExactParams(**params, integer_mode=False)),
        (exact_sparse_convolve, ExactParams(**params, integer_mode=True)),
    ):
        trace = CorrectionTrace()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = engine(a, b, p, trace=trace)
        runs.append((out, [str(w.message) for w in caught], trace))
    approx, unrounded, exact = runs
    assert unrounded == approx
    assert exact[0] == rounded(approx[0]) and exact[1:] == approx[1:]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_an_under_stated_k_plans_again_at_2k_until_clean_or_lossless(data):
    # planted instances at n = 2^6 ... 2^10, k given from 1 up to the true
    # k, as the true k halved 0 to 6 times
    n = 2 ** data.draw(st.integers(6, 10), label="log2 n")
    inst = generate_instance(InstanceSpec(
        n=n, s_a=data.draw(st.integers(1, 12), label="s_a"), s_b=data.draw(st.integers(1, 12), label="s_b"),
        seed=data.draw(st.integers(0, 2**16), label="instance seed"),
    ))
    oracle = fft_convolve(inst.a, inst.b)
    truth = {j: oracle[j] for j in np.flatnonzero(oracle >= inst.c1_effective).tolist()}
    exact = data.draw(st.booleans(), label="exact")
    params = (ExactParams if exact else ApproxParams)(
        k=max(len(truth) >> data.draw(st.integers(0, 6), label="halvings"), 1), delta=data.draw(deltas, label="delta"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    trace, cleans, peel = CorrectionTrace(), [], sparseconv.approx._peel

    def recorded(*args):
        state, clean = peel(*args)
        cleans.append(clean)
        return state, clean

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(sparseconv.approx, "_peel", recorded)
        out = (exact_sparse_convolve if exact else approx_sparse_convolve)(inst.a, inst.b, params, trace=trace)

    # attempt i runs the plan at k * 2^i; every attempt but the last peels
    # dirty at a lossy plan, and the last ends clean or lossless
    plans = [approx_plan(replace(params, k=params.k * 2**i), n) for i in range(len(cleans))]
    assert trace.bootstrap_reps == [plan.reps for plan in plans]
    lossless = [plan.m >= 2 * n - 1 for plan in plans]
    assert not any(cleans[:-1]) and not any(lossless[:-1]) and (cleans[-1] or lossless[-1])
    if lossless[-1]:  # its sketches hold the product itself
        assert out.support() == truth.keys()
        assert all(v == round_to_int(truth[j]) if exact else abs(v - truth[j]) < 1e-6 for j, v in out.items())
    assert len(caught) == (len(cleans) > 1 or not cleans[-1])
    assert all(f"k={params.k} did not peel clean" in str(w.message) for w in caught)


# as_real's intervals, each with membership written out for a real x
INTERVALS = {
    "(0, 1)": lambda x: 0 < x < 1,
    "[0, 1]": lambda x: 0 <= x <= 1,
    "(0, 0.5)": lambda x: 0 < x < 0.5,
    "(0, inf)": lambda x: 0 < x < math.inf,
    "[0, inf)": lambda x: 0 <= x < math.inf,
    "[1, inf)": lambda x: 1 <= x < math.inf,
}


@PROPERTY
@given(
    st.one_of(
        st.floats(), st.floats(width=32).map(np.float32), st.integers(), st.just(10**400),
        st.booleans(), st.text(), st.none(),
    ),
    st.sampled_from(sorted(INTERVALS)),
)
def test_as_real_returns_a_float_inside_its_interval_or_a_value_error_naming_it(value, interval):
    # a bool, a string, None, NaN and an int beyond float's range lie in none
    real = isinstance(value, (float, np.floating)) or type(value) is int and abs(value) < 2**1024
    try:
        x = as_real(value, "knob", interval)
    except ValueError as exc:
        assert str(exc).startswith(f"knob must lie in {interval}, not ")
        assert not (real and INTERVALS[interval](value))
    else:
        # an int above 2^53 may have no float of its own: it rounds to the nearest
        assert type(x) is float and x == float(value) and real and INTERVALS[interval](x)


def _checked_by_two_reductions(arr):
    """None when min and max accept arr as float64, else dense_vector's message."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.min() >= 0 and arr.max() < math.inf:
        return None
    return f"vector entries must be {'non-negative' if np.all(np.isfinite(arr)) else 'finite'}"


# +-0.0, the least subnormal, the least normal, the largest finite, +-inf,
# and a quiet NaN of each sign and a signalling one, by their bits
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(np.float64).max, -np.finfo(np.float64).max,
    math.inf, -math.inf, *np.array([0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0_0000_0000_0001], dtype=np.uint64).view(np.float64),
]


@PROPERTY
@given(st.data())
def test_the_one_pass_check_decides_as_min_and_max_do(data):
    # dense_vector accepts what uint64 max accepts and runs min and max
    # only on the rest: accept, reject and message as the two reductions
    # alone decide, and contiguous float64 input comes back as itself
    dtype = data.draw(st.sampled_from(["<f8", ">f8", "<f4", "<f2", "<i8", "<u1"]), label="dtype")
    elements = st.sampled_from(EDGE_FLOATS) | st.floats() if dtype == "<f8" else None
    base = data.draw(arrays(dtype, st.integers(1, 24), elements=elements), label="base")
    start = data.draw(st.integers(0, len(base) - 1), label="start")
    step = data.draw(st.sampled_from([1, 1, 2, 3, -1]), label="step")
    values = base[start::step]
    expected = _checked_by_two_reductions(values)
    if expected is None:
        out = dense_vector(values)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, values.astype(np.float64))
        assert (out is values) == (values.dtype == np.float64 and values.flags.c_contiguous)
    else:
        with pytest.raises(ValueError) as caught:
            dense_vector(values)
        assert str(caught.value) == expected
