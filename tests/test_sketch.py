import math

import numpy as np
import pytest

from sparseconv.approx import ApproxParams, Plan, approx_plan
from sparseconv.fft import fft_convolve
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.hashing import fold, sample_prime
from sparseconv.numerics import SparseResult, naive_convolve
from sparseconv.sketch import (
    SketchCache,
    build_residual_sketch,
    build_sketch,
    extract_candidates,
)

from isolation import is_isolated
from oracle import one_sketch, support_ge


def impulse(n, at):
    v = np.zeros(n)
    v[at] = 1.0
    return v


class TestBuildSketch:
    def test_impulse_pair_p7(self):
        sk = build_sketch(impulse(4, 2), impulse(4, 3), 7)
        v = np.zeros(7)
        v[5] = 1.0
        np.testing.assert_allclose(sk.v, v, atol=1e-9)
        np.testing.assert_allclose(sk.w, 5 * v, atol=1e-9)

    def test_impulse_pair_p5_wraps(self):
        sk = build_sketch(impulse(4, 2), impulse(4, 3), 5)
        v = np.zeros(5)
        v[0] = 1.0  # true index 5 lands on bucket 5 mod 5
        np.testing.assert_allclose(sk.v, v, atol=1e-9)
        np.testing.assert_allclose(sk.w, 5 * v, atol=1e-9)

    def test_zero_inputs(self):
        sk = build_sketch(np.zeros(6), np.zeros(6), 7)
        np.testing.assert_allclose(sk.v, 0.0, atol=1e-12)
        np.testing.assert_allclose(sk.w, 0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "build",
        [build_sketch, lambda a, b, p: build_residual_sketch(a, b, SparseResult(), p)],
        ids=["build_sketch", "build_residual_sketch"],
    )
    @pytest.mark.parametrize("p", [5.5, 0, "7"], ids=["float", "zero", "str"])
    def test_modulus_must_be_a_positive_integer(self, build, p):
        with pytest.raises(ValueError, match="p must be"):
            build(np.ones(8), np.ones(8), p)

    @pytest.mark.parametrize("dense", [False, True], ids=["cyclic", "dense"])
    def test_a_staged_build_is_each_primes_build(self, monkeypatch, dense):
        # a sequence of primes gives one sketch whose member s is prime s's
        # own build bit for bit; the cyclic route (some prime < 2n-1) folds
        # a for every prime, then b, at the FFT work of the builds alone, the
        # dense route (every prime >= 2n-1) folds one A*B, a build alone's
        # work, and a bad prime raises before anything is transformed
        import sparseconv.sketch
        from sparseconv.fft import fft_work, reset_fft_work

        inst = generate_instance(InstanceSpec(n=2**11, s_a=4, s_b=4, seed=8))
        a, b = inst.a, inst.b
        cache = SketchCache(a, b)
        primes = [4127, 4099, 8209, 4111] if dense else [1009, 101, 2027, 1013]
        reset_fft_work()
        alone = [build_sketch(a, b, p, cache=cache) for p in primes]
        work = fft_work() // len(primes) if dense else fft_work()
        folded = []

        def counting_fold(x, p, *args, **kwargs):
            folded.append((x is cache.a, x is cache.b, p))
            return fold(x, p, *args, **kwargs)

        monkeypatch.setattr(sparseconv.sketch, "fold", counting_fold)
        reset_fft_work()
        staged = build_sketch(a, b, np.array(primes), cache=cache)
        assert fft_work() == work
        assert folded == ([(False, False, p) for p in primes] if dense else
                          [(True, False, p) for p in primes] + [(False, True, p) for p in primes])
        assert staged.primes.tolist() == primes
        for s, one in enumerate(alone):
            sk = staged.member(s)
            assert one.primes.tolist() == [primes[s]] and np.array_equal(one.keys, np.arange(primes[s]))
            assert sk.out_len == one.out_len and np.array_equal(sk.keys, one.keys)
            assert sk.v.tobytes() == one.v.tobytes() and sk.w.tobytes() == one.w.tobytes()
        reset_fft_work()
        with pytest.raises(ValueError, match="p must be"):
            build_sketch(a, b, [primes[0], 5.5], cache=cache)
        assert fft_work() == 0

    @pytest.mark.parametrize(
        "build",
        [build_sketch, lambda a, b, p: build_residual_sketch(a, b, SparseResult(), p)],
        ids=["build_sketch", "build_residual_sketch"],
    )
    @pytest.mark.parametrize("primes", [[], np.array([], dtype=np.int64)], ids=["list", "array"])
    def test_an_empty_prime_sequence_is_rejected_as_p(self, build, primes):
        from sparseconv.fft import fft_work, reset_fft_work

        reset_fft_work()
        with pytest.raises(ValueError, match="^p must hold at least one prime"):
            build(np.ones(8), np.ones(8), primes)
        assert fft_work() == 0

    def test_cache_rejects_inputs_of_different_length(self):
        with pytest.raises(ValueError, match="length mismatch: 4 vs 5"):
            SketchCache(np.ones(4), np.ones(5))

    def test_routes_agree(self):
        # the route each prime takes (7 and 31 hash for most n, 2n + 5
        # folds by the identity), and the dense product folded at each
        # prime, both give the product's fold
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 40))
            a, b = rng.random(n) * 3, rng.random(n) * 3
            c = naive_convolve(a, b)
            for p in (7, 31, 2 * n + 5):
                sk = build_sketch(a, b, p)
                for v, w in ((sk.v, sk.w), fold(fft_convolve(a, b), p, moment=True)):
                    np.testing.assert_allclose(v, fold(c, p), atol=1e-8)
                    np.testing.assert_allclose(w, fold(np.arange(len(c)) * c, p), atol=1e-8)

    @pytest.mark.parametrize("dense", [False, True])
    def test_each_vector_is_folded_once(self, monkeypatch, dense):
        # a fold returns a vector's plain and index-weighted folds together,
        # so the cyclic route reads a and b once each, the dense route, at a
        # prime >= 2n-1, A*B once
        import sparseconv.sketch

        calls = []

        def counting_fold(a, p, *args, **kwargs):
            calls.append(len(a))
            return fold(a, p, *args, **kwargs)

        monkeypatch.setattr(sparseconv.sketch, "fold", counting_fold)
        rng = np.random.default_rng(13)
        n, p = 200, 401 if dense else 31
        a, b = rng.random(n) * 3, rng.random(n) * 3
        c = naive_convolve(a, b)
        sk = build_sketch(a, b, p, cache=SketchCache(a, b))
        assert calls == ([2 * n - 1] if dense else [n, n])
        np.testing.assert_allclose(sk.v, fold(c, p), atol=1e-8)
        np.testing.assert_allclose(sk.w, fold(np.arange(len(c)) * c, p), atol=1e-8)

    def test_matches_folded_product(self):
        # V must equal the fold of the true product; W the fold of its
        # index-weighted version; every p < 2n-1 takes the cyclic route
        rng = np.random.default_rng(11)
        for p in (1, 3, 7, 13, 29):
            n = 24
            a, b = rng.random(n), rng.random(n)
            c = naive_convolve(a, b)
            sk = build_sketch(a, b, p, cache=SketchCache(a, b))
            for v, w in ((sk.v, sk.w), fold(fft_convolve(a, b), p, moment=True)):
                np.testing.assert_allclose(v, fold(c, p), atol=1e-9)
                np.testing.assert_allclose(w, fold(np.arange(len(c)) * c, p), atol=1e-9)

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 64))
            a, b = rng.random(n) * 10, rng.random(n) * 10
            sk = build_sketch(a, b, 13, cache=SketchCache(a, b))
            assert sk.v.min() >= -1e-6


class TestExtractCandidates:
    def test_isolated_impulse(self):
        sk = build_sketch(impulse(4, 2), impulse(4, 3), 7)
        cands = extract_candidates(sk, c1=0.5, tau=0.25)
        assert [(c.index, c.value) for c in cands] == [(5, pytest.approx(1.0, abs=1e-9))]

    def test_colliding_pair_rejected(self):
        # equal masses at true indices 3 and 10 share bucket 3 mod 7;
        # ratio (3+10)/2 = 6.5 sits half-way between integers
        v = np.zeros(7)
        w = np.zeros(7)
        v[3] = 2.0
        w[3] = 13.0
        assert len(extract_candidates(one_sketch(7, v, w, 21), 0.5, 0.25)) == 0

    def test_all_zero_sketch(self):
        assert len(extract_candidates(one_sketch(5, np.zeros(5), np.zeros(5), 9), 0.5, 0.25)) == 0

    def test_out_of_range_index_rejected(self):
        v = np.zeros(7)
        w = np.zeros(7)
        v[2] = 1.0
        w[2] = 30.0  # ratio 30 beyond out_len
        assert len(extract_candidates(one_sketch(7, v, w, 21), 0.5, 0.25)) == 0

    def test_parameter_validation(self):
        sk = one_sketch(3, np.zeros(3), np.zeros(3), 5)
        with pytest.raises(ValueError):
            extract_candidates(sk, 0.0, 0.25)
        with pytest.raises(ValueError, match="c1"):
            extract_candidates(sk, math.inf, 0.25)
        with pytest.raises(ValueError):
            extract_candidates(sk, 0.5, 0.5)

    def test_isolated_indices_recovered_exactly(self):
        # brute-force soundness: on noise-free instances every isolated
        # index must surface with its true value
        rng = np.random.default_rng(13)
        for p in (11, 17, 23, 31):
            n = 40
            a = np.zeros(n)
            b = np.zeros(n)
            a[rng.choice(n, 4, replace=False)] = rng.integers(1, 8, 4)
            b[rng.choice(n, 4, replace=False)] = rng.integers(1, 8, 4)
            c = naive_convolve(a, b)
            supp = support_ge(c, 0.5)
            sk = build_sketch(a, b, p, cache=SketchCache(a, b))
            got = {cand.index: cand.value for cand in extract_candidates(sk, 0.5, 0.25)}
            for x in supp:
                if is_isolated(x, supp, p):
                    assert x in got
                    assert abs(got[x] - c[x]) <= 1e-6


class TestResidualSketch:
    def test_perfect_residual_is_zero(self):
        rng = np.random.default_rng(14)
        n = 32
        a = np.zeros(n)
        b = np.zeros(n)
        a[rng.choice(n, 3, replace=False)] = [2, 5, 1]
        b[rng.choice(n, 3, replace=False)] = [4, 1, 3]
        c = naive_convolve(a, b)
        full = SparseResult({int(i): float(c[i]) for i in np.flatnonzero(c)})
        sk = build_residual_sketch(a, b, full, 13)
        assert np.max(np.abs(sk.v)) <= 1e-6
        assert np.max(np.abs(sk.w)) <= 1e-5

    def test_empty_residual_equals_plain_sketch(self):
        rng = np.random.default_rng(15)
        a, b = rng.random(20), rng.random(20)
        plain = build_sketch(a, b, 11)
        resid = build_residual_sketch(a, b, SparseResult(), 11)
        np.testing.assert_array_equal(plain.v, resid.v)
        np.testing.assert_array_equal(plain.w, resid.w)

    def test_missing_entry_leaves_its_mass(self):
        rng = np.random.default_rng(16)
        n = 32
        a = np.zeros(n)
        b = np.zeros(n)
        a[[3, 9, 20]] = [2, 5, 1]
        b[[1, 7, 15]] = [4, 1, 3]
        c = naive_convolve(a, b)
        entries = {int(i): float(c[i]) for i in np.flatnonzero(c)}
        dropped = sorted(entries)[2]
        val = entries.pop(dropped)
        sk = build_residual_sketch(a, b, SparseResult(entries), 13)
        assert abs(sk.v[dropped % 13] - val) <= 1e-6

    def test_out_of_range_partial_result(self):
        with pytest.raises(ValueError):
            build_residual_sketch(np.ones(4), np.ones(4), SparseResult({7: 1.0}), 5)

    @pytest.mark.parametrize("index", [-1, 7], ids=["minus-1", "2n-1"])
    @pytest.mark.parametrize("primes", [5, [5, 7, 11]], ids=["one-prime", "three-primes"])
    def test_an_index_outside_the_product_is_rejected_at_any_prime_count(self, index, primes):
        # C's indices lie in [0, 2n-1) at n = 4: an index outside can only
        # come from a corrupted partial result, whose fold would be wrong
        with pytest.raises(ValueError, match="sparse index out of range"):
            build_residual_sketch(np.ones(4), np.ones(4), SparseResult({3: 1.0, index: 1.0}), primes)


def test_noise_stays_well_inside_tolerances():
    # noisy instance at n = 2^10: isolated-bucket ratios drift from the
    # true index by far less than tau/2 and values by less than 0.01
    spec = InstanceSpec(n=2**10, s_a=4, s_b=4, seed=21)
    inst = generate_instance(spec)
    c = naive_convolve(inst.a, inst.b)
    supp = support_ge(c, inst.c1_effective)
    cache = SketchCache(inst.a, inst.b)
    checked = 0
    for p in (1031, 1033, 1039, 1049):
        sk = build_sketch(inst.a, inst.b, p, cache=cache)
        for x in supp:
            if not is_isolated(x, supp, p):
                continue
            ratio = sk.w[x % p] / sk.v[x % p]
            assert abs(ratio - x) <= 0.25 / 2
            assert abs(sk.v[x % p] - c[x]) <= 0.01
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", [0, 2])
def test_round_off_at_n_2_20_stays_far_below_tau(seed):
    # the n20-k16 benchmark shape at its plan's modulus, on the cyclic
    # route and on the dense product folded at its primes: every
    # significant index is isolated under these primes, and its bucket
    # reads it within 2.3e-10 to 1.3e-9: tau = 0.25 holds with eight
    # orders to spare
    n = 2**20
    inst = generate_instance(InstanceSpec(n=n, s_a=4, s_b=4, seed=seed))
    product = fft_convolve(inst.a, inst.b)
    supp = support_ge(product, inst.c1_effective)
    rng = np.random.default_rng(seed)
    primes = [sample_prime(approx_plan(ApproxParams(k=16, delta=0.1), n).m, rng) for _ in range(4)]
    cache = SketchCache(inst.a, inst.b)
    errors = [
        abs(w[x % p] / v[x % p] - x)
        for p in primes
        for sk in [build_sketch(inst.a, inst.b, p, cache=cache)]
        for v, w in ((sk.v, sk.w), fold(product, p, moment=True))
        for x in supp
        if is_isolated(x, supp, p)
    ]
    assert errors and max(errors) <= 1e-6


def _plan_id(value):
    # a plan prints as its m-count pair
    if isinstance(value, tuple):
        m, count = value
        return f"{m}-{count}"
    return None


@pytest.mark.parametrize(
    "n, plan, dense",
    [
        # n17-k64 at its grid's top modulus: one dense product's transforms
        # cost less than 75 sketches', and than 3 priced at the smallest prime
        (2**17, (26112, 75), True),
        (2**17, (26112, 3), True),
        (2**17, (3264, 8), False),  # n17-k64 with r = ceil(log(2n)/log m), one factor too many
        (2**17, (1632, 7), False),  # n17-k64 at another grid base
        (2**17, (1940, 6), False),  # n17-k64's plan sized to isolate every index
        (2**17, (576, 3), False),  # n17-k64's plan
        (2**19, (4864, 59), True),  # n = 2^19, k = 16 at its top modulus
        # n20-k16 at its top modulus, at 59 sketches, 3 and its cap
        (2**20, (5120, 59), False),
        (2**20, (5120, 3), False),
        (2**20, (5120, 67), False),
        (2**20, (2560, 3), False),  # n20-k16 at another grid base
        (2**20, (3620, 2), False),  # n20-k16's plan sized to isolate every index
        (2**20, (1076, 2), False),  # n20-k16's plan
        (2**20, (40960, 32), True),  # n20-k16 fresh-prime levels (run_correction_level)
        # n=2^16, k=4 exact's bootstrap at its cap: 51 heavy sketches took
        # 12.7 ms on the dense product against 18.3-19.6 ms cyclic (medians
        # of 60, 2-core VM)
        (2**16, (512, 51), True),
        (2**16, (2048, 19), True),  # its fresh-prime levels
    ],
    ids=_plan_id,
)
def test_dense_route_at_benchmark_shapes(n, plan, dense):
    # every plan here hashes (m < 2n - 1), so it is priced, and built, on
    # the cyclic route. `dense` marks where one dense product's transforms
    # cost no more than the family's cyclic ones: folding the product
    # lossily there would save transforms, but the lossless plan (2n - 1,
    # 2) folds it for less still, so a lossy fold of it never wins
    from sparseconv.fft import pad_length, transform_work
    from sparseconv.sketch import FOLD_WORK, SKETCH_WORK, TRANSFORM_WORK, route_price

    m, count = plan
    assert m < 2 * n - 1
    cyclic = count * 6 * (transform_work(pad_length(3 * m - 1)) + TRANSFORM_WORK)
    assert route_price(n, m, count) == count * (FOLD_WORK * 2 * n + SKETCH_WORK) + cyclic
    assert (3 * (transform_work(pad_length(2 * n - 1)) + TRANSFORM_WORK) <= cyclic) is dense
    assert not dense or route_price(n, 2 * n - 1, 2) <= route_price(n, m, count)


# ROADMAP's crossover sweep at delta = 0.1: (m, count) per n = 2^14 ... 2^22;
# each count is the least L >= 2 with C(k, 2) (r / pi(m))^L <= 0.025: at
# k = 16, L = 2 wherever pi(m) / r >= 69.3 (532: 80 primes, r = 1; 1076:
# 144, r = 2); at k = 64, L = 2 needs pi(m) / r >= 284 (2579: 312) and
# L = 3 only q < 1, pi(m) / r > 63 (475: 70; 726: 102). Its lossless
# cells (k = 256 and 1020 at 2^14, 1020 at 2^16) plan (2n-1, 2), which
# no hashing plan undercuts.
SWEEP_PLANS = {
    16: [(532, 2), (480, 2), (512, 2), (544, 2), (814, 2), (1216, 2), (1076, 2), (1130, 2), (1183, 2)],
    64: [(475, 3), (428, 3), (456, 3), (576, 3), (726, 3), (2579, 2), (2715, 2), (2397, 2), (2986, 2)],
}
SWEEP_LOSSLESS = [(14, 256), (14, 1020), (16, 1020)]


@pytest.mark.parametrize(
    "t, k, plan",
    [pytest.param(t, k, plan, id=f"n{t}-k{k}") for k, plans in SWEEP_PLANS.items() for t, plan in enumerate(plans, 14)]
    + [pytest.param(t, k, (2 ** (t + 1) - 1, 2), id=f"n{t}-k{k}") for t, k in SWEEP_LOSSLESS],
)
def test_plans_at_the_crossover_sweep(t, k, plan):
    assert approx_plan(ApproxParams(k=k, delta=0.1), 2**t) == plan


def test_the_middle_prime_prices_the_family_within_a_few_percent():
    # route_price prices a sketch at the middle prime 3m/2 of [m, 2m];
    # against the mean over the family's primes, at every grid modulus
    # of k <= 256 and n <= 2^20, that is within 12% below m = 448, where
    # few smooth lengths lie between 2m and 4m, and 6% from there
    from sparseconv.approx import _grid
    from sparseconv.fft import pad_length, transform_work
    from sparseconv.hashing import primes_in_range

    for m in {m for k in (1, 2, 4, 16, 64, 256) for t in range(1, 21) for m in _grid(k, 2**t)}:
        mean = np.mean([transform_work(pad_length(2 * int(p) - 1)) for p in primes_in_range(m)])
        ratio = transform_work(pad_length(3 * m - 1)) / mean
        assert abs(ratio - 1) <= (0.12 if m < 448 else 0.06), m


@pytest.mark.parametrize("p, size", [(8209, 16875), (5147, 10368)])
def test_cyclic_route_at_a_smooth_length_matches_the_dense_route(p, size):
    # 16,875 = 3^3 * 5^4 is odd; 10,368 = 2^7 * 3^4; both primes hash at
    # n = 2^14, against the dense product folded at them
    from sparseconv.fft import pad_length

    assert pad_length(2 * p - 1) == size
    inst = generate_instance(InstanceSpec(n=2**14, s_a=4, s_b=4, seed=3))
    cyclic = build_sketch(inst.a, inst.b, p, cache=SketchCache(inst.a, inst.b))
    dense = fold(fft_convolve(inst.a, inst.b), p, moment=True)
    for got, want in ((cyclic.v, dense[0]), (cyclic.w, dense[1])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.max(np.abs(want)))


def test_cyclic_approx_charges_six_smooth_transforms_per_sketch():
    # the call is clean at its starting count, so it sketches no more
    from sparseconv.approx import approx_sparse_convolve
    from sparseconv.fft import fft_work, pad_length, reset_fft_work, transform_work
    from sparseconv.hashing import sample_prime

    n = 2**16
    inst = generate_instance(InstanceSpec(n=n, s_a=2, s_b=2, seed=0))
    params = ApproxParams(k=4, delta=0.1, seed=5)
    plan = approx_plan(params, n)
    primes = [sample_prime(plan.m, np.random.default_rng([params.seed, l])) for l in range(1, plan.reps + 1)]
    sizes = [pad_length(2 * p - 1) for p in primes]
    assert max(primes) < 2 * n - 1  # every prime hashes
    assert any(size & (size - 1) for size in sizes)  # some length is not a power of two
    reset_fft_work()
    approx_sparse_convolve(inst.a, inst.b, params)
    assert fft_work() == sum(6 * transform_work(size) for size in sizes)


def test_approx_charges_one_dense_product_when_it_is_cheaper():
    from sparseconv.approx import approx_sparse_convolve
    from sparseconv.fft import fft_work, reset_fft_work, transform_work

    # at n = 2^13, k = 64 the grid bases from 2496 up meet the pair bound
    # with 2 sketches, and 4 or more below, every one priced above the
    # lossless plan's one dense product
    inst = generate_instance(InstanceSpec(n=2**13, s_a=8, s_b=8, seed=0))
    params = ApproxParams(k=64, delta=0.1, seed=0)
    assert approx_plan(params, 2**13) == Plan(m=16383, reps=2)
    reset_fft_work()
    approx_sparse_convolve(inst.a, inst.b, params)
    assert fft_work() == 3 * transform_work(2**14) == 688_128


@pytest.mark.parametrize(
    "n, k, dense",
    [
        pytest.param(2**12, 16, True, id="4096-16"),
        pytest.param(2**14, 4, False, id="16384-4"),
        pytest.param(2**15, 4, False, id="32768-4"),
        pytest.param(2**11, 1, True, id="2048-1"),  # 2 cyclic sketches at m = 44 priced above one dense product
        pytest.param(2**16, 4, False, id="65536-4"),
    ],
)
def test_exact_call_does_the_fft_work_of_its_bootstrap_alone(n, k, dense):
    # the plan's starting sketches, on its primes' route, are the call's
    # only transforms; the correction levels peel its stored buckets
    from sparseconv.approx import CorrectionTrace
    from sparseconv.exact import ExactParams, exact_sparse_convolve
    from sparseconv.fft import fft_work, pad_length, reset_fft_work, transform_work
    from sparseconv.hashing import sample_prime

    side = math.isqrt(k)  # k = s_a * s_b
    inst = generate_instance(InstanceSpec(n=n, s_a=side, s_b=side, seed=0))
    params = ExactParams(k=k, delta=0.1, seed=0)
    m, reps = approx_plan(params, n)
    assert (m >= 2 * n - 1) is dense
    if dense:
        expected = 3 * transform_work(pad_length(2 * n - 1))
    else:
        primes = [sample_prime(m, np.random.default_rng([0, l])) for l in range(1, reps + 1)]
        expected = sum(6 * transform_work(pad_length(2 * p - 1)) for p in primes)
    trace = CorrectionTrace()
    reset_fft_work()
    exact_sparse_convolve(inst.a, inst.b, params, trace=trace)
    assert trace.bootstrap_reps == [reps]
    assert fft_work() == expected > 0


def _cached_calls():
    def arrays(sk):
        return sk.primes.tolist(), sk.keys.tolist(), sk.v.tolist(), sk.w.tolist()

    partial = SparseResult({1500: 1.0})  # a valid output index of the cache's inputs only
    return {
        "build_sketch": lambda a, b, cache: arrays(build_sketch(a, b, 1511, cache=cache)),
        "build_residual_sketch": lambda a, b, cache: arrays(build_residual_sketch(a, b, partial, 1511, cache=cache)),
    }


@pytest.mark.parametrize("call", _cached_calls().values(), ids=list(_cached_calls()))
def test_a_given_cache_supplies_every_input(monkeypatch, call):
    # a given cache fixes the inputs, and with them the route (1511 hashes
    # at n = 2^14, not at 4) and the output length: stand-in a, b of
    # another length are not read
    inst = generate_instance(InstanceSpec(n=2**14, s_a=2, s_b=2, seed=0))
    cache = SketchCache(inst.a, inst.b)
    built = []
    monkeypatch.setattr(SketchCache, "dense_products", lambda self: built.append(1))
    own = call(inst.a, inst.b, cache)
    assert call(np.ones(4), np.ones(4), cache) == own
    assert not built


@pytest.mark.parametrize(
    "build",
    [build_sketch, lambda a, b, p, cache=None: build_residual_sketch(a, b, SparseResult({len(a): 1.0}), p, cache=cache)],
    ids=["build_sketch", "build_residual_sketch"],
)
@pytest.mark.parametrize("n, p, units", [(64, 67, 5_730), (2**18, 100_003, 21_417_486)], ids=["64-67", "262144-100003"])
def test_a_one_off_sketch_takes_the_cyclic_route(build, n, p, units):
    # at a prime below 2n-1, with a cache or without, the sketch folds the
    # inputs and runs six transforms at its own prime's length
    from sparseconv.fft import fft_work, pad_length, reset_fft_work, transform_work

    rng = np.random.default_rng(n)
    a, b = rng.random(n), rng.random(n)
    reset_fft_work()
    one_off = build(a, b, p)
    assert fft_work() == 6 * transform_work(pad_length(2 * p - 1)) == units
    cyclic = build(a, b, p, cache=SketchCache(a, b))
    assert np.array_equal(one_off.v, cyclic.v) and np.array_equal(one_off.w, cyclic.w)
