import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseconv.approx import ApproxParams, approx_plan, approx_sparse_convolve, ceil_log2
from sparseconv.exact import ExactParams, exact_sparse_convolve, residual_norm, run_correction_level
from sparseconv.harness import InstanceSpec, generate_instance, run_engine
from sparseconv.hashing import primes_in_range
from sparseconv.numerics import SparseResult, naive_convolve, support_ge
from sparseconv.sketch import SketchCache, build_residual_sketch, build_sketch, dense_route

from isolation import is_isolated


def impulse(n, at):
    v = np.zeros(n)
    v[at] = 1.0
    return v


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 63, 64, 65)] == [0, 1, 2, 2, 6, 6, 7]
    with pytest.raises(ValueError):
        ceil_log2(0)


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ApproxParams(k=0, delta=0.1)
        with pytest.raises(ValueError):
            ApproxParams(k=1, delta=1.0)
        with pytest.raises(ValueError):
            ApproxParams(k=1, delta=0.1, L_mult=0.5)
        # the fixed constants keep their values but are not fields
        params = ApproxParams(k=1, delta=0.1)
        for name, value in (("tau", 0.25), ("m_mult", 4), ("min_votes_frac", 0.5)):
            assert getattr(params, name) == value
            with pytest.raises(TypeError):
                ApproxParams(k=1, delta=0.1, **{name: value})

    def test_plan_formulas(self):
        m, L = approx_plan(ApproxParams(k=64, delta=0.1), 2**14)
        assert m == 4 * 64 * 14 * 6
        assert L == 75  # ceil(8 * log2(640))
        # floors engage for tiny k and lax delta
        m, L = approx_plan(ApproxParams(k=1, delta=0.9), 4)
        assert m == 16 and L == 3


def test_zero_vectors_give_empty_result():
    out = approx_sparse_convolve(np.zeros(8), np.zeros(8), ApproxParams(k=2, delta=0.1))
    assert len(out) == 0


def test_impulse_pair():
    out = approx_sparse_convolve(
        impulse(4, 2), impulse(4, 3), ApproxParams(k=1, delta=0.1, seed=3)
    )
    assert out.support() == {5}
    assert abs(out[5] - 1.0) <= 0.01


def test_length_mismatch():
    with pytest.raises(ValueError):
        approx_sparse_convolve(np.ones(4), np.ones(5), ApproxParams(k=1, delta=0.1))


ENGINE_ENTRY_POINTS = {
    "approx": lambda a, b: approx_sparse_convolve(a, b, ApproxParams(k=1, delta=0.1)),
    "exact": lambda a, b: exact_sparse_convolve(a, b, ExactParams(k=1, delta=0.1)),
    "residual_norm": lambda a, b: residual_norm(a, b, SparseResult(), 0.5, 1, 0),
    "run_engine": lambda a, b: run_engine("fft", a, b),
    "build_sketch": lambda a, b: build_sketch(a, b, 5),
    "build_residual_sketch": lambda a, b: build_residual_sketch(a, b, SparseResult(), 5),
    "run_correction_level": lambda a, b: run_correction_level(
        a, b, SparseResult(), 1, 1, 16, ExactParams(k=1, delta=0.1)
    ),
}


@pytest.mark.parametrize("engine", ENGINE_ENTRY_POINTS.values(), ids=list(ENGINE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.0, -1.0, 0.0, 1.0]),  # a negative entry drops terms
        np.full(4, np.nan),  # all-NaN sketches have no heavy bucket
        np.ones((2, 4)),
        np.array(1.0),
        np.zeros(0),
        np.ones(5),
    ],
    ids=["negative", "nan", "2d", "0d", "empty", "length-mismatch"],
)
def test_engines_reject_inputs_that_void_the_guarantee(engine, bad):
    good = impulse(4, 1)
    with pytest.raises(ValueError):
        engine(bad, good)
    with pytest.raises(ValueError):
        engine(good, bad)
    if bad.shape == (5,):
        with pytest.raises(ValueError, match="length mismatch: 4 vs 5"):
            engine(good, bad)


def test_inputs_are_only_read():
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
    frozen = [inst.a.copy(), inst.b.copy()]
    for v in frozen:
        v.setflags(write=False)
    calls = [
        lambda a, b: approx_sparse_convolve(a, b, ApproxParams(k=16, delta=0.1, seed=2)),
        lambda a, b: exact_sparse_convolve(a, b, ExactParams(k=16, delta=0.1, seed=2)),
        lambda a, b: residual_norm(a, b, SparseResult(), 0.5, 1, 0),
        lambda a, b: run_engine("approx", a, b, k=16).result,
        lambda a, b: build_sketch(a, b, 101).v.tolist(),
    ]
    for call in calls:
        assert call(*frozen) == call(inst.a, inst.b)


def test_a_given_cache_supplies_the_inputs():
    # n = 2^16, k = 2 prices to the cyclic route, so the cached call below
    # sketches the way the uncached one does
    inst = generate_instance(InstanceSpec(n=2**16, s_a=1, s_b=2, seed=7))
    params = ApproxParams(k=2, delta=0.1, seed=3)
    n = len(inst.a)
    assert not dense_route(n, approx_plan(params, n))
    cached = approx_sparse_convolve(np.zeros(n), np.zeros(n), params, cache=SketchCache(inst.a, inst.b, False))
    uncached = approx_sparse_convolve(inst.a, inst.b, params)
    assert len(uncached) > 0
    assert cached.sorted_items() == uncached.sorted_items()


def test_deterministic_given_seed():
    spec = InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31)
    inst = generate_instance(spec)
    params = ApproxParams(k=16, delta=0.1, seed=77)
    first = approx_sparse_convolve(inst.a, inst.b, params)
    second = approx_sparse_convolve(inst.a, inst.b, params)
    assert first == second
    different = approx_sparse_convolve(
        inst.a, inst.b, ApproxParams(k=16, delta=0.1, seed=78)
    )
    # same support either way; the point is outputs are a pure function
    # of the seed
    assert different.support() == first.support()


def test_isolation_frequency():
    # with m = 4 k log2(n) log2(k), a fixed significant index collides
    # in at most a quarter of sampled primes (plus slack)
    spec = InstanceSpec(n=2**12, s_a=8, s_b=8, seed=41)
    inst = generate_instance(spec)
    c = naive_convolve(inst.a, inst.b)
    supp = support_ge(c, inst.c1_effective)
    m, _ = approx_plan(ApproxParams(k=64, delta=0.1), spec.n)
    primes = primes_in_range(m)
    rng = np.random.default_rng(5)
    x = sorted(supp)[0]
    draws = primes[rng.integers(len(primes), size=1000)]
    non_isolated = sum(not is_isolated(x, supp, int(p)) for p in draws)
    assert non_isolated / 1000 <= 0.25 + 0.05


def test_statistical_recovery_small_grid():
    # 20 seeds at n=2^12, k=16: support and values recovered in at
    # least 18 of them (the acceptance suite runs the full-size version)
    ok = 0
    for seed in range(20):
        spec = InstanceSpec(n=2**12, s_a=4, s_b=4, seed=1000 + seed)
        inst = generate_instance(spec)
        oracle = naive_convolve(inst.a, inst.b)
        true_supp = support_ge(oracle, inst.c1_effective)
        out = approx_sparse_convolve(
            inst.a, inst.b, ApproxParams(k=16, delta=0.1, seed=seed)
        )
        if out.support() == true_supp and all(
            abs(out[j] - oracle[j]) <= 0.01 for j in true_supp
        ):
            ok += 1
    assert ok >= 18


def test_every_kept_index_has_majority_votes():
    # the vote filter guarantees at least ceil(L/2) candidates behind
    # every reported index; cross-check by recomputing the pool
    from sparseconv.hashing import sample_prime
    from sparseconv.sketch import SketchCache, build_sketch, dense_route, extract_candidates

    spec = InstanceSpec(n=2**10, s_a=3, s_b=3, seed=51)
    inst = generate_instance(spec)
    params = ApproxParams(k=9, delta=0.1, seed=13)
    m, L = approx_plan(params, spec.n)
    cache = SketchCache(inst.a, inst.b, dense_route(spec.n, (m, L)))
    votes: dict[int, int] = {}
    for l in range(1, L + 1):
        rng = np.random.default_rng([params.seed, l])
        p = sample_prime(m, rng)
        sk = build_sketch(inst.a, inst.b, p, cache=cache)
        for cand in extract_candidates(sk, params.c1, params.tau, 2 * spec.n - 1):
            votes[cand.index] = votes.get(cand.index, 0) + 1
    out = approx_sparse_convolve(inst.a, inst.b, params)
    need = -(-L // 2)
    for idx in out.support():
        assert votes[idx] >= need


def _records(pairs):
    return np.rec.array(np.array(pairs, dtype=[("index", np.int64), ("value", np.float64)]))


def _pooled(per_rep):
    """approx_sparse_convolve with repetition l's extraction scripted as
    per_rep[l - 1], a list of (index, value) pairs."""
    params = ApproxParams(k=1, delta=0.5, L_mult=len(per_rep))
    assert approx_plan(params, 8)[1] == len(per_rep)
    scripted = iter(per_rep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sparseconv.approx.extract_candidates", lambda s, c1, tau, out_len: _records(next(scripted)))
        return approx_sparse_convolve(np.ones(8), np.ones(8), params)


def _pooled_by_dict_of_lists(per_rep):
    pool: dict[int, list[float]] = {}
    for pairs in per_rep:
        for i, v in pairs:
            pool.setdefault(i, []).append(v)
    floor = math.ceil(ApproxParams.min_votes_frac * len(per_rep))
    return {i: sorted(v)[(len(v) - 1) // 2] for i, v in pool.items() if len(v) >= floor}


@pytest.mark.parametrize(
    "per_rep, expected",
    [
        ([[(5, 3.0)], [(5, 1.0)], [(5, 2.0)]], {5: 2.0}),
        ([[(5, 4.0)], [(5, 1.0)], [(5, 3.0)], [(5, 2.0)]], {5: 2.0}),
        # L = 5 needs ceil(2.5) = 3 votes
        ([[(1, 7.0), (2, 7.0)], [(1, 7.5), (2, 6.0)], [(1, 6.5)], [], []], {1: 7.0}),
        ([[(4, 2.0)], [(4, 2.0)], [(4, 2.0), (9, 2.0)]], {4: 2.0}),
        # a second vote from the same repetition counts as any other
        ([[(3, 1.0), (3, 5.0)], [], [], []], {3: 1.0}),
        ([[], [], []], {}),
    ],
    ids=["odd-count-takes-the-middle", "even-count-takes-the-lower-middle", "vote-floor",
         "equal-values", "repeat-within-a-repetition", "no-candidate"],
)
def test_vote_pool_matches_the_dict_of_lists_rule(per_rep, expected):
    assert _pooled_by_dict_of_lists(per_rep) == expected
    assert _pooled(per_rep).entries == expected


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_vote_pool_matches_the_dict_of_lists_rule_on_random_votes(data):
    L = data.draw(st.integers(3, 9), label="L")
    pair = st.tuples(st.integers(0, 14), st.sampled_from([0.5, 1.0, 2.0, 2.5]) | st.floats(0.5, 100))
    per_rep = data.draw(st.lists(st.lists(pair, max_size=6), min_size=L, max_size=L), label="votes")
    assert _pooled(per_rep).entries == _pooled_by_dict_of_lists(per_rep)


def test_vote_pool_is_robust_to_minority_corruption():
    # corrupting up to (L-1)//2 of an index's L votes cannot push its
    # kept value outside the span of the honest votes
    rng = np.random.default_rng(4)
    for _ in range(50):
        votes = sorted(rng.normal(10.0, 0.001, int(rng.integers(3, 12))))
        poisoned = list(votes)
        for i in range((len(votes) - 1) // 2):
            poisoned[i] = float(rng.choice([-1e9, 1e9]))
        kept = _pooled([[(5, v)] for v in poisoned])
        assert votes[0] <= kept[5] <= votes[-1]
