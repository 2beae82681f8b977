import numpy as np
import pytest

from sparseconv.approx import ApproxParams, approx_plan, approx_sparse_convolve, ceil_log2
from sparseconv.exact import ExactParams, exact_sparse_convolve
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.hashing import primes_in_range
from sparseconv.numerics import naive_convolve, support_ge

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


@pytest.mark.parametrize(
    "engine, params",
    [
        (approx_sparse_convolve, ApproxParams(k=1, delta=0.1)),
        (exact_sparse_convolve, ExactParams(k=1, delta=0.1)),
    ],
    ids=["approx", "exact"],
)
@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.0, -1.0, 0.0, 1.0]),  # a negative entry drops terms
        np.full(4, np.nan),  # all-NaN sketches have no heavy bucket
        np.ones((2, 4)),
    ],
    ids=["negative", "nan", "2d"],
)
def test_engines_reject_inputs_that_void_the_guarantee(engine, params, bad):
    good = impulse(4, 1)
    with pytest.raises(ValueError):
        engine(bad, good, params)
    with pytest.raises(ValueError):
        engine(good, bad, params)


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
