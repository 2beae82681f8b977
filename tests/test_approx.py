import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseconv.approx
from sparseconv.approx import (
    ApproxParams, CorrectionTrace, Plan, _isolation_reps, _max_factors, _vote, approx_plan, approx_sparse_convolve,
    ceil_log2,
)
from sparseconv.exact import ExactParams, exact_sparse_convolve, residual_norm, run_correction_level
from sparseconv.harness import InstanceSpec, generate_instance, run_engine
from sparseconv.hashing import primes_in_range, sample_prime
from sparseconv.numerics import SparseResult, naive_convolve, support_ge
from sparseconv.sketch import SketchCache, build_residual_sketch, build_sketch

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
        with pytest.raises(ValueError, match="seed"):
            ApproxParams(k=1, delta=0.1, seed=-1)
        # values that construct but that no engine call could run
        for L_mult in (math.inf, math.nan):
            with pytest.raises(ValueError, match="L_mult"):
                ApproxParams(k=1, delta=0.1, L_mult=L_mult)
        # no bucket reaches an infinite c1, so every call would return {}
        for c1 in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="c1"):
                ApproxParams(k=1, delta=0.1, c1=c1)
        for seed in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ApproxParams(k=1, delta=0.1, seed=seed)
        params = ApproxParams(k=1, delta=0.1, seed=np.int64(3))
        assert params == ApproxParams(k=1, delta=0.1, seed=3) and type(params.seed) is int
        # the fixed constants keep their values but are not fields; the
        # modulus has no constant, as each call's plan prices it
        params = ApproxParams(k=1, delta=0.1)
        for name, value in (("tau", 0.25), ("min_votes_frac", 0.5)):
            assert getattr(params, name) == value
            with pytest.raises(TypeError):
                ApproxParams(k=1, delta=0.1, **{name: value})
        assert not hasattr(params, "m_mult")

    def test_k_must_be_an_integer(self):
        inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
        for cls, engine in ((ApproxParams, approx_sparse_convolve), (ExactParams, exact_sparse_convolve)):
            params = cls(k=np.int64(16), delta=0.1, seed=2)
            assert params == cls(k=16, delta=0.1, seed=2) and type(params.k) is int
            expected = engine(inst.a, inst.b, cls(k=16, delta=0.1, seed=2))
            assert engine(inst.a, inst.b, params).sorted_items() == expected.sorted_items()
            for k in (16.5, 16.0, "16"):
                with pytest.raises(ValueError, match="k must be an integer"):
                    cls(k=k, delta=0.1)

    def test_plan_formulas(self):
        # the cap is the paper's count at delta/2, ceil(8 * log2(1280));
        # one dense product serves any count, so the fewest sketches win,
        # at the grid's top modulus 4 k ceil(log2 n) ceil(log2 k)
        assert approx_plan(ApproxParams(k=64, delta=0.1), 2**14) == Plan(4 * 64 * 14 * 6, 3, 83, True)
        # the benchmark shapes: cyclic sketches at a smaller modulus
        assert approx_plan(ApproxParams(k=64, delta=0.1), 2**17) == Plan(1632, 7, 83, False)
        assert approx_plan(ApproxParams(k=16, delta=0.1), 2**20) == Plan(2560, 3, 67, False)
        # floors engage for tiny k and lax delta: m >= 16 and counts >= 3
        assert approx_plan(ApproxParams(k=1, delta=0.99, L_mult=1), 4) == Plan(16, 3, 3, True)

    def test_the_factor_count_is_exact_at_powers(self):
        # 2n - 2 = 48^3, where the float floor of log(48^3) / log(48) is 2
        assert 2 * 55_297 - 2 == 48**3 and int(math.log(48**3) / math.log(48)) == 2
        assert _max_factors(55_297, 48) == 3 and _max_factors(55_296, 48) == 2
        # n = 1 has one output and no difference: nothing collides, so the floor of 3 holds
        assert _max_factors(1, 48) == 0
        assert _isolation_reps(64, 0.1, 1, 48, 83) == 3


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
    "approx_sparse_convolve": lambda a, b: approx_sparse_convolve(a, b, ApproxParams(k=1, delta=0.1)),
    "exact_sparse_convolve": lambda a, b: exact_sparse_convolve(a, b, ExactParams(k=1, delta=0.1)),
    "residual_norm": lambda a, b: residual_norm(a, b, SparseResult(), 0.5, 1, 0),
    "run_engine": lambda a, b: run_engine("fft", a, b, ExactParams(k=1, delta=0.1)),
    "build_sketch": lambda a, b: build_sketch(a, b, 5),
    "build_residual_sketch": lambda a, b: build_residual_sketch(a, b, SparseResult(), 5),
    "run_correction_level": lambda a, b: run_correction_level(
        a, b, SparseResult(), 1, 1, 16, ExactParams(k=1, delta=0.1)
    ),
}


# test ids name the two engines by their short names, approx and exact
@pytest.mark.parametrize(
    "engine", ENGINE_ENTRY_POINTS.values(), ids=[name.removesuffix("_sparse_convolve") for name in ENGINE_ENTRY_POINTS]
)
@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.0, -1.0, 0.0, 1.0]),  # a negative entry drops terms
        np.full(4, np.nan),  # all-NaN sketches have no heavy bucket
        np.ones((2, 4)),
        np.array(1.0),
        np.zeros(0),
        np.ones(5),
        np.array([0, 2 + 5j, 0, 0]),  # the float64 cast would drop the imaginary part
        [0, 2 + 5j, 0, 0],
    ],
    ids=["negative", "nan", "2d", "0d", "empty", "length-mismatch", "complex-array", "complex-list"],
)
def test_engines_reject_inputs_that_void_the_guarantee(engine, bad):
    good = impulse(4, 1)
    with pytest.raises(ValueError):
        engine(bad, good)
    with pytest.raises(ValueError):
        engine(good, bad)
    if np.shape(bad) == (5,):
        with pytest.raises(ValueError, match="length mismatch: 4 vs 5"):
            engine(good, bad)


def test_readme_lists_the_entry_points_that_check_their_inputs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("The guarantees hold only for non-negative inputs") :].split("\n\n")[0]
    listed = re.search(r"\((`\w+`(?:,\s+`\w+`)*)\)\s+raises\s+`ValueError`", paragraph)
    assert listed and re.findall(r"`(\w+)`", listed.group(1)) == list(ENGINE_ENTRY_POINTS)


def test_inputs_are_only_read():
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
    frozen = [inst.a.copy(), inst.b.copy()]
    for v in frozen:
        v.setflags(write=False)
    calls = [
        lambda a, b: approx_sparse_convolve(a, b, ApproxParams(k=16, delta=0.1, seed=2)),
        lambda a, b: exact_sparse_convolve(a, b, ExactParams(k=16, delta=0.1, seed=2)),
        lambda a, b: residual_norm(a, b, SparseResult(), 0.5, 1, 0),
        lambda a, b: run_engine("approx", a, b, ExactParams(k=16, delta=0.1)).result,
        lambda a, b: build_sketch(a, b, 101).v.tolist(),
    ]
    for call in calls:
        assert call(*frozen) == call(inst.a, inst.b)


@pytest.mark.parametrize("reps", [0, -1, 2.5])
@pytest.mark.parametrize("heavy", [None, []], ids=["no-list", "list"])
def test_reps_below_one_is_rejected(reps, heavy):
    # by the vote step, with no sketch stored or the one sketch of a count
    # of 1, and by a correction level; range() would reject a non-integral
    # count deep inside
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
    params = ApproxParams(k=16, delta=0.1)
    cache = SketchCache(inst.a, inst.b, True)
    stored = []
    if heavy is not None:
        _vote(cache, params, stored, 1)
    with pytest.raises(ValueError, match="reps"):
        _vote(cache, params, stored, reps)
    with pytest.raises(ValueError, match="reps"):
        run_correction_level(inst.a, inst.b, SparseResult(), 1, reps, 64, ExactParams(k=16, delta=0.1))


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "cyclic"])
def test_each_stored_sketch_is_its_repetitions_sketch_at_its_heavy_buckets(dense):
    # the vote step grows the stored list to the count it is given,
    # keeping the sketches it already holds
    inst = generate_instance(InstanceSpec(n=2**12, s_a=4, s_b=4, seed=5))
    params = ApproxParams(k=16, delta=0.1, seed=4)
    cache = SketchCache(inst.a, inst.b, dense)
    m, _, L, _ = approx_plan(params, len(inst.a))
    stored = []
    _vote(cache, params, stored, 3)
    first = list(stored)
    _vote(cache, params, stored, L)
    assert len(stored) == L and stored[:3] == first
    for l, sk in enumerate(stored, 1):
        full = build_sketch(inst.a, inst.b, sample_prime(m, np.random.default_rng([params.seed, l])), cache=cache)
        assert sk.p == full.p
        assert np.array_equal(sk.buckets, np.flatnonzero(full.v >= params.c1))
        assert np.array_equal(sk.v, full.v[sk.buckets]) and np.array_equal(sk.w, full.w[sk.buckets])


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "cyclic"])
def test_approx_is_exact_without_rounding(monkeypatch, dense):
    # one recovery path: on either route, forced for both engines,
    # approx returns exact's integer_mode=False result bit for bit
    inst = generate_instance(InstanceSpec(n=2**12, s_a=4, s_b=6, seed=9, integer_values=False))
    plan = sparseconv.approx.approx_plan
    monkeypatch.setattr(sparseconv.approx, "approx_plan", lambda params, n: plan(params, n)._replace(dense=dense))
    for seed in range(3):
        params = dict(k=24, delta=0.1, seed=seed)
        out = approx_sparse_convolve(inst.a, inst.b, ApproxParams(**params))
        assert len(out) > 0
        exact = exact_sparse_convolve(inst.a, inst.b, ExactParams(**params, integer_mode=False))
        assert out.entries == exact.entries


@pytest.mark.parametrize("engine", ["approx", "exact"])
def test_a_c1_below_tau_keeps_the_entries_between_them(engine):
    # c1 = 0.1 is legal, so entries near 0.2 are significant though at or
    # below tau: both engines return them at the starting count, unwarned
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, value_range=(1, 1.1), integer_values=False, seed=3))
    a = 0.2 * inst.a
    c = naive_convolve(a, inst.b)
    truth = support_ge(c, 0.1)
    assert len(truth) == 16 and max(c[j] for j in truth) < ApproxParams.tau
    params = dict(k=16, delta=0.1, c1=0.1, seed=1)
    trace = CorrectionTrace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if engine == "approx":
            out = approx_sparse_convolve(a, inst.b, ApproxParams(**params), trace=trace)
        else:
            out = exact_sparse_convolve(a, inst.b, ExactParams(**params, integer_mode=False), trace=trace)
    assert out.support() == truth
    assert all(abs(v - c[j]) < 0.01 for j, v in out.entries.items())
    assert trace.bootstrap_reps == [approx_plan(ApproxParams(**params), 2**10).reps]


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
    # at the plan's modulus, here the grid's top 4 k log2(n) log2(k), a
    # fixed significant index collides in at most a quarter of sampled
    # primes (plus slack)
    spec = InstanceSpec(n=2**12, s_a=8, s_b=8, seed=41)
    inst = generate_instance(spec)
    c = naive_convolve(inst.a, inst.b)
    supp = support_ge(c, inst.c1_effective)
    m = approx_plan(ApproxParams(k=64, delta=0.1), spec.n).m
    assert m == 4 * 64 * 12 * 6
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
    # every index the vote step reports; cross-check by recomputing the pool
    from sparseconv.hashing import sample_prime
    from sparseconv.sketch import SketchCache, build_sketch, extract_candidates

    spec = InstanceSpec(n=2**10, s_a=3, s_b=3, seed=51)
    inst = generate_instance(spec)
    params = ApproxParams(k=9, delta=0.1, seed=13)
    m, _, L, dense = approx_plan(params, spec.n)
    cache = SketchCache(inst.a, inst.b, dense)
    votes: dict[int, int] = {}
    for l in range(1, L + 1):
        rng = np.random.default_rng([params.seed, l])
        p = sample_prime(m, rng)
        sk = build_sketch(inst.a, inst.b, p, cache=cache)
        for cand in extract_candidates(sk, params.c1, params.tau, 2 * spec.n - 1):
            votes[cand.index] = votes.get(cand.index, 0) + 1
    out = _vote(cache, params, [], L)
    assert len(out) > 0
    need = -(-L // 2)
    for idx in out.support():
        assert votes[idx] >= need


def _records(pairs):
    return np.rec.array(np.array(pairs, dtype=[("index", np.int64), ("value", np.float64)]))


def _pooled(per_rep):
    """The vote over len(per_rep) repetitions with repetition l's
    extraction scripted as per_rep[l - 1], a list of (index, value) pairs."""
    scripted = iter(per_rep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sparseconv.approx.extract_candidates", lambda s, c1, tau, out_len: _records(next(scripted)))
        return _vote(SketchCache(np.ones(8), np.ones(8), True), ApproxParams(k=1, delta=0.5), [], len(per_rep))


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
