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
    ApproxParams, CorrectionTrace, Plan, _grid, _level, _max_factors, _separation_reps, _stored, _vote,
    approx_plan, approx_sparse_convolve, ceil_log2,
)
from sparseconv.exact import ExactParams, exact_plan, exact_sparse_convolve, residual_norm, run_correction_level
from sparseconv.fft import fft_convolve
from sparseconv.harness import InstanceSpec, generate_instance, run_engine
from sparseconv.hashing import fold, primes_in_range, sample_prime
from sparseconv.numerics import SparseResult, naive_convolve
from sparseconv.sketch import Sketch, SketchCache, build_residual_sketch, build_sketch, extract_candidates, residual

from isolation import is_isolated
from oracle import significant_support, support_ge


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
        with pytest.raises(ValueError, match="seed"):
            ApproxParams(k=1, delta=0.1, seed=-1)
        # no bucket reaches an infinite c1, so every call would return {}
        for c1 in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="c1"):
                ApproxParams(k=1, delta=0.1, c1=c1)
        # True would run as 1; a string would raise TypeError from "<"
        for knob, value in (
            ("delta", True), ("delta", "0.1"), ("delta", math.nan), ("delta", 0.0),
            ("c1", True), ("c1", "0.5"), ("c1", math.nan), ("c1", -1.0),
        ):
            with pytest.raises(ValueError, match=f"^{knob} must lie in"):
                ApproxParams(**{"k": 1, "delta": 0.1, knob: value})
        params = ApproxParams(k=1, delta=np.float32(0.5), c1=1)
        assert (params.delta, params.c1) == (0.5, 1.0) and {type(params.delta), type(params.c1)} == {float}
        for seed in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ApproxParams(k=1, delta=0.1, seed=seed)
        params = ApproxParams(k=1, delta=0.1, seed=np.int64(3))
        assert params == ApproxParams(k=1, delta=0.1, seed=3) and type(params.seed) is int
        # the fixed constants keep their values but are not fields; the
        # modulus and the count have no constant, as each call's plan prices them
        params = ApproxParams(k=1, delta=0.1)
        for name, value in (("tau", 0.25), ("min_votes_frac", 0.5)):
            assert getattr(params, name) == value
            with pytest.raises(TypeError):
                ApproxParams(k=1, delta=0.1, **{name: value})
        assert not hasattr(params, "m_mult") and not hasattr(params, "L_mult")

    def test_k_must_be_an_integer(self):
        inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
        for cls, engine in ((ApproxParams, approx_sparse_convolve), (ExactParams, exact_sparse_convolve)):
            params = cls(k=np.int64(16), delta=0.1, seed=2)
            assert params == cls(k=16, delta=0.1, seed=2) and type(params.k) is int
            expected = engine(inst.a, inst.b, cls(k=16, delta=0.1, seed=2))
            assert engine(inst.a, inst.b, params).sorted_items() == expected.sorted_items()
            for k in (16.5, 16.0, "16", True):
                with pytest.raises(ValueError, match="k must be an integer"):
                    cls(k=k, delta=0.1)

    @pytest.mark.parametrize("n", [2.0**10, 0, -1, True, "1024"], ids=["float", "zero", "negative", "bool", "str"])
    @pytest.mark.parametrize("plan", [approx_plan, exact_plan], ids=["approx", "exact"])
    def test_a_bad_n_is_reported_as_n(self, plan, n):
        # not under ceil_log2's parameter name; approx's memo would answer
        # 1024.0 as 1024 had the check been left to the memoised plan
        approx_plan(ApproxParams(k=4, delta=0.1), 1024)
        with pytest.raises(ValueError, match="^n must"):
            plan(ExactParams(k=4, delta=0.1), n)

    def test_plan_formulas(self):
        # criteria 6-8's shape and the benchmark's: cyclic sketches. At
        # n = 2^14 and 2^17, 475 and 576 are the least bases with q =
        # 63 / pi(m) < 1 (70 and 85 primes; 399 and 485 have 61 and 71),
        # and C(64, 2) / pi(m)^L <= 0.025 first at L = 3 (2016 / 70^2 =
        # 0.41); at 2^20, r = 2 and 2016 is C(16, 2) = 120: 120 (2 /
        # 144)^2 = 0.023 at 1076, the cheapest base that needs only 2
        assert approx_plan(ApproxParams(k=64, delta=0.1), 2**14) == Plan(475, 3)
        assert approx_plan(ApproxParams(k=64, delta=0.1), 2**17) == Plan(576, 3)
        assert approx_plan(ApproxParams(k=16, delta=0.1), 2**20) == Plan(1076, 2)
        # at n <= 8 no grid base lies below 2n - 1: the lossless plan's
        # floor of 16, which primes_in_range needs, and its 2 sketches
        assert _grid(1, 4) == [] and approx_plan(ApproxParams(k=1, delta=0.99), 4) == Plan(16, 2)
        # 2 cyclic sketches at m = 96 (6 / 19^2 = 0.017 <= 0.025) edge out
        # the lossless plan's one dense product (636,428 against 702,680
        # units); m = 80 would need 3
        assert approx_plan(ApproxParams(k=4, delta=0.1), 4096) == Plan(96, 2)
        # every base >= 2n - 1 = 8191 folds by the identity, so the grid
        # keeps the bases below it, each priced above the lossless plan
        assert approx_plan(ApproxParams(k=64, delta=0.1), 2**12) == Plan(8191, 2)
        # the top 68,000,000 halved down to the first base below 2047
        assert max(_grid(10**5, 2**10)) == 1745

    def test_the_factor_count_is_exact_at_powers(self):
        # 2n - 2 = 48^3, where the float floor of log(48^3) / log(48) is 2
        assert 2 * 55_297 - 2 == 48**3 and int(math.log(48**3) / math.log(48)) == 2
        assert _max_factors(55_297, 48) == 3 and _max_factors(55_296, 48) == 2
        # n = 1 has one output and no difference: nothing collides, so the floor of 2 holds
        assert _max_factors(1, 48) == 0
        assert _separation_reps(64, 0.1, 1, 48) == 2


def test_zero_vectors_give_empty_result():
    out = approx_sparse_convolve(np.zeros(8), np.zeros(8), ApproxParams(k=2, delta=0.1))
    assert len(out) == 0


def test_impulse_pair():
    out = approx_sparse_convolve(
        impulse(4, 2), impulse(4, 3), ApproxParams(k=1, delta=0.1, seed=3)
    )
    assert out.support() == {5}
    assert abs(out[5] - 1.0) <= 0.01


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("engine", ["approx", "exact"])
def test_tiny_inputs_run_at_the_lossless_floor(engine, n):
    # no grid base lies below 2n - 1 <= 15, so the plan is the lossless
    # one at its floor of 16, the least modulus primes_in_range takes,
    # and every entry of the all-ones product comes back, unwarned
    params = dict(k=2 * n - 1, delta=0.1, seed=0)
    assert approx_plan(ApproxParams(**params), n) == Plan(16, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if engine == "approx":
            out = approx_sparse_convolve(np.ones(n), np.ones(n), ApproxParams(**params))
        else:
            out = exact_sparse_convolve(np.ones(n), np.ones(n), ExactParams(**params))
    truth = np.convolve(np.ones(n), np.ones(n))
    assert out.support() == set(range(2 * n - 1))
    assert all(v == truth[j] if engine == "exact" else abs(v - truth[j]) <= 1e-9 for j, v in out.items())


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


@pytest.mark.parametrize(
    "reps, level",
    [(0, 2), (-1, 2), (2.5, 2), (1, True), (1, 1.0), (1, 1.5), (1, -3)],
    ids=["0", "-1", "2.5", "level-True", "level-1.0", "level-1.5", "level--3"],
)
@pytest.mark.parametrize("heavy", [None, []], ids=["no-list", "list"])
def test_reps_below_one_is_rejected(reps, level, heavy):
    # by a correction level, against an empty partial result or one that
    # a first level filled, which it leaves as it was; range() would reject
    # a non-integral count deep inside, and numpy's seed a non-integral or
    # negative level with its own error, where True would run as level 1.
    # The vote step takes only its plan's count.
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
    params = ExactParams(k=16, delta=0.1)
    current = SparseResult()
    if heavy is not None:
        current, _ = run_correction_level(inst.a, inst.b, current, 1, 1, 64, params)
        assert current
    before = dict(current)
    with pytest.raises(ValueError, match="^level must" if reps == 1 else "reps"):
        run_correction_level(inst.a, inst.b, current, level, reps, 64, params)
    assert current == before


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "cyclic"])
def test_each_stored_sketch_is_its_repetitions_sketch_at_its_heavy_buckets(dense):
    # an attempt builds the count it is given, repetition l on the
    # prime drawn from (seed, l), as one sketch
    # prime by prime, on the route the family takes: the lossless plan
    # folds one dense product, the grid's top base 3072 hashes
    inst = generate_instance(InstanceSpec(n=2**12, s_a=4, s_b=4, seed=5))
    params = ApproxParams(k=16, delta=0.1, seed=4)
    cache = SketchCache(inst.a, inst.b)
    m = approx_plan(params, len(inst.a)).m if dense else _grid(params.k, len(inst.a))[0]
    assert (m >= 2 * len(inst.a) - 1) is dense
    stored = _stored(cache, params, m, 9)
    assert len(stored.primes) == 9
    for l in range(1, 10):
        sk = stored.member(l - 1)
        full = build_sketch(inst.a, inst.b, sample_prime(m, np.random.default_rng([params.seed, l])), cache=cache)
        assert sk.primes.tolist() == full.primes.tolist()
        assert np.array_equal(sk.keys, np.flatnonzero(full.v >= params.c1))
        assert np.array_equal(sk.v, full.v[sk.keys]) and np.array_equal(sk.w, full.w[sk.keys])


def test_level_merges_no_decode_outside_another_stored_sketchs_heavy_buckets():
    # outputs 3 and 17, each 0.3, share bucket 3 under 7, where their W/V
    # = (0.9 + 5.1) / 0.6 = 10 decodes in class; under 11 they fall below
    # c1 apart, so bucket 10 mod 11 is not heavy, while the significant 30
    # is heavy under both and already in C
    product = np.zeros(41)
    product[[3, 17, 30]] = 0.3, 0.3, 1.0
    params, c = ApproxParams(k=1, delta=0.1), SparseResult({30: 1.0})
    stored = Sketch.of((7, 11), [fold(product, p, moment=True) for p in (7, 11)], len(product)).heavy(params.c1)
    assert [stored.member(s).keys.tolist() for s in (0, 1)] == [[2, 3], [8]]
    peeled = residual(stored, c)
    found = extract_candidates(peeled.member(0), params.c1, params.tau)
    assert [(i, round(v, 9)) for i, v in found.tolist()] == [(10, 0.6)]
    assert _level(peeled, c, params) == (c, 7)
    # the chosen sketch alone filters nothing, so the wrong decode is merged
    merged, _ = _level(peeled.member(0), c, params)
    assert merged.support() == {10, 30}


def test_a_level_exposing_nothing_extracts_nothing(monkeypatch):
    # the peel's fixed point: with no residual bucket >= c1 in any sketch,
    # the step reads no candidates, keeps what of C passes its noise
    # filter and names the first sketch's prime, the tie rule's choice
    product = np.zeros(41)
    product[[3, 30]] = 0.75, 1.0
    params = ApproxParams(k=2, delta=0.1)
    c = SparseResult({3: 0.75, 30: 1.0, 5: 0.2})
    peeled = residual(Sketch.of((7, 11), [fold(product, p, moment=True) for p in (7, 11)], len(product)), c)
    assert not np.any(peeled.v >= params.c1)
    monkeypatch.setattr(sparseconv.approx, "extract_candidates", pytest.fail)
    assert _level(peeled, c, params) == (SparseResult({3: 0.75, 30: 1.0}), 7)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "cyclic"])
def test_approx_is_exact_without_rounding(monkeypatch, dense):
    # one recovery path: on either route, approx returns exact's
    # integer_mode=False result bit for bit; k = 24 plans losslessly here,
    # so the cyclic case forces both engines' first attempt onto the grid
    # base 4072, which separates with 2 sketches and whose primes all
    # hash (2m < 2n - 1), and a replan at 2k onto the real plan
    inst = generate_instance(InstanceSpec(n=2**12, s_a=4, s_b=6, seed=9, integer_values=False))
    plan = sparseconv.approx.approx_plan
    assert plan(ApproxParams(k=24, delta=0.1), 2**12) == Plan(8191, 2)
    assert 4072 in _grid(24, 2**12) and _separation_reps(24, 0.1, 2**12, 4072) == 2
    if not dense:
        monkeypatch.setattr(
            sparseconv.approx, "approx_plan", lambda params, n: Plan(4072, 2) if params.k == 24 else plan(params, n)
        )
    for seed in range(3):
        params = dict(k=24, delta=0.1, seed=seed)
        out = approx_sparse_convolve(inst.a, inst.b, ApproxParams(**params))
        assert len(out) > 0
        exact = exact_sparse_convolve(inst.a, inst.b, ExactParams(**params, integer_mode=False))
        assert out == exact


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
    assert all(abs(v - c[j]) < 0.01 for j, v in out.items())
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
    # at a hashing grid base, an eighth of the grid's top 4 k log2(n)
    # log2(k), where the union bound (k - 1) r / pi(m) = 63 / 281 lies
    # below a quarter, a fixed significant index collides in at most a
    # quarter of sampled primes (plus slack), and in some
    spec = InstanceSpec(n=2**12, s_a=8, s_b=8, seed=41)
    inst = generate_instance(spec)
    c = naive_convolve(inst.a, inst.b)
    supp = significant_support(c, inst.c1_effective)
    m = 4 * 64 * 12 * 6 // 8
    assert m in _grid(64, spec.n) and m < 2 * spec.n - 1
    primes = primes_in_range(m)
    assert (len(supp) - 1) * _max_factors(spec.n, m) / len(primes) <= 0.25
    rng = np.random.default_rng(5)
    x = sorted(supp)[0]
    draws = primes[rng.integers(len(primes), size=1000)]
    non_isolated = sum(not is_isolated(x, supp, int(p)) for p in draws)
    assert 0 < non_isolated / 1000 <= 0.25 + 0.05


def test_statistical_recovery_small_grid():
    # 20 seeds at n=2^12, k=16: support and values recovered in at
    # least 18 of them (the acceptance suite runs the full-size version)
    ok = 0
    for seed in range(20):
        spec = InstanceSpec(n=2**12, s_a=4, s_b=4, seed=1000 + seed)
        inst = generate_instance(spec)
        oracle = naive_convolve(inst.a, inst.b)
        true_supp = significant_support(oracle, inst.c1_effective)
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
    m = _grid(params.k, spec.n)[0]  # the grid's top base hashes, where the plan is lossless
    L = 9  # more votes than the plan's count, so the floor is not two
    cache = SketchCache(inst.a, inst.b)
    votes: dict[int, int] = {}
    for l in range(1, L + 1):
        rng = np.random.default_rng([params.seed, l])
        p = sample_prime(m, rng)
        sk = build_sketch(inst.a, inst.b, p, cache=cache)
        for cand in extract_candidates(sk, params.c1, params.tau):
            votes[cand.index] = votes.get(cand.index, 0) + 1
    out = _vote(_stored(cache, params, m, L), params)
    assert len(out) > 0
    need = -(-L // 2)
    for idx in out.support():
        assert votes[idx] >= need


def _records(pairs):
    return np.rec.array(np.array(pairs, dtype=[("index", np.int64), ("value", np.float64)]))


def _pooled(per_rep):
    """The vote over len(per_rep) repetitions with the stored sketch's one
    extraction scripted as the records of per_rep, repetition l's
    per_rep[l - 1], a list of (index, value) pairs, in turn."""
    params = ApproxParams(k=1, delta=0.5)
    stored = _stored(SketchCache(np.ones(8), np.ones(8)), params, 16, len(per_rep))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sparseconv.approx.extract_candidates", lambda s, c1, tau: _records(sum(per_rep, [])))
        return _vote(stored, params)


def _pooled_by_dict_of_lists(per_rep):
    pool: dict[int, list[float]] = {}
    for pairs in per_rep:
        for i, v in pairs:
            pool.setdefault(i, []).append(v)
    floor = max(2, math.ceil(ApproxParams.min_votes_frac * len(per_rep)))
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
        # L = 2 keeps an index only when both votes name it
        ([[(5, 2.0), (6, 1.0)], [(5, 3.0)]], {5: 2.0}),
    ],
    ids=["odd-count-takes-the-middle", "even-count-takes-the-lower-middle", "vote-floor",
         "equal-values", "repeat-within-a-repetition", "no-candidate", "two-votes-agree"],
)
def test_vote_pool_matches_the_dict_of_lists_rule(per_rep, expected):
    assert _pooled_by_dict_of_lists(per_rep) == expected
    assert _pooled(per_rep) == expected


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_vote_pool_matches_the_dict_of_lists_rule_on_random_votes(data):
    # at L = 2 both votes must agree on an index, as at L = 3 and 4
    L = data.draw(st.integers(2, 9), label="L")
    pair = st.tuples(st.integers(0, 14), st.sampled_from([0.5, 1.0, 2.0, 2.5]) | st.floats(0.5, 100))
    per_rep = data.draw(st.lists(st.lists(pair, max_size=6), min_size=L, max_size=L), label="votes")
    assert _pooled(per_rep) == _pooled_by_dict_of_lists(per_rep)


@pytest.mark.parametrize("reps", [5, 7])
def test_each_repetition_draws_a_prime_no_earlier_one_drew(reps):
    # [16, 32] holds 5 primes: 5 repetitions take each once, and past
    # them the draws may repeat rather than never end
    stored = _stored(SketchCache(np.ones(8), np.ones(8)), ApproxParams(k=1, delta=0.5, seed=3), 16, reps)
    primes = stored.primes.tolist()
    assert len(primes) == reps and set(primes) == {17, 19, 23, 29, 31}
    assert len(set(primes[:5])) == 5


def test_two_sketches_on_one_prime_are_not_two_votes():
    # engine seed 218 draws 5653 for both repetitions of the c3620/2 plan;
    # under 5653, indices 600065 and 645289 (values in ratio 1:7) share a
    # bucket whose ratio is 639636, an index of the same class, so two
    # copies of one sketch voted for it and peeled clean
    inst = generate_instance(InstanceSpec(n=2**20, s_a=4, s_b=4, seed=2))
    params = ApproxParams(k=16, delta=0.1, seed=218)
    assert [sample_prime(3620, np.random.default_rng([218, l])) for l in (1, 2)] == [5653, 5653]
    oracle = fft_convolve(inst.a, inst.b)
    truth = support_ge(oracle, 0.5)
    out = approx_sparse_convolve(inst.a, inst.b, params)
    assert {600065, 645289} <= out.support() == truth
    assert all(abs(v - oracle[j]) <= 0.01 for j, v in out.items())


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
