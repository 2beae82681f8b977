import ast
import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sparseconv.approx import CorrectionTrace, approx_plan
from sparseconv.exact import (
    ExactParams,
    exact_plan,
    exact_sparse_convolve,
    repetition_schedule,
    residual_norm,
    run_correction_level,
)
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.hashing import sample_prime
from sparseconv.numerics import SparseResult, naive_convolve
from sparseconv.sketch import SketchCache, build_residual_sketch

from oracle import rounded, significant_support


def impulse(n, at):
    v = np.zeros(n)
    v[at] = 1.0
    return v


class TestParams:
    def test_extra_invariants(self):
        # the fixed schedule constants keep their values but are not fields
        params = ExactParams(k=1, delta=0.1)
        for name, value in (("m_mult_exact", 8), ("R_mult", 2), ("level_base", 1.5)):
            assert getattr(params, name) == value
            with pytest.raises(TypeError):
                ExactParams(k=1, delta=0.1, **{name: value})

    def test_readme_knob_table_lists_the_fields(self):
        # each field once, in order, with its default ("required" if none)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| knob |", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]*?) \|", table, flags=re.M)
        listed = [(name, default if default == "required" else ast.literal_eval(default)) for name, default in rows]
        assert listed == [(f.name, "required" if f.default is MISSING else f.default) for f in fields(ExactParams)]

    def test_plan(self):
        # the formula's 8 * 64 * 14 * 36 = 258,048 stops at the least
        # lossless base, 2n - 1: every prime above it folds by the identity
        m, levels = exact_plan(ExactParams(k=64, delta=0.1), 2**14)
        assert m == 2 * 2**14 - 1
        assert levels == 5  # ceil(log_1.5(6))
        # below 2n - 1 the formula stands
        assert exact_plan(ExactParams(k=16, delta=0.1), 2**20)[0] == 8 * 16 * 20 * 16
        # tiny k degenerates to a single level with a floored modulus
        m, levels = exact_plan(ExactParams(k=1, delta=0.1), 4)
        assert m >= 16 and levels == 1

    def test_level_counts_grow_slowly(self):
        for k, expect in ((16, 4), (64, 5), (256, 6)):
            _, levels = exact_plan(ExactParams(k=k, delta=0.1), 64)
            assert levels == expect


def test_schedule_bound():
    # total repetitions stay within the geometric-series budget
    for k in (16, 64, 256):
        for delta in (0.1, 0.01):
            params = ExactParams(k=k, delta=delta)
            schedule = repetition_schedule(params)
            _, levels = exact_plan(params, 64)
            assert len(schedule) == levels
            total = sum(schedule)
            budget = 10 * params.R_mult * math.log2(2 * levels / delta) + levels
            assert total <= budget
            # geometric decay, floored at one repetition
            assert all(schedule[i] >= schedule[i + 1] for i in range(levels - 1))
            assert schedule[-1] >= 1


def test_vote_gets_the_params_whole_and_growth_doubles_k_up_to_a_lossless_plan(monkeypatch):
    # the sketch stage gets the call's params whole, and each raise of k
    # replaces k alone
    import sparseconv.approx

    seen = []
    original = sparseconv.approx._stored

    def fake_stored(cache, params, m, reps):
        seen.append((params, m, reps))
        return original(cache, params, m, reps)

    monkeypatch.setattr(sparseconv.approx, "_stored", fake_stored)
    params = ExactParams(k=2, delta=0.2, c1=0.75, seed=4)
    trace = CorrectionTrace()
    exact_sparse_convolve(impulse(256, 2), impulse(256, 3), params, trace=trace)
    plan = approx_plan(params, 256)
    assert seen == [(params, plan.m, plan.reps)]
    assert trace.bootstrap_reps == [plan.reps]

    # a peel that is never clean plans again at 2k, 4k, ... and stops at
    # the first lossless plan, m >= 2n - 1 = 511, still not clean, and warns
    monkeypatch.setattr(sparseconv.approx, "_peel", lambda stored, state, *rest: (state, False))
    seen.clear()
    with pytest.warns(RuntimeWarning, match="^k=2 did not peel clean; the call ran to k=8, still not clean") as caught:
        exact_sparse_convolve(impulse(256, 2), impulse(256, 3), params, trace=trace)
    assert len(caught) == 1
    plans = [approx_plan(replace(params, k=k), 256) for k in (2, 4, 8)]
    assert seen == [(replace(params, k=k), p.m, p.reps) for k, p in zip((2, 4, 8), plans)]
    assert [p.m >= 511 for p in plans] == [False, False, True]
    assert trace.bootstrap_reps == [p.reps for p in plans]


def test_an_exact_call_checks_its_inputs_once(monkeypatch):
    import sparseconv.approx
    import sparseconv.exact
    import sparseconv.sketch

    checks = []
    original = sparseconv.exact.dense_pair

    def counting(a, b):
        checks.append(len(a))
        return original(a, b)

    for module in (sparseconv.exact, sparseconv.approx, sparseconv.sketch):
        monkeypatch.setattr(module, "dense_pair", counting)
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=31))
    exact_sparse_convolve(inst.a, inst.b, ExactParams(k=16, delta=0.1, seed=2))
    assert checks == [2**10]


def test_single_impulse_unchanged_across_levels():
    trace = CorrectionTrace()
    out = exact_sparse_convolve(
        impulse(4, 2), impulse(4, 3), ExactParams(k=1, delta=0.1, seed=5), trace=trace
    )
    assert out == SparseResult({5: 1.0})
    for snap in trace.snapshots:
        assert snap == out


def test_recovers_exactly_on_random_instance():
    spec = InstanceSpec(n=2**11, s_a=4, s_b=4, seed=61)
    inst = generate_instance(spec)
    oracle = naive_convolve(inst.a, inst.b)
    true_supp = significant_support(oracle, inst.c1_effective)
    out = exact_sparse_convolve(inst.a, inst.b, ExactParams(k=16, delta=0.1, seed=9))
    assert out.support() == true_supp
    assert all(out[j] == float(round(oracle[j])) for j in true_supp)


def test_planted_defect_is_repaired():
    # drop one entry from a correct reconstruction and let the
    # correction levels restore it exactly
    from sparseconv.hashing import sample_prime
    from sparseconv.numerics import round_to_int
    from sparseconv.sketch import build_residual_sketch, extract_candidates

    spec = InstanceSpec(n=2**11, s_a=4, s_b=4, seed=71)
    inst = generate_instance(spec)
    oracle = naive_convolve(inst.a, inst.b)
    true_supp = significant_support(oracle, inst.c1_effective)
    full = {j: float(round(oracle[j])) for j in true_supp}
    dropped = sorted(full)[1]
    val = full.pop(dropped)

    params = ExactParams(k=16, delta=0.1, seed=15)
    m, _ = exact_plan(params, spec.n)
    rng = np.random.default_rng(3)
    p = sample_prime(m, rng)
    sk = build_residual_sketch(inst.a, inst.b, SparseResult(full), p)
    cands = extract_candidates(sk, params.c1, params.tau)
    recovered = {c.index: float(round_to_int(c.value)) for c in cands}
    assert recovered == {dropped: val}


def test_integer_mode_off_keeps_float_values():
    spec = InstanceSpec(n=2**10, s_a=3, s_b=3, seed=81, integer_values=False)
    inst = generate_instance(spec)
    oracle = naive_convolve(inst.a, inst.b)
    true_supp = significant_support(oracle, inst.c1_effective)
    out = exact_sparse_convolve(
        inst.a, inst.b, ExactParams(k=9, delta=0.1, seed=4, integer_mode=False)
    )
    assert out.support() == true_supp
    assert all(abs(out[j] - oracle[j]) <= 0.01 for j in true_supp)


def test_deterministic_given_seed():
    spec = InstanceSpec(n=2**10, s_a=4, s_b=4, seed=91)
    inst = generate_instance(spec)
    params = ExactParams(k=16, delta=0.1, seed=33)
    assert exact_sparse_convolve(inst.a, inst.b, params) == exact_sparse_convolve(
        inst.a, inst.b, params
    )


def count_residual_sketches(monkeypatch):
    import sparseconv.exact

    built = []
    original = sparseconv.exact.build_residual_sketch

    def counting(a, b, c_prev, p, cache=None):
        built.append(p)
        return original(a, b, c_prev, p, cache=cache)

    monkeypatch.setattr(sparseconv.exact, "build_residual_sketch", counting)
    return built


def test_level_keeps_the_first_repetition_with_most_significant_buckets(monkeypatch):
    # at the lossy modulus 64 < 2n-1, repetitions r = 3 and r = 6 tie for
    # the most buckets >= c1 under different primes; r = 3 must win
    inst = generate_instance(InstanceSpec(n=2**10, s_a=4, s_b=4, seed=101))
    params = ExactParams(k=16, delta=0.1, seed=0)
    level, reps, m = 2, 6, 64
    cache = SketchCache(inst.a, inst.b, dense=False)
    primes = [sample_prime(m, np.random.default_rng([params.seed, level, r])) for r in range(1, reps + 1)]
    scores = [
        np.count_nonzero(build_residual_sketch(inst.a, inst.b, SparseResult(), p, cache=cache).v >= params.c1)
        for p in primes
    ]
    best = [p for p, s in zip(primes, scores) if s == max(scores)]
    assert len(set(best)) > 1 and best[0] != primes[0]
    built = count_residual_sketches(monkeypatch)
    _, chosen = run_correction_level(inst.a, inst.b, SparseResult(), level, reps, m, params)
    assert built == primes
    assert chosen == best[0]


def assert_one_trace_of_the_call(inst, params, out, trace):
    # an unrounded snapshot after the bootstrap and after each level; the
    # result, which the call returns without a trace too, is the last one
    # rounded once
    assert len(trace.snapshots) == len(trace.chosen_primes) + 1
    assert rounded(trace.snapshots[-1]) == out
    assert exact_sparse_convolve(inst.a, inst.b, params).sorted_items() == out.sorted_items()


class TestPeel:
    # the bootstrap's primes at n=2^12, k=16 lie in [3072, 6144], below
    # 2n-1, so every stored sketch folds lossily, on the dense route
    params = ExactParams(k=16, delta=0.1, seed=19)

    def _instance(self):
        inst = generate_instance(InstanceSpec(n=2**12, s_a=4, s_b=4, seed=121))
        oracle = naive_convolve(inst.a, inst.b)
        full = {j: float(round(oracle[j])) for j in significant_support(oracle, inst.c1_effective)}
        return inst, full

    def test_levels_repair_a_bootstrap_with_a_dropped_and_a_short_entry(self, monkeypatch):
        import sparseconv.approx

        inst, full = self._instance()
        dropped = min(full)
        short = max((j for j in full if j != dropped), key=full.get)
        original = sparseconv.approx._vote
        primes = []

        def damaged_vote(stored, params):
            # the real sketches and vote; only the vote's result is damaged
            vote = original(stored, params)
            assert vote.support() == set(full)
            primes.extend(stored.primes.tolist())
            boot = {j: v for j, v in full.items() if j != dropped}
            boot[short] -= 1
            return SparseResult(boot)

        monkeypatch.setattr(sparseconv.approx, "_vote", damaged_vote)
        trace = CorrectionTrace()
        out = exact_sparse_convolve(inst.a, inst.b, self.params, trace=trace)
        assert max(primes) < 2 * len(inst.a) - 1
        assert out == SparseResult(full)
        # one level repairs both entries, the next is the fixed point,
        # which peels clean, so k is not raised
        assert len(trace.chosen_primes) == 2 and trace.snapshots[1] == trace.snapshots[2]
        assert rounded(trace.snapshots[2]) == out
        assert trace.bootstrap_reps == [2] and len(primes) == 2
        assert set(trace.chosen_primes) <= set(primes)
        assert_one_trace_of_the_call(inst, self.params, out, trace)

    def test_peel_builds_no_residual_sketch_and_adds_no_fft_work(self, monkeypatch):
        from sparseconv.fft import fft_work, pad_length, reset_fft_work, transform_work

        inst, _ = self._instance()
        built = count_residual_sketches(monkeypatch)
        reset_fft_work()
        exact_sparse_convolve(inst.a, inst.b, self.params)
        assert built == []
        # the 2-sketch bootstrap takes the dense route here: its one
        # product is the call's only FFT work
        assert fft_work() == 3 * transform_work(pad_length(2 * len(inst.a) - 1))

    def test_correct_bootstrap_ends_after_one_level(self):
        inst, full = self._instance()
        trace = CorrectionTrace()
        out = exact_sparse_convolve(inst.a, inst.b, self.params, trace=trace)
        assert out == SparseResult(full)
        assert len(trace.chosen_primes) == 1 < exact_plan(self.params, len(inst.a))[1] == 4
        assert_one_trace_of_the_call(inst, self.params, out, trace)


class TestResidualNorm:
    def _instance(self):
        spec = InstanceSpec(n=2**10, s_a=4, s_b=4, seed=101)
        inst = generate_instance(spec)
        oracle = naive_convolve(inst.a, inst.b)
        supp = significant_support(oracle, inst.c1_effective)
        full = {j: float(round(oracle[j])) for j in supp}
        return inst, full

    def test_rejects_no_trials(self):
        # and a non-integral count or modulus, here and at a correction level
        inst, full = self._instance()
        for trials in (0, 2.5):
            with pytest.raises(ValueError, match="trials"):
                residual_norm(inst.a, inst.b, SparseResult(full), 0.5, trials, 7)
        # numpy's seed would run True as 1 and raise its own errors on the rest
        for seed, match in ((True, "^seed must be an integer"), (1.5, "^seed must be an integer"), (-1, "^seed must be >= 0")):
            with pytest.raises(ValueError, match=match):
                residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 2, seed)
        with pytest.raises(ValueError, match="m must be an integer"):
            residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 2, 7, m=16.5)
        with pytest.raises(ValueError, match="m must be an integer"):
            run_correction_level(inst.a, inst.b, SparseResult(full), 1, 2, 16.5, ExactParams(k=16, delta=0.1))

    def test_zero_for_exact_result(self):
        inst, full = self._instance()
        assert residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 4, 7) == 0

    def test_missing_entry_detected_every_trial(self):
        inst, full = self._instance()
        dropped = sorted(full)[0]
        full.pop(dropped)
        for trial_seed in range(5):
            assert residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 1, trial_seed) >= 1

    def test_empty_result_counts_most_of_support(self):
        inst, full = self._instance()
        k = len(full)
        count = residual_norm(inst.a, inst.b, SparseResult(), 0.5, 4, 11, m=16 * k)
        assert k / 2 <= count <= k

    def test_is_the_largest_count_over_its_trials(self, monkeypatch):
        # trial t draws its prime from the stream seeded by (seed, t); at
        # the lossy modulus 16k the trials' counts differ
        inst, full = self._instance()
        m, c1, seed = 16 * len(full), 0.5, 11
        cache = SketchCache(inst.a, inst.b, dense=False)
        primes = [sample_prime(m, np.random.default_rng([seed, t])) for t in range(1, 5)]
        counts = [
            np.count_nonzero(np.abs(build_residual_sketch(inst.a, inst.b, SparseResult(), p, cache=cache).v) >= c1)
            for p in primes
        ]
        assert len(set(counts)) > 1
        built = count_residual_sketches(monkeypatch)
        assert residual_norm(inst.a, inst.b, SparseResult(), c1, 4, seed, m=m) == max(counts)
        assert built == primes

    def test_overshoot_is_counted(self):
        inst, full = self._instance()
        spurious = 5 if 5 not in full else 6
        full[spurious] = 3.0
        assert residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 3, 13) >= 1

    def test_lossless_modulus_runs_one_trial(self, monkeypatch):
        # the default modulus 2n-1 is lossless: every trial would agree
        inst, full = self._instance()
        full.pop(sorted(full)[0])
        built = count_residual_sketches(monkeypatch)
        one = residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 1, 7)
        assert len(built) == 1
        three = residual_norm(inst.a, inst.b, SparseResult(full), 0.5, 3, 7)
        assert len(built) == 2
        assert one == three == 1

    @pytest.mark.parametrize(
        "a, b, c1",
        [
            ([np.nan, 1.0], [1.0, 1.0], 0.5),
            ([1.0, -3.0, 2.0], [1.0, 1.0, 1.0], 0.5),
            ([[1.0, 2.0]], [[1.0, 2.0]], 0.5),
            ([1.0, 2.0], [1.0, 2.0, 3.0], 0.5),
            ([1.0, 2.0, 0.0, 1.0], [1.0, 0.0, 2.0, 1.0], 0.0),
            ([1.0, 2.0, 0.0, 1.0], [1.0, 0.0, 2.0, 1.0], -1.0),
            # no bucket reaches it: a false "no residual"
            ([1.0, 2.0, 0.0, 1.0], [1.0, 0.0, 2.0, 1.0], math.inf),
        ],
        ids=["nan", "negative", "2-D", "length-mismatch", "c1-zero", "c1-negative", "c1-inf"],
    )
    def test_rejects_input_that_voids_the_count(self, a, b, c1):
        with pytest.raises(ValueError):
            residual_norm(a, b, SparseResult(), c1, 1, 0)


def test_three_case_bucket_analysis_small_instance():
    # for every bucket of a residual sketch over a small instance:
    # noise-only buckets stay tiny, singly-occupied buckets recover the
    # entry exactly, and collided buckets never yield a silent wrong
    # candidate below c1
    from sparseconv.hashing import sample_prime
    from sparseconv.sketch import build_residual_sketch, extract_candidates

    spec = InstanceSpec(n=64, s_a=4, s_b=4, seed=111)
    inst = generate_instance(spec)
    oracle = naive_convolve(inst.a, inst.b)
    supp = significant_support(oracle, inst.c1_effective)
    c1, tau = 0.5, 0.25
    out_len = 2 * 64 - 1
    for p in (11, 13, 17, 19, 23, 29, 31):
        sk = build_residual_sketch(inst.a, inst.b, SparseResult(), p)
        cands = {c.index: c.value for c in extract_candidates(sk, c1, tau)}
        occupancy: dict[int, list[int]] = {}
        for x in supp:
            occupancy.setdefault(x % p, []).append(x)
        for bucket in range(p):
            holders = occupancy.get(bucket, [])
            if not holders:
                assert abs(sk.v[bucket]) < 1e-3  # noise only
            elif len(holders) == 1:
                x = holders[0]
                assert abs(sk.v[bucket] - oracle[x]) <= 0.01
                assert x in cands
            else:
                # collided: either rejected, or the accepted candidate
                # carries the full bucket mass (an Omega(1) residual
                # error, never a silent sub-threshold mistake)
                ratio = sk.w[bucket] / sk.v[bucket]
                nearest = round(ratio)
                if abs(ratio - nearest) <= tau and 0 <= nearest < out_len:
                    assert sk.v[bucket] >= c1


def test_trace_reports_monotone_residuals():
    spec = InstanceSpec(n=2**10, s_a=4, s_b=4, seed=121)
    inst = generate_instance(spec)
    trace = CorrectionTrace()
    out = exact_sparse_convolve(
        inst.a, inst.b, ExactParams(k=16, delta=0.1, seed=19), trace=trace
    )
    norms = [
        residual_norm(inst.a, inst.b, snap, 0.5, 2, 23) for snap in trace.snapshots
    ]
    assert all(norms[i] >= norms[i + 1] for i in range(len(norms) - 1))
    assert norms[-1] == 0
    assert rounded(trace.snapshots[-1]) == out
    assert len(trace.snapshots) == len(trace.chosen_primes) + 1
