"""Recovery when k is under-stated, by both engines' one path.

True k from 64 to 256 at n = 2^14, given k from k/64 to k/4: the
smallest given counts are the first legal parameters at which the sized
starting count fails to peel clean, so they exercise its growth to the
paper's count at delta/2 (the cap) and the warning there.
"""

import warnings

import pytest

import sparseconv.approx
from sparseconv.approx import (
    ApproxParams,
    CorrectionTrace,
    _level,
    _level_count,
    _merged,
    _vote,
    approx_plan,
    approx_sparse_convolve,
)
from sparseconv.exact import ExactParams, exact_sparse_convolve
from sparseconv.fft import fft_convolve
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.numerics import SparseResult, round_to_int
from sparseconv.sketch import SketchCache, residual, route_price

from oracle import support_ge

N = 2**14
SIDES = (8, 12, 16)  # true k = side^2: 64, 144, 256
INSTANCE_SEEDS = range(4)
DIVISORS = (64, 16, 4)
ENGINE_SEEDS = (1, 2)


def capped_plan(params: ApproxParams, n: int):
    """The call's plan with its starting count raised to the cap, on the
    route priced for that count."""
    plan = approx_plan(params, n)
    return plan._replace(reps=plan.cap, dense=route_price(n, plan.m, plan.cap)[1])


def unsized_pipeline(a, b, params: ApproxParams, integer_mode: bool) -> SparseResult:
    """The path before its starting count was sized: the paper's vote
    at delta/2 at the plan's modulus, on the route priced for it, then
    level steps on its stored sketches to a fixed point."""
    m, _, cap, dense = capped_plan(params, len(a))
    stored = []
    vote = _vote(SketchCache(a, b, dense), params, m, stored, cap)
    state = _merged(SparseResult(), vote.items(), params, integer_mode)
    for _ in range(_level_count(params)):
        prev = state
        state, _ = _level([residual(s, state) for s in stored], state, params, integer_mode)
        if state == prev:
            break
    return state


def _run(a, b, params):
    """One traced call: (output, trace, warning count, the output of the
    same call without a trace when the bootstrap grew, else None)."""
    trace = CorrectionTrace()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = exact_sparse_convolve(a, b, params, trace=trace)
        warned = len(caught)
        untraced = exact_sparse_convolve(a, b, params) if len(trace.bootstrap_reps) > 1 else None
    assert all(w.category is RuntimeWarning for w in caught)
    return out, trace, warned, untraced


def assert_one_trace_of_the_call(out, trace, untraced):
    # a snapshot after the last vote and after each level, the last one
    # the result, which the call returns without a trace too
    assert len(trace.snapshots) == len(trace.chosen_primes) + 1
    assert trace.snapshots[-1] == out
    assert untraced.sorted_items() == out.sorted_items()


def _family():
    """Per call: the instance, its truth, and the given k and engine seed."""
    for side in SIDES:
        for seed in INSTANCE_SEEDS:
            inst = generate_instance(InstanceSpec(n=N, s_a=side, s_b=side, seed=seed))
            oracle = fft_convolve(inst.a, inst.b)
            truth = SparseResult({j: float(round_to_int(oracle[j])) for j in support_ge(oracle, inst.c1_effective)})
            for div in DIVISORS:
                for engine_seed in ENGINE_SEEDS:
                    yield inst, truth, max(len(truth) // div, 1), engine_seed


@pytest.fixture(scope="module")
def runs():
    """Per call: (truth, sized run, run with the count patched to the
    cap, unsized pipeline, the call's plan), each run as _run returns it."""
    out = []
    for inst, truth, k, engine_seed in _family():
        params = ExactParams(k=k, delta=0.1, seed=engine_seed)
        sized = _run(inst.a, inst.b, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparseconv.approx, "approx_plan", capped_plan)
            capped = _run(inst.a, inst.b, params)
        out.append((truth, sized, capped, unsized_pipeline(inst.a, inst.b, params, True), approx_plan(params, N)))
    return out


def _approx(a, b, params):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = approx_sparse_convolve(a, b, params)
    assert all(w.category is RuntimeWarning and "under-stated" in str(w.message) for w in caught)
    return out, len(caught)


@pytest.fixture(scope="module")
def approx_runs():
    """Per approx call on the family: (output, warning count, the trace
    and warning count of its twin, exact with integer_mode=False, the
    cap, capped output, paper's vote plus a peel without rounding)."""
    out = []
    for inst, _, k, engine_seed in _family():
        params = ApproxParams(k=k, delta=0.1, seed=engine_seed)
        twin = _run(inst.a, inst.b, ExactParams(**vars(params), integer_mode=False))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparseconv.approx, "approx_plan", capped_plan)
            capped, _ = _approx(inst.a, inst.b, params)
        reference = unsized_pipeline(inst.a, inst.b, params, False)
        out.append((*_approx(inst.a, inst.b, params), twin, approx_plan(params, N).cap, capped, reference))
    return out


def test_the_family_grows_the_bootstrap_and_reaches_the_cap(runs):
    grown = [(sized, plan) for _, sized, _, _, plan in runs if len(sized[1].bootstrap_reps) > 1]
    assert len(grown) >= len(runs) // 10
    assert any(sized[2] for _, sized, *_ in runs)  # some calls warn at the cap
    for (out, trace, _, untraced), plan in grown:
        reps = trace.bootstrap_reps
        assert reps[0] == plan.reps and all(later == min(2 * earlier, reps[-1]) for earlier, later in zip(reps, reps[1:]))
        assert_one_trace_of_the_call(out, trace, untraced)


def test_growth_loses_no_repair_power(runs):
    # wherever the cap-only count is right, the sized bootstrap is too
    assert all(sized[0] == truth for truth, sized, capped, *_ in runs if capped[0] == truth)
    assert sum(capped[0] == truth for truth, _, capped, *_ in runs) >= len(runs) // 2


def test_the_count_patched_to_the_cap_is_the_unsized_pipeline(runs):
    for _, _, (out, trace, _, _), reference, _ in runs:
        assert out.sorted_items() == reference.sorted_items()
        assert len(trace.bootstrap_reps) == 1


def test_a_right_call_never_warns(runs):
    # a correct C peels clean in every stored sketch, so the check is sound
    for truth, sized, capped, *_ in runs:
        for out, _, warned, _ in (sized, capped):
            assert not (out == truth and warned)


def test_warns_once_when_the_capped_bootstrap_does_not_peel_clean():
    inst = generate_instance(InstanceSpec(n=2**17, s_a=16, s_b=16, seed=0))
    params = ExactParams(k=2, delta=0.1, seed=1)
    trace = CorrectionTrace()
    with pytest.warns(RuntimeWarning, match="under-stated") as caught:
        out = exact_sparse_convolve(inst.a, inst.b, params, trace=trace)
    assert len(caught) == 1
    plan = approx_plan(params, 2**17)
    assert trace.bootstrap_reps == [plan.reps, 6, 12, 24, plan.cap] and plan.reps == 3
    with pytest.warns(RuntimeWarning, match="under-stated"):
        untraced = exact_sparse_convolve(inst.a, inst.b, params)
    assert_one_trace_of_the_call(out, trace, untraced)


def test_no_call_on_the_acceptance_grid_grows_or_warns():
    # criteria 6-8's grid: n = 2^14, k = 64, 100 seeds (warnings are errors)
    for seed in range(100):
        inst = generate_instance(InstanceSpec(n=2**14, s_a=8, s_b=8, seed=seed))
        trace = CorrectionTrace()
        exact_sparse_convolve(inst.a, inst.b, ExactParams(k=64, delta=0.1, seed=seed), trace=trace)
        assert trace.bootstrap_reps == [3]


def test_approx_warns_once_at_the_cap_and_never_below_it(approx_runs):
    for out, warned, (twin_out, twin_trace, twin_warned, _), cap, _, _ in approx_runs:
        assert out == twin_out and warned == twin_warned <= 1
        if warned:
            assert twin_trace.bootstrap_reps[-1] == cap
        if twin_trace.bootstrap_reps[-1] < cap:
            assert not warned
    assert any(len(twin[1].bootstrap_reps) > 1 for _, _, twin, _, _, _ in approx_runs)
    assert any(warned for _, warned, _, _, _, _ in approx_runs)


def test_capped_approx_is_the_papers_vote_then_a_peel(approx_runs):
    for *_, capped, reference in approx_runs:
        assert capped == reference
