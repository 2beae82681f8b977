"""Exact recovery when k is under-stated.

True k from 64 to 256 at n = 2^14, given k from k/64 to k/4: the
smallest given counts are the first legal parameters at which exact's
sized bootstrap fails to peel clean, so they exercise its growth to
approx's count at delta/2 (the cap) and the warning there.
"""

import warnings

import numpy as np
import pytest

import sparseconv.exact
from sparseconv.approx import ApproxParams, approx_plan, approx_sparse_convolve
from sparseconv.exact import (
    CorrectionTrace,
    ExactParams,
    _bootstrap_params,
    _merged,
    exact_sparse_convolve,
    repetition_schedule,
)
from sparseconv.fft import fft_convolve
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.numerics import SparseResult, round_to_int, support_ge
from sparseconv.sketch import _peeled, extract_candidates

N = 2**14
SIDES = (8, 12, 16)  # true k = side^2: 64, 144, 256
INSTANCE_SEEDS = range(4)
DIVISORS = (64, 16, 4)
ENGINE_SEEDS = (1, 2)


def unsized_pipeline(a, b, params: ExactParams) -> SparseResult:
    """Exact before its bootstrap was sized: approx's full vote at
    delta/2, then peel levels on its stored buckets to a fixed point."""
    out_len = 2 * len(a) - 1
    boot = ApproxParams(k=params.k, delta=params.delta / 2, c1=params.c1, L_mult=params.L_mult, seed=params.seed)
    stored = []
    state = _merged(SparseResult(), approx_sparse_convolve(a, b, boot, heavy=stored).entries.items(), params)
    for _ in repetition_schedule(params):
        peeled = [_peeled(heavy, state, out_len) for heavy in stored]
        chosen = max(peeled, key=lambda sk: np.count_nonzero(sk.v >= params.c1))
        prev, state = state, _merged(state, extract_candidates(chosen, params.c1, params.tau, out_len).tolist(), params)
        if state == prev:
            break
    return state


def _run(a, b, params):
    trace = CorrectionTrace()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = exact_sparse_convolve(a, b, params, trace=trace)
    assert all(w.category is RuntimeWarning for w in caught)
    return out, trace, len(caught)


@pytest.fixture(scope="module")
def runs():
    """Per call: (truth, sized run, run with the count patched to the
    cap, unsized pipeline), each run an (output, trace, warnings) triple."""
    out = []
    for side in SIDES:
        for seed in INSTANCE_SEEDS:
            inst = generate_instance(InstanceSpec(n=N, s_a=side, s_b=side, seed=seed))
            oracle = fft_convolve(inst.a, inst.b)
            truth = SparseResult({j: float(round_to_int(oracle[j])) for j in support_ge(oracle, inst.c1_effective)})
            for div in DIVISORS:
                for engine_seed in ENGINE_SEEDS:
                    params = ExactParams(k=max(len(truth) // div, 1), delta=0.1, seed=engine_seed)
                    sized = _run(inst.a, inst.b, params)
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(sparseconv.exact, "isolation_reps", lambda p, n: approx_plan(_bootstrap_params(p), n)[1])
                        capped = _run(inst.a, inst.b, params)
                    out.append((truth, sized, capped, unsized_pipeline(inst.a, inst.b, params)))
    return out


def test_the_family_grows_the_bootstrap_and_reaches_the_cap(runs):
    grown = [sized[1].bootstrap_reps for _, sized, _, _ in runs if len(sized[1].bootstrap_reps) > 1]
    assert len(grown) >= len(runs) // 10
    assert any(sized[2] for _, sized, _, _ in runs)  # some calls warn at the cap
    for reps in grown:
        assert reps[0] == 3 and all(later == min(2 * earlier, reps[-1]) for earlier, later in zip(reps, reps[1:]))


def test_growth_loses_no_repair_power(runs):
    # wherever the cap-only count is right, the sized bootstrap is too
    assert all(sized[0] == truth for truth, sized, capped, _ in runs if capped[0] == truth)
    assert sum(capped[0] == truth for truth, _, capped, _ in runs) >= len(runs) // 2


def test_the_count_patched_to_the_cap_is_the_unsized_pipeline(runs):
    for _, _, (out, trace, _), reference in runs:
        assert out.sorted_items() == reference.sorted_items()
        assert len(trace.bootstrap_reps) == 1


def test_a_right_call_never_warns(runs):
    # a correct C peels clean in every stored sketch, so the check is sound
    for truth, sized, capped, _ in runs:
        for out, _, warned in (sized, capped):
            assert not (out == truth and warned)


def test_warns_once_when_the_capped_bootstrap_does_not_peel_clean():
    inst = generate_instance(InstanceSpec(n=2**17, s_a=16, s_b=16, seed=0))
    params = ExactParams(k=2, delta=0.1, seed=1)
    trace = CorrectionTrace()
    with pytest.warns(RuntimeWarning, match="under-stated") as caught:
        exact_sparse_convolve(inst.a, inst.b, params, trace=trace)
    assert len(caught) == 1
    cap = approx_plan(ApproxParams(k=2, delta=0.05), 2**17)[1]
    assert trace.bootstrap_reps == [3, 6, 12, 24, cap]


def test_no_call_on_the_acceptance_grid_grows_or_warns():
    # criteria 6-8's grid: n = 2^14, k = 64, 100 seeds (warnings are errors)
    for seed in range(100):
        inst = generate_instance(InstanceSpec(n=2**14, s_a=8, s_b=8, seed=seed))
        trace = CorrectionTrace()
        exact_sparse_convolve(inst.a, inst.b, ExactParams(k=64, delta=0.1, seed=seed), trace=trace)
        assert trace.bootstrap_reps == [3]
