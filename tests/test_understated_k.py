"""Recovery when k is under-stated, by both engines' one path.

True k from 64 to 256 at n = 2^14, given k from k/64 to k/4: the
smallest given counts are the first legal parameters at which the given
k's plan fails to peel clean, so they exercise the call's plans at 2k,
4k, ... and the warning that the call raised k. With k given true, at
criteria 6-8's grid and three shapes off the benchmark, no call raises it.
"""

import inspect
import warnings
from dataclasses import replace

import pytest

import sparseconv.approx
from sparseconv.approx import ApproxParams, CorrectionTrace, approx_plan, approx_sparse_convolve
from sparseconv.exact import ExactParams, exact_sparse_convolve
from sparseconv.fft import fft_convolve
from sparseconv.harness import InstanceSpec, generate_instance
from sparseconv.numerics import SparseResult, round_to_int

from oracle import rounded, significant_support

N = 2**14
SIDES = (8, 12, 16)  # true k = side^2: 64, 144, 256
INSTANCE_SEEDS = range(4)
DIVISORS = (64, 16, 4)
ENGINE_SEEDS = (1, 2)


def _run(engine, a, b, params):
    """One traced call: (output, trace, its warnings' messages, each
    attempt's (C after the peel, whether it peeled clean))."""
    trace, attempts, peel = CorrectionTrace(), [], sparseconv.approx._peel

    def recorded(*args):
        attempts.append(peel(*args))
        return attempts[-1]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(sparseconv.approx, "_peel", recorded)
        out = engine(a, b, params, trace=trace)
    assert all(w.category is RuntimeWarning for w in caught)
    return out, trace, [str(w.message) for w in caught], attempts


def _result(engine, state):
    """What the engine returns for the peel's C: exact rounds it once."""
    return rounded(state) if engine is exact_sparse_convolve else state


def assert_one_trace_of_the_call(engine, a, b, params, out, trace):
    # a snapshot after the last vote and after each level, the last one
    # the peel's C; the result, which the call returns without a trace
    # too, is that C (exact's rounded once)
    assert len(trace.snapshots) == len(trace.chosen_primes) + 1
    assert _result(engine, trace.snapshots[-1]) == out
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert engine(a, b, params).sorted_items() == out.sorted_items()


def _right(out, truth):
    return out.support() == truth.support() and all(abs(v - truth[j]) <= 0.01 for j, v in out.items())


def _family():
    """Per call: the instance, its truth, and the given k and engine seed."""
    for side in SIDES:
        for seed in INSTANCE_SEEDS:
            inst = generate_instance(InstanceSpec(n=N, s_a=side, s_b=side, seed=seed))
            oracle = fft_convolve(inst.a, inst.b)
            support = significant_support(oracle, inst.c1_effective)
            truth = SparseResult({j: float(round_to_int(oracle[j])) for j in support})
            for div in DIVISORS:
                for engine_seed in ENGINE_SEEDS:
                    yield inst, truth, max(len(truth) // div, 1), engine_seed


@pytest.fixture(scope="module")
def runs():
    """Per call of each engine: (engine, instance, truth, params, _run's
    four), approx's call after exact's on the same parameters."""
    out = []
    for inst, truth, k, engine_seed in _family():
        for engine, cls in ((exact_sparse_convolve, ExactParams), (approx_sparse_convolve, ApproxParams)):
            params = cls(k=k, delta=0.1, seed=engine_seed)
            out.append((engine, inst, truth, params, *_run(engine, inst.a, inst.b, params)))
    return out


def test_the_family_raises_k_and_each_attempt_runs_its_plan(runs):
    grown = [run for run in runs if len(run[5].bootstrap_reps) > 1]
    assert len(grown) >= len(runs) // 10
    for engine, inst, _, params, out, trace, _, attempts in runs:
        # attempt i runs the plan at k * 2^i; all but the last peel dirty
        # at a lossy plan, and the last peels clean
        plans = [approx_plan(replace(params, k=params.k * 2**i), N) for i in range(len(attempts))]
        assert trace.bootstrap_reps == [plan.reps for plan in plans]
        assert [clean for _, clean in attempts] == [False] * (len(attempts) - 1) + [True]
        assert all(plan.m < 2 * N - 1 for plan in plans[:-1])
        assert _result(engine, attempts[-1][0]) == out
    for engine, inst, _, params, out, trace, *_ in grown:
        assert_one_trace_of_the_call(engine, inst.a, inst.b, params, out, trace)


def test_growth_loses_no_repair_power(runs):
    # every call is right: exact to the integer, approx within 0.01
    for engine, _, truth, _, out, *_ in runs:
        assert _right(out, truth)
        assert out == truth or engine is approx_sparse_convolve


def test_a_right_call_never_warns(runs):
    # a correct C peels clean in every stored sketch, so the check is
    # sound: an attempt that is right stops the call, and a call right
    # at its given k neither raises k nor warns
    for _, _, truth, _, _, _, warned, attempts in runs:
        for state, clean in attempts:
            assert clean or not _right(state, truth)
        first, _ = attempts[0]
        if _right(first, truth):
            assert len(attempts) == 1 and not warned


def test_a_call_warns_once_exactly_when_it_raised_k(runs):
    warned_calls = 0
    for _, _, _, params, _, trace, warned, _ in runs:
        raised = len(trace.bootstrap_reps) > 1
        assert len(warned) == raised
        if raised:
            final = params.k * 2 ** (len(trace.bootstrap_reps) - 1)
            assert warned == [f"k={params.k} did not peel clean; the call ran to k={final}: k is probably under-stated"]
            warned_calls += 1
    assert warned_calls


def test_warns_once_naming_the_given_and_the_final_k():
    inst = generate_instance(InstanceSpec(n=2**17, s_a=16, s_b=16, seed=0))
    oracle = fft_convolve(inst.a, inst.b)
    truth = SparseResult({j: float(round_to_int(oracle[j])) for j in significant_support(oracle, inst.c1_effective)})
    params = ExactParams(k=2, delta=0.1, seed=1)
    trace = CorrectionTrace()
    with pytest.warns(RuntimeWarning) as caught:
        out = exact_sparse_convolve(inst.a, inst.b, params, trace=trace)
    assert [str(w.message) for w in caught] == [
        "k=2 did not peel clean; the call ran to k=32: k is probably under-stated"
    ]
    assert out == truth and len(truth) == 255
    assert trace.bootstrap_reps == [approx_plan(replace(params, k=k), 2**17).reps for k in (2, 4, 8, 16, 32)]
    assert_one_trace_of_the_call(exact_sparse_convolve, inst.a, inst.b, params, out, trace)


@pytest.mark.parametrize("engine, params_type", [(approx_sparse_convolve, ApproxParams), (exact_sparse_convolve, ExactParams)],
                         ids=["approx", "exact"])
def test_the_warning_names_the_callers_line(engine, params_type):
    # exact runs approx's path, yet its warning points here, not into sparseconv
    inst = generate_instance(InstanceSpec(n=N, s_a=8, s_b=8, seed=0))
    with pytest.warns(RuntimeWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        engine(inst.a, inst.b, params_type(k=1, delta=0.1))
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def test_no_call_on_the_acceptance_grid_grows_or_warns():
    # criteria 6-8's grid: n = 2^14, k = 64, 100 seeds (warnings are errors)
    for seed in range(100):
        inst = generate_instance(InstanceSpec(n=2**14, s_a=8, s_b=8, seed=seed))
        trace = CorrectionTrace()
        exact_sparse_convolve(inst.a, inst.b, ExactParams(k=64, delta=0.1, seed=seed), trace=trace)
        assert trace.bootstrap_reps == [3]


@pytest.mark.parametrize("n, side", [(2**15, 8), (2**16, 16), (2**18, 4)], ids=["n15-k64", "n16-k255", "n18-k16"])
def test_every_call_off_the_benchmark_is_right_at_its_first_plan(n, side):
    # the pair-sized plans at shapes no benchmark runs, true k given,
    # 100 engine seeds on one instance each (warnings are errors)
    inst = generate_instance(InstanceSpec(n=n, s_a=side, s_b=side, seed=0))
    oracle = fft_convolve(inst.a, inst.b)
    truth = SparseResult({j: float(round_to_int(oracle[j])) for j in significant_support(oracle, inst.c1_effective)})
    assert len(truth) == inst.k_effective
    for seed in range(100):
        params = ExactParams(k=len(truth), delta=0.1, seed=seed)
        trace = CorrectionTrace()
        assert exact_sparse_convolve(inst.a, inst.b, params, trace=trace) == truth
        assert trace.bootstrap_reps == [approx_plan(params, n).reps]
