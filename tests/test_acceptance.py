"""Acceptance gate: one test per criterion, each printing one PASS/FAIL
line (run with -s or -rA to see the report).

Criteria 6 and 7 are statistical: they demand a success rate over 100
seeded runs rather than per-run certainty, because the engines'
guarantees are probabilistic. Criterion 9 compares instrumented FFT work
between the sparse engine and the dense baseline on a single large
instance.
"""

import math
import time

import numpy as np
import pytest

from sparseconv.approx import ApproxParams, CorrectionTrace, approx_sparse_convolve
from sparseconv.exact import (
    ExactParams,
    exact_plan,
    exact_sparse_convolve,
    repetition_schedule,
    residual_norm,
    run_correction_level,
)
from sparseconv.fft import cyclic_convolve, fft_convolve, fft_work, reset_fft_work
from sparseconv.harness import CSV_COLUMNS, InstanceSpec, generate_instance, run_benchmark
from sparseconv.hashing import fold, primes_in_range
from sparseconv.numerics import SparseResult, dense_vector, derivative, naive_convolve, round_to_int

from oracle import support_ge

GRID_N = 2**14
GRID_K = 64
GRID_DELTA = 0.1
GRID_SEEDS = 100
C1 = 0.5

GOLDEN_PAIRS = [
    (
        [1, 2, 4, 3, 5, 0, 7],
        [1, 4, 3, 6, 7, 8, 9],
        [1, 6, 15, 31, 48, 75, 93, 129, 116, 109, 94, 56, 63],
    ),
    (
        [0, 1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 1, 0],
        [0, 0, 1, 0, 2, 0, 3, 0, 2, 0, 1, 0, 0],
    ),
    (
        [0, 1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 1, 1, 1],
        [0, 0, 1, 0, 2, 1, 3, 2, 2, 2, 1, 1, 0],
    ),
]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _grid_instance(seed: int):
    spec = InstanceSpec(n=GRID_N, s_a=8, s_b=8, seed=seed)
    inst = generate_instance(spec)
    oracle = fft_convolve(inst.a, inst.b)
    return inst, oracle, support_ge(oracle, C1)


@pytest.fixture(scope="session")
def approx_grid():
    """100 seeded approximate-engine runs at the acceptance grid."""
    results = []
    for seed in range(GRID_SEEDS):
        inst, oracle, true_supp = _grid_instance(seed)
        d = approx_sparse_convolve(
            inst.a, inst.b, ApproxParams(k=GRID_K, delta=GRID_DELTA, seed=seed)
        )
        supp_ok = d.support() == true_supp
        max_err = max((abs(d.get(j) - oracle[j]) for j in true_supp), default=0.0)
        results.append((supp_ok, max_err))
    return results


@pytest.fixture(scope="session")
def exact_grid():
    """100 seeded exact-engine runs with per-level residual norms."""
    runs = []
    for seed in range(GRID_SEEDS):
        inst, oracle, true_supp = _grid_instance(seed)
        trace = CorrectionTrace()
        c = exact_sparse_convolve(
            inst.a,
            inst.b,
            ExactParams(k=GRID_K, delta=GRID_DELTA, seed=seed),
            trace=trace,
        )
        exact_ok = c.support() == true_supp and all(
            c[j] == float(round_to_int(oracle[j])) for j in true_supp
        )
        norms = [
            residual_norm(inst.a, inst.b, snap, C1, trials=2, seed=10_000 + seed)
            for snap in trace.snapshots
        ]
        runs.append((exact_ok, norms))
    return runs


def test_criterion_01_golden_convolutions():
    start = time.perf_counter()
    worst = 0.0
    for a, b, expected in GOLDEN_PAIRS:
        a, b = dense_vector(a), dense_vector(b)
        expected = np.array(expected, dtype=float)
        worst = max(worst, float(np.max(np.abs(naive_convolve(a, b) - expected))))
        worst = max(worst, float(np.max(np.abs(fft_convolve(a, b) - expected))))
    ok = worst <= 1e-9
    _report(1, "golden convolutions", ok,
            f"max abs err {worst:.2e} over 3 pairs x 2 paths "
            f"({(time.perf_counter() - start) * 1000:.1f} ms)")
    assert ok


def test_criterion_02_derivative_golden():
    got = derivative(dense_vector([3, 1, 2, 1, 2, 1, 1]), index_base=1)
    ok = got.tolist() == [3, 2, 6, 4, 10, 6, 7]
    _report(2, "index-weighted derivative golden", ok, f"got {got.astype(int).tolist()}")
    assert ok


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        a = rng.random(n) * 16
        b = rng.random(n) * 16
        worst = max(worst, float(np.max(np.abs(fft_convolve(a, b) - naive_convolve(a, b)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _report(3, "FFT vs direct-sum equivalence", ok,
            f"max abs err {worst:.2e} over 1000 pairs ({elapsed:.1f} s)")
    assert ok
    assert elapsed < 10


def test_criterion_04_fold_convolution_commutation():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        a = rng.random(n) * 4
        b = rng.random(n) * 4
        c = naive_convolve(a, b)
        for p in primes:
            diff = fold(c, p) - cyclic_convolve(fold(a, p), fold(b, p), p)
            worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _report(4, "fold/convolution commutation", ok,
            f"max abs err {worst:.2e} over 100 pairs x 11 primes ({elapsed:.1f} s)")
    assert ok
    assert elapsed < 10


def test_criterion_05_isolation_probability():
    start = time.perf_counter()
    inst = generate_instance(InstanceSpec(n=2**16, s_a=8, s_b=8, seed=0))
    assert inst.k_effective == 64
    oracle = fft_convolve(inst.a, inst.b)
    supp = np.array(sorted(support_ge(oracle, C1)), dtype=np.int64)
    m = 4 * 64 * 16 * 6  # 4 k ceil(log2 n) ceil(log2 k)
    primes = primes_in_range(m)
    rng = np.random.default_rng(505)
    draws = primes[rng.integers(len(primes), size=2000)]
    x = int(supp[0])
    others = supp[supp != x]
    non_isolated = sum(bool(np.any(others % p == x % p)) for p in draws)
    frac = non_isolated / len(draws)
    elapsed = time.perf_counter() - start
    ok = frac <= 0.25 + 0.05
    _report(5, "isolation probability", ok,
            f"non-isolated fraction {frac:.4f} <= 0.30 over 2000 primes, m={m} ({elapsed:.1f} s)")
    assert ok
    assert elapsed < 60


def test_criterion_06_approx_end_to_end(approx_grid):
    successes = sum(
        1 for supp_ok, max_err in approx_grid if supp_ok and max_err <= 0.01
    )
    worst = max(err for _, err in approx_grid)
    ok = successes >= 90
    _report(6, "approximate recovery end-to-end", ok,
            f"{successes}/100 runs recovered support exactly with err <= 0.01 "
            f"(worst err {worst:.2e})")
    assert ok


def test_criterion_07_exact_end_to_end(exact_grid):
    successes = sum(1 for exact_ok, _ in exact_grid if exact_ok)

    planted_ok = 0
    for seed in range(GRID_SEEDS):
        inst, oracle, true_supp = _grid_instance(3000 + seed)
        ordered = sorted(true_supp)
        full = {j: float(round_to_int(oracle[j])) for j in ordered}
        victim = ordered[seed % len(ordered)]
        value = full.pop(victim)
        params = ExactParams(k=GRID_K, delta=GRID_DELTA, seed=seed)
        m, _ = exact_plan(params, GRID_N)
        reps = repetition_schedule(params)[0]
        repaired, _ = run_correction_level(
            inst.a, inst.b, SparseResult(full), 1, reps, m, params
        )
        if repaired == SparseResult({**full, victim: value}):
            planted_ok += 1

    ok = successes >= 90 and planted_ok >= 95
    _report(7, "exact recovery end-to-end", ok,
            f"{successes}/100 runs value-exact on the significant support; "
            f"planted defect repaired in {planted_ok}/100")
    assert successes >= 90
    assert planted_ok >= 95


def test_criterion_08_residual_contraction(exact_grid):
    checked = 0
    monotone = 0
    final_zero = 0
    for exact_ok, norms in exact_grid:
        if not exact_ok:
            continue
        checked += 1
        monotone += all(norms[i] >= norms[i + 1] for i in range(len(norms) - 1))
        final_zero += norms[-1] == 0
    ok = checked > 0 and monotone == checked and final_zero == checked
    _report(8, "residual contraction", ok,
            f"{monotone}/{checked} successful runs non-increasing, "
            f"{final_zero}/{checked} reach zero at the last level")
    assert ok


def test_criterion_09_output_sensitive_fft_work():
    start = time.perf_counter()
    inst = generate_instance(InstanceSpec(n=2**20, s_a=8, s_b=8, seed=0))

    reset_fft_work()
    t0 = time.perf_counter()
    fft_convolve(inst.a, inst.b)
    dense_wall = time.perf_counter() - t0
    dense_work = fft_work()

    reset_fft_work()
    t0 = time.perf_counter()
    approx_sparse_convolve(
        inst.a, inst.b, ApproxParams(k=64, delta=GRID_DELTA, seed=1)
    )
    sparse_wall = time.perf_counter() - t0
    sparse_work = fft_work()

    ratio = sparse_work / dense_work
    elapsed = time.perf_counter() - start
    ok = ratio < 0.25
    _report(9, "output-sensitive FFT work at n=2^20", ok,
            f"work ratio sparse/dense: {ratio:.2f} (gate < 0.25); "
            f"wall-clock (reported, not gated): dense {dense_wall:.2f} s, "
            f"sparse {sparse_wall:.2f} s ({elapsed:.1f} s total)")
    assert ok, f"sparse-engine FFT work is not below a quarter of the dense baseline: ratio {ratio:.2f}"


def test_criterion_10_repetition_schedule_bound():
    details = []
    ok = True
    for k in (16, 64, 256):
        for delta in (0.1, 0.01):
            params = ExactParams(k=k, delta=delta)
            schedule = repetition_schedule(params)
            levels = len(schedule)
            total = sum(schedule)
            budget = 10 * params.R_mult * math.log2(2 * levels / delta) + levels
            ok = ok and total <= budget
            details.append(f"k={k},d={delta}:{total}<={budget:.1f}")
    _report(10, "repetition schedule bound", ok, "; ".join(details))
    assert ok


def test_criterion_11_determinism(tmp_path):
    inst, oracle, _ = _grid_instance(7777)
    ap = ApproxParams(k=GRID_K, delta=GRID_DELTA, seed=11)
    ep = ExactParams(k=GRID_K, delta=GRID_DELTA, seed=11)
    approx_same = (
        approx_sparse_convolve(inst.a, inst.b, ap).sorted_items()
        == approx_sparse_convolve(inst.a, inst.b, ap).sorted_items()
    )
    exact_same = (
        exact_sparse_convolve(inst.a, inst.b, ep).sorted_items()
        == exact_sparse_convolve(inst.a, inst.b, ep).sorted_items()
    )

    config = {
        "engines": ["fft", "approx", "exact"],
        "seeds": [0, 1],
        "instances": [{"id": "det", "n": 512, "s_a": 3, "s_b": 3, "k": 9}],
    }
    run_benchmark(config, tmp_path / "r1")
    run_benchmark(config, tmp_path / "r2")

    def rows_excluding_timing(path):
        idx = CSV_COLUMNS.index("wall_ms")
        rows = []
        for line in (path / "runs.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            cells[idx] = ""
            rows.append(cells)
        return rows

    csv_same = rows_excluding_timing(tmp_path / "r1") == rows_excluding_timing(tmp_path / "r2")
    ok = approx_same and exact_same and csv_same
    _report(11, "determinism", ok,
            f"approx bitwise: {approx_same}, exact bitwise: {exact_same}, "
            f"CSV rows (timings excluded): {csv_same}")
    assert ok
