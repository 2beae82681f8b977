"""Approximate recovery on a generated gap instance: a few hashed
sketches, a median vote over them and a peel of their heavy buckets
bring the support back exactly and the values within a hair, at FFT
work that scales with the output sparsity rather than the vector
length. Each call's plan prices a few moduli m, each with the fewest
sketches that separate every pair of significant indices in one of
them, so that no pair leaves the peel stuck, against the lossless plan
(2 folds of the dense product at m = 2n - 1), and takes the cheapest
(m, sketches); the route follows the primes, cyclic below 2n - 1. A
peel that is not clean plans again at 2k. Here (n = 2^16, k = 64) the
plan is 3 cyclic sketches on primes in [456, 912].

Run: python demos/04_approximate_recovery.py
"""

import time

import numpy as np

from sparseconv import (
    ApproxParams,
    InstanceSpec,
    approx_plan,
    approx_sparse_convolve,
    fft_convolve,
    fft_work,
    generate_instance,
    reset_fft_work,
)

spec = InstanceSpec(n=2**16, s_a=8, s_b=8, seed=42)
inst = generate_instance(spec)
print(f"instance: n={spec.n}, significant entries k={inst.k_effective}, "
      f"noise ceiling c2={spec.c2_effective:.3g}")

oracle = fft_convolve(inst.a, inst.b)
true_supp = set(np.flatnonzero(oracle >= 0.5).tolist())

params = ApproxParams(k=inst.k_effective, delta=0.1, seed=1)
plan = approx_plan(params, spec.n)
print(f"plan: primes in [{plan.m}, {2 * plan.m}], {plan.reps} sketches, "
      f"{'dense' if plan.m >= 2 * spec.n - 1 else 'cyclic'} route")
reset_fft_work()
t0 = time.perf_counter()
d = approx_sparse_convolve(inst.a, inst.b, params)
wall = time.perf_counter() - t0
work = fft_work()

print(f"\nrecovered {len(d)} entries in {wall * 1000:.0f} ms "
      f"(FFT work counter: {work:,})")
print("support recovered exactly:", d.support() == true_supp)
errs = [abs(d[j] - oracle[j]) for j in true_supp]
print(f"value error on support: max {max(errs):.2e}")

sample = d.sorted_items()[:5]
print("\nfirst entries (index, recovered value, true value):")
for j, v in sample:
    print(f"  {j:6d}  {v:10.4f}  {oracle[j]:10.4f}")
