"""Approximate recovery on a generated gap instance: a few hashed
sketches, a median vote over them and a peel of their heavy buckets
bring the support back exactly and the values within a hair, at FFT
work that scales with the output sparsity rather than the vector
length. The paper's repetition count L only caps the sketches, which
double while the peel is not clean.

Run: python demos/04_approximate_recovery.py
"""

import time
from dataclasses import replace

from sparseconv import (
    ApproxParams,
    InstanceSpec,
    approx_plan,
    approx_sparse_convolve,
    fft_convolve,
    fft_work,
    generate_instance,
    isolation_reps,
    reset_fft_work,
    support_ge,
)

spec = InstanceSpec(n=2**16, s_a=8, s_b=8, seed=42)
inst = generate_instance(spec)
print(f"instance: n={spec.n}, significant entries k={inst.k_effective}, "
      f"noise ceiling c2={spec.c2_effective:.3g}")

oracle = fft_convolve(inst.a, inst.b)
true_supp = support_ge(oracle, 0.5)

params = ApproxParams(k=inst.k_effective, delta=0.1, seed=1)
cap = approx_plan(replace(params, delta=params.delta / 2), spec.n)[1]
print(f"sketches: {isolation_reps(params, spec.n)} to start, at most the paper's L = {cap} (at delta/2)")
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
