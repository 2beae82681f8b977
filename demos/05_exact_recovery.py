"""Iterative correction to exact values: the approximate engine's path
with rounding, a vote over a few stored heavy sketches and then a peel
of the residual off them, level by level. Includes a planted defect repaired by a single
fresh-prime correction level.

Run: python demos/05_exact_recovery.py
"""

from sparseconv import (
    CorrectionTrace,
    ExactParams,
    InstanceSpec,
    SparseResult,
    exact_plan,
    exact_sparse_convolve,
    fft_convolve,
    generate_instance,
    repetition_schedule,
    residual_norm,
    round_to_int,
    run_correction_level,
    support_ge,
)

spec = InstanceSpec(n=2**14, s_a=8, s_b=8, seed=11)
inst = generate_instance(spec)
oracle = fft_convolve(inst.a, inst.b)
true_supp = support_ge(oracle, 0.5)
print(f"instance: n={spec.n}, k={inst.k_effective}")

params = ExactParams(k=inst.k_effective, delta=0.1, seed=5)
trace = CorrectionTrace()
c = exact_sparse_convolve(inst.a, inst.b, params, trace=trace)

print(f"\nrepetitions per vote: {trace.bootstrap_reps}")
schedule = repetition_schedule(params)
print(f"fresh-prime level schedule (repetitions per level): {schedule}")
print(f"peel levels run / cap: {len(trace.chosen_primes)} / {len(schedule)}, stored primes chosen: {trace.chosen_primes}")
print("residual significant entries after each stage:")
for stage, snap in enumerate(trace.snapshots):
    norm = residual_norm(inst.a, inst.b, snap, 0.5, trials=2, seed=99)
    label = "vote" if stage == 0 else f"level {stage}"
    print(f"  {label:9s}: |residual| >= c1 count = {norm}")

exact = all(c[j] == float(round_to_int(oracle[j])) for j in true_supp)
print("\nvalue-exact on the significant support:", exact and c.support() == true_supp)

# Plant a defect: drop one recovered entry, then let one fresh-prime
# correction level find and restore it from the residual sketch alone.
full = dict(c.entries)
victim = sorted(full)[3]
value = full.pop(victim)
print(f"\nplanting a defect: dropping index {victim} (value {value})")
m, _ = exact_plan(params, spec.n)
reps = schedule[0]
repaired, prime = run_correction_level(
    inst.a, inst.b, SparseResult(full), 1, reps, m, params
)
print(f"one correction level (prime {prime}) restored it:",
      repaired == c)
