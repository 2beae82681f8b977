"""One sketch, bucket by bucket: how the W/V ratio reads the true index
out of an isolated bucket and how collisions betray themselves.

Run: python demos/03_sketch_ratio_recovery.py
"""

import numpy as np

from sparseconv import build_sketch, extract_candidates, naive_convolve, support_ge

n = 32
a = np.zeros(n)
b = np.zeros(n)
a[[3, 9, 20]] = [2.0, 5.0, 1.0]
b[[1, 7, 15]] = [4.0, 1.0, 3.0]

c = naive_convolve(a, b)
support = sorted(support_ge(c, 0.5))
print("true product support:", {j: c[j] for j in support})

p = 7
sk = build_sketch(a, b, p)
print(f"\nsketch at p={p}: every support index lands in bucket (index mod {p})")
for bucket in range(p):
    holders = [x for x in support if x % p == bucket]
    if abs(sk.v[bucket]) < 1e-9 and not holders:
        continue
    ratio = sk.w[bucket] / sk.v[bucket] if sk.v[bucket] else float("nan")
    tag = "isolated" if len(holders) == 1 else ("collision" if holders else "noise")
    print(f"  bucket {bucket:2d}: V={sk.v[bucket]:7.3f}  W/V={ratio:8.3f}  "
          f"holders={holders} ({tag})")

cands = extract_candidates(sk, c1=0.5, tau=0.25)
print("\naccepted candidates (ratio within 0.25 of an integer):")
for cand in cands:
    mark = "ok" if abs(cand.value - c[cand.index]) < 1e-6 else "corrupt"
    print(f"  index {cand.index} value {cand.value:.3f}  "
          f"(true {c[cand.index]:.3f}) [{mark}]")
print("\nmost collisions land off-integer and are rejected outright; the")
print("occasional one that hits an integer injects a corrupt vote, which")
print("is exactly what median boosting over many primes filters out.")
