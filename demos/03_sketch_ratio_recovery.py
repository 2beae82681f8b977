"""One sketch, bucket by bucket: how the W/V ratio reads the true index
out of an isolated bucket and how collisions betray themselves.

Run: python demos/03_sketch_ratio_recovery.py
"""

import numpy as np

from sparseconv import build_sketch, extract_candidates, naive_convolve

n = 32
a = np.zeros(n)
b = np.zeros(n)
a[[3, 9, 20]] = [2.0, 5.0, 1.0]
b[[1, 7, 15]] = [4.0, 1.0, 3.0]

c = naive_convolve(a, b)
support = np.flatnonzero(c >= 0.5).tolist()
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
print(f"\naccepted candidates (ratio within 0.25 of an integer that is the bucket mod {p}):")
for cand in cands:
    mark = "ok" if abs(cand.value - c[cand.index]) < 1e-6 else "corrupt"
    print(f"  index {cand.index} value {cand.value:.3f}  "
          f"(true {c[cand.index]:.3f}) [{mark}]")
print("\nmost collisions land off-integer and are rejected outright. The two")
print("here that land on one (buckets 0 and 4) decode to 27 and 10, which hash")
print(f"to buckets {27 % p} and {10 % p}: a decoded index must hash to the bucket it")
print("was read from, so they are rejected too. A collision whose weighted mean")
print("stays in its own class (two equal values 2p apart, say) still passes,")
print("and the vote over many primes filters it out.")
