"""Hashing indices modulo a random prime: sampling, folding vectors onto
residue classes, the fold/convolution commutation, and isolation.

Run: python demos/02_hashing_and_folding.py
"""

import numpy as np

from sparseconv import cyclic_convolve, fold, naive_convolve, sample_prime

rng = np.random.default_rng(7)

print("ten primes sampled uniformly from [50, 100]:")
print(" ", [sample_prime(50, np.random.default_rng(i)) for i in range(10)])

A = np.array([3.0, 1, 2, 1, 2, 1, 1])
print("\nA =", A.astype(int).tolist())
print("fold(A, 3) sums residue classes {0,3,6}, {1,4}, {2,5}:")
print(" ", fold(A, 3).astype(int).tolist())
print("mass is preserved:", fold(A, 3).sum() == A.sum())

# Folding commutes with convolution: hashing the product equals
# cyclically convolving the hashed inputs.
B = rng.integers(0, 5, 7).astype(float)
p = 5
lhs = fold(naive_convolve(A, B), p)
rhs = cyclic_convolve(fold(A, p), fold(B, p), p)
print("\ncommutation check at p=5: max gap =", float(np.max(np.abs(lhs - rhs))))

# Isolation: an index is isolated when no other support index shares its
# residue. Collisions are what the recovery algorithms must survive.
support = {3, 10, 24}
for p in (7, 11, 13):
    residues = [y % p for y in support]
    flags = {x: residues.count(x % p) == 1 for x in sorted(support)}
    print(f"isolation of support {sorted(support)} under p={p}: {flags}")
