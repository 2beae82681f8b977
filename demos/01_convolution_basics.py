"""Walk through the dense primitives: validated vectors, the quadratic
reference convolution, its FFT twin, and the index-weighted derivative
with its product rule.

Run: python demos/01_convolution_basics.py
"""

import numpy as np

from sparseconv import derivative, fft_convolve, naive_convolve
from sparseconv.numerics import dense_vector

A = dense_vector([1, 2, 4, 3, 5, 0, 7])
B = dense_vector([1, 4, 3, 6, 7, 8, 9])

print("A =", A.astype(int).tolist())
print("B =", B.astype(int).tolist())

C = naive_convolve(A, B)
print("\ndirect-sum convolution A*B:")
print("  C =", C.astype(int).tolist())

C_fft = fft_convolve(A, B)
print("\nFFT path agrees to machine precision:")
print("  max |naive - fft| =", float(np.max(np.abs(C - C_fft))))

# The index-weighted derivative: entry i becomes i * A_i (base 0).
# Folding it is what lets bucket ratios reveal indices later on.
dA = derivative(A, 0)
print("\nindex-weighted A (base 0):", dA.astype(int).tolist())
print("same vector at base 1:     ", derivative(A, 1).astype(int).tolist())

# Product rule: d(A*B) = dA*B + A*dB, the identity behind index recovery.
lhs = derivative(C, 0)
rhs = naive_convolve(derivative(A, 0), B) + naive_convolve(A, derivative(B, 0))
print("\nproduct rule max abs gap:", float(np.max(np.abs(lhs - rhs))))
