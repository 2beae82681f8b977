"""Oracle helpers shared by the tests: the indices a dense product
holds at or above a threshold, the truth a recovered support is
compared against (read at half c1), and a result rounded as exact
rounds its own."""

import numpy as np

from sparseconv.numerics import SparseResult, round_to_int


def support_ge(a, threshold: float) -> set[int]:
    """Indices of entries >= threshold."""
    return {int(i) for i in np.flatnonzero(np.asarray(a) >= threshold)}


def significant_support(product, c1: float) -> set[int]:
    """Indices of a gap-model product's significant entries, read at c1/2:
    nothing lies between c2 and c1, and round-off can leave an entry of
    exactly c1 a hair below it (0.9999999999999999 in fft_convolve)."""
    return support_ge(product, c1 / 2)


def rounded(c: SparseResult) -> SparseResult:
    """C's values rounded to the nearest integer, zeros dropped."""
    return SparseResult({i: float(round_to_int(v)) for i, v in c.items() if round_to_int(v)})
