"""Oracle helpers shared by the tests: the indices a dense product
holds at or above a threshold, the truth a recovered support is
compared against, and a result rounded as exact rounds its own."""

import numpy as np

from sparseconv.numerics import SparseResult, round_to_int


def support_ge(a, threshold: float) -> set[int]:
    """Indices of entries >= threshold."""
    return {int(i) for i in np.flatnonzero(np.asarray(a) >= threshold)}


def rounded(c: SparseResult) -> SparseResult:
    """C's values rounded to the nearest integer, zeros dropped."""
    return SparseResult({i: float(round_to_int(v)) for i, v in c.items() if round_to_int(v)})
