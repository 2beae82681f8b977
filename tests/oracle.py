"""Oracle support shared by the tests: the indices a dense product
holds at or above a threshold, the truth a recovered support is
compared against."""

import numpy as np


def support_ge(a, threshold: float) -> set[int]:
    """Indices of entries >= threshold."""
    return {int(i) for i in np.flatnonzero(np.asarray(a) >= threshold)}
