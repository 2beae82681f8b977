import numpy as np

from oracle import support_ge


class TestSupportGe:
    def test_support_ge(self):
        assert support_ge(np.array([0, 0, 1, 0, 2]), 1) == {2, 4}
