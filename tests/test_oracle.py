import numpy as np

from oracle import significant_support, support_ge


class TestSupportGe:
    def test_support_ge(self):
        assert support_ge(np.array([0, 0, 1, 0, 2]), 1) == {2, 4}

    def test_significant_support_keeps_an_entry_a_hair_below_c1(self):
        product = np.array([0, 0.9999999999999999, 1e-20, 2])
        assert support_ge(product, 1.0) == {3}
        assert significant_support(product, 1.0) == {1, 3}
