import pytest

from isolation import is_isolated


class TestIsIsolated:
    def test_singleton(self):
        assert is_isolated(3, {3}, 5)

    def test_collision(self):
        assert not is_isolated(3, {3, 10}, 7)

    def test_no_collision(self):
        assert is_isolated(3, {3, 11}, 7)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            is_isolated(4, {3}, 7)
