"""Export hygiene: every public name the package and its modules
declare in __all__ exists, so a star import cannot fail on a name that
was removed."""

import importlib
import pkgutil

import pytest

import sparseconv

MODULES = ["sparseconv"] + [f"sparseconv.{m.name}" for m in pkgutil.iter_modules(sparseconv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from sparseconv import *", namespace)
    assert set(sparseconv.__all__) <= namespace.keys()
