"""Export hygiene: every public name the package and its modules
declare in __all__ exists, so a star import cannot fail on a name that
was removed, and no module imports a name it neither uses nor exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# Imports kept for a reader outside the package, each with its reason.
UNUSED_IMPORTS_KEPT = {
    # perfbench's layer trace wraps extract_candidates here as well as in
    # sparseconv.approx, and reads every extraction metric as absent
    # when one of its sites is missing
    "sparseconv.exact.extract_candidates",
}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_does_not_use(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert {f"{name}.{attr}" for attr in unused} == {k for k in UNUSED_IMPORTS_KEPT if k.rpartition(".")[0] == name}
