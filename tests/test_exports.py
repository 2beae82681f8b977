"""Export hygiene: every public name the package and its modules
declare in __all__ exists, so a star import cannot fail on a name that
was removed, no module imports a name it neither uses nor exports, and
no test or demo script imports a name it does not use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparseconv

MODULES = ["sparseconv"] + [f"sparseconv.{m.name}" for m in pkgutil.iter_modules(sparseconv.__path__)]
ROOT = Path(__file__).parents[1]
SCRIPTS = sorted(path.relative_to(ROOT).as_posix() for folder in ("tests", "demos") for path in (ROOT / folder).glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from sparseconv import *", namespace)
    assert set(sparseconv.__all__) <= namespace.keys()


# Imports kept for a reader outside the package, each with its reason;
# each is a site of perfbench's layer trace, and goes when its site goes.
UNUSED_IMPORTS_KEPT = {
    # perfbench's layer trace wraps extract_candidates here as well as in
    # sparseconv.approx, and reads every extraction metric as absent
    # when one of its sites is missing
    "sparseconv.exact.extract_candidates",
    # the residual's reference, with no library caller since the residual
    # sums C's fold by bincount; the layer trace counts sparse folds here
    "sparseconv.sketch.fold_sparse",
}


def _layer_trace_sites() -> set[str]:
    """perfbench/layertrace.py's SITES as "module.attribute" names, read
    from its source: the trace patches each, and a kept import serves one."""
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["SITES"]]
    return {f"{module}.{attr}" for module, attr, _ in ast.literal_eval(node.value)}


def test_every_kept_import_is_a_layer_trace_site():
    assert UNUSED_IMPORTS_KEPT <= _layer_trace_sites()


def _unused_imports(path) -> set[str]:
    """Names a file's import statements bind that no expression reads."""
    tree = ast.parse(Path(path).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_does_not_use(name):
    module = importlib.import_module(name)
    unused = _unused_imports(module.__file__) - set(getattr(module, "__all__", ()))
    assert {f"{name}.{attr}" for attr in unused} == {k for k in UNUSED_IMPORTS_KEPT if k.rpartition(".")[0] == name}


@pytest.mark.parametrize("path", SCRIPTS)
def test_no_test_or_demo_imports_a_name_it_does_not_use(path):
    # parsed by path, never imported: a demo runs its walkthrough at import
    assert _unused_imports(ROOT / path) == set()
