"""Every public name has a caller, and pyproject declares what src/ imports.

A name in `graphquery.__all__` must be used by the package itself, be one
the benchmark in perfbench/ reaches for (`test_benchmark_bindings.BINDINGS`),
or be listed in `API_ONLY` below with the reason it is kept. A helper that
only tests call belongs in tests/conftest.py instead.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import graphquery
from test_benchmark_bindings import BINDINGS

PACKAGE = Path(graphquery.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

# Public names kept as library API although nothing in src/ calls them.
API_ONLY = {
    # the isomorphism-class lister the README documents; the edge-floor
    # report reads the same levels without building Graph objects
    "enumerate_graphs",
}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names read in `tree` as a Name or an Attribute, outside any def or
    class called `skip`."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _callers_in_src(name: str) -> bool:
    return any(name in _referenced(tree, skip=name)
               for module, tree in _modules().items() if module != "__init__.py")


def _bound_by_benchmark(name: str) -> bool:
    return any(name in names for names in BINDINGS.values())


@pytest.mark.parametrize("name", sorted(graphquery.__all__))
def test_public_name_has_a_caller(name):
    assert _callers_in_src(name) or _bound_by_benchmark(name) or name in API_ONLY, (
        f"{name} is exported but only tests call it: move it to tests/conftest.py, "
        "give it a caller, or list it in API_ONLY with the reason"
    )


def test_api_only_names_need_the_exemption():
    for name in API_ONLY:
        assert name in graphquery.__all__, name
        assert not _callers_in_src(name) and not _bound_by_benchmark(name), name


def test_dependencies_are_what_src_imports():
    tomllib = pytest.importorskip("tomllib")
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]}
    imported = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"graphquery"}
    assert declared == third_party
