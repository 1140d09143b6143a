"""The declared runtime dependencies are exactly what the library imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports(package: Path) -> set[str]:
    """Top-level modules outside the standard library and the package that
    any module of ``package`` imports, function-local imports included."""
    found = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {package.name}


def test_dependencies_name_the_third_party_imports_of_src():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower() for req in project["dependencies"]}
    assert declared == third_party_imports(ROOT / "src" / "gceo") == {"numpy"}


def numpy_imports(tree: ast.AST) -> list[ast.AST]:
    """The import statements of numpy (or a numpy submodule) in a module."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy"
    ]


def test_numpy_is_imported_only_inside_montecarlo_functions():
    # Only a simulation needs numpy; every other command starts without it.
    for path in sorted((ROOT / "src" / "gceo").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = numpy_imports(tree)
        in_functions = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in numpy_imports(func)
        }
        assert path.name == "montecarlo.py" or not found, f"{path.name} imports numpy"
        assert all(id(node) in in_functions for node in found), f"{path.name} imports numpy outside a function"
