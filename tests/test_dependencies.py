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
