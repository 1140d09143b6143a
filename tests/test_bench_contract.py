"""The names the benchmark under ``bench/`` uses from gceo still exist.

The benchmark is kept apart from the library, so a change that renames or
deletes a library name the benchmark needs would only show when the
benchmark runs.  These tests read the benchmark sources (they import and
change nothing there) and resolve every gceo name they use: the traced
``LAYERS`` functions of ``bench/tracing.py``, every ``from gceo... import``,
every attribute chain on an imported gceo module, and the keywords and
argument count of every call into gceo.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def _gceo_bindings(tree: ast.AST) -> dict[str, object]:
    """Names the source binds to gceo modules or objects by import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "gceo":
            for alias in node.names:
                module = importlib.import_module(node.module)
                if hasattr(module, alias.name):
                    value = getattr(module, alias.name)
                else:  # a submodule: from gceo import inversion
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gceo":
                    module = importlib.import_module(alias.name)  # also sets gceo.<submodule>
                    bound[alias.asname or "gceo"] = module if alias.asname else importlib.import_module("gceo")
    return bound


def _resolve(node: ast.AST, bound: dict[str, object]):
    """The gceo object an expression names (a name or attribute chain), else None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound)
        if base is None:
            return None
        assert hasattr(base, node.attr), f"{ast.unparse(node)} does not resolve at line {node.lineno}"
        return getattr(base, node.attr)
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_gceo_name_resolves(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _gceo_bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, bound)
        elif isinstance(node, ast.Call):
            target = _resolve(node.func, bound)
            if not callable(target) or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(k.arg is None for k in node.keywords):  # **kwargs
                continue
            try:
                signature = inspect.signature(target)
            except (TypeError, ValueError):  # builtins without a signature
                continue
            try:
                signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                pytest.fail(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}(...) {exc}")


def test_traced_layers_resolve():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    layers = [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Layer"
    ]
    assert len(layers) >= 10
    for module, func in layers:
        assert callable(getattr(importlib.import_module(f"gceo.{module}"), func, None)), f"{module}.{func}"


def test_bench_imports_load_every_traced_module():
    # ``Tracer.install`` looks each traced module up in ``sys.modules``
    # after the untraced pass, which on grid-map loads only what
    # ``omega-map`` needs; a lazily imported module would make a traced run
    # raise ``KeyError``.  So importing the harness's own modules must
    # load every one of them.
    src = BENCH.parent / "src"
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads, tracing\n"
        "print(sorted({layer.module for layer in tracing.LAYERS if 'gceo.' + layer.module not in sys.modules}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(src), str(BENCH)], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
