"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import branchpde

SRC = Path(branchpde.__file__).resolve().parent
# the dependencies of pyproject.toml
DEPENDENCIES = {"numpy"}


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (re-exports from __init__.py
    and `from __future__` are not imports in this sense)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for path in modules for hit in unused_imports(path)] == []


def test_unused_import_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\nimport math\nimport os.path\n"
        "from typing import Optional, Sequence\n\n\ndef f(x: Sequence) -> float:\n"
        "    return os.path.sep + math.pi\n"
    )
    assert unused_imports(module) == ["m.py:4 Optional"]


def third_party_imports(path: Path) -> list[str]:
    """Absolute imports of a module that are neither in the standard library
    nor among DEPENDENCIES."""
    tree = ast.parse(path.read_text())
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return [
        f"{path.name}:{line} {name}"
        for line, name in roots
        if name not in sys.stdlib_module_names and name not in DEPENDENCIES
    ]


def test_imports_only_declared_dependencies():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in third_party_imports(path)] == []


def test_third_party_scan_sees_an_undeclared_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\nimport math, numpy as np\n"
        "from . import sibling\n\n\ndef f():\n    from scipy.special import gammaln\n"
        "    import numpy.linalg\n    return gammaln, sibling, math, np\n"
    )
    assert third_party_imports(module) == ["m.py:7 scipy"]
