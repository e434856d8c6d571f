"""Checks on the package source itself."""

import ast
from pathlib import Path

import branchpde

SRC = Path(branchpde.__file__).resolve().parent


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
