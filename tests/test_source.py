"""Checks on the package source itself."""

import ast
import os
import subprocess
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


# Top-level definitions that nothing in the package reads, kept on purpose:
# what bench/ calls or traces, the per-tree reference sampler the batched one
# is tested against, the closed forms, and public entry points tests call.
KEPT_UNREFERENCED = {
    "sample_tree", "evaluate_functional", "weighted_progeny",
    "expected_weighted_progeny", "bound_report", "tracked_constant",
    "ahat_closed_exponential", "ahat_value_log",
    "weighted_progeny_batch", "verify_code_bounds",
}


def unreferenced_definitions(paths) -> list[str]:
    """module.name of each top-level function, class or assigned name that
    no Name or Attribute node of the modules reads outside the definition
    itself (a docstring mention is no reference).  Dunder names are module
    metadata and not checked."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    reads = [
        (module, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("__") or any(
                    read == name and not (where == module and node.lineno <= line <= node.end_lineno)
                    for where, read, line in reads
                ):
                    continue
                out.append(f"{module}.{name}")
    return out


def test_every_definition_is_reached_or_kept_on_purpose():
    unreferenced = unreferenced_definitions(sorted(SRC.glob("*.py")))
    assert sorted(u for u in unreferenced if u.split(".")[1] not in KEPT_UNREFERENCED) == []
    # the allowlist holds nothing that is referenced or gone
    assert sorted(u.split(".")[1] for u in unreferenced) == sorted(KEPT_UNREFERENCED)


def test_unreferenced_scan_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Mentions unused() in a docstring."""\nLIMIT = 3\n__version__ = "1"\n\n\n'
        "def used():\n    return LIMIT\n\n\ndef recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        'def unused():\n    """unused() is not read by this docstring either."""\n'
    )
    (tmp_path / "b.py").write_text("from . import a\n\n\ndef caller():\n    return a.used()\n")
    assert unreferenced_definitions(sorted(tmp_path.glob("*.py"))) == [
        "a.recursive", "a.unused", "b.caller"
    ]


def test_import_loads_no_process_pool_and_no_json():
    code = "import branchpde, sys; print(sorted({'multiprocessing', 'json'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
