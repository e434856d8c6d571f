"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchpde

SRC = Path(branchpde.__file__).resolve().parent
# the dependencies of pyproject.toml
DEPENDENCIES = {"numpy"}


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (`from __future__` is not an
    import in this sense)."""
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
    modules = sorted(SRC.glob("*.py"))
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
# is tested against, the closed-form constant, and public entry points tests call.
KEPT_UNREFERENCED = {
    "sample_tree", "evaluate_functional", "weighted_progeny",
    "bound_report", "tracked_constant",
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


BENCH = SRC.parents[1] / "bench"
# Defaulted parameters that no call in the package or bench/ passes, kept on
# purpose: name.parameter (a class's name for its __init__) -> the reason.
KEPT_DEFAULTS = {
    "sample_tree.sample_index": "the reference sampler's tests pick a tree by its index",
    "sample_tree.caps": "the reference sampler's tests cap it as the batch is capped",
    "estimate_u.caps": "public entry point; its tests cap trees, and solve calls median_of_means",
    "constant_problem.value": "reached through make_problem's registry call, which names no function",
    "zero_f_cosine_problem.d": "reached through make_problem's registry call, which names no function",
    "verify_code_bounds.k_max": "public entry point; its tests pick the f-derivative orders",
    "main.argv": "None reads the command line; the tests pass argv",
}


def unpassed_defaults(defining, calling) -> list[str]:
    """name.parameter of each defaulted parameter of a function or method
    defined in `defining` that no call in `calling` passes, by position or
    by keyword.  A call is matched by the name it calls (a class's name for
    its __init__), and one with *args or **kwargs passes every parameter."""
    calls = []
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.append((name, len(node.args), spread, {k.arg for k in node.keywords}))
    out = []
    for path in defining:
        tree = ast.parse(path.read_text())
        owners = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args, owner = node.args, owners.get(id(node))
            params = [p.arg for p in args.posonlyargs + args.args]
            if owner and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
                params = params[1:]  # self or cls
            name = owner if node.name == "__init__" else node.name
            defaulted = params[len(params) - len(args.defaults):]
            defaulted += [p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for p in defaulted:
                if not any(
                    called == name and (spread or p in keywords or p in params[:npos])
                    for called, npos, spread, keywords in calls
                ):
                    out.append(f"{name}.{p}")
    return out


def test_every_default_is_passed_or_kept_on_purpose():
    modules, bench = sorted(SRC.glob("*.py")), sorted(BENCH.glob("*.py"))
    assert bench
    # the allowlist holds nothing that a call passes or that is gone
    assert sorted(unpassed_defaults(modules, modules + bench)) == sorted(KEPT_DEFAULTS)


def test_unpassed_default_scan_sees_a_default_no_call_passes(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, z=2, *, w=3):\n    return x\n\n\n"
        "def g(a, b=0):\n    return a\n\n\n"
        "class C:\n    def __init__(self, n, m=1):\n        self.n = n\n\n"
        "    def h(self, k=0):\n        return k\n\n"
        "    @staticmethod\n    def s(q=0):\n        return q\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import C, f, g\n\n\ndef caller(args):\n"
        "    f(1, 2, w=4)\n    g(*args)\n    C(1).h()\n    C.s(5)\n"
    )
    assert sorted(unpassed_defaults([tmp_path / "a.py"], sorted(tmp_path.glob("*.py")))) == [
        "C.m", "f.z", "h.k"
    ]


# annotation -> the parameters a value of that type already fixes: a code
# its dimension d = len(alpha), a tree also its horizon and lifetime model
FIXED_BY = {"Code": {"d"}, "TreeSample": {"d", "T", "model"}}


def annotation_names(annotation) -> set[str]:
    """The names an annotation mentions, bare, as attributes or in strings."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= annotation_names(ast.parse(node.value, mode="eval"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(getattr(node, "id", getattr(node, "attr", None)))
    return names


def repeated_inputs(paths) -> list[str]:
    """module.function(parameters) of each function that takes a parameter
    annotated as a type of FIXED_BY beside parameters that type fixes."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            types = set().union(*(annotation_names(p.annotation) for p in params if p.annotation))
            fixed = set().union(*(FIXED_BY[t] for t in types & FIXED_BY.keys()))
            repeated = sorted(fixed & {p.arg for p in params})
            if repeated:
                out.append(f"{path.stem}.{node.name}({', '.join(repeated)})")
    return out


def test_no_function_takes_what_its_code_or_tree_fixes():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert repeated_inputs(modules) == []


def test_repeated_input_scan_sees_a_dimension_beside_a_code(tmp_path):
    (tmp_path / "a.py").write_text(
        "from typing import Optional\nfrom . import mechanism\n\n\n"
        "def entries(c: Code, d: int):\n    return c\n\n\n"
        "def functional(tree: 'TreeSample', oracle, model, T):\n    return tree\n\n\n"
        "class Table:\n    def row(self, code: Optional[mechanism.Code], kind, d=1):\n        return d\n\n\n"
        "def sized(alpha, d: int, T):\n    return d\n"
    )
    assert repeated_inputs([tmp_path / "a.py"]) == [
        "a.entries(d)", "a.functional(T, model)", "a.row(d)"
    ]


REGIME_CLASSES = {"Factorial", "Exponential", "_Regime"}
# isinstance dispatch on a regime class, kept on purpose: max_horizon is
# defined for the factorial regime alone, and the stability command emits
# t_max only there.  Every other formula is a method of the regime.
REGIME_DISPATCH = {"stability.max_horizon", "cli.cmd_stability"}


def regime_dispatch(paths) -> list[str]:
    """module.name of the top-level definition around each isinstance call
    whose class argument, or one of its tuple's entries, names a regime
    class (bare or as an attribute)."""
    out = []
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                ):
                    continue
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                names = {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds}
                if names & REGIME_CLASSES:
                    out.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return out


def test_regime_dispatch_is_kept_to_the_allowlist():
    assert sorted(regime_dispatch(sorted(SRC.glob("*.py")))) == sorted(REGIME_DISPATCH)


def test_regime_dispatch_scan_sees_a_dispatch(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import progeny\nfrom .progeny import Factorial\n\n\n"
        "def plain(regime):\n    return isinstance(regime, dict)\n\n\n"
        "def bound(regime, m):\n    if isinstance(regime, progeny.Exponential) and m:\n"
        "        return 1\n    return 0\n\n\n"
        "class Regimes:\n    def pick(self, r):\n        return isinstance(r, (int, Factorial))\n"
    )
    assert regime_dispatch([tmp_path / "a.py"]) == ["a.bound", "a.Regimes"]


def test_import_loads_no_process_pool_and_no_json():
    code = "import branchpde, sys; print(sorted({'multiprocessing', 'json'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


SAMPLER = {"tree", "estimator", "problems", "jets"}


def modules_loaded_by(code: str) -> set[str]:
    """The branchpde submodules loaded once `code` has run in a fresh
    interpreter."""
    code += (
        "\nimport sys\n"
        "print(' '.join(k.split('.', 1)[1] for k in sys.modules if k.startswith('branchpde.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


ANALYZER = {"stability", "progeny", "combinatorics"}


def test_package_import_loads_and_binds_nothing():
    # every name is imported from the module that defines it
    loaded = modules_loaded_by(
        "import branchpde\n"
        "names = [n for n in vars(branchpde) if not (n.startswith('__') and n.endswith('__'))]\n"
        "assert names == [] and branchpde.__version__, names"
    )
    assert loaded == set()


@pytest.mark.parametrize("code", [
    "import branchpde",
    "from branchpde import lifetimes, progeny, stability",
    "from branchpde.lifetimes import exponential_model; "
    "from branchpde.stability import Factorial, GrowthParams, check_conditions",
])
def test_analyzer_imports_load_no_sampler(code):
    loaded = modules_loaded_by(code)
    if code == "import branchpde":
        assert loaded == set()
    else:
        assert {"lifetimes", "mechanism", "stability"} <= loaded
    assert loaded & (SAMPLER | {"cli", "verify"}) == set()


def test_sampler_imports_load_no_analyzer():
    loaded = modules_loaded_by("from branchpde import estimator, problems")
    assert SAMPLER <= loaded
    assert loaded & (ANALYZER | {"verify", "cli"}) == set()


def test_stability_import_loads_no_progeny():
    # progeny imports stability, for the regimes, and never the other way
    loaded = modules_loaded_by("from branchpde import stability")
    assert "stability" in loaded and loaded & {"progeny", "combinatorics"} == set()


def test_solve_command_loads_no_analyzer(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": "b2", "T": 0.1, "code": {"alpha": [1], "j": 0},
        "points": [{"t": 0.0, "x": [0.1]}], "n": 20,
    }))
    out = tmp_path / "out.csv"
    loaded = modules_loaded_by(
        f"from branchpde import cli\n"
        f"assert cli.main(['solve', '--config', {str(path)!r}, '--out', {str(out)!r}]) == 0"
    )
    assert out.read_text()
    assert {"cli", "estimator", "problems"} <= loaded and loaded & (ANALYZER | {"verify"}) == set()


@pytest.mark.parametrize("command, cfg", [
    ("progeny", {"regime": {"kind": "factorial", "theta": 1.5, "r": 1}, "kmax": 2, "alpha_max": 1}),
    ("stability", {"regime": {"kind": "exponential", "theta": 1.5}, "lambda": 1.0,
                   "delta1": 1.2, "delta2": 1.2, "T": 0.001, "m_max": 1}),
])
def test_analyzer_commands_load_no_sampler(tmp_path, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.txt"
    loaded = modules_loaded_by(
        f"from branchpde import cli\n"
        f"assert cli.main([{command!r}, '--config', {str(path)!r}, '--out', {str(out)!r}]) == 0"
    )
    assert out.read_text()
    assert "cli" in loaded and loaded & (SAMPLER | {"verify"}) == set()


def test_sampler_import_loads_every_traced_module():
    # the traced benchmark run imports these four, then looks each traced
    # module up in sys.modules
    loaded = modules_loaded_by("from branchpde import estimator, lifetimes, problems, progeny")
    assert {"tree", "mechanism", "lifetimes", "estimator", "progeny", "stability"} <= loaded
