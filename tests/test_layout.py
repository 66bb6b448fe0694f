"""Which module may reach into which: checked on the source, by its syntax tree."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "renyicq"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _imports(tree):
    """({bound name: renyicq module}, [(module, imported name)]) of one file.

    The package itself is the module "renyicq"; `from . import m` and `from
    renyicq import m` bind a module, `from .m import x` imports a name.
    """
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] != "renyicq":
                    continue
                if a.asname:
                    modules[a.asname] = a.name.rpartition(".")[2]
                else:
                    modules["renyicq"] = "renyicq"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.split(".")[0] == "renyicq":
                base = node.module.partition(".")[2] or None
            else:
                continue
            for a in node.names:
                if base is None and a.name in MODULES:
                    modules[a.asname or a.name] = a.name
                else:
                    names.append((base or "renyicq", a.name))
    return modules, names


def _module_of(node, modules):
    """The renyicq module an expression names (`m` or `renyicq.m`), else None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute) and node.attr in MODULES:
        return node.attr if _module_of(node.value, modules) == "renyicq" else None
    return None


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sources():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def test_only_centers_calls_the_kernel():
    # The compression and every number read off a sweep live in centers.py,
    # so no other package module imports the sweep kernel.
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        modules, names = _imports(ast.parse(path.read_text(encoding="utf-8")))
        if "backend" in modules.values() or any(m == "backend" for m, _ in names):
            importers.add(path.name)
    assert importers == {"centers.py"}


def test_the_classical_oracle_stays_independent():
    # classical.py is the scalar oracle the solvers are checked against, so it
    # shares no code with them: of the package it imports only the exceptions.
    modules, names = _imports(ast.parse((PACKAGE / "classical.py").read_text(encoding="utf-8")))
    assert set(modules.values()) | {m for m, _ in names} <= {"exceptions"}


def test_no_private_name_crosses_modules():
    # A leading underscore means "this module only": the package and the
    # tools import no such name from another renyicq module and read none off
    # it.  The tests may.
    crossings = []
    for path in _sources():
        own = path.stem if path.parent == PACKAGE else None
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, names = _imports(tree)
        crossings += [f"{path.name}: from {m} import {name}" for m, name in names
                      if m != own and _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                module = _module_of(node.value, modules)
                if module is not None and module != own:
                    crossings.append(f"{path.name}:{node.lineno}: {module}.{node.attr}")
    assert crossings == []


def test_the_checks_see_every_import_form():
    modules, names = _imports(ast.parse(
        "from . import backend\nfrom .centers import _radius\n"
        "from renyicq import exponents as ex\nfrom renyicq.optimize import _cholesky\n"
        "import renyicq\nimport renyicq.verify as vf\n"))
    assert modules == {"backend": "backend", "ex": "exponents", "renyicq": "renyicq",
                       "vf": "verify"}
    assert names == [("centers", "_radius"), ("optimize", "_cholesky")]
    expr = ast.parse("renyicq.cli._x", mode="eval").body
    assert _module_of(expr.value, modules) == "cli"
    assert not _private("__file__") and _private("_bracket")
