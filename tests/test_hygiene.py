"""Static checks on the source: no unused imports or dead nested functions in the
package, tests or demos, no dead private helpers, no public function or method
that only tests call and no `assert` statement in the package, no dead helper
functions in tests or demos, and a package `__all__` that matches what
`__init__.py` imports.

Every check but the last reads the files with the standard library's `ast`
only, so they run without importing the package; the last imports the command
line in a fresh interpreter.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lagrel"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
SCRIPTS = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])}


def _references(node: ast.AST) -> Counter:
    """Names read (`x`), attributes read (`obj.x`) and names imported from a module."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level `__all__`."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {elt.value for elt in stmt.value.elts}
    return set()


@pytest.mark.parametrize("module", sorted(MODULES) + sorted(SCRIPTS))
def test_every_import_is_used(module):
    tree = MODULES.get(module) or SCRIPTS[module]
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)} | _exported(tree)
    unused = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == []


def _private_functions():
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield module, node


def test_every_private_function_is_referenced():
    total = Counter()
    for tree in MODULES.values():
        total += _references(tree)
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in _private_functions()
        if total[node.name] - _references(node)[node.name] <= 0
    ]
    assert dead == []


def _caller_references() -> Counter:
    """Names read by the package (re-exports in __init__.py do not count) and by the demos."""
    readers = [tree for module, tree in MODULES.items() if module != "__init__.py"]
    readers += [tree for script, tree in SCRIPTS.items() if script.startswith("demos/")]
    return sum(map(_references, readers), Counter())


def test_every_public_function_has_a_caller():
    # a public module-level function is read outside its own body by the package
    # or by a demo, so the package ships no helper that only tests call
    total = _caller_references()
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in MODULES.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and total[node.name] - _references(node)[node.name] <= 0
    ]
    assert unused == []


def test_every_public_method_has_a_caller():
    # the same rule for the public methods and properties of the package's classes,
    # matched by attribute name: a method that only tests call is not shipped
    total = _caller_references()
    unused = [
        f"{module}:{node.lineno} {cls.name}.{node.name}"
        for module, tree in MODULES.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and total[node.name] - _references(node)[node.name] <= 0
    ]
    assert unused == []


def test_every_nested_function_is_referenced():
    # a nested function counts as used when an enclosing function reads it outside its body
    dead = [
        f"{module}:{inner.lineno} {inner.name}"
        for module, tree in {**MODULES, **SCRIPTS}.items() for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _references(outer)[inner.name] - _references(inner)[inner.name] <= 0
    ]
    assert dead == []


def test_no_assert_statement_in_the_package():
    # `python -O` strips assert statements; a check that must run raises explicitly
    asserts = [f"{module}:{node.lineno}" for module, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_every_test_helper_is_referenced():
    # a helper is used when its module reads it outside its body, or a script imports it
    imported = Counter((sub.module, alias.name) for tree in SCRIPTS.values()
                       for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom)
                       for alias in sub.names)
    dead = [
        f"{script}:{node.lineno} {node.name}"
        for script, tree in SCRIPTS.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_")
        and not any("fixture" in ast.unparse(dec) for dec in node.decorator_list)
        and _references(tree)[node.name] - _references(node)[node.name]
        + imported[(Path(script).stem, node.name)] <= 0
    ]
    assert dead == []


def test_package_exports_match_its_imports():
    tree = MODULES["__init__.py"]
    imported = {
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
        for alias in stmt.names
    }
    assigned = {
        t.id for stmt in tree.body if isinstance(stmt, ast.Assign) for t in stmt.targets
        if isinstance(t, ast.Name)
    }
    exported = _exported(tree)
    # every listed name resolves on the package, and every imported name is listed
    assert sorted(exported - imported - assigned) == []
    assert sorted(imported - exported) == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # every CLI job pays for what importing lagrel.cli loads; -S keeps site's imports out
    code = "import sys, lagrel.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
