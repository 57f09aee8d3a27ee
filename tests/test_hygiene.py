"""Source hygiene: no module of the package imports a name it never uses,
no module-level private function or class goes unreferenced, no
module-level private function has a parameter it never reads, and no
module uses an `assert` statement, which `python -O` strips.

`__init__.py` is exempt from the import check, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import treksep

PACKAGE = sorted(Path(treksep.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _names_used(node) -> set:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def unreferenced_private(sources: dict) -> list:
    """(module, name) of each module-level `_private` function or class that
    no code of the given modules, outside its own definition, refers to."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.name))
            used |= names
    return sorted((module, name) for module, name in defined if name not in used)


def unread_parameters(source: str) -> list:
    """(function, parameter) of each parameter that a module-level `_private`
    function never reads."""
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            out.extend((node.name, p) for p in params if p not in read)
    return sorted(out)


def assert_lines(source: str) -> list:
    """Line of each `assert` statement."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Dict, List\nx: List = []\n") \
        == [(1, "os"), (2, "Dict")]


def test_checker_flags_an_unreferenced_private_definition():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\n"
             "def _used():\n    pass\n\nclass _Gone:\n    pass\n\n"
             "def public():\n    return _used()\n",
        "b": "from .a import public\n\ndef _imported():\n    pass\n\n"
             "def _via_attr():\n    pass\n\nX = _imported\n",
        "c": "from . import b\n\nY = b._via_attr\n",
    }
    assert unreferenced_private(sources) == [("a", "_Gone"), ("a", "_dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private(sources) == []


def test_checker_flags_an_unread_parameter():
    source = ("def _f(a, b, *rest, c, **opts):\n    b = a\n    return b\n\n"
              "def _g(x):\n    def inner():\n        return x\n    return inner\n\n"
              "def public(unused):\n    pass\n\n"
              "class _C:\n    def _m(self, unused):\n        pass\n")
    assert unread_parameters(source) == [("_f", "c"), ("_f", "opts"), ("_f", "rest")]


def test_checker_flags_an_assert_statement():
    source = "def f(x):\n    assert x > 0\n    return x\n\nassert f(1)\nok = 'assert'\n"
    assert assert_lines(source) == [2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_parameters_of_private_functions(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
