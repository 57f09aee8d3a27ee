"""Source hygiene: no module of the package imports a name it never uses,
no module-level private function or class goes unreferenced, no
module-level function or method has a parameter (but `self` or `cls`) it
never reads, no public function, method or property is read only from the
tests, and no module uses an `assert` statement, which `python -O` strips.

`__init__.py` is exempt from the import check, since its imports are the
package's re-exports, and its re-exports are no reads for the public-name
check.
"""

import ast
from collections import Counter
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
    """(function, parameter) of each parameter, but `self` and `cls`, that a
    module-level function, or a method ("Class.method") of a module-level
    class, never reads."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(node.name, node) for node in tree.body if isinstance(node, functions)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, functions)]
    out = []
    for label, node in defs:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        out.extend((label, p) for p in params if p not in read and p not in ("self", "cls"))
    return sorted(out)


def _reads(node, kind: str) -> Counter:
    """How often node reads each name as a definition of the given kind: a
    "function" by a loaded name or an attribute, a "property" by an
    attribute, a "method" only by an attribute that is called."""
    out = Counter()
    for sub in ast.walk(node):
        if kind == "method":
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                out[sub.func.attr] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif kind == "function" and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
    return out


def _member_kind(item) -> str:
    decorators = {getattr(d, "id", None) for d in item.decorator_list}
    return "property" if decorators & {"property", "cached_property"} else "method"


def unread_public(sources: dict) -> list:
    """(module, name) of each public module-level function, and (module,
    "Class.name") of each public method or property, that no module but
    `__init__.py` reads outside its own definition.  A function is read by
    its name or as an attribute, a property as an attribute, and a method
    only where it is called: an attribute of the same name that is not
    called reads some other class's field or property."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []  # (module, label, definition, kind)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((module, node.name, node, "function"))
            elif isinstance(node, ast.ClassDef):
                defined.extend((module, f"{node.name}.{item.name}", item, _member_kind(item))
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
    reads = {kind: Counter() for kind in ("function", "property", "method")}
    for module, tree in trees.items():
        if module != "__init__.py":
            for kind, counts in reads.items():
                counts.update(_reads(tree, kind))
    return sorted((module, label) for module, label, node, kind in defined
                  if reads[kind][node.name] <= _reads(node, kind)[node.name])


# The public names that no module reads, each kept for its reason.
KEPT_UNREAD = {
    ("algebra.py", "undirected_minor_check"):
        "ROADMAP item 4 gates it as the exact half of criterion 5",
    ("algebra.py", "translate_subdivision_parameters"):
        "ROADMAP item 4 gates it as the exact Sigma equality of criterion 7",
    ("verify.py", "CheckResult.ok"):
        "the acceptance tests read it",
}


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
              "class _C:\n    def _m(self, unused):\n        pass\n\n"
              "class Box:\n    @classmethod\n    def make(cls, n):\n        return cls(n)\n\n"
              "    def size(self, scale, unused=0):\n        return scale\n\n"
              "    def __init__(self, n):\n        self.n = n\n")
    assert unread_parameters(source) == [("Box.size", "unused"), ("_C._m", "unused"),
                                         ("_f", "c"), ("_f", "opts"), ("_f", "rest"),
                                         ("public", "unused")]


def test_checker_flags_an_assert_statement():
    source = "def f(x):\n    assert x > 0\n    return x\n\nassert f(1)\nok = 'assert'\n"
    assert assert_lines(source) == [2, 5]


def test_checker_flags_a_public_name_no_module_reads():
    sources = {
        "__init__.py": "from .a import Box, exported\n",
        "a.py": "def exported(n):\n    return exported(n - 1)\n\n"
                "def by_name():\n    pass\n\n"
                "def by_attribute():\n    pass\n\n"
                "class Box:\n"
                "    def shown(self):\n        return self.size\n\n"
                "    @property\n    def size(self):\n        return self.size\n\n"
                "    @cached_property\n    def area(self):\n        return 0\n\n"
                "    def unread(self):\n        return self.unread()\n\n"
                "    def rank(self):\n        return 0\n\n"
                "    def _private(self):\n        pass\n\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "from . import a\nfrom .a import by_name\n\n"
                "def caller(box, result, unread):\n"
                "    by_name()\n    a.by_attribute()\n"
                "    return box.shown(), box.area, result.rank, unread\n",
    }
    assert unread_public(sources) == [("a.py", "Box.rank"), ("a.py", "Box.unread"),
                                      ("a.py", "exported"), ("b.py", "caller")]


def test_no_public_name_is_read_only_from_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_public(sources) == sorted(KEPT_UNREAD)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_parameters_of_private_functions(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
