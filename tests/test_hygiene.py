"""Source hygiene: no module of the package, and no Python file under
`tests/` (the references and the `tests/data` scripts too), imports a name
it never uses.  In the package, no module-level private function or class
goes unreferenced, no module-level function or method has a parameter (but
`self` or `cls`) it never reads, and no public function, method or property
is read only from the tests.  Each module compiles to the same code at
optimize 0 and 1, which rules out an `assert` statement and a `__debug__`
branch, and no module reads `sys.flags`: those are all that `python -O`
changes, so the package runs the same code under it.  In `separation`, one
function alone reads the adjacency index lists that become arc entries, so
that the first pass and the breadth-first search share one listing.  One
call in the package makes a `MixedGraph`, the one in `graph._build`, so
that every graph the package makes is checked on one path.

`__init__.py` is exempt from the import check, since its imports are the
package's re-exports, and its re-exports are no reads for the public-name
check.

CI's installed-script step runs `treksep` itself only for what no row of
`test_cli.py`'s tables can state; every other run is a row, which the step
runs through `run_cli_rows.py`.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import treksep

PACKAGE = sorted(Path(treksep.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = Path(__file__).parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tier1.yml"


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


def attribute_readers(source: str, names) -> list:
    """(definition, attribute) for each of names that a module-level function
    or class of source reads as an attribute, "<module>" for code outside
    them."""
    out = set()
    for node in ast.parse(source).body:
        label = getattr(node, "name", "<module>")
        out.update((label, sub.attr) for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and sub.attr in names)
    return sorted(out)


# The adjacency index lists that `separation` turns into arc entries, all in
# one function (its `_parent_lists` also gives `_blank` the ancestors of B).
INDEX_LISTS = {"_child_lists", "_undirected_lists", "_bidirected_lists"}


def callers(source: str, name: str) -> list:
    """The module-level function or class ("<module>" for code outside them)
    of each call of name in source, by its name or as an attribute."""
    out = []
    for node in ast.parse(source).body:
        label = getattr(node, "name", "<module>")
        out.extend(label for sub in ast.walk(node) if isinstance(sub, ast.Call)
                   and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None)))
    return sorted(out)


def same_code_under_O(source: str) -> bool:
    """Does source compile to the same code object at optimize 0 and 1?  The
    second drops every `assert` and reads `__debug__` as False."""
    plain, optimized = (compile(source, "<source>", "exec", optimize=level) for level in (0, 1))
    return plain == optimized


def sys_flags_reads(source: str) -> list:
    """Line of each read of `sys.flags`, as an attribute or by `from sys import flags`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "flags"
                  and getattr(node.value, "id", None) == "sys"
                  or isinstance(node, ast.ImportFrom) and node.module == "sys"
                  and any(alias.name == "flags" for alias in node.names))


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


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.rglob("*.py")), ids=lambda p: p.name)
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


def test_checker_lists_each_reader_of_an_attribute():
    source = ("import x\nLISTS = x._child_lists\n\n"
              "def _f(g):\n    return g._child_lists, g.child_lists\n\n"
              "class C:\n    def m(self, g):\n        return g._undirected_lists[1]\n")
    assert attribute_readers(source, INDEX_LISTS) == [
        ("<module>", "_child_lists"), ("C", "_undirected_lists"), ("_f", "_child_lists")]


def test_only_the_lister_reads_the_index_lists_in_separation():
    source = (Path(treksep.__file__).parent / "separation.py").read_text(encoding="utf-8")
    assert attribute_readers(source, INDEX_LISTS) == [
        ("_listed", "_bidirected_lists"), ("_listed", "_child_lists"),
        ("_listed", "_undirected_lists")]


def test_checker_lists_each_caller_of_a_name():
    source = ("import g\nG = g.Graph(1)\n\n"
              "def _f():\n    return Graph(1), Graph(2), Graph\n\n"
              "class C:\n    def __repr__(self):\n        return f'Graph({self})'\n")
    assert callers(source, "Graph") == ["<module>", "_f", "_f"]


def test_only_build_makes_a_graph():
    calls = [(path.name, label) for path in PACKAGE
             for label in callers(path.read_text(encoding="utf-8"), "MixedGraph")]
    assert calls == [("graph.py", "_build")]


def test_checker_flags_an_assert_statement():
    assert not same_code_under_O("def f(x):\n    assert x > 0\n    return x\n")
    assert same_code_under_O("def f(x):\n    return x\n\nok = 'assert'\n")


def test_checker_flags_a_debug_branch():
    assert not same_code_under_O("def f(x):\n    if __debug__:\n        x += 1\n    return x\n")


def test_checker_flags_a_read_of_sys_flags():
    source = ("import sys\nfrom sys import argv\nX = sys.flags.optimize\n"
              "from sys import flags\nY = options.flags\n")
    assert sys_flags_reads(source) == [3, 4]


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
    # nor a `__debug__` branch: the module is the same code under `python -O`
    assert same_code_under_O(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_read_of_sys_flags(path):
    assert sys_flags_reads(path.read_text(encoding="utf-8")) == []


# The runs of `treksep` that CI's installed-script step makes itself: each
# checks what a row cannot (a memory limit, a closed pipe, a count and a
# digest of long output, help text), and the step names each in a comment.
STEP_ONLY_RUNS = {
    'treksep rank "$1" --A 1 --B 2',  # under `ulimit -v`
    'treksep treks "$RUNNER_TEMP/dense.graph" --i 11 --j 12',  # into `head`; its count
    "treksep verify --graphs 2",
    "treksep verify --graphs 20 --max-vertices 8",
    "treksep verify --graphs 3 --max-vertices 16",
    "treksep verify --output json",  # its sha256
    'treksep "$cmd" -h',  # the help loop
}


def installed_script_runs(workflow: str) -> list:
    """Each run of `treksep` in the step "Installed console script" of a
    workflow, comments left out: the command from `treksep` to the first
    redirection, pipe, separator, quote or parenthesis that ends it."""
    step = workflow.split("- name: Installed console script", 1)[1].split("- name:", 1)[0]
    script = "\n".join(line for line in step.splitlines() if not line.lstrip().startswith("#"))
    pieces = re.split(r"\s*(?:\n|[0-9]?[<>]|[|;&'`()]|\$\(|\b(?:exec|do|then|else)\s)\s*", script)
    return [piece for piece in pieces if piece.startswith("treksep ")]


def test_checker_lists_each_run_of_the_installed_script():
    workflow = ("      - name: Installed console script\n        run: |\n"
                "          # treksep rank in a comment\n"
                "          test \"$(treksep treks g --i 1 --j 2 | tail -n 1)\" = x\n"
                "          bash -c 'ulimit -v 9; exec treksep rank \"$1\" --A 1' _ g > o 2> e\n"
                "          python -c 'import treksep; treksep.parse_graph(x)'\n"
                "          for c in a b; do treksep \"$c\" -h; done\n"
                "      - name: Next\n        run: treksep validate g\n")
    assert installed_script_runs(workflow) == [
        "treksep treks g --i 1 --j 2", 'treksep rank "$1" --A 1', 'treksep "$c" -h']


def test_installed_script_step_runs_only_what_no_row_states():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    assert set(installed_script_runs(workflow)) == STEP_ONLY_RUNS
    assert "\n          python tests/run_cli_rows.py\n" in workflow
