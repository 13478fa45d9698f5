"""Source hygiene: no module imports a name it never uses, every
private helper is read somewhere in the package, and every function the
benchmark's tracer wraps exists.

The re-exports of ``discred/__init__.py`` are its purpose, so that file
is exempt.
"""

import ast
import importlib
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "discred")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_detects_leftovers():
    source = ("from .grouptable import is_normal, quotient\n"
              "from .rootdatum import validate_based as _validate_based\n"
              "import itertools\n"
              "quotient(None, None)\n")
    assert unused_imports(source) == ["is_normal", "_validate_based",
                                      "itertools"]


def private_definitions(tree):
    """Names of the module-level ``_name`` functions and classes of an
    AST, and of the ``_name`` methods of its classes; dunders are not
    private helpers."""
    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__"))
    names = [node.name for node in tree.body if private(node)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            names += [node.name for node in cls.body if private(node)]
    return names


def unread_private_helpers(sources):
    """Private definitions of ``sources`` that no expression in any of
    them reads, by name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for tree in trees for name in private_definitions(tree)
            if name not in read]


def test_no_unread_private_helpers():
    sources = []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            sources.append(fh.read())
    assert unread_private_helpers(sources) == []


def test_detects_unread_private_helpers():
    module = ("def _used():\n"
              "    return _Kept()._helper()\n"
              "def _cocycle_rows():\n"
              "    pass\n"
              "class _Kept:\n"
              "    def __init__(self):\n"
              "        pass\n"
              "    def _helper(self):\n"
              "        pass\n"
              "    def _stale(self):\n"
              "        pass\n")
    caller = "from .module import _used\n_used()\n"
    assert unread_private_helpers([module, caller]) == ["_cocycle_rows",
                                                        "_stale"]


def tracer_targets():
    """The ``TARGETS`` list of the benchmark's tracer, read from its
    source without importing it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets))


def test_tracer_targets_resolve():
    """A rename in src/ must not leave the traced benchmark wrapping a
    name that is gone."""
    targets = tracer_targets()
    assert targets
    for _, module, attr, _ in targets:
        obj = importlib.import_module(f"discred.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"
