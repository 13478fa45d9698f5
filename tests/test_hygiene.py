"""Source hygiene: no module imports a name it never uses, every
private helper is read somewhere in the package, every public function,
class, method and property is read somewhere in the package or the
benchmark (the tests do not count: a helper only they read is deleted)
or listed in ``ALLOWED`` with its reason, and every function the
benchmark's tracer wraps exists.

``discred/__init__.py`` imports nothing from the package: it re-exports
lazily from its ``_EXPORTS`` table, so that file is exempt from the
unused-import check, and a name in the table counts as read.
"""

import ast
import importlib
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "discred")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
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


def read_names(tree):
    """Every name an expression of the AST reads, by name or as an
    attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_helpers(sources):
    """Private definitions of ``sources`` that no expression in any of
    them reads, by name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(read_names, trees))
    return [name for tree in trees for name in private_definitions(tree)
            if name not in read]


def _sources(directory):
    """Module name -> source, for each ``.py`` file of ``directory``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                out[name[:-3]] = fh.read()
    return out


def test_no_unread_private_helpers():
    assert unread_private_helpers(_sources(SRC).values()) == []


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


def public_definitions(tree):
    """Names of the public module-level functions and classes of an AST,
    and ``Class.name`` for the public methods and properties of each of
    its classes, private ones included (argparse calls
    ``_Parser.error``)."""
    def public(node, kinds):
        return isinstance(node, kinds) and not node.name.startswith("_")
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = [node.name for node in tree.body
             if public(node, functions + (ast.ClassDef,))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            names += [f"{cls.name}.{node.name}" for node in cls.body
                      if public(node, functions)]
    return names


def public_name_faults(sources, readers, exports, allowed):
    """What breaks the rule that every public definition is read.

    ``sources`` maps module name -> source; a definition is named
    ``module.name`` or ``module.Class.name``, and is read when an
    expression in ``readers`` reads its last part, by name or as an
    attribute, or when ``exports`` names it.  Returns the definitions
    that are neither read nor ``allowed``, then the ``allowed`` entries
    that are read anyway or name no definition, each with its fault."""
    read = set(exports)
    for source in readers:
        read |= read_names(ast.parse(source))
    defined = [f"{module}.{name}" for module, source in sources.items()
               for name in public_definitions(ast.parse(source))]
    faults = [f"unread: {name}" for name in defined
              if name.rsplit(".", 1)[-1] not in read and name not in allowed]
    for name in allowed:
        if name not in defined:
            faults.append(f"allowed, but defines nothing: {name}")
        elif name.rsplit(".", 1)[-1] in read:
            faults.append(f"allowed, but read: {name}")
    return faults


# public definitions that nothing in src/ or perfbench/ reads, each kept
# for a reason the package's code cannot show
_EXAMPLE = "a classic example; README: discred.standard has the examples"
ALLOWED = {
    "standard.pgl2": _EXAMPLE,
    "standard.pgl3": _EXAMPLE,
    "standard.a1xa1_adjoint": _EXAMPLE,
    "standard.g2": _EXAMPLE,
    "standard.d4_adjoint": _EXAMPLE,
    "cli._Parser.error": "argparse calls it to report a bad command line",
}


def test_no_unread_public_names():
    """Every public function, class, method and property of the package
    is read somewhere in src/ or perfbench/, re-exported by
    ``__init__``, named by the tracer, which reads its targets by name,
    or listed in ``ALLOWED`` with its reason.  A test is not a caller:
    a helper only the tests read is deleted, and a test that needs it
    keeps its own copy.  That every entry of the re-export table
    resolves is checked in tests/test_imports.py."""
    package = _sources(SRC)
    readers = [*package.values(),
               *_sources(os.path.join(ROOT, "perfbench")).values()]
    exports = [name for names in package_exports().values()
               for name in names]
    exports += [part for _, _, attr, _ in tracer_targets()
                for part in attr.split(".")]
    assert all(ALLOWED.values())
    assert public_name_faults(package, readers, exports, ALLOWED) == []


def test_detects_unread_public_names():
    module = ("def gl1():\n"
              "    return torus(1)\n"
              "def torus(rank):\n"
              "    return rank\n"
              "def sl2():\n"
              "    pass\n"
              "def pgl2():\n"
              "    pass\n"
              "class Kept:\n"
              "    def stale(self):\n"
              "        pass\n"
              "    def _private(self):\n"
              "        pass\n"
              "class _Parser:\n"
              "    def error(self):\n"
              "        pass\n"
              "class Dropped:\n"
              "    pass\n"
              "def _private():\n"
              "    pass\n")
    sources = {"standard": module}
    readers = [module, "from . import standard\nstandard.Kept()\n"]
    # a method that no reader reads is flagged, whatever a test reads
    assert public_name_faults(sources, readers, ["sl2"], {}) == [
        "unread: standard.gl1", "unread: standard.pgl2",
        "unread: standard.Dropped", "unread: standard.Kept.stale",
        "unread: standard._Parser.error"]
    # a name that the benchmark reads is read
    bench = "from discred import standard\nstandard.Kept().stale()\n"
    allowed = {"standard.gl1": "example", "standard.pgl2": "example",
               "standard.Dropped": "API",
               "standard._Parser.error": "argparse"}
    readers.append(bench)
    assert public_name_faults(sources, readers, ["sl2"], allowed) == []
    # an allowance for a name that is read, or that names nothing, fails
    stale = {**allowed, "standard.torus": "example", "standard.sl2": "API",
             "standard.Kept.stale": "API", "standard.gone": "example"}
    assert public_name_faults(sources, readers, ["sl2"], stale) == [
        "allowed, but read: standard.torus",
        "allowed, but read: standard.sl2",
        "allowed, but read: standard.Kept.stale",
        "allowed, but defines nothing: standard.gone"]


def callers(sources, name):
    """``module.function`` for each module-level function or class of
    ``sources`` (module name -> source) that calls ``name``, by name or
    as an attribute; a nested function or a method counts as its
    enclosing definition, and a call outside any as ``module``."""
    def calls(node):
        return any(isinstance(n, ast.Call) and name in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(node))
    out = []
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if calls(node):
                out.append(f"{module}.{node.name}" if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)) else module)
    return sorted(set(out))


def test_validate_table_checks_only_tables_from_outside():
    """The tables built in the package come with a proof; only the CLI's
    ``gamma.type: "table"`` goes through ``validate_table``."""
    assert callers(_sources(SRC), "validate_table") == ["cli._parse_gamma"]


def test_detects_callers():
    sources = {"cli": ("def _parse_gamma(g):\n"
                       "    return validate_table(g)\n"
                       "def _parse_ad(a):\n"
                       "    return a\n"),
               "extension": ("class Model:\n"
                             "    def build(self, t):\n"
                             "        def inner():\n"
                             "            return grouptable.validate_table(t)\n"
                             "        return inner()\n"
                             "validate_table(())\n"
                             "check = validate_table\n")}
    assert callers(sources, "validate_table") == [
        "cli._parse_gamma", "extension", "extension.Model"]


def module_constant(path, name):
    """The literal value a module assigns to ``name``, read from its
    source without importing it."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name
                        for t in node.targets))


def package_exports():
    """The ``_EXPORTS`` table of ``discred/__init__.py``: module -> the
    names the package re-exports from it."""
    return module_constant(os.path.join(SRC, "__init__.py"), "_EXPORTS")


def tracer_targets():
    """The ``TARGETS`` list of the benchmark's tracer."""
    return module_constant(TRACER, "TARGETS")


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
