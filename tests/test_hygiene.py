"""Source hygiene: no module of the package, the tests or the benchmark
imports a name it never uses, every private helper is read somewhere in
the package, every public function, class, method and property is read
somewhere in the package or the benchmark (the tests do not count: a
helper only they read is deleted) or listed in ``ALLOWED`` with its
reason, and every function the benchmark's tracer wraps exists.  A
method whose name another definition, or a method of a builtin type,
shares is read only through the callers ``SHARED`` names for it.

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
# every module the unused-import check reads: the package's by file
# name, the tests' and the benchmark's by directory and file name
SCANNED = [pytest.param(os.path.join(SRC, f), id=f) for f in MODULES] + [
    pytest.param(os.path.join(ROOT, d, f), id=f"{d}/{f}")
    for d in ("tests", "perfbench")
    for f in sorted(os.listdir(os.path.join(ROOT, d))) if f.endswith(".py")]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


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


@pytest.mark.parametrize("path", SCANNED)
def test_no_unused_imports(path):
    with open(path) as fh:
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
    names = [node.name for node in tree.body if public(node, DEFINITIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            names += [f"{cls.name}.{node.name}" for node in cls.body
                      if public(node, FUNCTIONS)]
    return names


def defined_names(tree):
    """The bare names an AST defines, each class's once: its module-level
    functions and classes, and for each class its methods, its fields
    (the names its body assigns) and the attributes its methods assign
    on ``self``."""
    names = [node.name for node in tree.body if isinstance(node, DEFINITIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            own = {n.attr for n in ast.walk(cls)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Store)
                   and getattr(n.value, "id", None) == "self"}
            for node in cls.body:
                if isinstance(node, FUNCTIONS):
                    own.add(node.name)
                elif isinstance(node, ast.AnnAssign):
                    own.add(getattr(node.target, "id", None))
                elif isinstance(node, ast.Assign):
                    own |= {getattr(t, "id", None) for t in node.targets}
            names += own - {None}
    return names


def read_attributes(tree):
    """Every name an expression of the AST reads as an attribute."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def function_node(trees, name):
    """The function ``module.name`` or method ``module.Class.name`` of
    ``trees`` (module name -> AST), or None."""
    for module, tree in trees.items():
        if not name.startswith(module + "."):
            continue
        node, body = None, tree.body
        for part in name[len(module) + 1:].split("."):
            node = next((n for n in body if isinstance(n, DEFINITIONS)
                         and n.name == part), None)
            if node is None:
                break
            body = node.body
        if isinstance(node, FUNCTIONS):
            return node
    return None


# the builtin types whose methods a reader may call on a value of the
# package, and the public names of those methods
BUILTIN_TYPES = (dict, list, set, frozenset, tuple, str, int, float, bytes)
BUILTIN_METHODS = {name for t in BUILTIN_TYPES for name in dir(t)
                   if not name.startswith("_")}


def public_name_faults(sources, readers, exports, allowed, shared):
    """What breaks the rule that every public definition is read.

    ``sources`` maps module name -> source; a definition is named
    ``module.name`` or ``module.Class.name``.  ``readers`` maps module
    name -> source for every module that counts as a reader.  A
    definition is read when ``exports`` names it; else a module-level
    one when a reader reads its name, by name or as an attribute, and a
    method or property when a reader reads its name as an attribute.
    When some other definition of the readers (a function, class,
    method or field) or a method of a builtin container type
    (``BUILTIN_TYPES``) has the method's name, such reads do not tell
    the two apart: the method is read only when ``shared`` maps it to
    the reader's function or method, ``module.name`` or
    ``module.Class.name``, that reads it.  Returns the definitions that
    are neither read nor ``allowed``, then the ``allowed`` entries that
    are read anyway or name no definition, then the ``shared`` entries
    that name no definition, whose name no longer collides, or whose
    caller is gone or no longer reads the name, each with its fault."""
    trees = {module: ast.parse(source) for module, source in readers.items()}
    read, attributes = set(), set()
    count = dict.fromkeys(BUILTIN_METHODS, 1)
    for tree in trees.values():
        read |= read_names(tree)
        attributes |= read_attributes(tree)
        for name in defined_names(tree):
            count[name] = count.get(name, 0) + 1
    defined = [f"{module}.{name}" for module, source in sources.items()
               for name in public_definitions(ast.parse(source))]

    def is_read(name):
        bare = name.rsplit(".", 1)[-1]
        if name in exports:
            return True
        if name.count(".") == 1:
            return bare in read
        return name in shared if count.get(bare, 0) > 1 else bare in attributes

    faults = [f"unread: {name}" for name in defined
              if not is_read(name) and name not in allowed]
    for name in allowed:
        if name not in defined:
            faults.append(f"allowed, but defines nothing: {name}")
        elif is_read(name):
            faults.append(f"allowed, but read: {name}")
    for name, caller in shared.items():
        bare = name.rsplit(".", 1)[-1]
        node = function_node(trees, caller)
        if name not in defined:
            faults.append(f"shared, but defines nothing: {name}")
        elif count.get(bare, 0) < 2:
            faults.append(f"shared, but nothing else is named {bare}: {name}")
        elif node is None:
            faults.append(f"shared, but {caller} is gone: {name}")
        elif bare not in read_attributes(node):
            faults.append(f"shared, but {caller} does not read it: {name}")
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

# public methods and properties whose name some other function, class,
# method or field, or a builtin type's method, shares, each with a
# function of src/ or perfbench/ that reads it
SHARED = {
    "abgroup.FGAbelianGroup.add": "cohomology.GammaModule.index_tables",
    "abgroup.FGAbelianGroup.order": "cohomology.cohomology_group",
    "abgroup.FGAbelianGroup.elements": "extension.build_extension",
    "abgroup.FGAbelianGroup.describe": "cli._group_json",
    "abgroup.AbHom.apply": "cohomology.GammaModule.act",
    "abgroup.AbHom.identity": "cohomology.trivial_module",
    "abgroup.DiagonalizableGroup.describe": "cli.cmd_center",
    "autbrd.BRDAutomorphism.compose": "autbrd.ad_from_generator_images",
    "autbrd.BRDAutomorphism.identity": "autbrd.trivial_ad",
    "cohomology.GammaModule.act": "cohomology.GammaModule.index_tables",
    "cohomology.Cochain.values": "cli._cochain_json",
    "cohomology.CohomologyGroup.generators":
        "perfbench.workloads.H2Ladder.summarize",
    "cohomology.CohomologyGroup.order": "cohomology.stabilized_h2",
    "cohomology.CohomologyGroup.coboundary_witness":
        "extension.extensions_equivalent",
    "exactlin.IntMatrix.identity": "abgroup.AbHom.identity",
    "exactlin.SmithDecomposition.rank": "rootdatum.BasedRootDatum.defect",
    "exactlin.CongruenceKernel.coordinates":
        "exactlin.UnitPivotKernel.coordinates",
    "exactlin.CongruenceKernel.unit_coordinates":
        "exactlin.UnitPivotKernel.unit_coordinates",
    "exactlin.UnitPivotKernel.coordinates": "cohomology.cohomology_group",
    "exactlin.UnitPivotKernel.unit_coordinates": "cohomology.cohomology_group",
    "grouptable.FiniteGroup.generators": "grouptable.FiniteGroup.cayley_graph",
    "grouptable.FiniteGroup.elements": "cohomology.GammaModule.index_tables",
    "relations.RelationModule.cocycle_witness": "extension.cocycle_witness",
    "relations.RelationModule.coboundary_witness":
        "cohomology.CohomologyGroup.coboundary_witness",
    "rootdatum.WeylGroup.order": "cli.cmd_weyl",
}


def _readers():
    """Module name -> source for every reader: the package's modules by
    name, the benchmark's as ``perfbench.name``."""
    bench = _sources(os.path.join(ROOT, "perfbench"))
    return {**_sources(SRC),
            **{f"perfbench.{name}": source for name, source in bench.items()}}


def test_no_unread_public_names():
    """Every public function, class, method and property of the package
    is read somewhere in src/ or perfbench/ (through a ``SHARED`` caller
    when its name is shared), re-exported by ``__init__``, named by the
    tracer, which reads its targets by name, or listed in ``ALLOWED``
    with its reason.  A test is not a caller: a helper only the tests
    read is deleted, and a test that needs it keeps its own copy.  That
    every entry of the re-export table resolves is checked in
    tests/test_imports.py."""
    exports = [f"{module}.{name}" for module, names in
               package_exports().items() for name in names]
    for _, module, attr, _ in tracer_targets():
        parts = attr.split(".")
        exports += [".".join([module, *parts[:i + 1]])
                    for i in range(len(parts))]
    assert all(ALLOWED.values()) and all(SHARED.values())
    assert public_name_faults(_sources(SRC), _readers(), exports, ALLOWED,
                              SHARED) == []


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
    readers = {"standard": module,
               "cli": "from . import standard\nstandard.Kept()\n"}
    exports = ["standard.sl2"]
    # a method that no reader reads is flagged, whatever a test reads
    assert public_name_faults(sources, readers, exports, {}, {}) == [
        "unread: standard.gl1", "unread: standard.pgl2",
        "unread: standard.Dropped", "unread: standard.Kept.stale",
        "unread: standard._Parser.error"]
    # a name that the benchmark reads is read
    bench = "from discred import standard\nstandard.Kept().stale()\n"
    allowed = {"standard.gl1": "example", "standard.pgl2": "example",
               "standard.Dropped": "API",
               "standard._Parser.error": "argparse"}
    readers["perfbench.workloads"] = bench
    assert public_name_faults(sources, readers, exports, allowed, {}) == []
    # an allowance for a name that is read, or that names nothing, fails
    stale = {**allowed, "standard.torus": "example", "standard.sl2": "API",
             "standard.Kept.stale": "API", "standard.gone": "example"}
    assert public_name_faults(sources, readers, exports, stale, {}) == [
        "allowed, but read: standard.torus",
        "allowed, but read: standard.sl2",
        "allowed, but read: standard.Kept.stale",
        "allowed, but defines nothing: standard.gone"]
    # a method is read as an attribute, not as a bare name
    readers["perfbench.workloads"] = "stale = 1\nprint(stale)\n"
    assert public_name_faults(sources, readers, exports, allowed, {}) == [
        "unread: standard.Kept.stale"]


def test_detects_shared_method_names():
    """Two classes with a method ``apply``, a third with a field
    ``order``: a read of ``.apply`` or ``.order`` tells no method apart,
    so each such method is flagged until ``SHARED`` names a caller that
    reads it, and a ``SHARED`` entry goes stale when its method or
    caller is gone, the caller stops reading the name or the name stops
    colliding."""
    module = ("class Hom:\n"
              "    def apply(self, x):\n"
              "        return x\n"
              "    def order(self):\n"
              "        return 1\n"
              "class Matrix:\n"
              "    def apply(self, x):\n"
              "        return x\n"
              "    def transpose(self):\n"
              "        return self\n"
              "class Table:\n"
              "    order: int\n")
    caller = ("def tables():\n"
              "    return Hom(), Matrix(), Table()\n"
              "def act(h, x):\n"
              "    return h.apply(x)\n"
              "class Module:\n"
              "    def size(self):\n"
              "        return self.table.order + self.hom.order()\n"
              "    def flip(self, m):\n"
              "        return m.transpose()\n")
    sources = {"abgroup": module}
    readers = {"abgroup": module, "cohomology": caller}
    assert public_name_faults(sources, readers, [], {}, {}) == [
        "unread: abgroup.Hom.apply", "unread: abgroup.Hom.order",
        "unread: abgroup.Matrix.apply"]
    shared = {"abgroup.Hom.apply": "cohomology.act",
              "abgroup.Matrix.apply": "cohomology.act",
              "abgroup.Hom.order": "cohomology.Module.size"}
    assert public_name_faults(sources, readers, [], {}, shared) == []
    # an exported method needs no caller
    assert public_name_faults(sources, readers, ["abgroup.Matrix.apply"],
                              {}, {"abgroup.Hom.apply": "cohomology.act",
                                   "abgroup.Hom.order":
                                   "cohomology.Module.size"}) == []
    stale = {**shared, "abgroup.Hom.gone": "cohomology.act",
             "abgroup.Matrix.transpose": "cohomology.Module.flip",
             "abgroup.Hom.order": "cohomology.Module.flip",
             "abgroup.Matrix.apply": "cohomology.Module.gone"}
    assert public_name_faults(sources, readers, [], {}, stale) == [
        "shared, but cohomology.Module.gone is gone: abgroup.Matrix.apply",
        "shared, but cohomology.Module.flip does not read it: "
        "abgroup.Hom.order",
        "shared, but defines nothing: abgroup.Hom.gone",
        "shared, but nothing else is named transpose: "
        "abgroup.Matrix.transpose"]


def test_detects_methods_named_like_builtin_ones():
    """A method named like a method of a builtin container type: a read
    of ``.add`` or ``.values`` may be ``set.add`` or ``dict.values``, so
    the method is flagged until ``SHARED`` names a caller that reads it,
    and such an entry is not stale while no definition shares the name."""
    module = ("class Group:\n"
              "    def add(self, x, y):\n"
              "        return x + y\n"
              "class Cochain:\n"
              "    def values(self):\n"
              "        return ()\n")
    caller = ("def tables():\n"
              "    return Group(), Cochain()\n"
              "def seen(items):\n"
              "    out = set()\n"
              "    for x in items:\n"
              "        out.add(x)\n"
              "    return out\n"
              "def table(G, c):\n"
              "    return G.add(1, 2), list(c.values())\n")
    sources = {"abgroup": module}
    readers = {"abgroup": module, "cohomology": caller}
    assert public_name_faults(sources, readers, [], {}, {}) == [
        "unread: abgroup.Group.add", "unread: abgroup.Cochain.values"]
    shared = {"abgroup.Group.add": "cohomology.table",
              "abgroup.Cochain.values": "cohomology.table"}
    assert public_name_faults(sources, readers, [], {}, shared) == []


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
