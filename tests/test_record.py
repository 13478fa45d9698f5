"""``record.Record`` against ``@dataclass(frozen=True)``, the path it
replaced.

Each ``Record`` subclass of the package gets a twin: its own class
source, read from its module and compiled again with the decorator in
place of the base, ``field`` being ``dataclasses.field``.  Record and
twin are built from the same field values, taken from the records of a
small run through every layer, and must agree on ``==`` and ``hash``,
``repr``, the fields that ``compare=False`` leaves out, defaults and
keyword binding, the TypeError of a bad call, ``__post_init__``
normalization, assignment and deletion, and cached properties."""

import __future__

import ast
import dataclasses
import functools
import itertools
import os
import sys
from functools import cached_property

import pytest

import discred
from discred import standard
from discred.autbrd import (ad_from_generator_images, diagram_automorphisms,
                            is_brd_automorphism)
from discred.cohomology import cohomology_group, stabilized_h2
from discred.exactlin import (IntMatrix, cokernel_presentation,
                              congruence_kernel_basis, smith_normal_form,
                              unit_pivot_kernel)
from discred.extension import center_modules, classify, pushout
from discred.grouptable import cyclic
from discred.record import FrozenInstanceError, Record
from discred.rootdatum import (center_data, dynkin, positive_systems,
                               weyl_generate)

from test_extension import sl2_like_setup

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "discred")


def record_classes():
    """Every Record subclass of the package, by name."""
    for module in discred._EXPORTS:
        getattr(discred, module)
    found, todo = {}, list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found[cls.__name__] = cls
        todo += cls.__subclasses__()
    return found


CLASSES = record_classes()


@functools.lru_cache(maxsize=None)
def twin(cls):
    """``cls`` as a frozen dataclass: its class statement, compiled in a
    copy of its module's namespace."""
    module = sys.modules[cls.__module__]
    with open(module.__file__) as fh:
        source = fh.read()
    node = next(n for n in ast.parse(source).body
                if isinstance(n, ast.ClassDef) and n.name == cls.__name__)
    assert [ast.unparse(b) for b in node.bases] == ["Record"]
    node.bases, node.decorator_list = [], [ast.parse(
        "dataclass(frozen=True)", mode="eval").body]
    ns = dict(vars(module), dataclass=dataclasses.dataclass,
              field=dataclasses.field)
    code = compile(ast.Module([node], []), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    exec(code, ns)
    return ns[cls.__name__]


def field_names(cls):
    return [f.name for f in dataclasses.fields(twin(cls))]


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message it raises."""
    try:
        return ("value", fn(*args, **kwargs))
    except Exception as err:   # every outcome is compared
        return ("raise", type(err), str(err))


def built(cls, *args, **kwargs):
    """(repr, hash outcome) of ``cls(*args, **kwargs)``, or what the
    call raises."""
    made = outcome(cls, *args, **kwargs)
    if made[0] == "raise":
        return made
    return repr(made[1]), outcome(hash, made[1])


def _walk(roots):
    """Every record reachable from ``roots`` through fields, tuples,
    lists, frozensets and dict values."""
    seen, out, todo = set(), [], list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Record):
            out.append(x)
            todo += values(x)
        elif isinstance(x, (tuple, list, frozenset)):
            todo += x
        elif isinstance(x, dict):
            todo += x.values()
    return out


@functools.lru_cache(maxsize=None)
def samples():
    """{class name: distinct records}, made by a small run of each
    layer: SL3 under the C2 flip and SL2 classified, Weyl groups,
    positive systems, Dynkin diagrams, diagram automorphisms, an
    automorphism check that fails, H^2 with its classes, the lattice routines and pushouts."""
    sl3, sl2, gl2 = standard.sl3(), standard.sl2(), standard.gl2()
    gamma = cyclic(2)
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    ad = ad_from_generator_images(sl3, gamma, [flip.entries])
    cd = center_data(sl3.datum)
    H2 = stabilized_h2(gamma, cd.group, center_modules(cd, ad))
    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    roots = [ad, classify(sl3, ad), classify(sl2, ad_from_generator_images(
                 sl2, gamma, [[[1]]])),
             H2, cohomology_group(H2.module, 2).classes(),
             positive_systems(weyl_generate(sl3), sl3), dynkin(sl3),
             dynkin(gl2), diagram_automorphisms(sl3),
             is_brd_automorphism(sl3, flip),
             is_brd_automorphism(sl3, IntMatrix.from_rows([[2, 0], [0, 1]])),
             center_data(gl2.datum),
             smith_normal_form(A), smith_normal_form(A, keep=()),
             congruence_kernel_basis(A, 4), cokernel_presentation(A),
             unit_pivot_kernel([[(0, 1), (1, 2)], [(1, 3), (2, 1)]], 3, 4),
             unit_pivot_kernel([[(0, 2), (1, 2)]], 2, 4),
             sl3, sl2, gl2, standard.torus(1)]
    for cls in (0, 1):
        G, z, act, _, model = sl2_like_setup(cls)
        roots.append(pushout(G, z, act, model))
    out = {}
    for r in _walk(roots):
        group = out.setdefault(type(r).__name__, [])
        if len(group) < 6 and all(r is not s for s in group):
            group.append(r)
    return out


def cases():
    return [pytest.param(CLASSES[name], s, id=f"{name}-{i}")
            for name in sorted(CLASSES)
            for i, s in enumerate(samples().get(name, [])[:3])]


def values(r):
    return [getattr(r, name) for name in field_names(type(r))]


def test_every_record_class_has_samples():
    assert len(CLASSES) == 28
    assert sorted(set(CLASSES) - set(samples())) == []


def test_no_dataclasses_left_in_the_package():
    for name in os.listdir(SRC):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                assert "dataclass" not in fh.read(), name


@pytest.mark.parametrize("cls,r", cases())
def test_eq_hash_and_repr_agree(cls, r):
    T, v = twin(cls), values(r)
    a, b, t = cls(*v), cls(*v), T(*v)
    assert repr(a) == repr(t) == repr(r)
    assert outcome(hash, a) == outcome(hash, t)
    assert a == b == r and t == T(*v)
    assert a.__eq__(t) is NotImplemented and t.__eq__(a) is NotImplemented
    if outcome(hash, a)[0] == "value":
        assert hash(a) == hash(tuple(
            getattr(a, f.name) for f in dataclasses.fields(T) if f.compare))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_eq_between_samples_agrees(name):
    cls, T = CLASSES[name], twin(CLASSES[name])
    for r, s in itertools.product(samples()[name], repeat=2):
        assert (cls(*values(r)) == cls(*values(s))) == (
            T(*values(r)) == T(*values(s)))
        if r == s and outcome(hash, r)[0] == "value":
            assert hash(r) == hash(s)


@pytest.mark.parametrize("cls,r", cases())
def test_uncompared_fields_are_ignored(cls, r):
    T = twin(cls)
    for k, f in enumerate(dataclasses.fields(T)):
        if f.compare:
            continue
        v = values(r)
        w = v[:k] + [None if v[k] is not None else (1,)] + v[k + 1:]
        assert cls(*w) == cls(*v) and T(*w) == T(*v)
        assert outcome(hash, cls(*w)) == outcome(hash, T(*v))
        assert repr(cls(*w)) == repr(T(*w)) != repr(T(*v))


@pytest.mark.parametrize("cls,r", cases())
def test_defaults_and_keyword_binding(cls, r):
    T, v, names = twin(cls), values(r), field_names(cls)
    kw = dict(zip(names, v))
    assert built(cls, **kw) == built(T, **kw) == built(cls, *v)
    assert built(cls, *v[:1], **dict(list(kw.items())[1:])) == built(T, *v)
    required = [f.name for f in dataclasses.fields(T)
                if f.default is dataclasses.MISSING]
    short = v[:len(required)]
    assert built(cls, *short) == built(T, *short)
    assert built(cls, **{n: kw[n] for n in required}) == built(T, *short)


@pytest.mark.parametrize("cls,r", cases())
def test_bad_calls_raise_the_same_type_error(cls, r):
    T, v, names = twin(cls), values(r), field_names(cls)
    calls = [((), {}), (v[:-1], {}), (v[:1], {}), (v + [None], {}),
             (v, {"bogus": 1}), (v, {names[0]: v[0]}),
             (v[1:], {names[-1]: v[-1]}), ((), {names[-1]: v[-1]})]
    for args, kwargs in calls:
        got = outcome(cls, *args, **kwargs)
        want = outcome(T, *args, **kwargs)
        if want[0] == "raise":
            assert got == want
        else:
            assert got[0] == "value" and repr(got[1]) == repr(want[1])


@pytest.mark.parametrize("cls,r", cases())
def test_post_init_normalizes_alike(cls, r):
    """Every tuple field given as a list: normalized back, kept as a
    list, or rejected, alike."""
    T, v = twin(cls), values(r)
    lists = [list(x) if isinstance(x, tuple) else x for x in v]
    assert built(cls, *lists) == built(T, *lists)


def frozen_errors(obj, name):
    """(frozen error?, message) of assigning and of deleting ``name``."""
    out = []
    for change in (lambda: setattr(obj, name, None),
                   lambda: delattr(obj, name)):
        try:
            change()
        except AttributeError as err:
            out.append((isinstance(err, (FrozenInstanceError,
                                         dataclasses.FrozenInstanceError)),
                        str(err)))
        else:
            out.append(None)
    return out


@pytest.mark.parametrize("cls,r", cases())
def test_assignment_and_deletion_raise(cls, r):
    T, v = twin(cls), values(r)
    a, t = cls(*v), T(*v)
    for name in field_names(cls) + ["not_a_field"]:
        got = frozen_errors(a, name)
        assert got == frozen_errors(t, name)
        assert all(frozen for frozen, _ in got)
    assert values(a) == v


@pytest.mark.parametrize("cls,r", cases())
def test_cached_properties_still_work(cls, r):
    cached = [name for name, attr in vars(cls).items()
              if isinstance(attr, cached_property)]
    a, t = cls(*values(r)), twin(cls)(*values(r))
    for name in cached:
        first = outcome(getattr, a, name)
        assert first[0] == "value" and vars(a)[name] is first[1]
        assert getattr(a, name) is first[1]
        want = getattr(t, name)
        assert type(first[1]) is type(want)
        assert repr(first[1]) == repr(want)


def _shapes(base, frozen):
    """Records of shapes no package class has: no field, one field, and
    a subclass adding two fields with plain defaults."""
    @frozen
    class Empty(base):
        pass

    @frozen
    class One(base):
        x: object

    @frozen
    class Two(One):
        y: int = 3
        z: str = "z"
    return Empty, One, Two


@pytest.mark.parametrize("shape,args,kwargs", [
    (0, (), {}), (0, (1,), {}), (0, (), {"x": 1}),
    (1, (5,), {}), (1, ((1, 2),), {}), (1, (), {"x": 5}), (1, ([1],), {}),
    (1, (), {}), (1, (5, 6), {}), (1, (5,), {"x": 6}),
    (2, (1,), {}), (2, (1, 4), {}), (2, (1,), {"y": 4}), (2, (), {"y": 4}),
    (2, (1, 2, 3), {}), (2, (1, 2, 3, 4), {}), (2, (1,), {"z": 4}),
    (2, (1,), {"w": 4}), (2, (), {"x": 1, "y": 2, "z": 3}),
    (2, (), {"x": 1, "y": 2, "w": 3}),
])
def test_other_shapes_agree(shape, args, kwargs):
    rec = _shapes(Record, lambda c: c)[shape]
    dc = _shapes(object, dataclasses.dataclass(frozen=True))[shape]
    assert built(rec, *args, **kwargs) == built(dc, *args, **kwargs)
    if outcome(rec, *args, **kwargs)[0] == "value":
        assert rec(*args, **kwargs) == rec(*args, **kwargs)


@pytest.mark.parametrize("base,frozen", [
    (Record, lambda c: c), (object, dataclasses.dataclass(frozen=True))])
def test_field_without_default_after_one_with_is_rejected(base, frozen):
    with pytest.raises(TypeError):
        @frozen
        class Bad(base):
            x: int = 1
            y: int
