"""One cochain layout: a total p-cochain is its values in product order
(``Cochain.entries``), read once, by position, through one checked
reader (``relations.read_cochain``), and the library's readers must
agree with the dict-based ones they replaced:
``bar_reference.reference_differential`` and the ``_total``,
``from_cochain``, ``to_cochain`` and ``cocycle_witness`` of
``relations_reference.ReferenceRelationModule``.  The cochains drawn
here are unreduced, sometimes given as lists, sometimes built from a
map in shuffled key order, mostly not normalized and mostly no
cocycles; vectors, witnesses and errors must be the same.  Then the
malformed inputs on which the old readers disagreed (a bare KeyError in
one, a missing value read as zero in another), the keyed view of
``Cochain`` (``values``, ``as_dict``, ``from_map``) against the pairs
the layout replaced, and ``cohomology._span`` on one elimination
against the kernel-then-cokernel version kept in ``tower_reference``."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred.abgroup import FGAbelianGroup
from discred.cohomology import (Cochain, _span, cochain_sum,
                                cohomology_group, differential, is_cocycle,
                                trivial_module)
from discred.errors import ValidationError
from discred.extension import (build_extension, cocycle_witness,
                               extensions_equivalent)
from discred.grouptable import cyclic, from_generators
from discred.relations import RelationModule, read_cochain
from bar_reference import normalized_tuples, reference_differential
from relations_reference import ReferenceRelationModule
from tower_reference import reference_span

from test_normalized import _cochain, _modules


def _pairs(gamma, p, entries):
    """The (tuple, value) pairs of the total p-cochain over ``gamma``
    with ``entries`` in product order, as ``Cochain`` stored them before
    it held ``entries`` (the library's ``relations.cochain_pairs``)."""
    return tuple(zip(list(itertools.product(range(gamma.order), repeat=p)),
                     entries))


class _Pairs:
    """A cochain as the dict-based readers took it: its pairs as given,
    with no check, so that a tuple may be missing."""

    def __init__(self, degree, pairs):
        self.degree, self.values = degree, tuple(pairs)

    def as_dict(self):
        return dict(self.values)


def _raw_pairs(M, p, draw):
    """The pairs of a total p-cochain of M with values drawn below and
    above their moduli, some given as lists; with ``cocycle`` drawn, a
    class representative plus the coboundary of a drawn (p-1)-cochain,
    added without reduction."""
    A, G = M.coeff, M.gamma
    keys = list(itertools.product(G.elements(), repeat=p))
    values = [[draw(st.integers(-2 * f, 2 * f)) for f in A.invariant_factors]
              for _ in keys]
    if p and draw(st.booleans()):
        H = cohomology_group(M, p)
        rep = H.class_representative(tuple(
            draw(st.integers(0, f - 1)) for f in H.group.invariant_factors))
        db = reference_differential(M, Cochain(p - 1, tuple(
            [draw(st.integers(-3, 3)) for _ in A.invariant_factors]
            for _ in range(G.order ** (p - 1)))))
        values = [[x + y for x, y in zip(u, v)]
                  for u, v in zip(rep.entries, db.entries)]
    return [(k, v if draw(st.booleans()) else tuple(v))
            for k, v in zip(keys, values)]


def _raw_cochain(M, p, draw):
    """The cochain of ``_raw_pairs``: its values as given, lists
    included, or built by ``from_map`` from the pairs in shuffled
    order."""
    pairs = _raw_pairs(M, p, draw)
    if draw(st.booleans()):
        return Cochain.from_map(p, dict(draw(st.permutations(pairs))))
    return Cochain(p, tuple(v for _, v in pairs))


def _module_and_degree(draw):
    modules = _modules()
    return (modules[draw(st.integers(0, len(modules) - 1))],
            draw(st.integers(0, 2)))


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:          # the comparison is the point
        return (type(e), str(e))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_differential_matches_dict_reference(data):
    M, p = _module_and_degree(data.draw)
    c = _raw_cochain(M, p, data.draw)
    dc = differential(M, c)
    assert dc == reference_differential(M, c)
    assert is_cocycle(M, c) == all(not any(v) for _, v in dc.values)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_match_dict_reference(data):
    M, p = _module_and_degree(data.draw)
    rel, ref = RelationModule(M, p), ReferenceRelationModule(M, p)
    n = M.gamma.order
    assert rel.bar_positions == [
        sum(x * n ** (p - 1 - j) for j, x in enumerate(tup))
        for tup in normalized_tuples(M, p)]
    c = _raw_cochain(M, p, data.draw)
    assert rel.from_cochain(c) == ref.from_cochain(c)
    vec = [data.draw(st.integers(-q, 2 * q)) for q in rel.bar_mods]
    assert Cochain(p, rel.to_cochain(rel._reduce_bar(vec))).values \
        == ref.to_cochain(vec)
    if p == 2:
        assert cocycle_witness(M, c) == ref.cocycle_witness(c)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_cochains_fail_as_the_reference_does(data):
    """A value missing, or one with a coordinate too few: building the
    cochain with ``from_map`` and reading it raises what the reference's
    ``from_cochain`` raises on the pairs.  The dict ``differential``
    raised a bare KeyError on a missing value, which ``from_map`` or the
    reader replaces with the same ValidationError: a map without its
    last tuple of degree 1 is a shorter cochain, which the reader
    rejects."""
    M, p = _module_and_degree(data.draw)
    pairs = _raw_pairs(M, p, data.draw)
    i = data.draw(st.integers(0, len(pairs) - 1))
    if data.draw(st.booleans()):
        del pairs[i]
    else:
        pairs[i] = (pairs[i][0], tuple(pairs[i][1])[1:])
    expected = _outcome(ReferenceRelationModule(M, p).from_cochain,
                        _Pairs(p, pairs))
    assert expected[0] is ValidationError
    rel = RelationModule(M, p)
    readers = [rel.from_cochain, lambda c: differential(M, c),
               lambda c: is_cocycle(M, c)]
    if p == 2:
        readers.append(lambda c: cocycle_witness(M, c))
    for read in readers:
        assert _outcome(lambda: read(Cochain.from_map(p, dict(pairs)))) \
            == expected


def _c2_z2():
    return trivial_module(cyclic(2), FGAbelianGroup(0, (2,)))


def _c2_cochain(extra=()):
    """The 2-cochain of C2 on Z/2 that is 1 at (1, 1), with the tuples
    ``extra`` set to 0."""
    values = {k: (int(k == (1, 1)),) for k in itertools.product(range(2),
                                                                repeat=2)}
    values.update((k, (0,)) for k in extra)
    return Cochain.from_map(2, values)


# the values of ``_c2_cochain()`` without the one at (1, 1), and a
# 2-cochain of C3, with five values more than Gamma^2 of C2 has tuples
_SHORT = Cochain(2, ((0,), (0,), (0,)))
_LONG = Cochain.from_map(2, {k: (0,) for k in itertools.product(range(3),
                                                                 repeat=2)})


def test_differential_names_the_missing_tuple():
    M = _c2_z2()
    for check in (differential, is_cocycle):
        with pytest.raises(ValidationError,
                           match=r"^cochain is not total: missing \(1, 1\)$"):
            check(M, _SHORT)


@pytest.mark.parametrize("c1, c2, message", [
    (_c2_cochain(), _SHORT, r"^cochain is not total: missing \(1, 1\)$"),
    (_SHORT, _c2_cochain(), r"^cochain is not total: missing \(1, 1\)$"),
    (_c2_cochain(), _LONG, r"^cochain has 9 values, Gamma\^2 has 4 tuples$"),
    (_LONG, _c2_cochain(), r"^cochain has 9 values, Gamma\^2 has 4 tuples$"),
], ids=["c2_lacks_a_value", "c1_lacks_a_value", "c2_outside_gamma",
        "c1_outside_gamma"])
def test_extensions_equivalent_reads_both_cochains(c1, c2, message):
    """Through ``cochain_sum`` the parent of the one reader read c1's
    keys only: it took a missing c2(1, 1) for 0 and answered with a
    witness, raised a bare KeyError on a key missing from c1 or one
    outside Gamma^2 in c2, and ignored one outside Gamma^2 in c1."""
    with pytest.raises(ValidationError, match=message):
        extensions_equivalent(_c2_z2(), c1, c2)


def test_extensions_equivalent_on_total_cochains():
    M = _c2_z2()
    assert extensions_equivalent(M, _c2_cochain(), _c2_cochain()) is not None
    zero = _c2_cochain(extra=[(1, 1)])
    assert extensions_equivalent(M, _c2_cochain(), zero) is None


def test_cochain_sum_rejects_terms_on_other_tuples():
    A = FGAbelianGroup(0, (2,))
    for other in (_SHORT, _LONG):
        with pytest.raises(ValidationError, match="differ in their tuples"):
            cochain_sum(A, [(1, _c2_cochain()), (1, other)])


def test_reader_checks_degree_and_value_length():
    M = _c2_z2()
    with pytest.raises(ValidationError, match="degree mismatch"):
        read_cochain(M, 1, _c2_cochain())
    bad = Cochain.from_map(1, {(0,): (0,), (1,): (1, 0)})
    with pytest.raises(ValidationError, match="coordinate length mismatch"):
        read_cochain(M, 1, bad)
    assert read_cochain(M, 1, Cochain(1, ((-2,), [3]))) == [(0,), (1,)]


@pytest.mark.parametrize("entries, message", [
    ((), r"^cochain is not total: missing \(0, 0\)$"),
    (((0,),) * 3, r"^cochain is not total: missing \(1, 1\)$"),
    (((0,),) * 5, r"^cochain has 5 values, Gamma\^2 has 4 tuples$"),
    (((0,),) * 9, r"^cochain has 9 values, Gamma\^2 has 4 tuples$"),
], ids=["empty", "short", "one_long", "c3_long"])
def test_reader_rejects_short_and_long_lists(entries, message):
    """A short list names the first tuple of Gamma^2 it has no value at;
    a long one is named by its length."""
    with pytest.raises(ValidationError, match=message):
        read_cochain(_c2_z2(), 2, Cochain(2, entries))


@pytest.mark.parametrize("n, count, missing", [
    (3, 5, "(1, 2)"), (4, 2, "(0, 2)"), (4, 6, "(1, 2)"), (4, 10, "(2, 2)"),
], ids=["c3_5", "c4_2", "c4_6", "c4_10"])
def test_reader_names_the_tuple_at_the_first_missing_position(n, count,
                                                              missing):
    """The first tuple without a value is the one at position
    ``len(entries)``, its base-n digits.  The reader used to take n from
    the length of the list, too small for a short one, and named a
    tuple that has a value."""
    M = trivial_module(cyclic(n), FGAbelianGroup(0, (2,)))
    with pytest.raises(ValidationError, match=re.escape(
            f"cochain is not total: missing {missing}") + "$"):
        read_cochain(M, 2, Cochain(2, ((0,),) * count))


_READERS = {
    "differential": differential,
    "is_cocycle": is_cocycle,
    "cocycle_witness": cocycle_witness,
    "build_extension": build_extension,
    "coordinates_of": lambda M, c: cohomology_group(M, 2).coordinates_of(c),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("value, fault", [
    ((0.5,), "has a coordinate that is not an int"),
    ((True,), "has a coordinate that is not an int"),
    (("1",), "has a coordinate that is not an int"),
    ((None,), "has a coordinate that is not an int"),
    (1, "is not a tuple or list"),
], ids=["float", "bool", "str", "none", "bare_int"])
def test_reader_names_the_first_value_that_is_no_tuple_of_ints(value, fault,
                                                               reader):
    """Each value is a tuple or list of ints, bools excluded, as the CLI
    reads integers.  The reader used to pass a float through to the
    result, read True as 1 and raise a bare TypeError on a str, None or
    bare int."""
    M = trivial_module(cyclic(2), FGAbelianGroup(0, (2,)))
    c = Cochain(2, ((0,), (0,), (0,), value))
    with pytest.raises(ValidationError, match=re.escape(
            f"cochain value {value!r} at (1, 1) {fault}") + "$"):
        _READERS[reader](M, c)


@pytest.mark.parametrize("p, mapping, message", [
    (2, {(0, 0): (0,), (0, 1): (0,), (1, 0): (0,), (1, 1): (1,),
         (2, 2): (0,)}, r"^cochain is not total: missing \(0, 2\)$"),
    (2, {(0, 0): (0,), (0, 1): (0,), (1, 0): (0,)},
     r"^cochain is not total: missing \(1, 1\)$"),
    (0, {}, r"^cochain is not total: missing \(\)$"),
    (2, {(0, 0, 0): (0,)}, r"^cochain key \(0, 0, 0\) is not a 2-tuple "
     r"of non-negative ints$"),
    (2, {(0, -1): (0,)}, r"^cochain key \(0, -1\) is not a 2-tuple"),
    (1, {0: (0,)}, r"^cochain key 0 is not a 1-tuple"),
    (1, {("a",): (0,)}, r"^cochain key \('a',\) is not a 1-tuple"),
], ids=["c2_with_2_2", "c2_without_1_1", "degree_0_empty", "long_key",
        "negative_index", "not_a_tuple", "not_an_int"])
def test_from_map_rejects_bad_keys_and_gaps(p, mapping, message):
    """n is one more than the largest index given, so the C2 cochain
    with an extra (2, 2) is a C3 cochain without (0, 2)."""
    with pytest.raises(ValidationError, match=message):
        Cochain.from_map(p, mapping)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_is_normalized_reads_positions(data):
    """``Cochain.is_normalized`` reads ``entries`` by position: the
    verdict of the pairs it read before, on cochains of the
    ``test_normalized`` modules that are 0 at the tuples containing the
    element asked about or drawn freely, and no pairs cached."""
    M = data.draw(st.sampled_from(_modules()))
    p = data.draw(st.sampled_from([0, 1, 2, 3]))
    identity = data.draw(st.sampled_from(M.gamma.elements()))
    c = _cochain(M, p, data.draw)
    if data.draw(st.booleans()):
        c = Cochain(p, tuple((0,) * len(v) if identity in key else v
                             for key, v in _pairs(M.gamma, p, c.entries)))
    want = all(all(v == 0 for v in val) for key, val in
               _pairs(M.gamma, p, c.entries) if identity in key)
    assert c.is_normalized(identity) == want
    assert "values" not in c.__dict__


def _library_cochain(M, p, draw):
    """A generator, canonical representative or differential of the
    library, or a witness, on M in degree p."""
    H = cohomology_group(M, p)
    coords = tuple(draw(st.integers(0, f - 1))
                   for f in H.group.invariant_factors)
    made = [H.class_representative(coords), *H.generators]
    made.append(differential(M, made[0]))
    if p:
        made.append(H.coboundary_witness(
            differential(M, _raw_cochain(M, p - 1, draw))))
    return draw(st.sampled_from(made))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_keyed_view_is_the_old_pairs(data):
    """``values`` are the pairs the layout replaced, and ``from_map``
    of ``as_dict`` gives the cochain back, on cochains the library made
    and on drawn ones."""
    M, p = _module_and_degree(data.draw)
    if data.draw(st.booleans()):
        c = _library_cochain(M, p, data.draw)
    else:
        c = Cochain(p, tuple(tuple(v) for _, v in _raw_pairs(
            M, p, data.draw)))
    assert c.values == _pairs(M.gamma, c.degree, c.entries)
    assert Cochain.from_map(c.degree, c.as_dict()) == c


def test_s5_generators_are_cocycles():
    """The public checker on both generators of H^2(S5, Z/2): the full
    bar formula over all 120^3 triples, about 110 s when every term was
    a dict lookup, reduction and addition of its own."""
    s5 = from_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    M = trivial_module(s5, FGAbelianGroup(0, (2,)))
    gens = cohomology_group(M, 2).generators
    assert len(gens) == 2
    assert all(is_cocycle(M, g) for g in gens)


def _chain(draw):
    """Invariant factors f_1 | ... | f_r, r <= 3, of product at most 576."""
    factors = [draw(st.sampled_from([2, 3, 4, 6]))]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(factors[-1] * draw(st.sampled_from([1, 2, 3])))
    return tuple(factors)


def _subgroup(gens, factors):
    """Every element of the subgroup of sum_i Z/factors[i] spanned by
    ``gens``."""
    span = {(0,) * len(factors)}
    for g in gens:
        span = {tuple((a + k * b) % f for a, b, f in zip(x, g, factors))
                for x in span for k in range(factors[-1])}
    return span


def _order(g, factors):
    k = 1
    while any(k * x % f for x, f in zip(g, factors)):
        k += 1
    return k


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_span_matches_two_elimination_reference(data):
    factors = _chain(data.draw)
    coords = data.draw(st.lists(
        st.tuples(*(st.integers(-f, 2 * f) for f in factors)), max_size=4))
    struct, gens = _span(coords, factors)
    ref_struct, ref_gens = reference_span(coords, factors)
    assert struct == ref_struct
    assert _subgroup(gens, factors) == _subgroup(ref_gens, factors) \
        == _subgroup(coords, factors)
    assert [_order(g, factors) for g in gens] == list(
        struct.invariant_factors)


def test_no_pairs_on_generators_and_coordinates(monkeypatch):
    """``generators`` and ``coordinates_of`` read and write ``entries``
    only: no ``values`` pairs are built (the keyed view is counted)."""
    calls = []
    pairs = Cochain.values.func

    def counted(c):
        calls.append(c.degree)
        return pairs(c)
    monkeypatch.setattr(Cochain, "values", property(counted))
    s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
    for M in (trivial_module(s3, FGAbelianGroup(0, (2, 2))),
              trivial_module(cyclic(4), FGAbelianGroup(0, (4,)))):
        H = cohomology_group(M, 2)
        gens = H.generators
        for i, g in enumerate(gens):
            assert H.coordinates_of(g) == tuple(
                int(i == j) for j in range(len(gens)))
    assert calls == []
    assert gens[0].as_dict() and calls == [2]
