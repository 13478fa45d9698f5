"""One cochain layout: a total p-cochain is read once, by position, through
one checked reader (``relations.read_cochain``), and the library's
readers must agree with the dict-based ones they replaced:
``bar_reference.reference_differential`` and the ``_total``,
``from_cochain``, ``to_cochain`` and ``cocycle_witness`` of
``relations_reference.ReferenceRelationModule``.  The cochains drawn
here are unreduced, sometimes given as lists, sometimes in shuffled key
order, mostly not normalized and mostly no cocycles; vectors, witnesses
and errors must be the same.  Then the malformed inputs on which the old
readers disagreed (a bare KeyError in one, a missing value read as zero
in another), and ``cohomology._span`` on one elimination against the
kernel-then-cokernel version kept in ``tower_reference``."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred.abgroup import FGAbelianGroup
from discred.cohomology import (Cochain, _span, cochain_sum,
                                cohomology_group, differential, is_cocycle,
                                trivial_module)
from discred.errors import ValidationError
from discred.extension import extensions_equivalent
from discred.grouptable import cyclic, from_generators
from discred.relations import RelationModule, read_cochain
from bar_reference import normalized_tuples, reference_differential
from relations_reference import ReferenceRelationModule
from tower_reference import reference_span

from test_normalized import _modules


def _raw_cochain(M, p, draw):
    """A total p-cochain of M with values drawn below and above their
    moduli, some given as lists, the pairs sometimes shuffled; with
    ``cocycle`` drawn, a class representative plus the coboundary of a
    drawn (p-1)-cochain, added without reduction."""
    A, G = M.coeff, M.gamma
    keys = list(itertools.product(G.elements(), repeat=p))
    values = [[draw(st.integers(-2 * f, 2 * f)) for f in A.invariant_factors]
              for _ in keys]
    if p and draw(st.booleans()):
        H = cohomology_group(M, p)
        rep = H.class_representative(tuple(
            draw(st.integers(0, f - 1)) for f in H.group.invariant_factors))
        db = reference_differential(M, Cochain(p - 1, tuple(
            (k, [draw(st.integers(-3, 3)) for _ in A.invariant_factors])
            for k in itertools.product(G.elements(), repeat=p - 1))))
        values = [[x + y for x, y in zip(u, v)]
                  for (_, u), (_, v) in zip(rep.values, db.values)]
    pairs = [(k, v if draw(st.booleans()) else tuple(v))
             for k, v in zip(keys, values)]
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    return Cochain(p, tuple(pairs))


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
    assert rel.to_cochain(vec) == ref.to_cochain(vec)
    if p == 2:
        assert rel.cocycle_witness(c) == ref.cocycle_witness(c)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_cochains_fail_as_the_reference_does(data):
    """A value missing, or one with a coordinate too few: every reader
    raises what the reference's ``from_cochain`` raises.  The dict
    ``differential`` raised a bare KeyError on a missing value, which the
    reader replaces with the same ValidationError."""
    M, p = _module_and_degree(data.draw)
    pairs = list(_raw_cochain(M, p, data.draw).values)
    i = data.draw(st.integers(0, len(pairs) - 1))
    if data.draw(st.booleans()):
        del pairs[i]
    else:
        pairs[i] = (pairs[i][0], tuple(pairs[i][1])[1:])
    c = Cochain(p, tuple(pairs))
    expected = _outcome(ReferenceRelationModule(M, p).from_cochain, c)
    assert expected[0] is ValidationError
    rel = RelationModule(M, p)
    readers = [rel.from_cochain, lambda c: differential(M, c),
               lambda c: is_cocycle(M, c)]
    if p == 2:
        readers.append(rel.cocycle_witness)
    for read in readers:
        assert _outcome(read, c) == expected


def _c2_z2():
    return trivial_module(cyclic(2), FGAbelianGroup(0, (2,)))


def _c2_cochain(drop=(), extra=()):
    """The 2-cochain of C2 on Z/2 that is 1 at (1, 1), without the
    tuples ``drop`` and with the tuples ``extra`` set to 0."""
    values = {k: (int(k == (1, 1)),) for k in itertools.product(range(2),
                                                                repeat=2)}
    for k in drop:
        del values[k]
    values.update((k, (0,)) for k in extra)
    return Cochain.from_map(2, values)


def test_differential_names_the_missing_tuple():
    M, c = _c2_z2(), _c2_cochain(drop=[(1, 1)])
    for check in (differential, is_cocycle):
        with pytest.raises(ValidationError,
                           match=r"^cochain is not total: missing \(1, 1\)$"):
            check(M, c)


@pytest.mark.parametrize("c1, c2, message", [
    (_c2_cochain(), _c2_cochain(drop=[(1, 1)]),
     r"not total: missing \(1, 1\)"),
    (_c2_cochain(drop=[(0, 1)]), _c2_cochain(),
     r"not total: missing \(0, 1\)"),
    (_c2_cochain(), _c2_cochain(extra=[(2, 2)]), r"\(2, 2\) is not in Gamma"),
    (_c2_cochain(extra=[(2, 2)]), _c2_cochain(), r"\(2, 2\) is not in Gamma"),
], ids=["c2_lacks_a_value", "c1_lacks_a_value", "c2_outside_gamma",
        "c1_outside_gamma"])
def test_extensions_equivalent_reads_both_cochains(c1, c2, message):
    """Through ``cochain_sum`` the parent read c1's keys only: it took a
    missing c2(1, 1) for 0 and answered with a witness, raised a bare
    KeyError on a key missing from c1 or one outside Gamma^2 in c2, and
    ignored one outside Gamma^2 in c1."""
    with pytest.raises(ValidationError, match=message):
        extensions_equivalent(_c2_z2(), c1, c2)


def test_extensions_equivalent_on_total_cochains():
    M = _c2_z2()
    assert extensions_equivalent(M, _c2_cochain(), _c2_cochain()) is not None
    zero = _c2_cochain(extra=[(1, 1)])
    assert extensions_equivalent(M, _c2_cochain(), zero) is None


def test_cochain_sum_rejects_terms_on_other_tuples():
    A = FGAbelianGroup(0, (2,))
    with pytest.raises(ValidationError, match="differ in their tuples"):
        cochain_sum(A, [(1, _c2_cochain()), (1, _c2_cochain(drop=[(1, 1)]))])
    with pytest.raises(ValidationError, match="differ in their tuples"):
        cochain_sum(A, [(1, _c2_cochain()), (1, _c2_cochain(extra=[(2, 2)]))])


def test_reader_checks_degree_and_value_length():
    M = _c2_z2()
    with pytest.raises(ValidationError, match="degree mismatch"):
        read_cochain(M, 1, _c2_cochain())
    bad = Cochain(1, (((0,), (0,)), ((1,), (1, 0))))
    with pytest.raises(ValidationError, match="coordinate length mismatch"):
        read_cochain(M, 1, bad)
    assert read_cochain(M, 1, Cochain(1, (((1,), [3]), ((0,), (-2,))))) == [
        (0,), (1,)]


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
