from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred.abgroup import (AbHom, DiagonalizableGroup, FGAbelianGroup,
                             torsion_at, torsion_inclusion)
from discred.errors import ValidationError
from discred.exactlin import IntMatrix, cokernel_presentation


class TestStructure:
    def test_chain_enforced(self):
        with pytest.raises(ValidationError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(ValidationError):
            FGAbelianGroup(0, (1, 2))

    def test_canonicalization(self):
        """A sum of cyclic groups, presented by its diagonal relations,
        gets its divisibility chain, as ``center_data`` reads Z(G)."""
        def chain(orders):
            rel = IntMatrix.from_rows(
                [[f if j == i else 0 for j in range(len(orders))]
                 for i, f in enumerate(orders)], cols=len(orders))
            return FGAbelianGroup(0, cokernel_presentation(rel)
                                  .invariant_factors).invariant_factors
        assert chain([2, 3]) == (6,)
        assert chain([2, 2, 4]) == (2, 2, 4)
        assert chain([6, 4]) == (2, 12)
        assert chain([1, 1]) == ()

    def test_order_exponent(self):
        g = FGAbelianGroup(0, (2, 4))
        assert g.order() == 8 and g.exponent() == 4
        with pytest.raises(ValidationError):
            FGAbelianGroup(1, ()).order()


class TestArithmetic:
    def test_reduce_add(self):
        g = FGAbelianGroup(1, (3,))
        assert g.reduce((5, 7)) == (5, 1)
        assert g.add((1, 2), (1, 2)) == (2, 1)
        assert g.sub((0, 0), (1, 1)) == (-1, 2)

    def test_elements_lex(self):
        g = FGAbelianGroup(0, (2, 4))
        els = g.elements()
        assert els[0] == (0, 0) and els[-1] == (1, 3)
        assert len(els) == 8 and els == sorted(els)

    def test_element_order(self):
        g = FGAbelianGroup(0, (2, 4))
        assert g.element_order((0, 0)) == 1
        assert g.element_order((1, 2)) == 2
        assert g.element_order((1, 1)) == 4


class TestHom:
    def test_well_defined_rejected(self):
        z2 = FGAbelianGroup(0, (2,))
        z4 = FGAbelianGroup(0, (4,))
        with pytest.raises(ValidationError):
            # Z/2 -> Z/4 by x -> x is not well-defined
            AbHom(z2, z4, IntMatrix.from_rows([[1]]))
        AbHom(z2, z4, IntMatrix.from_rows([[2]]))  # doubling is fine

    def test_compose(self):
        z2 = FGAbelianGroup(0, (2,))
        z4 = FGAbelianGroup(0, (4,))
        f = AbHom(z2, z4, IntMatrix.from_rows([[2]]))
        g = AbHom(z4, z2, IntMatrix.from_rows([[1]]))
        assert g.compose(f).apply((1,)) == (0,)

    def test_equal_as_map(self):
        """3 and -1 are one map of Z/4: a after the identity is b."""
        z4 = FGAbelianGroup(0, (4,))
        a = AbHom(z4, z4, IntMatrix.from_rows([[3]]))
        b = AbHom(z4, z4, IntMatrix.from_rows([[-1]]))
        assert a.composite_equals(AbHom.identity(z4), b)


def _unit_vector_equal(f, g):
    """Whether f and g are one map: same source and target, and the
    same image of every unit vector of the source."""
    if not (f.source.same_structure(g.source)
            and f.target.same_structure(g.target)):
        return False
    n = f.source.ncoords
    return all(f.apply(e) == g.apply(e)
               for e in (tuple(int(i == j) for i in range(n))
                         for j in range(n)))


_GROUPS = [FGAbelianGroup(0, ()), FGAbelianGroup(1, ()),
           FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (4,)),
           FGAbelianGroup(0, (2, 6)), FGAbelianGroup(1, (3,)),
           FGAbelianGroup(2, (2, 2))]


@st.composite
def _homs(draw, source=None, target=None):
    """A well-defined hom between two groups of ``_GROUPS`` (either may
    have 0 coordinates)."""
    src = source or draw(st.sampled_from(_GROUPS))
    dst = target or draw(st.sampled_from(_GROUPS))
    rows = []
    for q in _moduli(dst):
        row = []
        for p in _moduli(src):
            # well-defined: p times the entry vanishes in the row's group
            if p == 0:
                row.append(draw(st.integers(-9, 9)))
            elif q == 0:
                row.append(0)
            else:
                row.append(q // gcd(p, q) * draw(st.integers(-3, 3)))
        rows.append(tuple(row))
    return AbHom(src, dst, IntMatrix(dst.ncoords, src.ncoords, tuple(rows)))


def _moduli(G):
    return (0,) * G.free_rank + G.invariant_factors


@st.composite
def _variants(draw, f):
    """f with each entry moved by a multiple of its row's modulus (the
    same map), and with one entry then changed, when a draw asks, by the
    smallest step that keeps the map well-defined (usually another
    map)."""
    mods, srcmods = _moduli(f.target), _moduli(f.source)
    rows = [[x + q * draw(st.integers(-2, 2)) for x in row]
            for row, q in zip(f.matrix.entries, mods)]
    if rows and rows[0] and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[0]) - 1))
        q, p = mods[i], srcmods[j]
        if p == 0 or q:
            rows[i][j] += q // gcd(p, q) if p else 1
    return AbHom(f.source, f.target,
                 IntMatrix(f.matrix.rows, f.matrix.cols,
                           tuple(map(tuple, rows))))


class TestColumnComparison:
    """``composite_equals`` and ``is_identity_of`` compare the reduced
    columns of the matrices; applying the maps to unit vectors is the
    oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_as_map(self, data):
        """f after the identity is g exactly when f and g are one map."""
        f = data.draw(_homs())
        g = data.draw(_variants(f))
        one = AbHom.identity(f.source)
        assert f.composite_equals(one, g) == _unit_vector_equal(f, g)
        assert f.composite_equals(one, f)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_composite_equals(self, data):
        a, b, c = (data.draw(st.sampled_from(_GROUPS)) for _ in range(3))
        f = data.draw(_homs(source=b, target=c))
        g = data.draw(_homs(source=a, target=b))
        fg = f.compose(g)
        h = data.draw(_variants(fg))
        assert f.composite_equals(g, fg)
        assert f.composite_equals(g, h) == _unit_vector_equal(fg, h)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_composite_equals_is_compose_then_equal_as_map(self, data):
        """On the product rows alone, ``composite_equals`` says what
        ``compose`` then the unit-vector oracle says: free ranks, maps of any
        shape (0 coordinates too), h a variant of the composite or any
        hom at all, and the composition mismatch raised by both."""
        f, g = data.draw(_homs()), data.draw(_homs())
        if not g.target.same_structure(f.source):
            with pytest.raises(ValidationError, match="composition mismatch"):
                f.composite_equals(g, f)
            with pytest.raises(ValidationError, match="composition mismatch"):
                f.compose(g)
            g = data.draw(_homs(target=f.source))
        fg = f.compose(g)
        h = data.draw(st.one_of(_variants(fg), _homs()))
        assert f.composite_equals(g, h) == _unit_vector_equal(fg, h)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_is_identity_of(self, data):
        G = data.draw(st.sampled_from(_GROUPS))
        f = data.draw(st.one_of(_variants(AbHom.identity(G)), _homs()))
        assert f.is_identity_of(G) == _unit_vector_equal(f,
                                                         AbHom.identity(G))
        assert AbHom.identity(G).is_identity_of(G)

    def test_mismatched_structures(self):
        z2, z4 = FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (4,))
        f = AbHom(z4, z4, IntMatrix.from_rows([[1]]))
        g = AbHom(z2, z4, IntMatrix.from_rows([[2]]))
        assert not _unit_vector_equal(f, g)
        with pytest.raises(ValidationError, match="composition mismatch"):
            g.composite_equals(g, f)
        assert not f.composite_equals(g, f)


class TestDiagonalizable:
    def test_describe(self):
        z = DiagonalizableGroup(1, FGAbelianGroup(0, (2,)))
        assert z.describe() == "C* x Z/2"
        assert DiagonalizableGroup(0, FGAbelianGroup(0, ())).describe() == "1"

    def test_torsion_at(self):
        z = DiagonalizableGroup(1, FGAbelianGroup(0, (6,)))
        assert torsion_at(z, 4).invariant_factors == (2, 4)
        assert torsion_at(z, 3).invariant_factors == (3, 3)
        assert torsion_at(z, 1).invariant_factors == ()
        assert torsion_at(z, 5).invariant_factors == (5,)

    def test_torsion_inclusion_injective(self):
        z = DiagonalizableGroup(1, FGAbelianGroup(0, (6,)))
        inc = torsion_inclusion(z, 2, 4)
        src = inc.source
        images = {inc.apply(x) for x in src.elements()}
        assert len(images) == src.order()
        # order is preserved
        for x in src.elements():
            assert src.element_order(x) == inc.target.element_order(inc.apply(x))

    def test_torsion_inclusion_compatible(self):
        z = DiagonalizableGroup(2, FGAbelianGroup(0, (2, 12)))
        one_step = torsion_inclusion(z, 2, 4)
        direct = torsion_inclusion(z, 2, 8)
        assert torsion_inclusion(z, 4, 8).composite_equals(one_step, direct)
