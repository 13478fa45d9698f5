import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import exactlin
from discred.abgroup import (AbHom, DiagonalizableGroup, FGAbelianGroup,
                             torsion_at)
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, eckmann_check, gamma_module,
                                is_cocycle, push_cochain, stabilized_h2,
                                trivial_module)
from discred.errors import BudgetExceededError, ValidationError
from discred.exactlin import IntMatrix
from discred.grouptable import cyclic, from_generators
from abgroup_reference import compose
from grouptable_reference import direct_product
from test_abgroup import _unit_vector_equal
from test_normalized import _automorphisms, _power


def Z(*f):
    return FGAbelianGroup(0, f)


def inversion_module(gamma2, n):
    a = Z(n)
    inv = AbHom(a, a, IntMatrix.from_rows([[n - 1]]))
    return gamma_module(gamma2, a, (AbHom.identity(a), inv))


class TestGammaModule:
    def test_action_must_be_homomorphism(self):
        c3 = cyclic(3)
        a = Z(4)
        inv = AbHom(a, a, IntMatrix.from_rows([[3]]))
        with pytest.raises(ValidationError):
            gamma_module(c3, a, (AbHom.identity(a), inv, inv))

    def test_identity_must_act_trivially(self):
        c2 = cyclic(2)
        a = Z(4)
        inv = AbHom(a, a, IntMatrix.from_rows([[3]]))
        with pytest.raises(ValidationError):
            gamma_module(c2, a, (inv, inv))

    def test_coefficients_must_be_finite(self):
        """A coefficient group with a free coordinate cannot be built, so
        no module has one and the cochain layers reduce every coordinate
        by its factor."""
        with pytest.raises(ValidationError, match="^free_rank must be 0"):
            FGAbelianGroup(1, (2,))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_generator_pairs_against_all_pairs(self, data):
        """Checking x.(s.a) = (xs).a only for s in a generating set
        accepts exactly the actions the check on all pairs accepts, and a
        rejection names a pair that really fails.  The maps: g -> alpha^e(g),
        that map with one image moved, and independent images (some of
        which pass every check at the first generator alone)."""
        G = data.draw(st.sampled_from(_GROUPS))
        A = data.draw(st.sampled_from([Z(3), Z(4), Z(2, 2), Z(2, 4)]))
        autos = _automorphisms(A)
        kind = data.draw(st.sampled_from(["power", "moved", "free"]))
        if kind == "free":
            action = [AbHom.identity(A) if g == G.identity
                      else data.draw(st.sampled_from(autos))
                      for g in G.elements()]
        else:
            alpha = data.draw(st.sampled_from(autos))
            e = data.draw(st.sampled_from(
                [lambda g: 0, lambda g: g, lambda g: g % 2,
                 lambda g: int(G.element_order(g) == 2)]))
            action = [_power(alpha, e(g)) for g in G.elements()]
        if kind == "moved":
            g = data.draw(st.sampled_from(
                [x for x in G.elements() if x != G.identity]))
            action[g] = data.draw(st.sampled_from(autos))
        bad = [(x, y) for x in G.elements() for y in G.elements()
               if not _unit_vector_equal(compose(action[x], action[y]),
                                         action[G.mul(x, y)])]
        try:
            gamma_module(G, A, action)
        except ValidationError as err:
            x, s = map(int, re.search(r"pair \((\d+), (\d+)\)",
                                      str(err)).groups())
            assert (x, s) in bad
        else:
            assert bad == []


_GROUPS = [cyclic(4), cyclic(6), direct_product(cyclic(2), cyclic(2)),
           from_generators(3, [(1, 0, 2), (1, 2, 0)])]


def _first_failing_pair(G, action):
    """The first pair (x, s), s in ``G.generators``, at which x.(s.a) =
    (xs).a fails, each pair checked on its own; None when none does."""
    return next(((x, s) for x in G.elements() for s in G.generators
                 if not _unit_vector_equal(compose(action[x], action[s]),
                                           action[G.mul(x, s)])), None)


@st.composite
def repeated_actions(draw):
    """(G, A, action): the identity at 1 and every other map drawn from
    two automorphisms of A, each element getting its own copy (equal,
    not the same object), so triples of maps repeat over the pairs and
    a failing one usually fails at several pairs."""
    G = draw(st.sampled_from(_GROUPS))
    A = draw(st.sampled_from([Z(3), Z(4), Z(5), Z(2, 4)]))
    pool = draw(st.lists(st.sampled_from(_automorphisms(A)), min_size=2,
                         max_size=2))
    action = [AbHom.identity(A) if g == G.identity else
              AbHom(A, A, draw(st.sampled_from(pool)).matrix)
              for g in G.elements()]
    return G, A, action


class TestRepeatedTriples:
    @settings(max_examples=200, deadline=None)
    @given(repeated_actions())
    def test_first_failing_pair_is_named(self, case):
        """Each distinct triple of maps is checked once, and a rejection
        still names the first failing pair of the check pair by pair."""
        G, A, action = case
        want = _first_failing_pair(G, action)
        if want is None:
            gamma_module(G, A, action)
        else:
            with pytest.raises(ValidationError) as err:
                gamma_module(G, A, action)
            assert str(err.value) == (f"action is not a homomorphism at "
                                      f"pair ({want[0]}, {want[1]})")

    def test_trivial_action_checks_one_triple(self, monkeypatch):
        """A trivial action over C6 by maps that are equal but not the
        same object: one ``composite_equals`` call."""
        A = Z(6)
        action = [AbHom(A, A, IntMatrix.from_rows([[1]])) for _ in range(6)]
        calls = []
        inner = AbHom.composite_equals

        def composite_equals(*args):
            calls.append(args)
            return inner(*args)
        monkeypatch.setattr(AbHom, "composite_equals", composite_equals)
        gamma_module(cyclic(6), A, action)
        assert len(calls) == 1


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    def test_dd_zero_degree_one(self, vals):
        M = inversion_module(cyclic(2), 4)
        c = Cochain.from_map(1, {(g,): (vals[g],) for g in range(2)})
        dd = differential(M, differential(M, c))
        assert all(v == (0,) for _, v in dd.values)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=9, max_size=9))
    def test_dd_zero_degree_zero_and_one_c3(self, vals):
        M = trivial_module(cyclic(3), Z(6))
        c = Cochain.from_map(1, {(g,): (vals[g],) for g in range(3)})
        dd = differential(M, differential(M, c))
        assert all(v == (0,) for _, v in dd.values)

    def test_coboundaries_are_cocycles(self):
        M = inversion_module(cyclic(2), 8)
        b = Cochain.from_map(1, {(0,): (0,), (1,): (5,)})
        assert is_cocycle(M, differential(M, b))


class TestKnownGroups:
    def test_h0_invariants(self):
        M = inversion_module(cyclic(2), 8)
        H = cohomology_group(M, 0)
        # fixed points of inversion on Z/8: {0, 4}
        assert H.group.invariant_factors == (2,)

    def test_h1_h2_cyclic(self):
        # H^odd(Z/n, Z/n triv) = H^even = Z/n
        for n in (2, 3, 4):
            M = trivial_module(cyclic(n), Z(n))
            assert cohomology_group(M, 1).group.invariant_factors == (n,)
            assert cohomology_group(M, 2).group.invariant_factors == (n,)

    def test_coprime_vanishing(self):
        M = trivial_module(cyclic(2), Z(3))
        for p in (1, 2):
            assert cohomology_group(M, p).group.invariant_factors == ()

    def test_klein_h2(self):
        k4 = direct_product(cyclic(2), cyclic(2))
        M = trivial_module(k4, Z(2))
        assert cohomology_group(M, 2).group.invariant_factors == (2, 2, 2)

    def test_s3_h2(self):
        s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
        M = trivial_module(s3, Z(4))
        assert cohomology_group(M, 2).group.invariant_factors == (2,)

    def test_inversion_h2(self):
        M = inversion_module(cyclic(2), 4)
        assert cohomology_group(M, 2).group.invariant_factors == (2,)

    def test_trivial_gamma(self):
        M = trivial_module(cyclic(1), Z(6))
        assert cohomology_group(M, 1).group.invariant_factors == ()
        assert cohomology_group(M, 2).group.invariant_factors == ()


class TestGenerators:
    def test_generators_are_normalized_cocycles(self):
        for M in (trivial_module(cyclic(4), Z(4)),
                  inversion_module(cyclic(2), 8),
                  trivial_module(direct_product(cyclic(2), cyclic(2)), Z(2))):
            H = cohomology_group(M, 2)
            for gen in H.generators:
                assert is_cocycle(M, gen)
                assert gen.is_normalized()

    def test_coordinates_round_trip(self):
        M = trivial_module(cyclic(4), Z(4))
        H = cohomology_group(M, 2)
        for cls in H.classes():
            assert H.coordinates_of(cls.representative) == cls.coordinates

    def test_coordinates_reject_non_cocycle(self):
        M = trivial_module(cyclic(3), Z(3))
        vals = {(a, b): (0,) for a in range(3) for b in range(3)}
        vals[(1, 1)] = (1,)
        with pytest.raises(ValidationError):
            cohomology_group(M, 2).coordinates_of(Cochain.from_map(2, vals))

    def test_witness_round_trip(self):
        M = inversion_module(cyclic(2), 8)
        H = cohomology_group(M, 2)
        b = Cochain.from_map(1, {(0,): (0,), (1,): (3,)})
        db = differential(M, b)
        w = H.coboundary_witness(db)
        assert w is not None
        assert differential(M, w).as_dict() == \
            {k: M.coeff.reduce(v) for k, v in db.as_dict().items()}

    def test_witness_none_for_nontrivial_class(self):
        M = trivial_module(cyclic(2), Z(2))
        H = cohomology_group(M, 2)
        nontriv = H.class_representative((1,))
        assert H.coboundary_witness(nontriv) is None
        assert any(H.coordinates_of(nontriv))


class TestDegreeOneCanonical:
    def test_coboundary_normalizes_to_zero(self):
        """C2 acting on Z/4 by -1: H^1 = Z/2, with the coboundaries
        {0, 2} at the generator.  db for the constant 0-cochain b = 1 is
        a coboundary, so its canonical form is zero."""
        M = inversion_module(cyclic(2), 4)
        H = cohomology_group(M, 1)
        assert H.group.invariant_factors == (2,)
        db = differential(M, Cochain.from_map(0, {(): (1,)}))
        assert db.as_dict() == {(0,): (0,), (1,): (2,)}
        zero = Cochain.from_map(1, {(0,): (0,), (1,): (0,)})
        assert H.normalize(db) == H.class_representative((0,)) == zero
        three = Cochain.from_map(1, {(0,): (0,), (1,): (3,)})
        one = Cochain.from_map(1, {(0,): (0,), (1,): (1,)})
        assert H.normalize(three) == H.class_representative((1,)) == one
        assert [c.representative for c in H.classes()] == [zero, one]


class TestBudget:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("M", [
        trivial_module(cyclic(4), Z(2)),
        inversion_module(cyclic(2), 8),
        trivial_module(from_generators(3, [(1, 0, 2), (1, 2, 0)]), Z(2, 4)),
    ], ids=["C4_Z2", "C2_Z8_inv", "S3_Z2xZ4"])
    def test_gate_at_the_count(self, M, p):
        """Degree p counts max(r_p, c_(p-1) + c_p) c_p entries for the
        complex A -> A^S -> Hom_Gamma(R, A): c_-1 = 0, c_0 = t,
        c_1 = |S| t, c_2 = m t with m = n|S| - n + 1, and cocycle rows
        r_0 = |S| t, r_1 = m t, r_2 = |S| m t."""
        n, s, t = M.gamma.order, len(M.gamma.generators), M.coeff.ncoords
        m = n * s - n + 1
        c = {-1: 0, 0: t, 1: s * t, 2: m * t}
        r = {0: s * t, 1: m * t, 2: s * m * t}
        count = max(r[p], c[p - 1] + c[p]) * c[p]
        cohomology_group(M, p, budget=count)
        with pytest.raises(BudgetExceededError, match="exceeds budget"):
            cohomology_group(M, p, budget=count - 1)


class TestOneEliminationPerLattice:
    @pytest.mark.parametrize("p", [1, 2])
    def test_smith_forms_per_call(self, monkeypatch, p):
        """One Smith form, the cokernel's, which keeps the inverse
        transform it needs.  The generator s of C8 acts trivially on Z/2,
        so the one row of d_p is 8 e_s in degree 1 and s.C - C = 0 in
        degree 2: zero mod 2, so no core is left for a congruence kernel
        Smith form.  The dense kernel of all of d_p took a second Smith
        form; solving in the kernel basis by its own Smith form and
        inverting the cokernel transform afterwards took 4 Smith forms
        and 1 inverse."""
        M = trivial_module(cyclic(8), Z(2))
        counts = {"smith_normal_form": 0, "inverse_unimodular": 0}
        for name in counts:
            def wrapper(*args, _inner=getattr(exactlin, name), _name=name,
                        **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(exactlin, name, wrapper)
        assert cohomology_group(M, p).group == Z(2)
        assert counts == {"smith_normal_form": 1, "inverse_unimodular": 0}


class TestEckmann:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValidationError):
            eckmann_check(trivial_module(cyclic(2), Z(8)), 0)

    def test_rejects_h_of_another_degree_or_module(self):
        M = trivial_module(cyclic(2), Z(8))
        assert eckmann_check(M, 2, cohomology_group(M, 2))
        for H in (cohomology_group(M, 1),
                  cohomology_group(inversion_module(cyclic(2), 8), 2)):
            with pytest.raises(ValidationError, match="H is not H\\^2"):
                eckmann_check(M, 2, H)

    @pytest.mark.parametrize("p", [1, 2])
    def test_various_modules(self, p):
        mods = [trivial_module(cyclic(2), Z(8)),
                inversion_module(cyclic(2), 4),
                trivial_module(cyclic(3), Z(6)),
                trivial_module(direct_product(cyclic(2), cyclic(2)), Z(4))]
        for M in mods:
            assert eckmann_check(M, p)


class TestTower:
    def _cstar(self):
        return DiagonalizableGroup(1, Z())

    def test_trivial_action_stabilizes_to_zero(self):
        c2 = cyclic(2)
        Zg = self._cstar()
        res = stabilized_h2(c2, Zg,
                            lambda m: trivial_module(c2, torsion_at(Zg, m)))
        assert res.group.invariant_factors == ()
        assert res.tower_orders[0] == 2  # each level alone is Z/2

    def test_inversion_stabilizes_to_z2(self):
        c2 = cyclic(2)
        Zg = self._cstar()

        def module_at(m):
            a = torsion_at(Zg, m)
            inv = AbHom(a, a, IntMatrix.from_rows([[m - 1]]))
            return gamma_module(c2, a, (AbHom.identity(a), inv))

        res = stabilized_h2(c2, Zg, module_at)
        assert res.group.invariant_factors == (2,)
        (rep,) = res.representatives
        assert is_cocycle(res.module, rep)
        assert res.cohomology.coordinates_of(rep) != \
            (0,) * len(res.cohomology.group.invariant_factors)

    def test_finite_center_tower_is_constant(self):
        c2 = cyclic(2)
        Zg = DiagonalizableGroup(0, Z(2))
        res = stabilized_h2(c2, Zg,
                            lambda m: trivial_module(c2, torsion_at(Zg, m)))
        assert res.group.invariant_factors == (2,)
        assert set(res.tower_orders) == {2}


def _trivial_tower(n, factors, max_k):
    gamma = cyclic(n)
    Zg = DiagonalizableGroup(0, Z(*factors))
    return stabilized_h2(gamma, Zg,
                         lambda m: trivial_module(gamma, torsion_at(Zg, m)),
                         max_k=max_k)


class TestTowerPinned:
    """Tower results recorded from the comparison loop that picked the
    stable level before the level was read off Z; the level read off Z
    must agree.  The stable generators are pinned by their canonical
    cocycles (values on the pairs of Gamma in lexicographic order), which
    do not depend on the coordinates the engine gives H^2.  The tower
    lists levels 1 to max(max_k, k_used)."""

    @pytest.mark.parametrize("n,factors,max_k,expected", [
        (2, (8,), 6, ((2,), 4, (2,) * 6, ((0, 0, 0, 1),))),
        (2, (4,), 6, ((2,), 3, (2,) * 6, ((0, 0, 0, 1),))),
        (3, (9,), 6, ((3,), 3, (3,) * 6, ((0, 0, 0, 0, 0, 1, 0, 1, 1),))),
        (2, (2, 8), 7, ((2, 2), 4, (4,) * 7,
                        ((0, 0, 0, 0, 0, 0, 1, 0),
                         (0, 0, 0, 0, 0, 0, 0, 1)))),
    ])
    def test_trivial_towers(self, n, factors, max_k, expected):
        res = _trivial_tower(n, factors, max_k)
        reps = tuple(tuple(x for _, v in c.values for x in v)
                     for c in res.representatives)
        assert (res.group, res.k_used, res.tower_orders,
                reps) == (Z(*expected[0]),) + expected[1:]

    def test_twisted_torus_needs_level_e_plus_2(self):
        """C2 acting on C* x Z/2 by (t, z) -> (t^-1 (-1)^z, z), on the
        coordinates (z, x) of Z[m] = Z/2 x Z/m: a non-split module with
        e = 1.  Level 1 maps to 0 in level 2, so a level e + 1 would
        answer 0; H^2 = Z/2 is the image of level 2 in level 3."""
        c2 = cyclic(2)
        Zg = DiagonalizableGroup(1, Z(2))

        def module_at(m):
            a = torsion_at(Zg, m)
            sigma = AbHom(a, a, IntMatrix.from_rows([[1, 0],
                                                     [m // 2, m - 1]]))
            return gamma_module(c2, a, (AbHom.identity(a), sigma))

        res = stabilized_h2(c2, Zg, module_at)
        assert (res.group, res.k_used, res.tower_orders) == \
            (Z(2), 3, (1, 2, 2, 2))
        (rep,) = res.representatives
        assert is_cocycle(res.module, rep)
        assert res.cohomology.coordinates_of(rep) != \
            (0,) * len(res.cohomology.group.invariant_factors)


class TestHelpers:
    def test_cochain_sum(self):
        a = Z(4)
        c1 = Cochain.from_map(1, {(0,): (1,), (1,): (2,)})
        c2 = Cochain.from_map(1, {(0,): (3,), (1,): (3,)})
        s = cochain_sum(a, [(1, c1), (2, c2)])
        assert s.as_dict() == {(0,): (3,), (1,): (0,)}

    def test_push_cochain(self):
        z2, z4 = Z(2), Z(4)
        inc = AbHom(z2, z4, IntMatrix.from_rows([[2]]))
        c = Cochain.from_map(1, {(0,): (0,), (1,): (1,)})
        assert push_cochain(inc, c).as_dict() == {(0,): (0,), (1,): (2,)}
