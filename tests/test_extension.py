import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import extension, grouptable, relations, standard
from discred.abgroup import AbHom, DiagonalizableGroup, FGAbelianGroup
from discred.autbrd import ad_from_generator_images, trivial_ad
from discred.cohomology import (Cochain, GammaModule, cochain_sum,
                                cohomology_group, differential, gamma_module,
                                is_cocycle, trivial_module)
from discred.errors import ValidationError
from discred.exactlin import IntMatrix
from discred.extension import (DisconnectedGroupDescriptor, build_extension,
                               classify, cocycle_witness,
                               extensions_equivalent, extract_cocycle,
                               pushout, quotient_mod_center)
from discred.grouptable import (cyclic, find_isomorphism, from_generators,
                                quotient, semidirect_product, validate_table)

from abgroup_reference import sub
from bar_reference import reference_cocycle_witness
from grouptable_reference import direct_product, is_abelian
from pushout_reference import reference_pushout
from test_acceptance import _pushout_instances
from test_cohomology import _first_failing_pair, repeated_actions
from test_normalized import _cochain, _modules


def counted(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends its arguments to
    ``calls``."""
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(module, name, wrapper)


def Z(*f):
    return FGAbelianGroup(0, f)


def zero_cochain(M):
    n = M.gamma.order
    return Cochain.from_map(2, {(a, b): M.coeff.zero()
                                for a in range(n) for b in range(n)})


def c2_z2_module():
    return trivial_module(cyclic(2), Z(2))


def nontrivial_c2_cocycle():
    return Cochain.from_map(2, {(0, 0): (0,), (0, 1): (0,),
                                (1, 0): (0,), (1, 1): (1,)})


class TestBuild:
    def test_split_gives_product(self):
        M = c2_z2_module()
        model = build_extension(M, zero_cochain(M))
        assert find_isomorphism(model.group,
                                direct_product(cyclic(2), cyclic(2))) is not None

    def test_nonsplit_gives_z4(self):
        M = c2_z2_module()
        model = build_extension(M, nontrivial_c2_cocycle())
        assert find_isomorphism(model.group, cyclic(4)) is not None

    def test_embedding_and_projection(self):
        M = c2_z2_module()
        model = build_extension(M, nontrivial_c2_cocycle())
        E = model.group
        # A embeds as the kernel of the projection
        kernel = {i for i in range(E.order) if model.project[i] == 0}
        assert set(model.embed) == kernel
        assert E.order == 4

    def test_rejects_non_normalized(self):
        M = trivial_module(cyclic(2), Z(4))
        vals = {(a, b): (2,) for a in range(2) for b in range(2)}
        with pytest.raises(ValidationError, match="normalized"):
            build_extension(M, Cochain.from_map(2, vals))

    def test_rejects_non_cocycle_with_witness(self):
        M = trivial_module(cyclic(3), Z(3))
        vals = {(a, b): (0,) for a in range(3) for b in range(3)}
        vals[(1, 1)] = (1,)
        bad = Cochain.from_map(2, vals)
        w = cocycle_witness(M, bad)
        assert w is not None
        with pytest.raises(ValidationError, match="associative"):
            build_extension(M, bad)
        # the witness triple genuinely violates the cocycle identity
        g1, g2, g3 = w
        A, G = M.coeff, M.gamma
        d = bad.as_dict()
        lhs = A.add(M.act(g1, d[(g2, g3)]), d[(g1, G.mul(g2, g3))])
        rhs = A.add(d[(g1, g2)], d[(G.mul(g1, g2), g3)])
        assert lhs != rhs

    def test_witness_of_non_total_cochain(self):
        M = trivial_module(cyclic(3), Z(3))
        vals = {(a, b): (0,) for a in range(3) for b in range(3)}
        del vals[(1, 1)]
        with pytest.raises(ValidationError, match=r"not total: missing \(1, 1\)"):
            cocycle_witness(M, Cochain.from_map(2, vals))

    def test_non_total_cochain_named_by_the_reader(self):
        """A C2 cochain without (1, 1) gets the message every other
        cochain reader gives: from ``from_map`` on a map without it, from
        the reader on a short list of values; a non-total cochain of
        degree 3 is named for its degree first."""
        M = c2_z2_module()
        vals = nontrivial_c2_cocycle().as_dict()
        del vals[(1, 1)]
        with pytest.raises(ValidationError,
                           match=r"^cochain is not total: missing \(1, 1\)$"):
            Cochain.from_map(2, vals)
        c = Cochain(2, nontrivial_c2_cocycle().entries[:3])
        with pytest.raises(ValidationError,
                           match=r"^cochain is not total: missing \(1, 1\)$"):
            build_extension(M, c)
        with pytest.raises(ValidationError,
                           match="^expected a degree-2 cochain$"):
            build_extension(M, Cochain(3, c.entries))

    def test_list_and_unreduced_values_accepted(self):
        M = c2_z2_module()
        given = Cochain(2, ([0], (2,), [-2], (3,)))
        model = build_extension(M, given)
        assert model.group == build_extension(
            M, nontrivial_c2_cocycle()).group
        assert model.cocycle is given

    def test_twisted_by_action(self):
        # Z/4 extended by Z/2 acting by inversion, trivial cocycle:
        # the dihedral group of order 8
        a = Z(4)
        inv = AbHom(a, a, IntMatrix.from_rows([[3]]))
        M = gamma_module(cyclic(2), a, (AbHom.identity(a), inv))
        model = build_extension(M, zero_cochain(M))
        d8 = from_generators(4, [(1, 2, 3, 0), (0, 3, 2, 1)])
        assert d8.order == 8
        assert find_isomorphism(model.group, d8) is not None


class TestActionCheck:
    """A ``GammaModule`` checks its action when it is built, so a map
    that is no action never reaches ``build_extension``, which holds no
    copy of the check."""

    def test_non_homomorphic_action(self):
        a = Z(3)
        neg = AbHom(a, a, IntMatrix.from_rows([[-1]]))
        with pytest.raises(ValidationError, match=r"^action is not a "
                                                  r"homomorphism at pair "
                                                  r"\(1, 1\)$"):
            GammaModule(cyclic(3), a, (AbHom.identity(a), neg, neg))

    def test_identity_must_act_trivially(self):
        a = Z(3)
        neg = AbHom(a, a, IntMatrix.from_rows([[-1]]))
        with pytest.raises(ValidationError, match="^action of the identity "
                                                  "is not the identity$"):
            GammaModule(cyclic(2), a, (neg, AbHom.identity(a)))

    @settings(max_examples=150, deadline=None)
    @given(repeated_actions())
    def test_same_verdict_as_gamma_module(self, case):
        """Built directly or by ``gamma_module``, a module is rejected at
        the first pair that fails when the pairs are checked one by one,
        and an accepted one extends."""
        G, A, action = case
        want = _first_failing_pair(G, action)
        for build in (GammaModule, gamma_module):
            if want is None:
                M = build(G, A, action)
                assert build_extension(M, zero_cochain(M)).group.order == (
                    G.order * A.order())
            else:
                with pytest.raises(ValidationError) as err:
                    build(G, A, action)
                assert str(err.value) == (f"action is not a homomorphism "
                                          f"at pair ({want[0]}, {want[1]})")


class TestExtractCocycle:
    def test_round_trip(self):
        for M, c in [(c2_z2_module(), nontrivial_c2_cocycle()),
                     (c2_z2_module(), zero_cochain(c2_z2_module())),
                     (trivial_module(cyclic(3), Z(3)),
                      zero_cochain(trivial_module(cyclic(3), Z(3))))]:
            model = build_extension(M, c)
            back = extract_cocycle(M, model.group, model.embed,
                                   model.project, model.section)
            assert back.as_dict() == {k: M.coeff.reduce(v)
                                      for k, v in c.values}

    def test_other_section_gives_equivalent_cocycle(self):
        M = c2_z2_module()
        c = nontrivial_c2_cocycle()
        model = build_extension(M, c)
        # replace the section over the nonidentity component
        alt = list(model.section)
        other = next(i for i in range(model.group.order)
                     if model.project[i] == 1 and i != alt[1])
        alt[1] = other
        back = extract_cocycle(M, model.group, model.embed, model.project,
                               tuple(alt))
        H = cohomology_group(M, 2)
        assert extensions_equivalent(M, c, back, H) is not None

    def test_bad_section_rejected(self):
        M = c2_z2_module()
        model = build_extension(M, zero_cochain(M))
        with pytest.raises(ValidationError):
            extract_cocycle(M, model.group, model.embed, model.project,
                            (model.section[0], model.section[0]))

    @pytest.mark.parametrize("last", [-1, 99])
    def test_section_index_outside_e_named(self, last):
        """A section index outside E is named: -1 used to be read as
        E's last element (3 over C2), 99 to raise a bare IndexError."""
        M = c2_z2_module()
        model = build_extension(M, nontrivial_c2_cocycle())
        with pytest.raises(ValidationError,
                           match="^section has an index outside E$"):
            extract_cocycle(M, model.group, model.embed, model.project,
                            (model.section[0], last))


    def test_short_project_named(self):
        """A projection shorter than E used to pass unread."""
        M = c2_z2_module()
        model = build_extension(M, nontrivial_c2_cocycle())
        with pytest.raises(ValidationError,
                           match="^project is not total on E$"):
            extract_cocycle(M, model.group, model.embed, model.project[:2],
                            model.section)

    def test_project_index_outside_gamma_named(self):
        """A projection index outside Gamma off the section used to pass
        unread."""
        M = c2_z2_module()
        model = build_extension(M, nontrivial_c2_cocycle())
        with pytest.raises(ValidationError,
                           match="^project has an index outside gamma$"):
            extract_cocycle(M, model.group, model.embed, (0, 1, 0, 7),
                            model.section)

    @pytest.mark.parametrize("embed, message", [
        ((0, 2, 1), "embed is not total on the coefficient group"),
        ((0,), "embed is not total on the coefficient group"),
        ((0, 9), "embed has an index outside E"),
        ((0, 0), "embed is not injective"),
    ], ids=["long", "short", "outside", "not_injective"])
    def test_bad_embed_named(self, embed, message):
        """On the C2 model (embed (0, 2)) a long embed used to raise a bare
        IndexError, and a short, out-of-range or non-injective one to
        blame the section ("section defect leaves the embedded
        coefficient group")."""
        M = c2_z2_module()
        model = build_extension(M, nontrivial_c2_cocycle())
        assert model.embed == (0, 2)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            extract_cocycle(M, model.group, embed, model.project,
                            model.section)


class TestEquivalence:
    def test_cohomologous_iff_equivalent(self):
        M = trivial_module(cyclic(2), Z(4))
        H = cohomology_group(M, 2)
        base = H.class_representative((1,))
        b = Cochain.from_map(1, {(0,): (0,), (1,): (3,)})
        shifted = cochain_sum(M.coeff, [(1, base), (1, differential(M, b))])
        w = extensions_equivalent(M, base, shifted, H)
        assert w is not None
        assert differential(M, w).as_dict() == \
            cochain_sum(M.coeff, [(1, base), (-1, shifted)]).as_dict()

    def test_inequivalent(self):
        M = trivial_module(cyclic(2), Z(4))
        H = cohomology_group(M, 2)
        assert extensions_equivalent(M, H.class_representative((0,)),
                                     H.class_representative((1,)), H) is None

    def test_rejects_h_of_another_module_or_degree(self):
        """c(1, 1) = 2 on the trivial Z/4 is a coboundary, as
        H^2 = Z/4 / 2; the H^2 of C2 inverting Z/4, or H^1, would answer
        for the wrong group."""
        M = trivial_module(cyclic(2), Z(4))
        c = Cochain.from_map(2, {(a, b): (2 * a * b,)
                                 for a in range(2) for b in range(2)})
        zero = zero_cochain(M)
        assert extensions_equivalent(M, c, zero, cohomology_group(M, 2))
        a = M.coeff
        inv = gamma_module(cyclic(2), a, (
            AbHom.identity(a), AbHom(a, a, IntMatrix.from_rows([[3]]))))
        for H in (cohomology_group(inv, 2), cohomology_group(M, 1)):
            with pytest.raises(ValidationError, match="H is not H\\^2"):
                extensions_equivalent(M, c, zero, H)


def sl2_like_setup(cocycle_class):
    """G = Z/4 standing in for SL2's torsion, A = Z/2 = {0, 2}."""
    M = c2_z2_module()
    c = nontrivial_c2_cocycle() if cocycle_class else zero_cochain(M)
    model = build_extension(M, c)
    G = cyclic(4)
    z = (0, 2)
    act = (tuple(range(4)), tuple(range(4)))
    return G, z, act, M, model


class TestPushout:
    @pytest.mark.parametrize("cls", [0, 1])
    def test_contracts(self, cls):
        G, z, act, M, model = sl2_like_setup(cls)
        push = pushout(G, z, act, model)
        assert push.checks.antidiagonal_is_normal
        assert push.checks.kernel_is_antidiagonal
        assert push.checks.order == push.checks.expected_order == 8

    @pytest.mark.parametrize("z", [(0, 99), (0, -2)])
    def test_z_index_outside_g_named(self, z):
        """By ``pushout`` and ``quotient_mod_center``: (0, 99) used to
        raise a bare IndexError in both; -2 would be read as G's
        element 2."""
        G, z_ok, act, _, model = sl2_like_setup(1)
        with pytest.raises(ValidationError,
                           match="^z_embed has an index outside G$"):
            pushout(G, z, act, model)
        push = pushout(G, z_ok, act, model)
        with pytest.raises(ValidationError,
                           match="^z_embed has an index outside G$"):
            quotient_mod_center(G, z, act, push)

    @pytest.mark.parametrize("last", [-1, 99])
    def test_quotient_act_index_outside_g_named(self, last):
        """act[1] = (0, 1, 2, -1) over C4 used to be read as (0, 1, 2, 3)
        and give the natural isomorphism; with 99 it raised a bare
        IndexError."""
        G, z, act, _, model = sl2_like_setup(1)
        push = pushout(G, z, act, model)
        bad = (act[0], (0, 1, 2, last))
        with pytest.raises(ValidationError,
                           match=r"^act\[1\] is not an automorphism$"):
            quotient_mod_center(G, z, bad, push)

    def test_split_vs_nonsplit_differ(self):
        # with G = A the pushout is E~ itself, so the two classes are
        # genuinely non-isomorphic groups
        M = c2_z2_module()
        G = cyclic(2)
        z = (0, 1)
        act = (tuple(range(2)), tuple(range(2)))
        e0 = pushout(G, z, act, build_extension(M, zero_cochain(M))).group
        e1 = pushout(G, z, act,
                     build_extension(M, nontrivial_c2_cocycle())).group
        assert find_isomorphism(e0, cyclic(4)) is None
        assert find_isomorphism(e1, cyclic(4)) is not None

    def test_isomorphic_totals_can_hide_inequivalent_extensions(self):
        # G = Z/4: both classes push to Z/4 x Z/2, yet the extensions of
        # Gamma by A are inequivalent -- only the cocycle class separates them
        G, z, act, M, m0 = sl2_like_setup(0)
        _, _, _, _, m1 = sl2_like_setup(1)
        e0 = pushout(G, z, act, m0).group
        e1 = pushout(G, z, act, m1).group
        assert find_isomorphism(e0, e1) is not None
        assert extensions_equivalent(M, m0.cocycle, m1.cocycle) is None

    def test_quotient_mod_center(self):
        for cls in (0, 1):
            G, z, act, _, model = sl2_like_setup(cls)
            push = pushout(G, z, act, model)
            assert quotient_mod_center(G, z, act, push) is not None

    @pytest.mark.parametrize("case", ["C32/A4/C4", "C8/A2/S3"])
    def test_quotient_mod_center_is_the_natural_map(self, monkeypatch, case):
        """The map sends the class of (g, e) to (gZ, pi(e)) and is found
        without an isomorphism search: on the carry extension Z/16 of C4
        by Z/4 pushed into C32, and on the nonsplit extension of S3 by
        Z/2 pushed into C8, with S3 acting on C8 by inversion through the
        sign."""
        if case == "C32/A4/C4":
            G, z, act, M, c = _c32_carry_setup()
        else:
            gamma = _s3()
            M = _sign_module(gamma, 2, True)
            c = cohomology_group(M, 2).class_representative((1,))
            G = cyclic(8)
            z = _cyclic_central(G, 2)
            act = [tuple(G.inv(x) for x in range(8)) if _sign(gamma, g) < 0
                   else tuple(range(8)) for g in range(gamma.order)]
        model = build_extension(M, c)
        push = pushout(G, z, act, model)
        calls = []
        for module in (grouptable, extension):
            if hasattr(module, "find_isomorphism"):
                counted(monkeypatch, module, "find_isomorphism", calls)
        f = quotient_mod_center(G, z, act, push)
        assert calls == []
        Gq, gcoset = quotient(G, frozenset(z))
        Eq, ecoset = quotient(push.group, frozenset(push.embed_a))
        ne, ng = model.group.order, M.gamma.order
        natural = {}
        for g in range(G.order):
            for e in range(ne):
                natural.setdefault(ecoset[push.coset_of[g * ne + e]],
                                   set()).add(gcoset[g] * ng + model.project[e])
        assert all(len(images) == 1 for images in natural.values())
        assert f == tuple(natural[q].pop() for q in range(Eq.order))
        rep = {gcoset[x]: x for x in range(G.order)}
        actq = [tuple(gcoset[a[rep[q]]] for q in range(Gq.order)) for a in act]
        target = semidirect_product(Gq, M.gamma, actq)
        assert sorted(f) == list(range(target.order))
        assert all(f[Eq.mul(x, y)] == target.mul(f[x], f[y])
                   for x in range(Eq.order) for y in range(Eq.order))

    def test_rejects_noncentral_embedding(self):
        M = c2_z2_module()
        model = build_extension(M, zero_cochain(M))
        s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
        two = next(x for x in s3.elements() if s3.element_order(x) == 2)
        with pytest.raises(ValidationError, match="central"):
            pushout(s3, (s3.identity, two),
                    (tuple(range(6)), tuple(range(6))), model)

    def test_rejects_inequivariant_action(self):
        a = Z(2)
        inv = AbHom.identity(a)
        M = trivial_module(cyclic(2), a)
        model = build_extension(M, zero_cochain(M))
        G = cyclic(4)
        # automorphism x -> 3x of Z/4 fixes {0, 2}, fine; but pair it with
        # a module where gamma is supposed to move the center
        bad_act = (tuple(range(4)), (0, 3, 2, 1))
        push = pushout(G, (0, 2), bad_act, model)  # still equivariant: ok
        assert push.checks.order == 8
        # genuinely inequivariant: embed A on a non-fixed pair
        M2 = gamma_module(cyclic(2), Z(4),
                          (AbHom.identity(Z(4)),
                           AbHom(Z(4), Z(4), IntMatrix.from_rows([[3]]))))
        model2 = build_extension(M2, zero_cochain(M2))
        with pytest.raises(ValidationError, match="equivariant"):
            pushout(cyclic(8), (0, 2, 4, 6),
                    (tuple(range(8)), tuple(range(8))), model2)


def _s3_sign_module():
    s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
    a = Z(3)
    neg = AbHom(a, a, IntMatrix.from_rows([[2]]))
    # the transpositions, the elements of order 2, act by -1
    sign = [neg if s3.element_order(g) == 2 else AbHom.identity(a)
            for g in range(s3.order)]
    return gamma_module(s3, a, sign)


CHECK_MODULES = [
    trivial_module(cyclic(3), Z(3)),
    trivial_module(cyclic(4), Z(2)),
    trivial_module(direct_product(cyclic(2), cyclic(2)), Z(2)),
    gamma_module(cyclic(2), Z(4), (AbHom.identity(Z(4)),
                                   AbHom(Z(4), Z(4),
                                         IntMatrix.from_rows([[3]])))),
    _s3_sign_module(),
]


@st.composite
def _normalized_cochains(draw):
    """A module and a normalized 2-cochain on it: a class representative
    plus a random coboundary, with one value changed half of the time."""
    M = draw(st.sampled_from(CHECK_MODULES))
    n, A = M.gamma.order, M.coeff
    elems = A.elements()
    H = cohomology_group(M, 2)
    rep = H.class_representative(
        [draw(st.integers(0, f - 1)) for f in H.group.invariant_factors])
    b = Cochain.from_map(1, {(g,): A.zero() if g == M.gamma.identity
                             else draw(st.sampled_from(elems))
                             for g in range(n)})
    c = cochain_sum(A, [(1, rep), (1, differential(M, b))]).as_dict()
    if n > 1 and draw(st.booleans()):
        others = [g for g in range(n) if g != M.gamma.identity]
        key = (draw(st.sampled_from(others)), draw(st.sampled_from(others)))
        c[key] = draw(st.sampled_from(elems))
    return M, Cochain.from_map(2, c)


def _fails(M, c, g1, g2, g3):
    """Whether the total 2-cochain c fails the cocycle identity at
    (g1, g2, g3)."""
    A, G, d = M.coeff, M.gamma, c.as_dict()
    return (A.add(M.act(g1, d[(g2, g3)]), d[(g1, G.mul(g2, g3))])
            != A.add(d[(g1, g2)], d[(G.mul(g1, g2), g3)]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_light_witness_agrees_with_full_check(data):
    """Light's test over the generating set finds a failing triple
    exactly when ``is_cocycle`` and the full |Gamma|^3 loop do, on total
    2-cochains under the actions of ``test_normalized``: random ones,
    cocycles that are not normalized (a class representative plus the
    coboundary of a 1-cochain with b(1) != 0), and such cocycles with
    one value changed.  The witness is the first failing (g, s, h) with
    s in ``gamma.generators``, in the order g, s, h."""
    M = _modules()[data.draw(st.integers(0, len(_modules()) - 1))]
    A, G = M.coeff, M.gamma
    kind = data.draw(st.sampled_from(["random", "cocycle", "perturbed"]))
    if kind == "random":
        c = _cochain(M, 2, data.draw)
    else:
        H = cohomology_group(M, 2)
        coords = tuple(data.draw(st.integers(0, f - 1))
                       for f in H.group.invariant_factors)
        b = _cochain(M, 1, data.draw, nonzero_at_identity=True)
        c = cochain_sum(A, [(1, H.class_representative(coords)),
                            (1, differential(M, b))])
        if kind == "perturbed":
            values = c.as_dict()
            tup = data.draw(st.sampled_from(sorted(values)))
            values[tup] = A.add(values[tup], (1,) + (0,) * (A.ncoords - 1))
            c = Cochain.from_map(2, values)
    w = cocycle_witness(M, c)
    ref = reference_cocycle_witness(M, c)
    assert (w is None) == (ref is None) == is_cocycle(M, c)
    if kind == "cocycle":
        assert w is None
    first = next(((g, s, h) for g in G.elements() for s in G.generators
                  for h in G.elements() if _fails(M, c, g, s, h)), None)
    assert w == first
    if w is not None:
        assert _fails(M, c, *w) and _fails(M, c, *ref)


class TestOnceOnly:
    """Each check on the extension-model path runs once."""

    @settings(max_examples=80, deadline=None)
    @given(_normalized_cochains())
    def test_cocycle_check_is_the_only_check(self, case):
        """``build_extension`` reads the cochain once and decides
        associativity by one run of Light's test on the values read
        (``RelationModule.cocycle_witness``), and checks no table:
        ``validate_table`` never runs, and a non-cocycle's message ends
        with the witness that ``cocycle_witness`` gives."""
        M, c = case
        w = cocycle_witness(M, c)
        witness_calls, read_calls, table_calls = [], [], []
        with pytest.MonkeyPatch.context() as mp:
            counted(mp, relations.RelationModule, "cocycle_witness",
                    witness_calls)
            counted(mp, extension, "read_cochain", read_calls)
            counted(mp, relations, "read_cochain", read_calls)
            counted(mp, grouptable, "validate_table", table_calls)
            if w is None:
                build_extension(M, c)
            else:
                with pytest.raises(ValidationError) as err:
                    build_extension(M, c)
                assert str(err.value).endswith(f"witness triple {w}")
        assert len(witness_calls) == len(read_calls) == 1
        assert table_calls == []

    @pytest.mark.parametrize("cls", [0, 1])
    def test_pushout_builds_on_g_times_gamma(self, monkeypatch, cls):
        """``pushout`` builds E by one ``twisted_rows`` call of
        |G| |Gamma| rows and no table of G x| E~: it calls neither
        ``is_normal``, ``quotient`` nor ``semidirect_product``.  G x| E~
        is built when ``semidirect`` is first read."""
        G, z, act, M, model = sl2_like_setup(cls)
        calls, rows = [], []
        for module in (grouptable, extension):
            for name in ("is_normal", "quotient", "semidirect_product"):
                if hasattr(module, name):
                    counted(monkeypatch, module, name, calls)
        inner = extension.twisted_rows

        def twisted_rows(*args):
            out = inner(*args)
            rows.append(len(out))
            return out
        monkeypatch.setattr(extension, "twisted_rows", twisted_rows)
        push = pushout(G, z, act, model)
        assert calls == []
        assert rows == [G.order * M.gamma.order]
        assert "semidirect" not in vars(push)
        monkeypatch.undo()
        assert push.semidirect == semidirect_product(
            G, model.group, [act[h] for h in model.project])

    def test_one_generating_set_per_group(self, monkeypatch):
        """A pushout and its ``quotient_mod_center`` on the C32/A4/C4
        model (Z/16 = Z/4 . C4 by the carry cocycle, pushed out into
        C32) compute each group's generating set at most once."""
        G, z, act, M, carry = _c32_carry_setup()
        calls = []
        counted(monkeypatch, grouptable, "generating_set", calls)
        model = build_extension(M, carry)
        push = pushout(G, z, act, model)
        assert quotient_mod_center(G, z, act, push) is not None
        assert push.semidirect.order == 512
        groups = [args[0] for args in calls]
        assert groups and len(groups) == len({id(g) for g in groups})

    def test_act_and_add_once_per_module(self, monkeypatch):
        """``build_extension`` and ``pushout`` read the action and the
        addition of A off ``GammaModule.index_tables``, built once per
        module, and call neither ``act`` nor ``add`` again."""
        G, z, act, M, carry = _c32_carry_setup()
        model = build_extension(M, carry)
        pushout(G, z, act, model)
        calls = []
        counted(monkeypatch, type(M), "act", calls)
        counted(monkeypatch, FGAbelianGroup, "add", calls)
        pushout(G, z, act, build_extension(M, carry))
        assert calls == []

    @pytest.mark.parametrize("g", [0, 1])
    @pytest.mark.parametrize("bad", [
        (0, 0, 0, 0),         # not a bijection
        (1, 2, 3, 0),         # a bijection, not a homomorphism
        (0, 1, 2),            # too short
        (0, 1, 2, 3, 0),      # too long
        (0, 1, 2, 7),         # out of range
    ])
    def test_non_automorphism_named(self, g, bad):
        G, z, act, _, model = sl2_like_setup(1)
        act = list(act)
        act[g] = bad
        with pytest.raises(ValidationError,
                           match=rf"act\[{g}\] is not an automorphism"):
            pushout(G, z, tuple(act), model)

    @pytest.mark.parametrize("n_maps", [0, 1, 3])
    def test_act_count_named(self, monkeypatch, n_maps):
        """A wrong number of ``act`` maps is named before any table is
        built; a short list used to raise a bare IndexError."""
        G, z, _, _, model = sl2_like_setup(1)
        calls = []
        counted(monkeypatch, extension, "semidirect_product", calls)
        with pytest.raises(ValidationError,
                           match=rf"act has {n_maps} maps, need one per "
                                 rf"gamma element \(2\)"):
            pushout(G, z, (tuple(range(4)),) * n_maps, model)
        assert calls == []


class TestClassify:
    def test_sl2_two_classes(self):
        based = standard.sl2()
        cls = classify(based, trivial_ad(based, cyclic(2)))
        assert len(cls.descriptors) == 2
        assert cls.group.invariant_factors == (2,)
        split = [d for d in cls.descriptors if d.is_split]
        assert len(split) == 1 and split[0].coordinates == (0,)

    def test_pgl2_one_class(self):
        based = standard.pgl2()
        cls = classify(based, trivial_ad(based, cyclic(2)))
        assert len(cls.descriptors) == 1
        assert cls.descriptors[0].is_split

    def test_gl2_swap_two_classes(self):
        based = standard.gl2()
        ad = ad_from_generator_images(based, cyclic(2), [[[0, -1], [-1, 0]]])
        cls = classify(based, ad)
        assert cls.group.invariant_factors == (2,)
        assert len(cls.descriptors) == 2

    def test_sl3_flip_vanishes(self):
        based = standard.sl3()
        ad = ad_from_generator_images(based, cyclic(2), [[[0, 1], [1, 0]]])
        cls = classify(based, ad)
        assert cls.group.invariant_factors == ()
        assert len(cls.descriptors) == 1

    def test_trivial_gamma(self):
        based = standard.sl2()
        cls = classify(based, trivial_ad(based, cyclic(1)))
        assert cls.center == DiagonalizableGroup(0, Z(2))
        assert cls.group == Z()
        assert (cls.k_used, cls.torsion_level, cls.tower_orders) == (1, 1, (1,))
        assert cls.module.gamma.order == 1 and cls.module.coeff == Z()
        assert cls.descriptors == (DisconnectedGroupDescriptor(
            coordinates=(), cocycle=Cochain.from_map(2, {(0, 0): ()}),
            is_split=True, torsion_level=1),)

    def test_descriptor_cocycles_build(self):
        based = standard.sl2()
        cls = classify(based, trivial_ad(based, cyclic(2)))
        for d in cls.descriptors:
            model = build_extension(cls.module, d.cocycle)
            expected = direct_product(cyclic(2), cyclic(2)) if d.is_split \
                else cyclic(4)
            assert find_isomorphism(model.group, expected) is not None

    def test_invalid_ad_rejected(self):
        based = standard.sl3()
        ad = ad_from_generator_images(based, cyclic(3), [[[0, 1], [1, 0]]])
        with pytest.raises(ValidationError):
            classify(based, ad)


# Row-wise table builders against per-entry reference formulas.

def _per_entry_semidirect(N, H, act):
    nh = H.order
    n = N.order * nh
    return tuple(tuple(N.mul(i // nh, act[i % nh][j // nh]) * nh
                       + H.mul(i % nh, j % nh) for j in range(n))
                 for i in range(n))


def _per_entry_extension(M, c):
    A, n = M.coeff, M.gamma.order
    elems = A.elements()
    pos = {e: i for i, e in enumerate(elems)}
    vals = {k: A.reduce(v) for k, v in c.values}
    order = len(elems) * n
    return tuple(tuple(
        pos[A.add(A.add(elems[i // n], M.act(i % n, elems[j // n])),
                  vals[(i % n, j % n)])] * n + M.gamma.mul(i % n, j % n)
        for j in range(order)) for i in range(order))


def _s3():
    return from_generators(3, [(1, 0, 2), (1, 2, 0)])


def _dihedral(order):
    m = order // 2
    return from_generators(m, [tuple((i + 1) % m for i in range(m)),
                               tuple(-i % m for i in range(m))])


def _sign(gamma, g):
    """-1 at g under the sign character of a cyclic group of even order
    or of S3 (transpositions); +1 otherwise.  Not a character of every
    group (D8, for one)."""
    if not is_abelian(gamma):
        return -1 if gamma.element_order(g) == 2 else 1
    return -1 if gamma.order % 2 == 0 and g % 2 else 1


def _sign_module(gamma, a, inv):
    """Z/a with trivial action, or acting by inversion through the sign."""
    A = Z(a)
    neg = AbHom(A, A, IntMatrix.from_rows([[a - 1]], cols=1))
    return gamma_module(gamma, A, [neg if inv and _sign(gamma, g) < 0
                                   else AbHom.identity(A)
                                   for g in range(gamma.order)])


def _cyclic_central(G, a):
    """k -> z^k for a central z of order a."""
    z = next(x for x in range(G.order) if G.element_order(x) == a
             and all(G.mul(x, y) == G.mul(y, x) for y in range(G.order)))
    emb = [G.identity]
    for _ in range(a - 1):
        emb.append(G.mul(emb[-1], z))
    return tuple(emb)


def _relabeled_s3():
    """S3 as a table whose identity is element 3."""
    s3, perm = _s3(), (3, 0, 5, 1, 4, 2)
    table = [[None] * 6 for _ in range(6)]
    for i, j in itertools.product(range(6), repeat=2):
        table[perm[i]][perm[j]] = perm[s3.table[i][j]]
    return validate_table(table)


def _moved(M, c, b):
    """The cocycle c + db for the 1-cochain given as the list b."""
    A, gamma = M.coeff, M.gamma
    return Cochain.from_map(2, {
        (g1, g2): A.add(v, A.add(sub(A, M.act(g1, b[g2]),
                                     b[gamma.mul(g1, g2)]), b[g1]))
        for (g1, g2), v in c.as_dict().items()})


def _relabeled_cocycles(M):
    """A representative of every class of H^2 of the relabeled S3,
    moved by one fixed normalized coboundary."""
    gamma = M.gamma
    H = cohomology_group(M, 2)
    b = [(0,) if g == gamma.identity else (g + 1,) for g in range(6)]
    return [_moved(M, H.class_representative(coords), b)
            for coords in itertools.product(
                *(range(f) for f in H.group.invariant_factors))]


def _shape_setup(shape):
    """(G, z, act, M) of ``TestRowWiseBuilders.SHAPES[shape]``."""
    G, a, gamma, inv = TestRowWiseBuilders.SHAPES[shape]
    act = [tuple(G.inv(x) for x in range(G.order))
           if inv and _sign(gamma, g) < 0 else tuple(range(G.order))
           for g in range(gamma.order)]
    return G, _cyclic_central(G, a), act, _sign_module(gamma, a, inv)


class TestIndexTables:
    """``GammaModule.index_tables`` against ``act`` and ``add`` on the
    module shapes of the extension-model benchmark, a relabeled S3 and a
    coefficient group with two coordinates."""

    MODULES = [(cyclic(2), 2, False), (cyclic(4), 2, False),
               (cyclic(4), 4, True), (cyclic(6), 2, True),
               (cyclic(8), 2, False), (_s3(), 2, True), (cyclic(4), 4, False),
               (cyclic(6), 8, False), (cyclic(4), 16, False),
               (_s3(), 8, True), (_relabeled_s3(), 3, True)]

    @staticmethod
    def _powers(gamma, A, rows):
        """The cyclic group ``gamma`` acting on A by powers of ``rows``."""
        g = AbHom(A, A, IntMatrix.from_rows(rows))
        action = [AbHom.identity(A)]
        for _ in range(gamma.order - 1):
            action.append(AbHom(A, A, action[-1].matrix @ g.matrix))
        return gamma_module(gamma, A, action)

    @pytest.mark.parametrize("k", range(len(MODULES) + 3))
    def test_tables(self, k):
        if k < len(self.MODULES):
            M = _sign_module(*self.MODULES[k])
        else:
            # an action of order 2 on two coordinates, and actions of
            # order 4 and 3 that tell g from its inverse
            gamma, A, rows = [(cyclic(2), Z(2, 4), [[1, 0], [2, 1]]),
                              (cyclic(4), Z(5), [[2]]),
                              (cyclic(3), Z(2, 2), [[0, 1], [1, 1]])][
                k - len(self.MODULES)]
            M = self._powers(gamma, A, rows)
        elems = M.coeff.elements()
        acted, add = M.index_tables
        assert acted == [[elems.index(M.act(g, y)) for y in elems]
                         for g in range(M.gamma.order)]
        assert add == [[elems.index(M.coeff.add(x, y)) for y in elems]
                       for x in elems]
        assert M.index_tables is M.index_tables


class TestRowWiseBuilders:
    """Pushout shapes of the extension-model benchmark: (G, |A|, gamma,
    gamma acting on G and A by inversion through the sign)."""

    SHAPES = [(_dihedral(8), 2, cyclic(4), False),
              (cyclic(8), 2, _s3(), True),
              (cyclic(8), 4, cyclic(4), True),
              (cyclic(12), 2, cyclic(6), True)]

    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_pushout_tables(self, shape):
        G, z, act, M = _shape_setup(shape)
        H = cohomology_group(M, 2)
        assert H.group.order() >= 2
        for coords in itertools.product(
                *(range(f) for f in H.group.invariant_factors)):
            c = H.class_representative(coords)
            model = build_extension(M, c)
            assert model.group.table == _per_entry_extension(M, c)
            push = pushout(G, z, act, model)
            act2 = [act[model.project[e]] for e in range(model.group.order)]
            assert push.semidirect.table == _per_entry_semidirect(
                G, model.group, act2)

    @pytest.mark.parametrize("a", [3, 4])
    def test_relabeled_gamma(self, a):
        """A table gamma whose identity is not element 0, acting on Z/a
        by inversion through the sign: every class, moved by a
        coboundary, builds the per-entry table."""
        gamma = _relabeled_s3()
        assert gamma.identity == 3
        M = _sign_module(gamma, a, True)
        assert any(M.act(g, (1,)) != (1,) for g in range(6))
        for c in _relabeled_cocycles(M):
            model = build_extension(M, c)
            assert model.group.table == _per_entry_extension(M, c)
            assert model.group.identity == model.section[3] == 3

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_extensions(self, data):
        gamma = data.draw(st.sampled_from(
            [cyclic(2), cyclic(3), cyclic(4), _s3(),
             direct_product(cyclic(2), cyclic(2))]))
        M = _sign_module(gamma, data.draw(st.integers(2, 4)),
                         data.draw(st.booleans()))
        H = cohomology_group(M, 2)
        coords = [data.draw(st.integers(0, f - 1))
                  for f in H.group.invariant_factors]
        c = H.class_representative(coords).as_dict()
        # add the coboundary of a random normalized 1-cochain b
        q = M.coeff.invariant_factors[0]
        b = [(0,)] + [(data.draw(st.integers(0, q - 1)),)
                      for _ in range(gamma.order - 1)]
        db = {(g1, g2): M.coeff.add(sub(M.coeff, M.act(g1, b[g2]),
                                        b[gamma.mul(g1, g2)]), b[g1])
              for g1 in range(gamma.order) for g2 in range(gamma.order)}
        c = Cochain.from_map(2, {k: M.coeff.add(v, db[k])
                                 for k, v in c.items()})
        model = build_extension(M, c)
        assert model.group.table == _per_entry_extension(M, c)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_semidirect_products(self, data):
        groups = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), _s3(),
                  _dihedral(8), direct_product(cyclic(2), cyclic(2))]
        N = data.draw(st.sampled_from(groups))
        H = data.draw(st.sampled_from(groups))
        kind = data.draw(st.sampled_from(["trivial", "sign", "conjugation"]))
        if kind == "conjugation":
            H = N
            act = [tuple(N.mul(N.mul(h, x), N.inv(h)) for x in range(N.order))
                   for h in range(N.order)]
        elif kind == "sign" and is_abelian(N) and all(
                _sign(H, H.mul(x, y)) == _sign(H, x) * _sign(H, y)
                for x in range(H.order) for y in range(H.order)):
            act = [tuple(N.inv(x) if _sign(H, h) < 0 else x
                         for x in range(N.order)) for h in range(H.order)]
        else:
            act = [tuple(range(N.order))] * H.order
        assert semidirect_product(N, H, act).table == \
            _per_entry_semidirect(N, H, act)


# The pushout built on G x Gamma against the quotient of the whole
# G x| E~ table that it replaced (tests/pushout_reference.py).

def _c32_carry_setup():
    """Z/16 as the extension of C4 by Z/4 with the carry cocycle, pushed
    out into C32: (G, z, act, M, c)."""
    M = trivial_module(cyclic(4), Z(4))
    carry = Cochain.from_map(2, {(a, b): ((a + b) // 4,)
                                 for a in range(4) for b in range(4)})
    return cyclic(32), (0, 8, 16, 24), (tuple(range(32)),) * 4, M, carry


def _agrees_with_reference(G, z, act, M, c):
    """class(g, e) -> coset_of[(g, e)] is a well-defined, bijective
    homomorphism from the reference E onto the new E that carries the
    reference's inverses, embeddings and projection to the new ones;
    the checks and the antidiagonal agree."""
    model = build_extension(M, c)
    ref = reference_pushout(G, z, act, model)
    push = pushout(G, z, act, model)
    R, E = ref.group, push.group
    f = [None] * R.order
    for q, x in zip(ref.coset_of, push.coset_of):
        assert f[q] in (None, x)
        f[q] = x
    assert sorted(f) == list(range(E.order))
    assert all(f[R.mul(x, y)] == E.mul(f[x], f[y])
               for x in range(R.order) for y in range(R.order))
    assert [f[R.inv(x)] for x in range(R.order)] == \
        [E.inv(f[x]) for x in range(R.order)]
    assert push.checks == ref.checks
    assert push.antidiagonal == ref.antidiagonal
    assert push.embed_a == tuple(f[x] for x in ref.embed_a)
    assert push.embed_g == tuple(f[x] for x in ref.embed_g)
    assert [push.project[f[x]] for x in range(R.order)] == list(ref.project)


def _reference_cases(kind):
    if kind == "shapes":
        out = []
        for shape in range(len(TestRowWiseBuilders.SHAPES)):
            G, z, act, M = _shape_setup(shape)
            H = cohomology_group(M, 2)
            out += [(G, z, act, M, H.class_representative(coords))
                    for coords in itertools.product(
                        *(range(f) for f in H.group.invariant_factors))]
        return out
    if kind == "acceptance":
        return _pushout_instances()
    if kind == "C32/A4/C4":
        return [_c32_carry_setup()]
    out = []
    for a in (3, 4):       # relabeled S3, identity 3, on G = C_2a
        M = _sign_module(_relabeled_s3(), a, True)
        G = cyclic(2 * a)
        act = [tuple(G.inv(x) for x in range(G.order))
               if _sign(M.gamma, g) < 0 else tuple(range(G.order))
               for g in range(6)]
        out += [(G, _cyclic_central(G, a), act, M, c)
                for c in _relabeled_cocycles(M)]
    return out


class TestReferencePushout:
    @pytest.mark.parametrize("kind", ["shapes", "acceptance", "C32/A4/C4",
                                      "relabeled"])
    def test_matches_reference(self, kind):
        cases = _reference_cases(kind)
        assert cases
        for case in cases:
            _agrees_with_reference(*case)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_moved_cocycles_match_reference(self, data):
        """Every class of a benchmark shape, moved by the coboundary of
        a random normalized 1-cochain, so that E~ is not built from a
        class representative."""
        G, z, act, M = _shape_setup(data.draw(
            st.integers(0, len(TestRowWiseBuilders.SHAPES) - 1)))
        H = cohomology_group(M, 2)
        c = H.class_representative([data.draw(st.integers(0, f - 1))
                                    for f in H.group.invariant_factors])
        q = M.coeff.invariant_factors[0]
        b = [M.coeff.zero() if g == M.gamma.identity
             else (data.draw(st.integers(0, q - 1)),)
             for g in range(M.gamma.order)]
        _agrees_with_reference(G, z, act, M, _moved(M, c, b))

    @pytest.mark.parametrize("case", [
        "act[0] not an automorphism", "act[1] not an automorphism",
        "too few maps", "too many maps", "act at the identity",
        "act not a homomorphism", "z not a homomorphism", "not central",
        "not equivariant"])
    def test_rejections_match_reference(self, case):
        """Both builds reject bad input with the same message."""
        G, z, act, M, model = sl2_like_setup(1)
        act = list(act)
        inv4 = (0, 3, 2, 1)
        if case.startswith("act["):
            act[int(case[4])] = (1, 2, 3, 0)
        elif case == "too few maps":
            act = act[:1]
        elif case == "too many maps":
            act = act * 2
        elif case == "act at the identity":
            act = [inv4, inv4]
        elif case == "act not a homomorphism":
            M = trivial_module(cyclic(4), Z(2))
            model = build_extension(M, zero_cochain(M))
            act = [tuple(range(4)), inv4, tuple(range(4)), tuple(range(4))]
        elif case == "z not a homomorphism":
            z = (G.identity, next(x for x in G.elements()
                                  if G.element_order(x) == 4))
        elif case == "not central":
            G = _s3()
            z = (G.identity, next(x for x in G.elements()
                                  if G.element_order(x) == 2))
            act = [tuple(range(6))] * 2
        else:
            M = gamma_module(cyclic(2), Z(4),
                             (AbHom.identity(Z(4)),
                              AbHom(Z(4), Z(4), IntMatrix.from_rows([[3]]))))
            model = build_extension(M, zero_cochain(M))
            G, z, act = cyclic(8), (0, 2, 4, 6), [tuple(range(8))] * 2
        messages = []
        for build in (reference_pushout, pushout):
            with pytest.raises(ValidationError) as err:
                build(G, z, tuple(act), model)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
