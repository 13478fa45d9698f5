import pytest

from discred import standard
from discred.abgroup import AbHom, DiagonalizableGroup, FGAbelianGroup
from discred.autbrd import ad_from_generator_images, trivial_ad
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, gamma_module, trivial_module)
from discred.errors import ValidationError
from discred.exactlin import IntMatrix
from discred.extension import (DisconnectedGroupDescriptor, build_extension,
                               classify, cocycle_witness,
                               extensions_equivalent, extract_cocycle,
                               pushout, quotient_mod_center)
from discred.grouptable import (cyclic, direct_product, find_isomorphism,
                                from_generators)


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
