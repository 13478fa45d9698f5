"""End-to-end acceptance criteria, one test (and one printed verdict
line) per criterion."""

import json
import os
import sys

from discred import standard
from discred.abgroup import (AbHom, DiagonalizableGroup, FGAbelianGroup,
                             torsion_at)
from discred.autbrd import (ad_from_generator_images, diagram_automorphisms,
                            trivial_ad)
from discred.cli import main as cli_main
from discred.cohomology import (Cochain, cohomology_group, differential,
                                eckmann_check, gamma_module, stabilized_h2,
                                trivial_module)
from discred.errors import ValidationError
from discred.exactlin import IntMatrix
from discred.extension import (build_extension, classify, cocycle_witness,
                               extract_cocycle, pushout, quotient_mod_center)
from discred.grouptable import cyclic, from_generators
from discred.rootdatum import center, positive_systems, weyl_generate

import acceptance_log
from bruteforce import h2_by_enumeration, structure_from_class_orders
from grouptable_reference import direct_product


def verdict(num, ok, text):
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} - {text}"
    acceptance_log.record(line)
    print(line, file=sys.stderr)
    assert ok, line


def Z(*f):
    return FGAbelianGroup(0, f)


def test_criterion_01_weyl_group_orders():
    expected = {
        standard.sl2: 2, standard.pgl2: 2, standard.gl2: 2,
        standard.sl3: 6, standard.b2: 8, standard.g2: 12,
        standard.a1xa1_adjoint: 4,
    }
    got = {b: weyl_generate(b()).order for b in expected}
    verdict(1, got == expected,
            "Weyl group orders for SL2/PGL2/GL2/A2/B2/G2/A1xA1 are "
            "2/2/2/6/8/12/4")


def test_criterion_02_positive_systems_bijection():
    ok = True
    for builder in (standard.sl2, standard.gl2, standard.sl3, standard.b2,
                    standard.g2, standard.a1xa1_adjoint, standard.d4_adjoint):
        based = builder()
        W = weyl_generate(based)
        systems = positive_systems(W, based)
        ok = ok and len(systems) == W.order
        ok = ok and sorted(s.index for s in systems) == list(range(W.order))
        ok = ok and len({s.roots for s in systems}) == W.order
        # each w carries R+, the system of the identity, onto its system
        roots = based.datum.roots
        pos = [roots.index(b) for s in systems if s.index == 0
               for b in s.roots]
        ok = ok and all(tuple(sorted(roots[W.permutations[s.index][j]]
                                     for j in pos)) == s.roots
                        for s in systems)
    verdict(2, ok, "positive systems biject with Weyl elements, each "
                   "reached by a unique w")


def test_criterion_03_centers():
    got = (center(standard.sl2().datum).describe(),
           center(standard.pgl2().datum).describe(),
           center(standard.gl2().datum).describe())
    verdict(3, got == ("Z/2", "1", "C*"),
            "centers: SL2 -> Z/2, PGL2 -> 1, GL2 -> C*")


def test_criterion_04_diagram_automorphisms():
    d4 = diagram_automorphisms(standard.d4_adjoint())
    a2 = diagram_automorphisms(standard.sl3())
    aa = diagram_automorphisms(standard.a1xa1_adjoint())
    ok = (len(d4.automorphisms), len(a2.automorphisms),
          len(aa.automorphisms)) == (6, 2, 2)
    ok = ok and d4.non_lifting == () and a2.non_lifting == ()
    verdict(4, ok, "diagram automorphism counts: D4 -> 6, A2 -> 2, "
                   "A1xA1 -> 2, all lifting")


def _oracle_instances():
    c2, c3, c4, c5, c6 = (cyclic(n) for n in (2, 3, 4, 5, 6))
    k4 = direct_product(c2, c2)
    s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])

    def inv(a):
        n = a.ncoords
        return AbHom(a, a, IntMatrix.from_rows(
            [[(f - 1) if i == j else 0 for j in range(n)]
             for i, f in enumerate(a.invariant_factors)]))

    def swap(a):
        return AbHom(a, a, IntMatrix.from_rows([[0, 1], [1, 0]]))

    insts = []
    for g, a in [(c2, Z(2)), (c2, Z(3)), (c2, Z(4)), (c2, Z(8)),
                 (c2, Z(2, 2)), (c2, Z(2, 4)), (c3, Z(3)), (c3, Z(4)),
                 (c3, Z(2, 2)), (c4, Z(2)), (c4, Z(4)), (c4, Z(2, 2)),
                 (k4, Z(2)), (k4, Z(4)), (c5, Z(5)), (c6, Z(2)),
                 (c6, Z(3)), (s3, Z(2)), (s3, Z(3))]:
        insts.append(trivial_module(g, a))
    insts.append(gamma_module(c2, Z(4), (AbHom.identity(Z(4)), inv(Z(4)))))
    insts.append(gamma_module(c2, Z(8), (AbHom.identity(Z(8)), inv(Z(8)))))
    insts.append(gamma_module(c2, Z(2, 2),
                              (AbHom.identity(Z(2, 2)), swap(Z(2, 2)))))
    insts.append(gamma_module(
        c4, Z(3), tuple(inv(Z(3)) if g % 2 else AbHom.identity(Z(3))
                        for g in range(4))))
    insts.append(gamma_module(
        s3, Z(3), tuple(AbHom.identity(Z(3)) if s3.element_order(g) in (1, 3)
                        else inv(Z(3)) for g in range(6))))
    return insts


def test_criterion_05_oracle_agreement():
    insts = _oracle_instances()
    assert len(insts) >= 20
    ok = True
    for M in insts:
        order, class_orders = h2_by_enumeration(M)
        factors = structure_from_class_orders(order, class_orders)
        H = cohomology_group(M, 2)
        ok = ok and tuple(factors) == H.group.invariant_factors
    verdict(5, ok, f"H^2 matches brute-force enumeration on {len(insts)} "
                   f"instances (|Gamma| <= 6, |A| <= 8)")


def test_criterion_06_transfer_bound():
    mods = [trivial_module(cyclic(2), Z(8)),
            trivial_module(cyclic(4), Z(4)),
            trivial_module(from_generators(3, [(1, 0, 2), (1, 2, 0)]), Z(4)),
            trivial_module(direct_product(cyclic(2), cyclic(2)), Z(2, 4))]
    mods.append(gamma_module(cyclic(2), Z(8),
                             (AbHom.identity(Z(8)),
                              AbHom(Z(8), Z(8), IntMatrix.from_rows([[7]])))))
    ok = all(eckmann_check(M, p) for M in mods for p in (1, 2))
    verdict(6, ok, "|Gamma| kills H^1 and H^2 on all sampled modules")


def test_criterion_07_torsion_tower():
    c2 = cyclic(2)
    cstar = DiagonalizableGroup(1, Z())
    triv = stabilized_h2(c2, cstar,
                         lambda m: trivial_module(c2, torsion_at(cstar, m)))

    def inv_module(m):
        a = torsion_at(cstar, m)
        return gamma_module(c2, a, (AbHom.identity(a),
                                    AbHom(a, a,
                                          IntMatrix.from_rows([[m - 1]]))))

    inv = stabilized_h2(c2, cstar, inv_module)
    ok = triv.group.invariant_factors == ()
    ok = ok and inv.group.invariant_factors == (2,)
    ok = ok and all(o == 2 for o in triv.tower_orders)
    verdict(7, ok, "C* tower: trivial action stabilizes to 0 (despite "
                   "H = Z/2 at every level), inversion to Z/2")


def test_criterion_08_extension_round_trip():
    ok = True
    # round trip on several (module, cocycle) pairs
    cases = []
    M1 = trivial_module(c2 := cyclic(2), Z(2))
    cases.append((M1, Cochain.from_map(2, {(0, 0): (0,), (0, 1): (0,),
                                           (1, 0): (0,), (1, 1): (1,)})))
    M2 = gamma_module(c2, Z(4), (AbHom.identity(Z(4)),
                                 AbHom(Z(4), Z(4),
                                       IntMatrix.from_rows([[3]]))))
    H2 = cohomology_group(M2, 2)
    for cls in H2.classes():
        cases.append((M2, cls.representative))
    M3 = trivial_module(cyclic(3), Z(3))
    for cls in cohomology_group(M3, 2).classes():
        cases.append((M3, cls.representative))
    for M, c in cases:
        model = build_extension(M, c)
        back = extract_cocycle(M, model.group, model.embed, model.project,
                               model.section)
        ok = ok and back.as_dict() == {k: M.coeff.reduce(v)
                                       for k, v in c.values}
    # associativity fails exactly when the cocycle identity fails
    vals = {(a, b): (0,) for a in range(3) for b in range(3)}
    vals[(1, 1)] = (1,)
    bad = Cochain.from_map(2, vals)
    w = cocycle_witness(M3, bad)
    ok = ok and w is not None
    try:
        build_extension(M3, bad)
        ok = False
    except ValidationError as e:
        ok = ok and str(w) in str(e)
    verdict(8, ok, "cocycle -> model -> cocycle round trip; associativity "
                   "check fails exactly on non-cocycles with a witness triple")


def _pushout_instances():
    """(G, z, act, module, cocycle-class) stand-ins, |G x| E~| <= 48."""
    insts = []
    triv2 = trivial_module(cyclic(2), Z(2))
    triv3 = trivial_module(cyclic(3), Z(3))
    c_non2 = Cochain.from_map(2, {(0, 0): (0,), (0, 1): (0,),
                                  (1, 0): (0,), (1, 1): (1,)})
    zero2 = Cochain.from_map(2, {k: (0,) for k in
                                 [(0, 0), (0, 1), (1, 0), (1, 1)]})
    ident = lambda G: tuple(tuple(range(G.order)) for _ in range(2))
    # G = Z/4, A = {0, 2}
    g4 = cyclic(4)
    insts.append((g4, (0, 2), ident(g4), triv2, zero2))
    insts.append((g4, (0, 2), ident(g4), triv2, c_non2))
    # G = Z/2, A = G
    g2 = cyclic(2)
    insts.append((g2, (0, 1), ident(g2), triv2, zero2))
    insts.append((g2, (0, 1), ident(g2), triv2, c_non2))
    # G = Z/8, A = {0, 4}
    g8 = cyclic(8)
    insts.append((g8, (0, 4), ident(g8), triv2, zero2))
    insts.append((g8, (0, 4), ident(g8), triv2, c_non2))
    # G = Z/2 x Z/4, A embedded in the second factor
    g24 = direct_product(cyclic(2), cyclic(4))
    z24 = (0, 2)  # (0,0) and (0,2)
    insts.append((g24, z24, ident(g24), triv2, zero2))
    insts.append((g24, z24, ident(g24), triv2, c_non2))
    # G = Z/4 with the inversion automorphism as the Gamma action
    inv4 = (0, 3, 2, 1)
    insts.append((g4, (0, 2), (tuple(range(4)), inv4), triv2, zero2))
    insts.append((g4, (0, 2), (tuple(range(4)), inv4), triv2, c_non2))
    # G = Z/3, A = G, Gamma = Z/3
    g3 = cyclic(3)
    act3 = tuple(tuple(range(3)) for _ in range(3))
    zero3 = Cochain.from_map(2, {(a, b): (0,) for a in range(3)
                                 for b in range(3)})
    H3 = cohomology_group(triv3, 2)
    non3 = H3.class_representative((1,))
    insts.append((g3, (0, 1, 2), act3, triv3, zero3))
    insts.append((g3, (0, 1, 2), act3, triv3, non3))
    return insts


def test_criterion_09_pushout_contracts():
    insts = _pushout_instances()
    assert len(insts) >= 10
    ok = True
    for G, z, act, M, c in insts:
        model = build_extension(M, c)
        assert G.order * model.group.order <= 48
        push = pushout(G, z, act, model)
        ok = ok and push.checks.antidiagonal_is_normal
        ok = ok and push.checks.kernel_is_antidiagonal
        ok = ok and push.checks.order == G.order * M.gamma.order
        ok = ok and quotient_mod_center(G, z, act, push) is not None
    verdict(9, ok, f"pushout on {len(insts)} models: antidiagonal normal "
                   f"kernel, |E| = |G||Gamma|, E/Z = (G/Z) x| Gamma")


def test_criterion_10_classification(capsys):
    sl2 = standard.sl2()
    cls_sl2 = classify(sl2, trivial_ad(sl2, cyclic(2)))
    pgl2 = standard.pgl2()
    cls_pgl2 = classify(pgl2, trivial_ad(pgl2, cyclic(2)))
    ok = len(cls_sl2.descriptors) == 2 and len(cls_pgl2.descriptors) == 1
    ok = ok and sum(d.is_split for d in cls_sl2.descriptors) == 1

    problems = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                            "discred", "problems")
    outs = []
    for _ in range(2):
        code = cli_main(["classify", "--input",
                         os.path.join(problems, "sl2_z2_trivial.json"),
                         "--format", "json"])
        outs.append(capsys.readouterr().out.encode())
        ok = ok and code == 0
    ok = ok and outs[0] == outs[1] and json.loads(outs[0])
    verdict(10, ok, "SL2/Z2-trivial has 2 classes, PGL2 has 1; repeated "
                    "JSON reports are byte-identical")
