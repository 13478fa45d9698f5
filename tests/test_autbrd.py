import itertools
import json
import os
import re
import sys

import pytest

from discred import autbrd, cohomology, exactlin, rootdatum, standard
from discred.abgroup import AbHom, torsion_at
from discred.autbrd import (AdHom, BRDAutomorphism, ad_from_generator_images,
                            brd_automorphism, diagram_automorphisms,
                            induced_center_action, is_brd_automorphism,
                            trivial_ad, validate_ad)
from discred.cli import main
from discred.errors import ValidationError
from discred.exactlin import IntMatrix
from discred.grouptable import cyclic, from_generators
from discred.rootdatum import center_data


class TestIsBrdAutomorphism:
    def test_identity(self):
        based = standard.sl3()
        chk = is_brd_automorphism(based, IntMatrix.identity(2))
        assert chk.ok and chk.permutation == (0, 1)

    def test_a2_flip(self):
        based = standard.sl3()
        T = IntMatrix.from_rows([[0, 1], [1, 0]])
        chk = is_brd_automorphism(based, T)
        assert chk.ok and chk.permutation == (1, 0)

    def test_minus_identity_rejected(self):
        based = standard.sl3()
        T = IntMatrix.from_rows([[-1, 0], [0, -1]])
        chk = is_brd_automorphism(based, T)
        assert not chk.ok and "simple root" in chk.witness

    def test_non_unimodular_rejected(self):
        based = standard.sl2()
        chk = is_brd_automorphism(based, IntMatrix.from_rows([[2]]))
        assert not chk.ok and "unimodular" in chk.witness

    def test_raising_constructor(self):
        based = standard.sl2()
        with pytest.raises(ValidationError):
            brd_automorphism(based, IntMatrix.from_rows([[-1]]))


class TestDiagramAutomorphisms:
    @pytest.mark.parametrize("builder,count", [
        (standard.sl2, 1), (standard.pgl2, 1), (standard.sl3, 2),
        (standard.pgl3, 2), (standard.a1xa1_adjoint, 2), (standard.b2, 1),
        (standard.g2, 1), (standard.d4_adjoint, 6),
    ])
    def test_counts(self, builder, count):
        res = diagram_automorphisms(builder())
        assert len(res.automorphisms) == count
        assert res.non_lifting == ()

    def test_group_closure(self):
        autos = diagram_automorphisms(standard.d4_adjoint()).automorphisms
        perms = {a.simple_root_permutation for a in autos}
        for a in autos:
            for b in autos:
                assert a.compose(b).simple_root_permutation in perms

    def test_torus_rejected(self):
        with pytest.raises(ValidationError, match="semisimple"):
            diagram_automorphisms(standard.gl2())


class TestInducedCenterAction:
    def test_gl2_swap_inverts(self):
        cd = center_data(standard.gl2().datum)
        T = brd_automorphism(standard.gl2(),
                             IntMatrix.from_rows([[0, -1], [-1, 0]]))
        for n in (2, 4, 8):
            act = induced_center_action(cd, T, n)
            x = (1,)
            assert act.apply(x) == ((n - 1) % n,)

    def test_identity_acts_trivially(self):
        cd = center_data(standard.sl3().datum)
        ident = BRDAutomorphism.identity(standard.sl3())
        act = induced_center_action(cd, ident, 3)
        assert act.is_identity_of(torsion_at(cd.group, 3))

    def test_sl3_flip_inverts(self):
        cd = center_data(standard.sl3().datum)
        T = brd_automorphism(standard.sl3(),
                             IntMatrix.from_rows([[0, 1], [1, 0]]))
        act = induced_center_action(cd, T, 3)
        assert act.apply((1,)) == (2,)

    def test_functorial(self):
        cd = center_data(standard.gl2().datum)
        T = brd_automorphism(standard.gl2(),
                             IntMatrix.from_rows([[0, -1], [-1, 0]]))
        act = induced_center_action(cd, T, 8)
        assert act.composite_equals(act,
                                    AbHom.identity(torsion_at(cd.group, 8)))

    @pytest.mark.parametrize("builder", [standard.gl2, standard.sl3,
                                         standard.sl2, standard.d4_adjoint,
                                         lambda: standard.torus(3)])
    def test_matrix_well_formed(self, builder):
        """The action matrix, wrapped without the constructor's check,
        has the shape it declares, at levels with and without torsion
        coordinates."""
        based = builder()
        cd = center_data(based.datum)
        T = BRDAutomorphism.identity(based)
        for n in (1, 2, 3, 4, 6):
            M = induced_center_action(cd, T, n).matrix
            assert IntMatrix(M.rows, M.cols, M.entries) == M
            assert all(type(r) is tuple for r in M.entries)


class TestAdHom:
    def test_trivial_valid(self):
        based = standard.sl2()
        ad = trivial_ad(based, cyclic(3))
        assert validate_ad(based, ad) is None

    def test_each_distinct_image_checked_once(self, monkeypatch, capsys):
        """A trivial ad over C2 is not checked image by image at all:
        ``trivial_ad`` records the datum its identity images are
        distinguished automorphisms of, and ``check`` validates the ad
        against that datum.  (Its one distinct image matrix was checked
        once before ``checked_against`` existed.)"""
        calls = []
        inner = autbrd.is_brd_automorphism
        monkeypatch.setattr(autbrd, "is_brd_automorphism",
                            lambda *a: calls.append(a) or inner(*a))
        assert main(["check", "--input",
                     _problem("sl2_z2_trivial.json")]) == 0
        assert len(calls) == 0

    def test_trust_holds_only_for_the_checked_datum(self):
        """The SL3 flip passed its constructor's check on SL3; validated
        against GL2 it is checked again, and element 1 is named."""
        ad = ad_from_generator_images(standard.sl3(), cyclic(2),
                                      [[[0, 1], [1, 0]]])
        assert ad.checked_against == standard.sl3()
        assert ad == AdHom(ad.gamma, ad.images)     # an uncompared field
        assert validate_ad(standard.sl3(), ad) is None
        msg = validate_ad(standard.gl2(), ad)
        assert msg is not None and msg.startswith("image of element 1 fails")

    @pytest.mark.parametrize("command", ["check", "classify"])
    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src", "discred",
                                           "problems"))
        if f.endswith(".json")))
    def test_bundled_images_checked_only_by_constructors(
            self, monkeypatch, capsys, command, name):
        """``check`` and ``classify`` check each image once, in the
        constructor that built the ad, never again in ``validate_ad``."""
        callers = []
        inner = autbrd.is_brd_automorphism

        def spy(*args):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return inner(*args)
        monkeypatch.setattr(autbrd, "is_brd_automorphism", spy)
        assert main([command, "--input", _problem(name)]) == 0
        constructors = {"ad_from_generator_images", "ad_from_element_images"}
        for names in callers:
            assert "validate_ad" not in names
            assert names & constructors

    def test_shared_bad_image_named_by_first_element(self, monkeypatch):
        """Elements 1 and 2 of C3 carry one non-unimodular matrix: it is
        checked once and named by element 1, as when each element's image
        was checked."""
        based = standard.sl2()
        gamma = cyclic(3)
        bad = BRDAutomorphism(IntMatrix.from_rows([[2]]), (0,))
        images = [BRDAutomorphism.identity(based), bad, bad]
        calls = []
        inner = autbrd.is_brd_automorphism
        monkeypatch.setattr(autbrd, "is_brd_automorphism",
                            lambda *a: calls.append(a) or inner(*a))
        assert validate_ad(based, AdHom(gamma, tuple(images))) == (
            "image of element 1 fails: matrix is not unimodular (|det| 2)")
        assert len(calls) == 2
        good = BRDAutomorphism.identity(based)
        assert validate_ad(based, AdHom(gamma, (good, good, bad))) == (
            "image of element 2 fails: matrix is not unimodular (|det| 2)")

    def test_flip_under_z2(self):
        based = standard.sl3()
        ad = ad_from_generator_images(based, cyclic(2), [[[0, 1], [1, 0]]])
        assert validate_ad(based, ad) is None

    def test_flip_under_z3_rejected(self):
        based = standard.sl3()
        ad = ad_from_generator_images(based, cyclic(3), [[[0, 1], [1, 0]]])
        msg = validate_ad(based, ad)
        assert msg is not None and "homomorphism" in msg

    def test_triality(self):
        based = standard.d4_adjoint()
        s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
        swap02 = [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
        cyc = [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        ad = ad_from_generator_images(based, s3, [swap02, cyc])
        assert validate_ad(based, ad) is None
        perms = {a.simple_root_permutation for a in ad.images}
        assert len(perms) == 6

    @pytest.mark.parametrize("gamma", [
        cyclic(2),
        from_generators(3, [(1, 0, 2), (1, 2, 0)]),
        from_generators(4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
        from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    ], ids=["C2", "S3", "D4", "S4"])
    def test_tree_images_match_word_walk(self, gamma):
        """Each image built from its parent's image along the closure tree
        equals the product of generator images along the element's word,
        read off the tree and walked from the identity.  The torus images
        do not commute and define no homomorphism, so a change in the
        product order would show."""
        based = standard.torus(3)
        mats = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 0, 1], [1, 0, 0], [0, 1, 0]]][:gamma.generator_count]
        ad = ad_from_generator_images(based, gamma, mats)
        words = [()]
        for parent, gi in gamma.closure_tree[1:]:
            words.append(words[parent] + (gi,))
        gens = [IntMatrix.from_rows(m) for m in mats]
        assert len(ad.images) == len(words) == gamma.order
        for image, word in zip(ad.images, words):
            walk = IntMatrix.identity(3)
            for gi in word:
                walk = walk @ gens[gi]
            assert image.matrix.entries == walk.entries

    @pytest.mark.parametrize("gamma,count", [
        (cyclic(2), 0), (cyclic(2), 3), (cyclic(1), 1),
        (from_generators(3, [(1, 0, 2), (1, 2, 0)]), 1),
    ], ids=["C2-0", "C2-3", "C1-1", "S3-1"])
    def test_wrong_matrix_count_rejected(self, gamma, count):
        based = standard.gl2()
        swap = [[0, 1], [1, 0]]
        with pytest.raises(ValidationError, match="one matrix per gamma "
                                                  "generator"):
            ad_from_generator_images(based, gamma, [swap] * count)


def _all_pairs_failures(ad):
    """Every pair (x, y) with Ad(x)Ad(y) != Ad(xy)."""
    G, im = ad.gamma, ad.images
    return [(x, y) for x in G.elements() for y in G.elements()
            if (im[x].matrix @ im[y].matrix).entries
            != im[G.mul(x, y)].matrix.entries]


class TestGeneratorPairs:
    def test_against_all_pairs_on_perturbed_triality(self):
        """Checking Ad(x)Ad(s) = Ad(xs) only for s in a generating set
        accepts exactly the maps the check on all pairs accepts, and a
        rejection names a pair that really fails.  The maps: the triality
        action of S3 on D4 with its images permuted over the non-identity
        elements, or with one image replaced."""
        based = standard.d4_adjoint()
        s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
        swap02 = [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
        cyc = [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        images = ad_from_generator_images(based, s3, [swap02, cyc]).images
        others = [g for g in s3.elements() if g != s3.identity]
        perturbed = []
        for perm in itertools.permutations(others):
            im = list(images)
            for g, h in zip(others, perm):
                im[g] = images[h]
            perturbed.append(im)
        for g in others:
            for h in s3.elements():
                im = list(images)
                im[g] = images[h]
                perturbed.append(im)
        verdicts = set()
        for im in perturbed:
            ad = AdHom(s3, tuple(im))
            bad = _all_pairs_failures(ad)
            msg = validate_ad(based, ad)
            verdicts.add(msg is None)
            if msg is None:
                assert bad == []
            else:
                pair = tuple(map(int, re.search(r"pair \((\d+), (\d+)\)",
                                                msg).groups()))
                assert pair in bad
        assert verdicts == {True, False}

    def test_first_failing_pair_with_repeated_images(self):
        """Each distinct triple of image matrices is checked once; a
        rejection still names the first pair (x, s), s in
        ``gamma.generators``, that fails when the pairs are checked one
        by one.  The maps: S3 to the identity and two triality images,
        every element with its own copy, so triples repeat."""
        based = standard.d4_adjoint()
        s3 = from_generators(3, [(1, 0, 2), (1, 2, 0)])
        swap02 = [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
        cyc = [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        triality = ad_from_generator_images(based, s3, [swap02, cyc]).images
        pool = [triality[s3.identity]] + [triality[s] for s in s3.generators]
        others = [g for g in s3.elements() if g != s3.identity]
        verdicts = set()
        for choice in itertools.product(pool, repeat=len(others)):
            im = [triality[s3.identity]] * s3.order
            for g, a in zip(others, choice):
                im[g] = BRDAutomorphism(IntMatrix.from_rows(a.matrix.entries),
                                        a.simple_root_permutation)
            want = next(((x, s) for x in s3.elements() for s in s3.generators
                         if (im[x].matrix @ im[s].matrix).entries
                         != im[s3.mul(x, s)].matrix.entries), None)
            msg = validate_ad(based, AdHom(s3, tuple(im)))
            verdicts.add(want is None)
            assert msg == (None if want is None else
                           f"homomorphism property fails at pair "
                           f"({want[0]}, {want[1]}): Ad(x)Ad(y) != Ad(xy)")
        assert verdicts == {True, False}


class TestInverseOncePerElement:
    def test_inverse_matrix(self):
        based = standard.d4_adjoint()
        cyc = [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        T = brd_automorphism(based, IntMatrix.from_rows(cyc, cols=4))
        assert (T.matrix @ T.inverse_matrix).entries == \
            IntMatrix.identity(4).entries
        assert T.inverse_matrix is T.inverse_matrix

    def test_d4_triality_classify_smith_forms(self, monkeypatch, capsys):
        """D4 adjoint has a trivial center, so its tower levels have no
        coordinates and no ad image is inverted; the based datum is
        validated once on one Smith form of its simple roots, each of the
        two generator images is found unimodular by one Smith form of its
        matrix, and the center's cokernel keeps the inverse of its
        transform from its own Smith form: 4 Smith forms in all (2 before
        the images' unimodularity was read off a Smith form rather than a
        determinant), where a second Smith form for the independence
        check took one more, inverting the six images once each took 7
        more, inverting at each of the four levels took 28 more,
        validating twice took 10 more and inverting the cokernel
        transform afterwards took 8 more."""
        counts = _classify_counts(monkeypatch, capsys,
                                  _problem("d4_adjoint_s3.json"))
        assert counts == {"smith_normal_form": 4, "inverse_unimodular": 0}

    @pytest.mark.parametrize("n", [2, 4])
    def test_center_tower_inverts_each_distinct_image_once(
            self, monkeypatch, capsys, tmp_path, n):
        """GL2 has center C*, so every level has coordinates.  The swap
        under C2 gives two distinct images, and under C4 four images with
        two distinct matrices: two inverses either way, where inverting
        each element's image took four inverses and 25 Smith forms over
        C4.  The generator acts on the level Z/m by inversion, so d_2 has
        the one row 2 e_C mod m: a unit-pivot elimination leaves a 1 x 1
        core for a congruence kernel Smith form at every level but C2's
        first (m = 2, where the row is 0 mod 2).  The center is a torus
        with e = 0, so only levels 1 and k_used = 2 are computed, and
        levels 3 and 4 list the order of level 2: 8 Smith forms over C2
        and 9 over C4, where computing all four levels took 13 and 14
        (with the image's two below), and the dense kernel of d_2 one
        more at every level.  The one generator image is found unimodular
        by one more Smith form of its matrix: 9 and 10 in all.  The stable group is the one image of level
        1 in level 2, one Smith form: the congruence kernel of its span,
        where a kernel and then a cokernel took two.  The comparison loop
        that picked the level also formed the images of level 1 in 3, 2
        in 3, 2 in 4 and 3 in 4, two Smith forms each, 22 in all."""
        with open(_problem("gl2_z2_swap.json")) as fh:
            data = json.load(fh)
        data["gamma"] = {"type": "cyclic", "n": n}
        path = tmp_path / "gl2_swap.json"
        path.write_text(json.dumps(data))
        counts = _classify_counts(monkeypatch, capsys, str(path))
        assert counts == {"smith_normal_form": {2: 9, 4: 10}[n],
                          "inverse_unimodular": 2}


def _problem(name):
    return os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems", name)


def _classify_counts(monkeypatch, capsys, problem):
    """Smith forms and T^{-1} inversions of one ``classify`` CLI call,
    wherever a module calls them from."""
    counts = {"smith_normal_form": 0, "inverse_unimodular": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (exactlin, autbrd, cohomology, rootdatum):
        counting(module, "smith_normal_form")
    counting(autbrd, "inverse_unimodular")
    assert main(["classify", "--input", problem, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tower_orders"]
    return counts
