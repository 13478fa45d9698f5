import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import rootdatum, standard
from discred.errors import (BudgetExceededError, InternalCheckError,
                            ValidationError)
from discred.exactlin import IntMatrix
from discred.grouptable import closure, compose
from discred.cli import _parse_based, load_problem, main
from rootdatum_reference import reference_positive_systems, reflection
from validate_reference import (reference_coefficients, reference_defect,
                                reference_validate)

from discred.rootdatum import (BasedRootDatum, RootDatum, center, dynkin,
                               positive_systems, validate_based,
                               weyl_generate)

ALL_DATA = {
    "sl2": standard.sl2,
    "pgl2": standard.pgl2,
    "gl2": standard.gl2,
    "sl3": standard.sl3,
    "pgl3": standard.pgl3,
    "a1xa1": standard.a1xa1_adjoint,
    "b2": standard.b2,
    "g2": standard.g2,
    "d4": standard.d4_adjoint,
}


def explicit(based):
    """The based datum with its roots given explicitly: no record of the
    closure that built it."""
    return BasedRootDatum(based.datum, based.simple_indices)


def _reduced(datum):
    """No root is twice another."""
    roots = set(datum.roots)
    return not any(tuple(2 * x for x in b) in roots for b in roots)


class TestValidation:
    @pytest.mark.parametrize("name", sorted(ALL_DATA))
    def test_standard_data_valid(self, name):
        based = ALL_DATA[name]()
        assert validate_based(based) is None
        assert validate_based(explicit(based)) is None

    def test_torus_valid(self):
        assert validate_based(standard.torus(3)) is None

    def test_bad_pairing(self):
        d = RootDatum(1, ((2,),), ((2,),))
        assert validate_based(BasedRootDatum(d, (0,))) == (
            "pairing <coroot, root> != 2 for pair 0: <(2,), (2,)> = 4")

    def test_duplicate_root(self):
        d = RootDatum(1, ((2,), (2,)), ((1,), (1,)))
        assert validate_based(BasedRootDatum(d, (0,))) == (
            "duplicate root (2,)")

    def test_reflection_not_permuting(self):
        # roots {2e, 4e} cannot be a root system in rank 1
        d = RootDatum(1, ((2,), (-2,), (4,)), ((1,), (-1,), (0,)))
        assert validate_based(BasedRootDatum(d, (0,))) is not None

    def test_based_dependence(self):
        d = standard.gl2().datum
        # both roots of GL2 as "simple" roots: +/- pair is dependent
        based = BasedRootDatum(d, (0, 1))
        assert validate_based(based) == "simple roots are linearly dependent"


@st.composite
def _perturbed(draw):
    """A standard datum with its standard simple indices and one root or
    coroot entry changed, or one root (with its coroot) dropped."""
    based = ALL_DATA[draw(st.sampled_from(sorted(ALL_DATA)))]()
    datum = based.datum
    roots, coroots = list(datum.roots), list(datum.coroots)
    k = draw(st.integers(0, len(roots) - 1))
    kind = draw(st.sampled_from(["root", "coroot", "drop"]))
    if kind == "drop":
        del roots[k], coroots[k]
    else:
        vecs = roots if kind == "root" else coroots
        i = draw(st.integers(0, datum.rank - 1))
        v = list(vecs[k])
        v[i] += draw(st.integers(-3, 3).filter(bool))
        vecs[k] = tuple(v)
    return BasedRootDatum(RootDatum(datum.rank, roots, coroots),
                          based.simple_indices)


def matrix_validate(datum):
    """The root-datum axioms with reflection matrices: the reflection at
    each root and its transpose, the coreflection, applied to every root
    and coroot.  An oracle that shares no code with the tuple formula
    s(v) = v - <a^v, v> a."""
    if len(datum.roots) != len(datum.coroots):
        return "roots and coroots are not bijective (length mismatch)"
    seen = set()
    for k, (b, bv) in enumerate(zip(datum.roots, datum.coroots)):
        if len(b) != datum.rank or len(bv) != datum.rank:
            return f"root/coroot {k} has wrong length for rank {datum.rank}"
        if b in seen:
            return f"duplicate root {b}"
        seen.add(b)
        if datum.pairing(bv, b) != 2:
            return (f"pairing <coroot, root> != 2 for pair {k}: "
                    f"<{bv}, {b}> = {datum.pairing(bv, b)}")
    for k in range(datum.nroots):
        s = reflection(datum, k)
        for b in datum.roots:
            if s.apply(b) not in set(datum.roots):
                return (f"reflection at root {k} does not permute the roots "
                        f"(image of {b} is {s.apply(b)})")
        sv = s.transpose()
        for bv in datum.coroots:
            if sv.apply(bv) not in set(datum.coroots):
                return (f"coreflection at root {k} does not permute the "
                        f"coroots (image of {bv} is {sv.apply(bv)})")
    return None


class TestReflectionFormula:
    """The tuple formula s(v) = v - <a^v, v> a in the closure that checks
    explicit data, against the full check with the axioms checked by
    reflection matrices (``matrix_validate``): the same verdict on every
    reduced datum, and a rejection of every non-reduced one."""

    @pytest.mark.parametrize("name", sorted(ALL_DATA))
    def test_standard_data(self, name):
        based = explicit(ALL_DATA[name]())
        assert based.defect is None
        assert matrix_validate(based.datum) is None

    @settings(max_examples=300, deadline=None)
    @given(_perturbed())
    def test_perturbed_data(self, based):
        want = reference_defect(based, matrix_validate)
        if _reduced(based.datum):
            assert (based.defect is None) == (want is None)
        else:
            assert based.defect is not None


@st.composite
def _base_changed(draw):
    """A standard datum with its standard simple indices, moved by a
    random unimodular T: roots to T b, coroots to T^{-t} b^v (pairings
    unchanged), as a product of elementary matrices; then, when
    ``corrupt`` is drawn, perturbed as in ``_perturbed``."""
    based = ALL_DATA[draw(st.sampled_from(sorted(ALL_DATA)))]()
    datum = based.datum
    roots = [list(b) for b in datum.roots]
    coroots = [list(bv) for bv in datum.coroots]
    n = datum.rank
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i == j:
            continue
        for b in roots:        # T = 1 + c e_ij
            b[i] += c * b[j]
        for bv in coroots:     # T^{-t} = 1 - c e_ji
            bv[j] -= c * bv[i]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(roots) - 1))
        kind = draw(st.sampled_from(["root", "coroot", "drop", "swap"]))
        if kind == "drop":
            del roots[k], coroots[k]
        elif kind == "swap":
            j = draw(st.integers(0, len(roots) - 1))
            coroots[k], coroots[j] = coroots[j], coroots[k]
        else:
            vecs = roots if kind == "root" else coroots
            vecs[k][draw(st.integers(0, n - 1))] += draw(
                st.integers(-3, 3).filter(bool))
    return BasedRootDatum(RootDatum(n, roots, coroots), based.simple_indices)


def _check_exit(tmp_path_factory, based):
    """(exit code, stderr) of ``discred check`` on the based datum given
    by explicit roots."""
    datum = based.datum
    path = tmp_path_factory.mktemp("explicit") / "problem.json"
    path.write_text(json.dumps({
        "schema": 1, "gamma": {"type": "cyclic", "n": 1},
        "datum": {"rank": datum.rank, "roots": datum.roots,
                  "coroots": datum.coroots,
                  "simple_indices": based.simple_indices}}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "--input", str(path)])
    return code, err.getvalue()


class TestValidateKeys:
    """Explicit roots are checked by the closure of their simple data,
    where ``rootdatum.validate`` looked up reflected roots and coroots by
    linear keys.  Against the full check it replaced
    (``validate_reference``): the same verdict on every reduced datum,
    and a rejection of every non-reduced one, which the full check may
    accept.  ``discred check`` exits with that verdict and prints its
    message."""

    @staticmethod
    def _agree(tmp_path_factory, based):
        got, want = based.defect, reference_defect(based)
        if _reduced(based.datum):
            assert (got is None) == (want is None)
        else:
            assert got is not None
        assert _check_exit(tmp_path_factory, based) == (
            (0, "") if got is None else (1, f"error: {got}\n"))

    @pytest.mark.parametrize("name", sorted(ALL_DATA))
    def test_standard_data(self, name):
        based = explicit(ALL_DATA[name]())
        assert based.defect is None and reference_defect(based) is None

    @settings(max_examples=300, deadline=None)
    @given(based=_base_changed())
    def test_base_changed_data(self, tmp_path_factory, based):
        self._agree(tmp_path_factory, based)

    @settings(max_examples=300, deadline=None)
    @given(based=_perturbed())
    def test_perturbed_data(self, tmp_path_factory, based):
        self._agree(tmp_path_factory, based)

    def test_image_beyond_the_coordinates(self):
        """The image (-3, 1) of (1, 1) left the coordinate range of the
        roots, where a key base of 2 max|coordinate| + 1 = 5 made its key
        that of the root (2, 0).  The closure of (2, 0) never reaches
        (1, 1)."""
        d = RootDatum(2, ((2, 0), (-2, 0), (1, 1)),
                      ((1, 1), (-1, -1), (2, 0)))
        assert reference_validate(d) == (
            "reflection at root 0 does not permute the roots "
            "(image of (1, 1) is (-3, 1))")
        assert BasedRootDatum(d, (0,)).defect == (
            "root (1, 1) is not reached by the simple reflections")

    @pytest.mark.parametrize("simple,missing", [(0, (2,)), (2, (1,))])
    def test_bc1_rejected(self, tmp_path_factory, simple, missing):
        """BC_1 (roots +-e, +-2e) is not reduced: from either simple root
        the simple reflection never reaches the other pair, and ``check``
        exits 1 naming it.  The full check accepts it with e simple."""
        based = BasedRootDatum(RootDatum(1, [(1,), (-1,), (2,), (-2,)],
                                         [(2,), (-2,), (1,), (-1,)]),
                               (simple,))
        msg = f"root {missing} is not reached by the simple reflections"
        assert based.defect == msg
        assert (reference_defect(based) is None) == (simple == 0)
        assert _check_exit(tmp_path_factory, based) == (1, f"error: {msg}\n")

    def test_closure_work_is_bounded_by_the_datum(self, monkeypatch):
        """Affine A1 simple data (Cartan matrix [[2, -2], [-2, 2]]) close
        to infinitely many roots, so ``from_simple`` runs to
        ``ROOT_CAP``.  Explicit data listing a few of those roots are
        rejected at the first root the closure reaches that they do not
        list: at most one root more than they list, counted as the new
        roots the closure looks up in the datum."""
        simple, cosimple = [(1, 0), (0, 1)], [(2, -2), (-2, 2)]
        with pytest.raises(ValidationError,
                           match="^root system closure runaway$"):
            standard.from_simple(2, simple, cosimple)
        looked_up = []

        class Listed(dict):
            def __contains__(self, root):
                looked_up.append(root)
                return super().__contains__(root)

        inner = rootdatum.close_simple
        monkeypatch.setattr(rootdatum, "close_simple",
                            lambda r, c, listed: inner(r, c, Listed(listed)))
        # s_1 alpha_2 = 2 alpha_1 + alpha_2, s_2 alpha_1 = alpha_1 + 2 alpha_2
        roots = [(1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (1, 2),
                 (-2, -1), (-1, -2)]
        coroots = [(2, -2), (-2, 2), (-2, 2), (2, -2), (2, -2), (-2, 2),
                   (-2, 2), (2, -2)]
        for n in range(2, len(roots) + 1, 2):
            looked_up.clear()
            based = BasedRootDatum(RootDatum(2, roots[:n], coroots[:n]),
                                   (0, 1))
            assert "which is not a root" in based.defect
            # the simple roots and the roots looked up: at most n + 1
            assert len(set(looked_up)) == len(looked_up) <= n - 1
            assert [b for b in looked_up if b not in roots[:n]] == \
                looked_up[-1:]

    def test_named_messages(self):
        """The closure names the reflection that leaves the datum: to a
        vector the datum does not list, or to a root listed with another
        coroot than the transported one."""
        b2 = standard.b2()
        roots, coroots = list(b2.datum.roots), list(b2.datum.coroots)
        assert roots[-1] == coroots[-1] == (1, 1)
        short = BasedRootDatum(RootDatum(2, roots[:-1], coroots[:-1]),
                               (0, 1))
        assert short.defect == (
            "the reflection at simple root (0, 1) takes root (1, -1) to "
            "(1, 1), which is not a root")
        coroots[-1] = (2, 0)     # pairs to 2 with (1, 1) too
        wrong = BasedRootDatum(RootDatum(2, roots, coroots), (0, 1))
        assert wrong.defect == (
            "the reflection at simple root (0, 1) takes root (1, -1) to "
            "(1, 1) with coroot (1, 1), not (2, 0)")
        assert reference_defect(short) and reference_defect(wrong)


class TestWeyl:
    @pytest.mark.parametrize("name,order", [
        ("sl2", 2), ("pgl2", 2), ("gl2", 2), ("sl3", 6), ("pgl3", 6),
        ("b2", 8), ("g2", 12), ("a1xa1", 4), ("d4", 192),
    ])
    def test_orders(self, name, order):
        assert weyl_generate(ALL_DATA[name]()).order == order

    def test_reflections_are_involutions(self):
        d = standard.b2().datum
        for k in range(d.nroots):
            s = reflection(d, k)
            assert (s @ s).entries == tuple(
                tuple(int(i == j) for j in range(d.rank))
                for i in range(d.rank))

    def test_torus_weyl_trivial(self):
        assert weyl_generate(standard.torus(2)).order == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(rootdatum, "WEYL_CAP", 10)
        with pytest.raises(BudgetExceededError,
                           match="Weyl closure exceeds cap 10"):
            weyl_generate(standard.d4_adjoint())
        assert weyl_generate(standard.sl3()).order == 6


class TestPositiveSystems:
    @pytest.mark.parametrize("name", sorted(ALL_DATA))
    def test_bijection_with_weyl(self, name):
        based = ALL_DATA[name]()
        W = weyl_generate(based)
        systems = positive_systems(W, based)
        # w -> w.R+ is a bijection: each Weyl element is attached once,
        # and carries R+, the system of the identity, onto its system
        assert sorted(s.index for s in systems) == list(range(W.order))
        roots = based.datum.roots
        base = next(s for s in systems if s.index == 0)
        pos = [roots.index(b) for b in base.roots]
        for s in systems:
            w = W.permutations[s.index]
            assert tuple(sorted(roots[w[j]] for j in pos)) == s.roots

    def test_half_of_roots(self):
        based = standard.g2()
        systems = positive_systems(weyl_generate(based), based)
        base = next(s for s in systems if s.index == 0)
        assert len(base.roots) == based.datum.nroots // 2


def _d5_adjoint():
    # node 2 is the branch point; Cartan matrix rows are the coroots
    cartan = [(2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, -1),
              (0, 0, -1, 2, 0), (0, 0, -1, 0, 2)]
    simple = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    return standard.from_simple(5, simple, cartan)


def _gl5():
    # A4 inside GL5: roots and coroots e_i - e_{i+1}, a 1-dimensional center
    simple = [tuple(int(j == i) - int(j == i + 1) for j in range(5))
              for i in range(4)]
    return standard.from_simple(5, simple, simple)


REFERENCE_DATA = dict(ALL_DATA, d5=_d5_adjoint, a4=_gl5)


def matrix_weyl(based):
    """``weyl_generate`` as it was: the closure of the simple reflection
    matrices under matrix products.  The reference for the closure on
    root-index permutations."""
    gens = tuple(reflection(based.datum, i) for i in based.simple_indices)
    elems, _, _ = closure(IntMatrix.identity(based.datum.rank), gens,
                          IntMatrix.__matmul__, rootdatum.WEYL_CAP, "Weyl")
    return elems


def matrix_positive_systems(based, elems):
    """``positive_systems`` as it was, on matrices: (roots, entries of
    the Weyl element) for each image of R+."""
    simple = based.simple_roots
    base_pos = [b for b in based.datum.roots
                if all(x >= 0 for x in reference_coefficients(simple, b))]
    systems = {}
    for w in elems:
        img = tuple(sorted(w.apply(b) for b in base_pos))
        assert img not in systems
        systems[img] = w
    return [(s, systems[s].entries) for s in sorted(systems)]


class TestPermutationWeyl:
    """The Weyl group closed on root-index permutations against the
    matrix closure it replaced."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_DATA))
    def test_against_matrix_closure(self, name):
        based = REFERENCE_DATA[name]()
        roots = based.datum.roots
        W = weyl_generate(based)
        elems = matrix_weyl(based)
        assert W.order == len(elems)
        for perm, w in zip(W.permutations, elems):
            assert tuple(roots[j] for j in perm) == tuple(
                w.apply(b) for b in roots)
        systems = positive_systems(W, based)
        assert [(s.roots, elems[s.index].entries) for s in systems] == \
            matrix_positive_systems(based, elems)

    def test_orders_beyond_bundled(self):
        assert weyl_generate(_d5_adjoint()).order == 1920
        assert weyl_generate(_gl5()).order == 120

    def test_invalid_datum_rejected_before_closure(self):
        """B2 with roots[1] moved onto another root: the datum's own
        message, not a runaway closure of non-reflections."""
        based = standard.b2()
        roots = list(based.datum.roots)
        roots[1] = (roots[1][0] + 1, roots[1][1])
        bad = BasedRootDatum(RootDatum(2, roots, based.datum.coroots),
                             based.simple_indices)
        assert validate_based(bad) == "duplicate root (1, 1)"
        with pytest.raises(ValidationError, match=r"^duplicate root \(1, 1\)$"):
            weyl_generate(bad)
        with pytest.raises(ValidationError, match=r"^duplicate root \(1, 1\)$"):
            positive_systems(weyl_generate(based), bad)


class TestGetterWeyl:
    """``weyl_generate`` closes W through one itemgetter per simple
    reflection; the permutations are those of the closure under
    ``compose``."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_DATA))
    def test_against_compose_closure(self, name):
        based = REFERENCE_DATA[name]()
        datum = based.datum
        index = {b: j for j, b in enumerate(datum.roots)}
        perms = []
        for k in based.simple_indices:
            s = reflection(datum, k)
            perms.append(tuple(index[s.apply(b)] for b in datum.roots))
        elems, _, _ = closure(tuple(range(datum.nroots)), perms, compose,
                              rootdatum.WEYL_CAP, "Weyl")
        assert weyl_generate(based).permutations == tuple(elems)


_SIMPLE_FACTORS = ["sl2", "pgl2", "gl2", "sl3", "pgl3", "b2", "g2"]


@st.composite
def _simple_products(draw):
    """Simple roots and coroots of a product of A1, A2, B2 and G2
    factors, block-diagonally, moved by a random unimodular T (roots to
    T a, coroots to T^{-t} a^v) and listed in a drawn order."""
    blocks = [ALL_DATA[name]() for name in draw(st.lists(
        st.sampled_from(_SIMPLE_FACTORS), min_size=1, max_size=3))]
    rank = sum(b.datum.rank for b in blocks)
    roots, coroots, offset = [], [], 0
    for b in blocks:
        pad = (offset, rank - offset - b.datum.rank)
        roots += [[0] * pad[0] + list(a) + [0] * pad[1]
                  for a in b.simple_roots]
        coroots += [[0] * pad[0] + list(av) + [0] * pad[1]
                    for av in b.simple_coroots]
        offset += b.datum.rank
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        c = draw(st.integers(-2, 2))
        if i == j:
            continue
        for a in roots:        # T = 1 + c e_ij
            a[i] += c * a[j]
        for av in coroots:     # T^{-t} = 1 - c e_ji
            av[j] -= c * av[i]
    order = draw(st.permutations(range(len(roots))))
    return (rank, [tuple(roots[i]) for i in order],
            [tuple(coroots[i]) for i in order])


class TestRecordedCoefficients:
    """``from_simple`` records each root's coefficients in the simple
    roots as its closure finds the root.  A datum given by explicit roots
    has no record and closes its simple data once to find the same
    coefficients, and both equal the coefficients solved over Q
    (``reference_coefficients``)."""

    @staticmethod
    def _same_coefficients(based):
        assert validate_based(based) is None
        assert based.closure_coefficients is not None
        same = explicit(based)
        assert same == based and same.closure_coefficients is None
        assert validate_based(same) is None
        assert same.simple_coefficients == based.closure_coefficients == \
            tuple(reference_coefficients(based.simple_roots, b)
                  for b in based.datum.roots)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DATA))
    def test_standard_data(self, name):
        self._same_coefficients(REFERENCE_DATA[name]())

    @settings(max_examples=150, deadline=None)
    @given(_simple_products())
    def test_products_under_base_change(self, case):
        self._same_coefficients(standard.from_simple(*case))

    def test_explicit_roots_are_solved(self, monkeypatch):
        """An explicit datum's coefficients come from its own closure,
        with no Smith form of the simple roots to solve on."""
        based = standard.b2()
        same = explicit(based)
        monkeypatch.setattr(rootdatum, "smith_normal_form", None)
        assert same.simple_coefficients == based.closure_coefficients

    def test_simple_smith_keeps_transforms_only_to_solve(self, monkeypatch):
        """Nothing is solved on the Smith form of the simple roots, so it
        keeps no transform.  D4 by simple roots closes once, in
        ``from_simple``; the same D4 by explicit roots closes once, in
        its check, and no more for R+.  Each takes one Smith form of its
        simple roots, for their rank."""
        counts = {"close_simple": 0, "keeps": []}
        close, smith = rootdatum.close_simple, rootdatum.smith_normal_form

        def closing(*args):
            counts["close_simple"] += 1
            return close(*args)

        def recording(A, keep=("U", "V")):
            counts["keeps"].append(keep)
            return smith(A, keep=keep)
        for module in (rootdatum, standard):
            monkeypatch.setattr(module, "close_simple", closing)
        monkeypatch.setattr(rootdatum, "smith_normal_form", recording)
        closed = standard.d4_adjoint()
        assert counts == {"close_simple": 1, "keeps": []}
        assert validate_based(closed) is None
        assert counts == {"close_simple": 1, "keeps": [()]}
        same = explicit(closed)
        assert validate_based(same) is None
        assert positive_systems(weyl_generate(same), same)
        assert counts == {"close_simple": 2, "keeps": [(), ()]}

    def test_dependent_simple_roots_rejected(self):
        """A2 with alpha_1 + alpha_2 as a third simple root closes to the
        six roots of A2, where the closure records a mixed-sign
        coefficient vector; the rank of the simple roots rejects them
        before any coefficient is read."""
        based = standard.from_simple(2, [(2, -1), (-1, 2), (1, 1)],
                                     [(1, 0), (0, 1), (1, 1)])
        assert reference_validate(based.datum) is None
        assert any(min(k) < 0 < max(k) for k in based.closure_coefficients)
        msg = "simple roots are linearly dependent"
        assert validate_based(based) == msg
        assert validate_based(explicit(based)) == msg
        with pytest.raises(ValidationError, match=f"^{msg}$"):
            weyl_generate(based)


_PERTURBATIONS = ["none", "repeat", "repeat_coroot", "dependent",
                  "non_base", "negate", "bc1"]


@st.composite
def _perturbed_simple(draw):
    """``_simple_products`` simple data, perturbed (unless ``none`` is
    drawn) by one of: a simple pair repeated; a simple root repeated
    with another coroot that also pairs to 2 with it; a root of the
    system and its coroot added as a dependent simple pair; a simple pair
    replaced by another root of the system (a non-base set such as
    alpha_1 + alpha_2, or a duplicate) or by its negative; or a BC_1
    block e, 2e with coroots 2e, e on a new coordinate."""
    rank, roots, coroots = draw(_simple_products())
    roots, coroots = list(roots), list(coroots)
    kind = draw(st.sampled_from(_PERTURBATIONS))
    k = draw(st.integers(0, len(roots) - 1))
    at = draw(st.integers(0, len(roots)))
    if kind == "repeat":
        roots.insert(at, roots[k])
        coroots.insert(at, coroots[k])
    elif kind == "repeat_coroot":
        # c + 2u - <u, a> c pairs to 2 with a, as <c, a> = 2
        a, c = roots[k], coroots[k]
        u = draw(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank))
        m = sum(x * y for x, y in zip(u, a))
        roots.insert(at, a)
        coroots.insert(at, tuple(x + 2 * y - m * x for x, y in zip(c, u)))
    elif kind in ("dependent", "non_base"):
        datum = standard.from_simple(rank, roots, coroots).datum
        j = draw(st.integers(0, datum.nroots - 1))
        if kind == "dependent":
            roots.insert(at, datum.roots[j])
            coroots.insert(at, datum.coroots[j])
        else:
            roots[k], coroots[k] = datum.roots[j], datum.coroots[j]
    elif kind == "negate":
        roots[k] = tuple(-x for x in roots[k])
        coroots[k] = tuple(-x for x in coroots[k])
    elif kind == "bc1":
        rank += 1
        roots = [r + (0,) for r in roots]
        coroots = [c + (0,) for c in coroots]
        e = (0,) * (rank - 1)
        pairs = [(e + (1,), e + (2,)), (e + (2,), e + (1,))]
        for r, c in draw(st.permutations(pairs)):
            roots.insert(at, r)
            coroots.insert(at, c)
    return rank, roots, coroots


def _closure_verdict(case):
    """(exit code, stderr) that the CLI owes the simple data ``case``:
    ``from_simple``'s own error, else the verdict of ``reference_defect``
    on the datum it closed."""
    try:
        based = standard.from_simple(*case)
    except ValidationError as e:
        msg = str(e)
    else:
        msg = reference_defect(based)
    return (0, "") if msg is None else (1, f"error: {msg}\n")


class TestClosureVerdict:
    """A datum closed by ``from_simple`` keeps its closure's record, so
    its check closes nothing again.  Its verdict must equal the verdict
    and message of the full check (``reference_defect``) whenever
    ``from_simple`` returns."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_DATA))
    def test_standard_data(self, name):
        based = REFERENCE_DATA[name]()
        assert based.defect is None and reference_defect(based) is None

    @settings(max_examples=200, deadline=None)
    @given(_perturbed_simple())
    def test_perturbed_products(self, case):
        try:
            based = standard.from_simple(*case)
        except ValidationError:
            return
        assert based.defect == reference_defect(based)

    @settings(max_examples=150, deadline=None)
    @given(case=_perturbed_simple())
    def test_cli_exit_and_message(self, tmp_path_factory, case):
        rank, roots, coroots = case
        path = tmp_path_factory.mktemp("simple") / "problem.json"
        path.write_text(json.dumps({
            "schema": 1, "datum": {"rank": rank, "simple_roots": roots,
                                   "simple_coroots": coroots}}))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["center", "--input", str(path)])
        assert (code, err.getvalue()) == _closure_verdict(case)

    @pytest.mark.parametrize("rank,roots,coroots,msg", [
        (1, [(2,), (2,)], [(1,), (1,)], "duplicate root (2,)"),
        (2, [(1, 0), (0, 1), (1, 0)], [(2, -1), (-1, 2), (2, -1)],
         "duplicate root (1, 0)"),
        (1, [(1,), (2,)], [(2,), (1,)],
         "simple roots are linearly dependent"),
        (2, [(2, -1), (1, 1)], [(1, 0), (1, 1)],
         "root (-1, 2) is neither positive nor negative (coeffs (-1, 1))"),
        (2, [(-2, 1), (-1, 2)], [(-1, 0), (0, 1)],
         "root (-1, -1) is neither positive nor negative (coeffs (1, -1))"),
    ])
    def test_named_cases(self, rank, roots, coroots, msg):
        """A repeated simple pair, BC_1 and two non-bases of A2 pass the
        closure; each keeps the message of the full check."""
        based = standard.from_simple(rank, roots, coroots)
        assert based.defect == reference_defect(based) == msg
        assert reference_validate(based.datum) == (
            msg if msg.startswith("duplicate") else None)

    @pytest.mark.parametrize("roots,coroots", [
        ([(1, 0), (1, 0)], [(2, 0), (2, 1)]),
        ([(1, 0), (0, 1)], [(2, 0), (1, 2)]),
    ])
    def test_inconsistent_coroots_fail_the_closure(self, roots, coroots):
        """A simple root repeated with another coroot, and a zero pairing
        <alpha_1^v, alpha_2> = 0 against <alpha_2^v, alpha_1> = 1: s_1
        fixes alpha_2 but would move its coroot.  The closure raises at
        the first such edge; without the check the second one never
        closes."""
        with pytest.raises(ValidationError,
                           match="^inconsistent coroot transport"):
            standard.from_simple(2, roots, coroots)


class TestDynkin:
    def test_b2_labels(self):
        diag = dynkin(standard.b2())
        assert len(diag.vertices) == 2
        assert diag.edges == ((0, 1, -2, -1),)

    def test_g2_labels(self):
        diag = dynkin(standard.g2())
        (i, j, down, up) = diag.edges[0]
        assert sorted((abs(down), abs(up))) == [1, 3]

    def test_d4_star(self):
        diag = dynkin(standard.d4_adjoint())
        degree = {v: 0 for v in range(4)}
        for i, j, _, _ in diag.edges:
            degree[i] += 1
            degree[j] += 1
        assert sorted(degree.values()) == [1, 1, 1, 3]

    def test_a1xa1_disconnected(self):
        assert dynkin(standard.a1xa1_adjoint()).edges == ()


class TestCenter:
    @pytest.mark.parametrize("name,desc", [
        ("sl2", "Z/2"), ("pgl2", "1"), ("gl2", "C*"), ("sl3", "Z/3"),
        ("pgl3", "1"), ("b2", "1"), ("g2", "1"), ("d4", "1"),
        ("a1xa1", "1"),
    ])
    def test_known_centers(self, name, desc):
        assert center(ALL_DATA[name]().datum).describe() == desc

    def test_torus_center(self):
        assert center(standard.torus(2).datum).describe() == "C* x C*"


PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems")


def _same_positive_systems(W, based):
    """``positive_systems`` and the parent's version give the same
    systems, roots and Weyl indices in the same order."""
    got = positive_systems(W, based)
    want = reference_positive_systems(W, based)
    assert [(s.roots, s.index) for s in got] == \
        [(s.roots, s.index) for s in want]
    assert all(s.weyl is W for s in got)
    return got


class TestRankKeyedPositiveSystems:
    """``positive_systems`` keys each w.R+ by the sorted ranks of its
    root indices, against the root-tuple keys it replaced
    (``rootdatum_reference``)."""

    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(PROBLEMS) if f.endswith(".json")))
    def test_bundled_problems(self, name):
        based = _parse_based(load_problem(os.path.join(PROBLEMS, name)))
        _same_positive_systems(weyl_generate(based), based)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DATA))
    def test_standard_data(self, name):
        based = REFERENCE_DATA[name]()
        _same_positive_systems(weyl_generate(based), based)

    @settings(max_examples=60, deadline=None)
    @given(_simple_products())
    def test_products_under_base_change(self, case):
        based = standard.from_simple(*case)
        systems = _same_positive_systems(weyl_generate(based), based)
        assert sorted(s.index for s in systems) == list(
            range(len(systems)))

    @pytest.mark.parametrize("name", ["sl2", "b2", "d4"])
    def test_simple_transitivity_failure(self, name):
        """A W listing one permutation twice maps R+ to one system twice:
        both versions raise the same InternalCheckError."""
        based = ALL_DATA[name]()
        W = weyl_generate(based)
        twice = rootdatum.WeylGroup(W.rank,
                                    W.permutations + W.permutations[-1:])
        msg = ("two Weyl elements map the base system to the same positive "
               "system (simple transitivity fails)")
        for fn in (positive_systems, reference_positive_systems):
            with pytest.raises(InternalCheckError,
                               match=f"^{re.escape(msg)}$"):
                fn(twice, based)
