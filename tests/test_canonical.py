"""Canonical class representatives: the lexicographically smallest
normalized cocycle of each class, checked against the brute-force set of
normalized coboundaries and, where that set is too large to list, by
invariance under added coboundaries."""

import os
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import autbrd, standard
from discred.abgroup import FGAbelianGroup
from discred.cli import main
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, is_cocycle, trivial_module)
from discred.extension import classify
from discred.grouptable import cyclic, from_generators
from discred.relations import RelationModule

from bar_reference import normalized_tuples, reference_diff_matrix
from bruteforce import normalized_coboundaries, zip_flat_add
from grouptable_reference import direct_product
from test_acceptance import _oracle_instances
from test_cohomology import _trivial_tower
from test_coordinates import TOWER, _tower_input
from test_golden import GOLDEN, NAMES as GOLDEN_NAMES, PROBLEMS
from test_normalized import _modules


def flat(c):
    return tuple(x for _, v in c.values for x in v)


def unflat(M, vec):
    t = M.coeff.ncoords
    keys = sorted((g1, g2) for g1 in M.gamma.elements()
                  for g2 in M.gamma.elements())
    return Cochain.from_map(2, {k: tuple(vec[i * t:(i + 1) * t])
                                for i, k in enumerate(keys)})


@pytest.mark.parametrize("index", range(24))
def test_normalize_matches_enumerated_minimum(index):
    M = _oracle_instances()[index]
    H = cohomology_group(M, 2)
    bset = sorted(normalized_coboundaries(M))
    rng = random.Random(index)
    for cls in H.classes():
        v = flat(cls.representative)
        want = min(zip_flat_add(M.coeff, v, b) for b in bset)
        assert v == want
        moved = zip_flat_add(M.coeff, v, rng.choice(bset))
        assert flat(H.normalize(unflat(M, moved))) == want


@pytest.mark.parametrize("p", [1, 2])
def test_coboundary_columns_match_the_bar_matrix(p):
    """The columns that canonical forms reduce against equal those of the
    dense normalized bar d_(p-1), entry for entry and in order, so
    ``modular_echelon`` sees the same input."""
    for M in _modules():
        rel = RelationModule(M, p)
        d = reference_diff_matrix(M, p - 1, normalized_tuples(M, p))
        assert list(rel.bar_coboundaries()) == [
            list(d.col(j)) for j in range(d.cols)]


@lru_cache(maxsize=None)
def _stable_module(label):
    """Coefficient module and H^2 at the level classify uses, for the
    inputs whose old lexicographic search was over budget."""
    if label == "T3_C3_cycle":
        based, gamma = standard.torus(3), cyclic(3)
        mats = [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]
    else:
        based, gamma = standard.torus(2), cyclic(4)
        mats = [[[0, -1], [1, 0]]]
    ad = autbrd.ad_from_generator_images(based, gamma, mats)
    cls = classify(based, ad)
    M = cls.module
    H = cohomology_group(M, 2)
    return M, H, tuple(d.cocycle for d in cls.descriptors)


@pytest.mark.parametrize("label", ["T3_C3_cycle", "T2_C4_rotation"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normalize_is_a_class_invariant(label, data):
    M, H, reps = _stable_module(label)
    A = M.coeff
    # too many normalized 1-cochains to list their coboundaries
    assert A.order() ** (M.gamma.order - 1) > 50000
    c = data.draw(st.sampled_from(reps))
    values = {(M.gamma.identity,): A.zero()}
    for g in M.gamma.elements():
        if g != M.gamma.identity:
            values[(g,)] = tuple(data.draw(st.integers(0, f - 1))
                                 for f in A.invariant_factors)
    db = differential(M, Cochain.from_map(1, values))
    moved = cochain_sum(A, [(1, c), (1, db)])
    out = H.normalize(moved)
    assert out == H.normalize(c) == c
    assert is_cocycle(M, out) and out.is_normalized(M.gamma.identity)
    assert H.coordinates_of(out) == H.coordinates_of(moved)
    assert all(0 <= x < f for _, v in out.values
               for x, f in zip(v, A.invariant_factors))


def _reverse_generating_set(monkeypatch):
    """Reverse the generating set S of every group, and with it the
    Cayley graph; the engine's coordinates of H^2 move with it."""
    from discred import grouptable

    monkeypatch.setattr(grouptable.FiniteGroup, "generators", property(
        lambda G: tuple(grouptable.generating_set(G))[::-1]))


def _classification(based, ad, max_k=4):
    cls = classify(based, ad, max_k=max_k)
    return (cls.group, cls.k_used, cls.tower_orders,
            [(d.coordinates, d.cocycle, d.is_split) for d in cls.descriptors])


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_reports_under_reversed_generators(capsys, monkeypatch, name):
    _reverse_generating_set(monkeypatch)
    code = main(["classify", "--input", os.path.join(PROBLEMS, name + ".json"),
                 "--format", "json"])
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("label", sorted(TOWER))
def test_tower_reports_under_reversed_generators(monkeypatch, label):
    based, ad, max_k = _tower_input(label)
    want = _classification(based, ad, max_k)
    _reverse_generating_set(monkeypatch)
    assert _classification(based, ad, max_k) == want


def test_pinned_tower_under_reversed_generators(monkeypatch):
    want = _trivial_tower(2, (2, 8), 7).representatives
    _reverse_generating_set(monkeypatch)
    assert _trivial_tower(2, (2, 8), 7).representatives == want


@pytest.mark.parametrize("gamma", [
    direct_product(cyclic(2), cyclic(2)),
    from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
], ids=["V4", "S4"])
def test_noncyclic_gamma_under_reversed_generators(monkeypatch, gamma):
    """With |S| = 2 the reversal moves the engine's coordinates of
    H^2(Gamma, Z/2), and the classify report stays the same."""
    based = standard.sl2()
    ad = autbrd.trivial_ad(based, gamma)
    want = _classification(based, ad)
    M = trivial_module(gamma, FGAbelianGroup(0, (2,)))
    gens = cohomology_group(M, 2).generators
    _reverse_generating_set(monkeypatch)
    H = cohomology_group(M, 2)
    assert [H.coordinates_of(g) for g in gens] != [
        tuple(int(k == j) for k in range(len(gens))) for j in range(len(gens))]
    assert _classification(based, ad) == want
