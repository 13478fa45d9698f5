"""Canonical class representatives: the lexicographically smallest
normalized cocycle of each class, checked against the brute-force set of
normalized coboundaries and, where that set is too large to list, by
invariance under added coboundaries."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import autbrd, standard
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, is_cocycle)
from discred.extension import classify
from discred.grouptable import cyclic

from bruteforce import normalized_coboundaries, zip_flat_add
from test_acceptance import _oracle_instances


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
