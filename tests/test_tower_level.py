"""The torsion-tower level read off Z against the comparison loop it
replaced (``tower_reference``) and against Shapiro's lemma.

Wherever the loop answers correctly, the group and the canonical
representatives must agree, and so must k_used when Z has no torus or
e = 0.  The loop answers 0 on a finite part with e >= 4, where H^2 is
not 0, so those towers are checked against H^2(C_n, Z/q) = Z/gcd(n, q)
instead.  A torus
whose cocharacters form the permutation lattice Z[Gamma/Delta] has
H^2(Gamma, T) = H^2(Delta, C*), the Schur multiplier M(Delta) (Brown,
Cohomology of Groups, III.6); the values come from Karpilovsky, The
Schur Multiplier: M(C_n) = M(S3) = 0, M(V4) = M(D8) = Z/2."""

import itertools
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import cohomology, standard
from discred.abgroup import (AbHom, DiagonalizableGroup, FGAbelianGroup,
                             torsion_at)
from discred.autbrd import ad_from_generator_images, trivial_ad
from discred.cohomology import (cohomology_group, gamma_module, stabilized_h2,
                                trivial_module)
from discred.errors import BudgetExceededError
from discred.exactlin import IntMatrix
from discred.extension import center_modules
from discred.grouptable import closure, compose, cyclic, from_generators
from discred.rootdatum import center_data
from tower_reference import reference_stabilized_h2

# Gamma by permutation generators; from_generators numbers the elements
# by the closure over these generators.
GAMMAS = {
    "C2": (2, [(1, 0)]),
    "C3": (3, [(1, 2, 0)]),
    "C4": (4, [(1, 2, 3, 0)]),
    "V4": (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "S3": (3, [(1, 2, 0), (1, 0, 2)]),
}


def _matmul(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col))
                       for col in zip(*B)) for row in A)


def _signed_permutations(r):
    out = []
    for p in itertools.permutations(range(r)):
        for signs in itertools.product((1, -1), repeat=r):
            out.append(tuple(tuple(signs[j] if p[j] == i else 0
                                   for j in range(r)) for i in range(r)))
    return out


@lru_cache(maxsize=None)
def _actions(name, r):
    """Every action of Gamma on Z^r by signed permutation matrices, as
    the tuple of element matrices in Gamma's numbering."""
    degree, gens = GAMMAS[name]
    gamma = from_generators(degree, gens)
    tree = gamma.closure_tree
    out = []
    for images in itertools.product(_signed_permutations(r),
                                    repeat=len(gens)):
        mats = [tuple(tuple(int(i == j) for j in range(r))
                      for i in range(r))]
        for parent, g in tree[1:]:
            mats.append(_matmul(mats[parent], images[g]))
        if all(mats[gamma.mul(x, s)] == _matmul(mats[x], mats[s])
               for x in gamma.elements() for s in gamma.generators):
            out.append(tuple(mats))
    return out


def _torus_tower(gamma, mats):
    """(Z, module_at) of the torus whose cocharacters Gamma moves by the
    element matrices ``mats``: Z[m] = Y/mY."""
    Zg = DiagonalizableGroup(len(mats[0]), FGAbelianGroup(0, ()))

    def module_at(m):
        a = torsion_at(Zg, m)
        return gamma_module(gamma, a, [
            AbHom(a, a, IntMatrix.from_rows([[x % m for x in row]
                                             for row in A]))
            for A in mats])
    return Zg, module_at


def _check_against_reference(gamma, Zg, module_at, max_k):
    new = stabilized_h2(gamma, Zg, module_at, max_k=max_k)
    try:
        ref = reference_stabilized_h2(gamma, Zg, module_at, max_k=max_k)
    except BudgetExceededError:
        return new
    assert new.group == ref.group
    depth = min(len(new.tower_orders), len(ref.tower_orders))
    assert new.tower_orders[:depth] == ref.tower_orders[:depth]
    if new.k_used == ref.k_used:
        assert new.representatives == ref.representatives
    else:
        # only a torus with e >= 1 may stop later than the loop
        assert Zg.torus_rank and Zg.finite_part.invariant_factors
    return new


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_signed_permutation_tori_match_reference(data):
    name = data.draw(st.sampled_from(sorted(GAMMAS)))
    r = data.draw(st.integers(1, 3))
    mats = data.draw(st.sampled_from(_actions(name, r)))
    gamma = from_generators(*GAMMAS[name])
    Zg, module_at = _torus_tower(gamma, mats)
    res = _check_against_reference(gamma, Zg, module_at, 6)
    assert res.k_used == 2


def _trivial_tower(name, q):
    gamma = from_generators(*GAMMAS[name])
    Zg = DiagonalizableGroup(0, FGAbelianGroup(0, (q,)))
    return gamma, Zg, lambda m: trivial_module(gamma, torsion_at(Zg, m))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("C2", 2), ("C4", 2), ("C3", 3)]),
       st.integers(1, 6))
def test_trivial_towers_match_reference(case, a):
    """H^2(C_n, Z/q) = Z/gcd(n, q) under the trivial action, at level
    e + 1.  The loop is a reference only for e <= 3 (see the next test)."""
    name, p = case
    gamma, Zg, module_at = _trivial_tower(name, p ** a)
    n = gamma.order
    e = next(e for e in range(a + 1) if n ** e % p ** a == 0)
    if e <= 3:
        res = _check_against_reference(gamma, Zg, module_at, 8)
    else:
        res = stabilized_h2(gamma, Zg, module_at)
    assert res.group.invariant_factors == (gcd(n, p ** a),)
    assert res.k_used == e + 1


@pytest.mark.parametrize("name,q", [("C2", 16), ("C3", 81)])
def test_reference_loop_misses_deep_finite_part(name, q):
    """With e = 4 the levels 1 to 4 each map to 0 in the next, so the
    loop's first two comparisons hold (orders 1 = 1 = 1) and it answers
    0 at level 2; H^2 is Z/p, the image of level 4 in level 5.  SL16
    under a trivial C2 has this tower."""
    gamma, Zg, module_at = _trivial_tower(name, q)
    ref = reference_stabilized_h2(gamma, Zg, module_at, max_k=8)
    assert (ref.group.invariant_factors, ref.k_used) == ((), 2)
    res = stabilized_h2(gamma, Zg, module_at)
    assert (res.group.invariant_factors, res.k_used) == ((gamma.order,), 5)


def _permutation_torus(degree, gens, act):
    """Gamma = <gens> on {0..degree-1} and the element matrices of its
    action on the permutation lattice Z[points], where ``act(g)`` gives
    the permutation of the points induced by the generator g."""
    pairs = [(g, act(g)) for g in gens]
    points = len(pairs[0][1])
    elems, _, _ = closure(
        (tuple(range(degree)), tuple(range(points))), pairs,
        lambda x, y: (compose(x[0], y[0]), compose(x[1], y[1])),
        10000, "group")
    gamma = from_generators(degree, gens)
    assert gamma.order == len(elems)
    mats = [tuple(tuple(int(q[j] == i) for j in range(points))
                  for i in range(points)) for _, q in elems]
    return gamma, mats


def _pairings_action(g):
    """The permutation of the three pairings 01|23, 02|13, 03|12 of
    {0, 1, 2, 3} induced by the permutation g."""
    pairings = [frozenset({frozenset({0, j}), frozenset(set(range(1, 4))
                                                        - {j})})
                for j in (1, 2, 3)]
    return tuple(pairings.index(frozenset(frozenset(g[x] for x in pair)
                                          for pair in P))
                 for P in pairings)


# (Gamma generators, their action on the points, M(Delta))
SHAPIRO = {
    "S3 on 3 points, Delta = C2": (
        3, [(1, 2, 0), (1, 0, 2)], lambda g: g, ()),
    "C4 on 2 points, Delta = C2": (
        4, [(1, 2, 3, 0)], lambda g: (1, 0), ()),
    "V4 on 1 point, Delta = V4": (
        4, [(1, 0, 3, 2), (2, 3, 0, 1)], lambda g: (0,), (2,)),
    "D8 on D8/V4, Delta = V4": (
        4, [(1, 2, 3, 0), (0, 3, 2, 1)],
        lambda g: (1, 0) if g == (1, 2, 3, 0) else (0, 1), (2,)),
    "S4 on 4 points, Delta = S3": (
        4, [(1, 0, 2, 3), (1, 2, 3, 0)], lambda g: g, ()),
    "S4 on its 3 pairings, Delta = D8": (
        4, [(1, 0, 2, 3), (1, 2, 3, 0)], _pairings_action, (2,)),
}


# the canonical basis of S4 on its 3 pairings: ((24 - 1)^2 * 3)^2 cells
S4_PAIRINGS_CELLS = 1587 ** 2


@pytest.mark.parametrize("label", sorted(SHAPIRO))
def test_permutation_torus_gives_schur_multiplier(label):
    degree, gens, act, multiplier = SHAPIRO[label]
    gamma, mats = _permutation_torus(degree, gens, act)
    Zg, module_at = _torus_tower(gamma, mats)
    res = stabilized_h2(gamma, Zg, module_at, budget=S4_PAIRINGS_CELLS)
    assert res.group.invariant_factors == multiplier
    assert res.k_used == 2


def test_stabilized_h2_gates_the_canonical_basis(monkeypatch):
    """Called directly, ``stabilized_h2`` meets the canonical-form gate
    where the basis is built: S4 on its 3 pairings at the default
    budget, or one cell short of the basis, raises before any
    ``modular_echelon`` runs; a budget of exactly its cells lets one run."""
    calls = []
    inner = cohomology.modular_echelon

    def modular_echelon(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(cohomology, "modular_echelon", modular_echelon)
    degree, gens, act, _ = SHAPIRO["S4 on its 3 pairings, Delta = D8"]
    gamma, mats = _permutation_torus(degree, gens, act)
    Zg, module_at = _torus_tower(gamma, mats)
    with pytest.raises(BudgetExceededError, match=r"^canonical form size "
                       r"1587x1587 exceeds budget 2000000$"):
        stabilized_h2(gamma, Zg, module_at)
    assert calls == []
    with pytest.raises(BudgetExceededError, match=r"^canonical form size "
                       r"1587x1587 exceeds budget 2518568$"):
        stabilized_h2(gamma, Zg, module_at, budget=S4_PAIRINGS_CELLS - 1)
    assert calls == []
    stabilized_h2(gamma, Zg, module_at, budget=S4_PAIRINGS_CELLS)
    assert len(calls) == 1


@pytest.mark.parametrize("case,calls", [("SL2/C2", 1), ("GL2-swap", 2)])
def test_module_at_runs_up_to_the_equal_levels(case, calls):
    """Without a torus the levels from max(e, 1) on are one module:
    SL2 under a trivial C2 (e = 1) builds level 1 only and lists it for
    all four levels.  GL2 under the swap has a torus with e = 0: the
    levels from e + 1 on have one order, so it builds levels 1 and
    k_used = 2 and lists the order of level 2 for levels 3 and 4, where
    it built all four.  The listed orders are those of every level
    built alone."""
    if case == "SL2/C2":
        based = standard.sl2()
        ad = trivial_ad(based, cyclic(2))
    else:
        based = standard.gl2()
        ad = ad_from_generator_images(based, cyclic(2), [[[0, -1], [-1, 0]]])
    cd = center_data(based.datum)
    inner, levels = center_modules(cd, ad), []

    def module_at(m):
        levels.append(m)
        return inner(m)
    res = stabilized_h2(ad.gamma, cd.group, module_at)
    assert len(levels) == calls
    n = ad.gamma.order
    assert res.tower_orders == tuple(
        cohomology_group(inner(n ** k), 2).order() for k in range(1, 5))
    assert res.module == inner(n ** res.k_used)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_listed_orders_match_the_levels_computed_alone(data):
    """With a torus the levels from e + 1 on have one order, so levels
    past k_used list the order of k_used without computing H^2; on the
    signed permutation tori each listed order is that of its level's
    H^2, computed alone."""
    name = data.draw(st.sampled_from(sorted(GAMMAS)))
    r = data.draw(st.integers(1, 3))
    mats = data.draw(st.sampled_from(_actions(name, r)))
    max_k = data.draw(st.integers(2, 6))
    gamma = from_generators(*GAMMAS[name])
    Zg, module_at = _torus_tower(gamma, mats)
    res = stabilized_h2(gamma, Zg, module_at, max_k=max_k)
    n = gamma.order
    assert res.tower_orders == tuple(
        cohomology_group(module_at(n ** k), 2).order()
        for k in range(1, max_k + 1))
