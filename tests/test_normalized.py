"""The normalized, generator-reduced cochain complex against the full bar
complex: on small modules with trivial and non-trivial actions,
``coordinates_of`` accepts exactly the cocycles of the full differential,
coboundary witnesses of non-normalized coboundaries are exact, and H^0,
H^1, H^2 have the orders the full complex gives."""

import itertools
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred.abgroup import AbHom, FGAbelianGroup
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, gamma_module, is_cocycle)
from discred.errors import ValidationError
from discred.exactlin import IntMatrix, modular_echelon
from discred.grouptable import cyclic, from_generators
from grouptable_reference import direct_product


def _automorphisms(A):
    """Some automorphisms of A: the units for Z/q, the identity, a swap
    and an order-3 map for Z/2 x Z/2, the identity and the inversion
    otherwise."""
    t = A.ncoords
    if t == 1:
        (q,) = A.invariant_factors
        mats = [[[u]] for u in range(1, q) if gcd(u, q) == 1]
    elif A.invariant_factors == (2, 2):
        mats = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [1, 1]]]
    else:
        mats = [[[int(i == j) for j in range(t)] for i in range(t)],
                [[f - 1 if i == j else 0 for j in range(t)]
                 for i, f in enumerate(A.invariant_factors)]]
    return [AbHom(A, A, IntMatrix.from_rows(m)) for m in mats]


def _power(alpha, e):
    out = AbHom.identity(alpha.source)
    for _ in range(e):
        out = out.compose(alpha)
    return out


@lru_cache(maxsize=None)
def _modules():
    """Every module g -> alpha^e(g) that is a valid action, for small
    groups (|Gamma| <= 6), coefficient groups, automorphisms alpha and
    candidate exponent maps e; plus the trivial action on each pair.
    Each distinct action is listed once."""
    groups = [cyclic(n) for n in (2, 3, 4, 5, 6)]
    groups += [direct_product(cyclic(2), cyclic(2)),
               from_generators(3, [(1, 0, 2), (1, 2, 0)])]
    coeffs = [FGAbelianGroup(0, f) for f in
              ((2,), (3,), (4,), (5,), (7,), (8,), (9,), (2, 2), (2, 4))]
    out = {}
    for G, A in itertools.product(groups, coeffs):
        if A.ncoords * G.order ** 3 > 256:
            continue
        exps = [lambda g: 0, lambda g: g, lambda g: g % 2, lambda g: g // 2,
                lambda g: int(G.element_order(g) == 2)]
        for alpha, e in itertools.product(_automorphisms(A), exps):
            action = [_power(alpha, e(g)) for g in G.elements()]
            key = (G.table, A, tuple(a.matrix for a in action))
            try:
                out.setdefault(key, gamma_module(G, A, action))
            except ValidationError:
                pass
    return tuple(out.values())


def _bar_images(M, p):
    """The images of the basis p-cochains under the full bar
    differential, as flat vectors over every (p+1)-tuple, built here from
    the formula dc(g_0..g_p) = g_0.c(g_1..g_p)
    + sum_i (-1)^i c(.., g_(i-1) g_i, ..) + (-1)^(p+1) c(g_0..g_(p-1))."""
    G, t = M.gamma, M.coeff.ncoords
    src = {tup: i for i, tup in enumerate(
        itertools.product(G.elements(), repeat=p))}
    dst = list(itertools.product(G.elements(), repeat=p + 1))
    images = [[0] * (len(dst) * t) for _ in range(len(src) * t)]
    for r, tup in enumerate(dst):
        terms = [(1, tup[1:], M.action[tup[0]].matrix)]
        terms += [((-1) ** i, tup[:i - 1] + (G.mul(tup[i - 1], tup[i]),)
                   + tup[i + 1:], None) for i in range(1, p + 1)]
        terms.append(((-1) ** (p + 1), tup[:-1], None))
        for sign, s, mat in terms:
            for a, b in itertools.product(range(t), repeat=2):
                x = (a == b) if mat is None else mat[a, b]
                images[src[s] * t + b][r * t + a] += sign * x
    return images


def _image_order(M, p):
    """|d_p(C^p)| on the full bar complex: the index of the lattice
    spanned by the images of the basis cochains and the modulus
    relations."""
    A = M.coeff
    images = _bar_images(M, p)
    dst = M.gamma.order ** (p + 1)
    mods = A.invariant_factors * dst
    index = 1
    for i, row in enumerate(modular_echelon(images, mods)):
        index *= row[i]
    return A.order() ** dst // index


@lru_cache(maxsize=None)
def _full_orders(index):
    """(|H^0|, |H^1|, |H^2|) of module ``index`` on the full complex."""
    M = _modules()[index]
    size = [M.coeff.order() ** (M.gamma.order ** p) for p in range(3)]
    image = [_image_order(M, p) for p in range(3)]
    kernel = [s // i for s, i in zip(size, image)]
    return (kernel[0], kernel[1] // image[0], kernel[2] // image[1])


def test_module_family_has_nontrivial_actions():
    nontrivial = [M for M in _modules()
                  if any(not a.is_identity_of(M.coeff) for a in M.action)]
    assert len(nontrivial) >= 20
    assert {M.gamma.order for M in nontrivial} == {2, 3, 4, 6}


@pytest.mark.parametrize("index", range(len(_modules())))
def test_orders_match_full_complex(index):
    M = _modules()[index]
    want = _full_orders(index)
    assert tuple(cohomology_group(M, p).order() for p in range(3)) == want


def _cochain(M, p, draw, nonzero_at_identity=False):
    A, G = M.coeff, M.gamma
    values = {}
    for tup in itertools.product(G.elements(), repeat=p):
        values[tup] = tuple(draw(st.integers(0, f - 1))
                            for f in A.invariant_factors)
    ident = (G.identity,) * p
    if nonzero_at_identity and not any(values[ident]):
        values[ident] = (1,) + values[ident][1:]
    return Cochain.from_map(p, values)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_coordinates_accept_exactly_the_cocycles(data):
    index = data.draw(st.integers(0, len(_modules()) - 1))
    M = _modules()[index]
    A = M.coeff
    p = data.draw(st.sampled_from([1, 2]))
    H = cohomology_group(M, p)
    kind = data.draw(st.sampled_from(["random", "cocycle", "perturbed"]))
    coords = tuple(data.draw(st.integers(0, f - 1))
                   for f in H.group.invariant_factors)
    if kind == "random":
        c = _cochain(M, p, data.draw)
    else:
        b = _cochain(M, p - 1, data.draw, nonzero_at_identity=True)
        c = cochain_sum(A, [(1, H.class_representative(coords)),
                            (1, differential(M, b))])
        if kind == "perturbed":
            tup = data.draw(st.sampled_from(sorted(c.as_dict())))
            values = c.as_dict()
            values[tup] = A.add(values[tup], (1,) + (0,) * (A.ncoords - 1))
            c = Cochain.from_map(p, values)
    if is_cocycle(M, c):
        got = H.coordinates_of(c)
        if kind == "cocycle":
            assert got == coords
            assert H.normalize(c) == H.class_representative(coords)
    else:
        with pytest.raises(ValidationError):
            H.coordinates_of(c)
        with pytest.raises(ValidationError):
            H.normalize(c)
        assert H.coboundary_witness(c) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witness_of_non_normalized_coboundary(data):
    M = _modules()[data.draw(st.integers(0, len(_modules()) - 1))]
    for p in (1, 2):
        b = _cochain(M, p - 1, data.draw, nonzero_at_identity=True)
        db = differential(M, b)
        w = cohomology_group(M, p).coboundary_witness(db)
        assert w is not None
        assert differential(M, w) == db


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_is_cocycle_agrees_with_differential(data):
    """``is_cocycle`` reads dc by coordinates and stops at the first
    nonzero one; it says what the values of ``differential`` say, in
    degrees 0, 1 and 2, on cocycles (class representatives plus
    coboundaries), on them with one value moved, and on random
    cochains."""
    M = _modules()[data.draw(st.integers(0, len(_modules()) - 1))]
    A = M.coeff
    p = data.draw(st.sampled_from([0, 1, 2]))
    kind = data.draw(st.sampled_from(["random", "cocycle", "perturbed"]))
    if kind == "random" or p == 0:
        c = _cochain(M, p, data.draw)
    else:
        H = cohomology_group(M, p)
        coords = tuple(data.draw(st.integers(0, f - 1))
                       for f in H.group.invariant_factors)
        b = _cochain(M, p - 1, data.draw, nonzero_at_identity=True)
        c = cochain_sum(A, [(1, H.class_representative(coords)),
                            (1, differential(M, b))])
        if kind == "perturbed":
            values = c.as_dict()
            tup = data.draw(st.sampled_from(sorted(values)))
            values[tup] = A.add(values[tup], (1,) + (0,) * (A.ncoords - 1))
            c = Cochain.from_map(p, values)
    want = all(not any(v) for _, v in differential(M, c).values)
    assert is_cocycle(M, c) == want
    if kind == "cocycle" and p:
        assert want
