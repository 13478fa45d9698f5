"""``classify``'s H^2 against a tower-free oracle for cyclic Gamma.

For Gamma = <sigma> of order n and Z(G) = Hom(X, C*) with
X = X^*(T)/ZR, C* is divisible, so H^2(Gamma, Z(G)) is the dual of the
finite group H_2(Gamma, X) (universal coefficients), and the periodic
resolution of Z over Z[Gamma] gives H_2(Gamma, X) = ker N / (sigma - 1)X
with N = 1 + sigma + ... + sigma^(n-1).  The
oracle computes that quotient on X presented as ``center_data``
presents it, Z^m modulo d_i Z in coordinate i, from Smith forms of
tests/smith_reference.py alone: no tower, Cayley complex or bar
cochain enters it.  Replacing sigma by sigma^-1 leaves N and
(sigma - 1)X unchanged, so the answer does not depend on whether
sigma acts on X by T or by T^-1."""

import itertools
import os

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from discred import standard
from discred.autbrd import ad_from_element_images
from discred.cli import _parse_ad, _parse_based, _parse_gamma, load_problem
from discred.exactlin import IntMatrix
from discred.extension import classify
from discred.grouptable import cyclic, from_generators
from discred.rootdatum import center_data

from smith_reference import reference_smith
from test_tower_level import GAMMAS, _actions

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems")


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _eye(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def _smith(rows, cols):
    """(U, diagonal, V) with U A V diagonal, by the reference Smith form."""
    A = IntMatrix(len(rows), cols, tuple(map(tuple, rows)))
    (U, D, V, _, _), _ = reference_smith(A)
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    return U.entries, [d for d in diag if d], V.entries


def _quotient_factors(big, small):
    """Invariant factors and free rank of A/B for lattices B <= A in
    Z^m, each given by generating vectors."""
    U, d, _ = _smith([list(col) for col in zip(*big)], len(big))
    coords = []
    for v in small:
        Uv = [sum(u * x for u, x in zip(row, v)) for row in U]
        assert all(y == 0 for y in Uv[len(d):]), "B is not inside A"
        assert all(y % di == 0 for y, di in zip(Uv, d)), "B is not inside A"
        coords.append([y // di for y, di in zip(Uv, d)])
    _, e, _ = _smith([list(row) for row in zip(*coords)], len(coords))
    return tuple(x for x in e if x > 1), len(d) - len(e)


def cyclic_h2_oracle(T, n, datum):
    """Invariant factors and free rank of H_2(<sigma>, X) for sigma of
    order n acting on X^* by the integer matrix T (rows), T^n = 1."""
    cd = center_data(datum)
    P, Pinv = cd.to_presented.entries, cd.from_presented.entries
    m = len(cd.moduli)
    S = _mul(_mul(P, T), Pinv)       # sigma on presented coordinates
    relations = [[d * int(i == j) for i in range(m)]
                 for j, d in enumerate(cd.moduli) if d]
    power, N = _eye(m), [[0] * m for _ in range(m)]
    for _ in range(n):
        N = [[a + b for a, b in zip(r, s)] for r, s in zip(N, power)]
        power = _mul(power, S)
    # ker N on X: x with N x in the relation lattice, from the kernel of
    # [N | relations]
    M = [list(N[i]) + [r[i] for r in relations] for i in range(m)]
    _, d, V = _smith(M, m + len(relations))
    kernel = [[V[i][j] for i in range(m)] for j in range(len(d), len(V))]
    image = [[S[i][j] - int(i == j) for i in range(m)] for j in range(m)]
    return _quotient_factors(kernel + relations, image + relations)


def _order(T):
    power, k = T, 1
    while power != _eye(len(T)):
        power, k = _mul(power, T), k + 1
        assert k <= 12, "not of finite order"
    return k


def _check(based, ad, sigma):
    """classify's H^2 equals the oracle's H_2 on the matrix of
    ``sigma``, an element generating Gamma; Gamma may act through a
    quotient."""
    n = ad.gamma.order
    T = [list(r) for r in ad.images[sigma].matrix.entries]
    assert n % _order(T) == 0
    group = classify(based, ad).group
    factors, free = cyclic_h2_oracle(T, n, based.datum)
    assert (group.invariant_factors, group.free_rank) == (factors, free)
    return factors


def _cyclic_ad(based, T, n):
    """ad of cyclic(n) sending the generator to T, T^n = 1."""
    powers = [_eye(len(T))]
    for _ in range(n - 1):
        powers.append(_mul(powers[-1], T))
    return ad_from_element_images(based, cyclic(n), powers)


CYCLIC_PROBLEMS = ["b2_check", "g2_check", "gl2_z2_swap", "pgl2_z2_trivial",
                   "pgl3_z2_flip", "sl2_z2_trivial", "sl3_z2_flip",
                   "torus_inversion"]


def test_bundled_problems_cover_every_cyclic_gamma():
    cyclic_names = []
    for f in sorted(os.listdir(PROBLEMS)):
        if f.endswith(".json"):
            gamma = _parse_gamma(load_problem(os.path.join(PROBLEMS, f)))
            if any(gamma.element_order(g) == gamma.order
                   for g in range(gamma.order)):
                cyclic_names.append(f[:-len(".json")])
    assert cyclic_names == CYCLIC_PROBLEMS


@pytest.mark.parametrize("name", CYCLIC_PROBLEMS)
def test_bundled_problems(name):
    data = load_problem(os.path.join(PROBLEMS, name + ".json"))
    based = _parse_based(data)
    gamma = _parse_gamma(data)
    sigma = next(g for g in range(gamma.order)
                 if gamma.element_order(g) == gamma.order)
    _check(based, _parse_ad(data, based, gamma), sigma)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signed_permutation_tori(data):
    """The tori of tests/test_tower_level.py under C2, C3 and C4."""
    name = data.draw(st.sampled_from(["C2", "C3", "C4"]))
    r = data.draw(st.integers(1, 3))
    mats = data.draw(st.sampled_from(_actions(name, r)))
    gamma = from_generators(*GAMMAS[name])
    sigma = next(g for g in range(gamma.order)
                 if gamma.element_order(g) == gamma.order)
    based = standard.torus(r)
    factors = _check(based, ad_from_element_images(based, gamma, mats),
                     sigma)
    event(f"H^2 invariant factors {factors}")


def _sl_times_tori(n, r):
    """SL_n x GL_1^r on X^* = (weights of SL_n) + Z^r: simple roots the
    columns of the Cartan matrix, simple coroots the unit vectors."""
    k = n - 1
    rank = k + r
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0
               for j in range(k)] for i in range(k)]
    roots = [tuple(cartan[i]) + (0,) * r for i in range(k)]
    coroots = [tuple(int(i == j) for j in range(rank)) for i in range(k)]
    return standard.from_simple(rank, roots, coroots)


TORUS_INVOLUTIONS = {
    1: [[[1]], [[-1]]],
    2: [[[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]],
        [[0, -1], [-1, 0]], [[1, 0], [0, -1]]],
}


def _block(A, B):
    a, b = len(A), len(B)
    return ([list(row) + [0] * b for row in A]
            + [[0] * a + list(row) for row in B])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_sl_times_tori_under_c2(n, r):
    """C2 acting by the identity or the diagram flip on SL_n and by one
    of TORUS_INVOLUTIONS on GL_1^r."""
    based = _sl_times_tori(n, r)
    k = n - 1
    flips = [_eye(k)] + ([[[int(i + j == k - 1) for j in range(k)]
                            for i in range(k)]] if n >= 3 else [])
    tori = TORUS_INVOLUTIONS.get(r, [[]])
    for F, B in itertools.product(flips, tori):
        T = _block(F, B) if B else F
        _check(based, _cyclic_ad(based, T, 2), 1)


FINITE_ORDER_2 = [
    [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[1, -1], [1, 0]],
    [[-1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]],
    [[1, 0], [0, 1]],
]


@st.composite
def _finite_order_matrices(draw):
    """A finite-order T in GL_r(Z), r = 2 or 3, conjugated by a random
    product of elementary matrices: in rank 2 one of FINITE_ORDER_2, in
    rank 3 one of those next to +-1, or a signed permutation."""
    r = draw(st.sampled_from([2, 3]))
    if r == 2:
        T = draw(st.sampled_from(FINITE_ORDER_2))
    elif draw(st.booleans()):
        T = _block(draw(st.sampled_from(FINITE_ORDER_2)),
                   [[draw(st.sampled_from([1, -1]))]])
    else:
        perm = draw(st.permutations(range(3)))
        signs = [draw(st.sampled_from([1, -1])) for _ in range(3)]
        T = [[signs[i] * int(perm[i] == j) for j in range(3)]
             for i in range(3)]
    Q, Qinv = _eye(r), _eye(r)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.sampled_from(list(itertools.permutations(range(r),
                                                                 2))))
        c = draw(st.integers(-2, 2))
        E = _eye(r)
        E[i][j] = c
        Einv = _eye(r)
        Einv[i][j] = -c
        Q, Qinv = _mul(E, Q), _mul(Qinv, Einv)
    return _mul(_mul(Q, T), Qinv)


@settings(max_examples=100, deadline=None)
@given(_finite_order_matrices(), st.sampled_from([1, 2]))
def test_random_finite_order_on_tori(T, times):
    """Gamma = C_n with n the order of T, or twice it so that Gamma acts
    through a quotient."""
    based = standard.torus(len(T))
    n = times * _order(T)
    factors = _check(based, _cyclic_ad(based, T, n), int(n > 1))
    event(f"H^2 invariant factors {factors}")


@pytest.mark.parametrize("T,factors", [
    ([[-1, 0], [0, -1]], (2, 2)),       # inversion on GL_1^2
    ([[0, 1], [1, 0]], ()),             # the swap: an induced module
    ([[0, -1], [1, -1]], (3,)),         # order 3 on the A_2 lattice
    ([[0, -1], [1, 0]], (2,)),          # order 4
    ([[1, -1], [1, 0]], ()),            # order 6: X^sigma = 0, N = 0
])
def test_oracle_known_values(T, factors):
    """H_2(<sigma>, Z^2) = ker N / (sigma - 1)Z^2 by hand: for -1, N = 0
    and the quotient is Z^2/2Z^2; for the swap (1 - sigma)Z^2 = ker N;
    for orders 3, 4 and 6, N = 0 and Z^2/(sigma - 1)Z^2 has order
    det(sigma - 1) = 3, 2 and 1."""
    n = _order(T)
    assert cyclic_h2_oracle(T, n, standard.torus(2).datum) == (factors, 0)
