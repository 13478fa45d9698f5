"""Builders for the classic root data used in tests and bundled problems.

``from_simple`` closes a set of simple roots/coroots under the simple
reflections, so each datum below is specified by its simple data only.
"""

from __future__ import annotations

from operator import mul

from .errors import ValidationError
from .rootdatum import BasedRootDatum, RootDatum

# Largest root system that ``from_simple`` closes before calling the
# input a runaway.
ROOT_CAP = 10000


def from_simple(rank, simple_roots, simple_coroots) -> BasedRootDatum:
    """Full root system generated from simple data by reflection closure.

    Each root keeps the coefficients in the simple roots it was found
    with: simple root i starts at e_i, and s_i r = r - <alpha_i^v, r>
    alpha_i lowers coefficient i by that pairing.  They are the unique
    coefficients once ``defect`` has found the simple roots independent,
    which it checks before reading any.

    The closure is also the check of the root-datum axioms.  Every edge
    (r, c) -> (s_i r, s_i^v c) is visited once, and a root reached again
    must carry the same coroot, so every root is w alpha_j with coroot
    w^{-t} alpha_j^v, w a product of the s_i (s_i^v is the transpose of
    the involution s_i).  The pairing is W-invariant, so
    <c(r), r> = <alpha_j^v, alpha_j> = 2; s_r = w s_j w^{-1} permutes R
    and s_r^v = w^{-t} s_j^v w^t permutes R^v, as R is closed under every
    s_i and R^v under every s_i^v (Springer, Linear Algebraic Groups,
    7.4).  The only axiom of ``rootdatum.validate`` left to fail is a
    repeated simple root, and ``BasedRootDatum.defect`` checks just
    that.  When <alpha_i^v, r> = 0, s_i r = r and the transported
    coroot c - <c, alpha_i> alpha_i^v is c exactly when
    <c, alpha_i> = 0, so only that pairing is computed.

    Raises ValidationError when the simple data do not generate a finite
    consistent system.
    """
    simple_roots = [tuple(r) for r in simple_roots]
    simple_coroots = [tuple(c) for c in simple_coroots]
    if len(simple_roots) != len(simple_coroots):
        raise ValidationError("simple roots and coroots must be bijective")
    for r, c in zip(simple_roots, simple_coroots):
        if len(r) != rank or len(c) != rank:
            raise ValidationError("simple root/coroot has wrong length")
        if sum(map(mul, c, r)) != 2:
            raise ValidationError(
                f"<coroot, root> != 2 for simple pair {r}, {c}")
    simple = list(enumerate(zip(simple_roots, simple_coroots)))
    pairs = dict(zip(simple_roots, simple_coroots))
    coeffs = {r: [int(i == j) for j in range(len(simple))]
              for i, r in enumerate(simple_roots)}
    frontier = list(pairs)
    while frontier:
        nxt = []
        for r in frontier:
            c, k = pairs[r], coeffs[r]
            for i, (a, av) in simple:
                n = sum(map(mul, av, r))
                m = sum(map(mul, c, a))
                if not n:
                    if m:
                        raise ValidationError(
                            "inconsistent coroot transport during closure")
                    continue
                r2 = tuple([x - n * y for x, y in zip(r, a)])
                c2 = tuple([x - m * y for x, y in zip(c, av)])
                if r2 in pairs:
                    if pairs[r2] != c2:
                        raise ValidationError(
                            "inconsistent coroot transport during closure")
                elif len(pairs) >= ROOT_CAP:
                    raise ValidationError("root system closure runaway")
                else:
                    pairs[r2] = c2
                    coeffs[r2] = k2 = k.copy()
                    k2[i] -= n
                    nxt.append(r2)
        frontier = nxt
    others = sorted(r for r in pairs if r not in simple_roots)
    roots = tuple(simple_roots) + tuple(others)
    coroots = tuple(pairs[r] for r in roots)
    datum = RootDatum(rank, roots, coroots)
    return BasedRootDatum(datum, tuple(range(len(simple_roots))),
                          tuple(tuple(coeffs[r]) for r in roots))


def sl2() -> BasedRootDatum:
    return from_simple(1, [(2,)], [(1,)])


def pgl2() -> BasedRootDatum:
    return from_simple(1, [(1,)], [(2,)])


def gl2() -> BasedRootDatum:
    return from_simple(2, [(1, -1)], [(1, -1)])


def sl3() -> BasedRootDatum:
    # character lattice = weight lattice; simple roots are Cartan rows
    return from_simple(2, [(2, -1), (-1, 2)], [(1, 0), (0, 1)])


def pgl3() -> BasedRootDatum:
    # character lattice = root lattice; coroots are Cartan rows
    return from_simple(2, [(1, 0), (0, 1)], [(2, -1), (-1, 2)])


def a1xa1_adjoint() -> BasedRootDatum:
    return from_simple(2, [(1, 0), (0, 1)], [(2, 0), (0, 2)])


def b2() -> BasedRootDatum:
    # SO(5): long root e1 - e2, short root e2
    return from_simple(2, [(1, -1), (0, 1)], [(1, -1), (0, 2)])


def g2() -> BasedRootDatum:
    # adjoint = simply connected; character lattice = root lattice
    return from_simple(2, [(1, 0), (0, 1)], [(2, -1), (-3, 2)])


def d4_adjoint() -> BasedRootDatum:
    # node 1 is the triple point; Cartan matrix rows are the coroots
    cartan = [
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    ]
    simple = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    return from_simple(4, simple, cartan)


def torus(rank) -> BasedRootDatum:
    return BasedRootDatum(RootDatum(rank, (), ()), ())
