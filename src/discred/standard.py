"""Builders for the classic root data used in tests and bundled problems.

``from_simple`` closes a set of simple roots/coroots under the simple
reflections, so each datum below is specified by its simple data only.
The closure is ``rootdatum.close_simple``, the one that checks every
based datum.
"""

from __future__ import annotations

from operator import mul

from .errors import ValidationError
from .rootdatum import BasedRootDatum, RootDatum, close_simple


def from_simple(rank, simple_roots, simple_coroots) -> BasedRootDatum:
    """Full root system generated from simple data by
    ``rootdatum.close_simple``: the simple roots in their order, then
    the others sorted.

    The datum keeps the coefficients the closure found for each root,
    so ``BasedRootDatum.defect`` reads them without closing it again.
    The closure is the check of the root-datum axioms; a repeated simple
    root, and dependent or non-base simple roots, are left to ``defect``.

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
    pairs, coeffs = close_simple(simple_roots, simple_coroots)
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
