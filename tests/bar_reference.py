"""Reference copies of bar-complex routines that ``relations`` replaced
by faster ones, kept for the tests that check them entry for entry.

``reference_diff_matrix`` is the normalized bar differential as a dense
matrix, built row by row from the bar terms of each target tuple, as
``cohomology`` once built it for the cocycle rows of degrees 0 and 1
and for the triangular basis of canonical representatives; the columns
``RelationModule.bar_coboundaries`` builds directly must equal it, in
the same order.  ``reference_cocycle_witness`` is the full |Gamma|^3
loop over the 2-cocycle identity that Light's test replaced."""

import itertools

from discred.cohomology import _bar_terms
from discred.exactlin import IntMatrix


def normalized_tuples(M, p):
    """The p-tuples over Gamma minus the identity, in lexicographic
    order: the blocks of normalized bar coordinates."""
    others = [g for g in M.gamma.elements() if g != M.gamma.identity]
    return list(itertools.product(others, repeat=p))


def reference_diff_matrix(M, p, rows) -> IntMatrix:
    """Integer matrix of the differential from normalized p-cochains to
    the (p+1)-tuples ``rows`` (none containing the identity), on flat
    coordinates.  Bar terms on a tuple containing the identity vanish on
    normalized cochains and are dropped."""
    index = {tup: i for i, tup in enumerate(normalized_tuples(M, p))}
    t = M.coeff.ncoords
    dim = len(index) * t
    out = [[0] * dim for _ in range(len(rows) * t)]
    for i, tup in enumerate(rows):
        for sign, stup, actor in _bar_terms(M.gamma, tup):
            j = index.get(stup)
            if j is None:
                continue
            if actor is None:
                for k in range(t):
                    out[i * t + k][j * t + k] += sign
            else:
                amat = M.action[actor].matrix
                for r in range(t):
                    row = out[i * t + r]
                    for k in range(t):
                        a = amat[r, k]
                        if a:
                            row[j * t + k] += sign * a
    return IntMatrix.from_rows(out, cols=dim)


def reference_cocycle_witness(M, c):
    """None when the total 2-cochain c satisfies the 2-cocycle identity,
    else the first failing triple (g1, g2, g3) in lexicographic order."""
    d = {k: M.coeff.reduce(v) for k, v in c.values}
    n = M.gamma.order
    for g1 in range(n):
        for g2 in range(n):
            for g3 in range(n):
                lhs = M.coeff.add(M.act(g1, d[(g2, g3)]),
                                  d[(g1, M.gamma.mul(g2, g3))])
                rhs = M.coeff.add(d[(g1, g2)], d[(M.gamma.mul(g1, g2), g3)])
                if lhs != rhs:
                    return (g1, g2, g3)
    return None
