"""Reference copies of bar-complex routines that ``relations`` replaced
by faster ones, kept for the tests that check them entry for entry.

``reference_diff_matrix`` is the normalized bar differential as a dense
matrix, built row by row from the bar terms of each target tuple, as
``cohomology`` once built it for the cocycle rows of degrees 0 and 1
and for the triangular basis of canonical representatives; the columns
``RelationModule.bar_coboundaries`` builds directly must equal it, in
the same order.  ``reference_cocycle_witness`` is the full |Gamma|^3
loop over the 2-cocycle identity that Light's test replaced.

``reference_differential`` is the public bar ``differential`` as it was
before cochains were read by position: a dict of the cochain, every term
of ``bar_terms`` reduced, acted on and added one at a time.  The
library's ``differential`` must equal it, value for value and in its
errors."""

import itertools

from discred.cohomology import Cochain
from discred.errors import ValidationError
from discred.exactlin import IntMatrix


def bar_terms(gamma, tup):
    """(sign, source_tuple, acting_element_or_None) terms of the bar
    differential evaluated at ``tup``."""
    p1 = len(tup)
    terms = [(1, tup[1:], tup[0])]
    sign = -1
    for i in range(1, p1):
        merged = tup[:i - 1] + (gamma.mul(tup[i - 1], tup[i]),) + tup[i + 1:]
        terms.append((sign, merged, None))
        sign = -sign
    terms.append((sign, tup[:-1], None))
    return terms


def reference_differential(M, c) -> Cochain:
    """Bar differential C^p -> C^{p+1}, supported for p <= 2."""
    if c.degree > 2:
        raise ValidationError("differential supported only up to degree 2")
    d = c.as_dict()
    coeff = M.coeff
    out = {}
    for tup in itertools.product(range(M.gamma.order), repeat=c.degree + 1):
        total = coeff.zero()
        for sign, src, actor in bar_terms(M.gamma, tup):
            v = coeff.reduce(d[src])
            if actor is not None:
                v = M.act(actor, v)
            total = coeff.add(total, coeff.scale(sign, v))
        out[tup] = total
    return Cochain.from_map(c.degree + 1, out)


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
        for sign, stup, actor in bar_terms(M.gamma, tup):
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
