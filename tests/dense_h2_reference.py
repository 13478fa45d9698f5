"""The dense route to H^p that ``cohomology.cohomology_group`` took before
it eliminated unit pivots: ``congruence_kernel_basis`` of the whole of
d_p as a dense matrix, the boundary generators and every modulus
relation q_i e_i in its basis, and one ``cokernel_presentation`` of
them.  Kept as the reference that the sparse elimination must match.

``dense_witness`` is the coboundary witness as it was solved before it
used the cokernel's relations: one dense Smith form of
[d_(p-1) | diag(mods)]."""

from discred.cohomology import Cochain
from discred.exactlin import (IntMatrix, cokernel_presentation,
                              congruence_kernel_basis, smith_normal_form)
from discred.relations import RelationModule


def dense_rows(rows, n):
    """The sparse (column, value) rows as one dense n-column matrix."""
    out = []
    for row in rows:
        dense = [0] * n
        for j, v in row:
            dense[j] += v
        out.append(dense)
    return IntMatrix.from_rows(out, cols=n)


class DenseH:
    """H^p of the module M on the complex of ``RelationModule(M, p)``:
    ``invariant_factors`` and ``coordinates(vec)``, the class of a
    cocycle vector of the complex, or None when it is no cocycle."""

    def __init__(self, M, p):
        rel = RelationModule(M, p)
        Q = M.coeff.exponent()
        self.mods = rel.mods
        self.kernel = congruence_kernel_basis(
            dense_rows(rel.cocycle_rows(Q), rel.dim), Q)
        rels = [self.kernel.coordinates(b) for b in rel.coboundaries()]
        rels += [self.kernel.unit_coordinates(i, q)
                 for i, q in enumerate(rel.mods)]
        assert None not in rels
        self.pres = cokernel_presentation(
            IntMatrix.from_rows(rels, cols=rel.dim))
        assert self.pres.free_rank == 0
        self.invariant_factors = self.pres.invariant_factors

    def coordinates(self, vec):
        x = self.kernel.coordinates(vec)
        if x is None:
            return None
        y = self.pres.to_presented.apply(x)
        return tuple(y[i] % m for i, m in enumerate(self.pres.moduli)
                     if m > 1)


def dense_witness(M, c):
    """A (p-1)-cochain b with db = c, or None, for a p-cochain c, p in
    {1, 2}: the tree lift of ``RelationModule.coboundary_witness`` on a
    solution of [d_(p-1) | diag(mods)] x = phi, the first |C^(p-1)|
    entries of x being a with d_(p-1) a = phi (mod mods)."""
    p = c.degree
    rel = RelationModule(M, p)
    width = rel.blocks[p - 1] * rel.t
    rows = [row + [(width + r, q)]
            for r, (row, q) in enumerate(zip(rel._rows(p - 1), rel.mods))]
    smith = smith_normal_form(dense_rows(rows, width + rel.dim))
    values = rel.coboundary_witness(c, smith.solve)
    return None if values is None else Cochain(p - 1, values)
