"""Finitely generated abelian groups and diagonalizable groups.

A group is kept in canonical form: a free rank plus a divisibility chain
of invariant factors, so isomorphism testing is structural equality.
Elements are coordinate vectors (free coordinates first, then one
coordinate per invariant factor, reduced mod that factor).

The torus C* is never represented by complex numbers: a diagonalizable
group stores only the torus rank m and the finite part, and all actual
arithmetic happens in the n-torsion subgroups (Z/n)^m (+) (+)_i Z/gcd(f_i, n).
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from operator import mul

from .errors import ValidationError
from .exactlin import IntMatrix
from .record import Record


class FGAbelianGroup(Record):
    free_rank: int
    invariant_factors: tuple  # each > 1, f_i | f_{i+1}

    def __post_init__(self):
        f = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", f)
        if any(x <= 1 for x in f):
            raise ValidationError("invariant factors must be > 1")
        for a, b in zip(f, f[1:]):
            if b % a:
                raise ValidationError("invariant factors must form a divisibility chain")

    @property
    def ncoords(self):
        return self.free_rank + len(self.invariant_factors)

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite:
            raise ValidationError("infinite group has no order")
        return prod(self.invariant_factors)

    def exponent(self):
        if not self.is_finite:
            raise ValidationError("infinite group has no exponent")
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def reduce(self, vec):
        if len(vec) != self.ncoords:
            raise ValidationError("coordinate length mismatch")
        free = tuple(vec[: self.free_rank])
        tors = tuple(v % f for v, f in
                     zip(vec[self.free_rank:], self.invariant_factors))
        return free + tors

    def zero(self):
        return (0,) * self.ncoords

    def add(self, x, y):
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def sub(self, x, y):
        return self.reduce(tuple(a - b for a, b in zip(x, y)))

    def scale(self, n, x):
        return self.reduce(tuple(n * a for a in x))

    def elements(self):
        """All elements, lexicographic in coordinates (finite groups only)."""
        if not self.is_finite:
            raise ValidationError("cannot enumerate an infinite group")
        return [t for t in itertools.product(*(range(f) for f in self.invariant_factors))]

    def element_order(self, x):
        x = self.reduce(x)
        if any(x[: self.free_rank]):
            raise ValidationError("element has infinite order")
        n = 1
        for v, f in zip(x[self.free_rank:], self.invariant_factors):
            if v:
                n = n * (f // gcd(f, v)) // gcd(n, f // gcd(f, v))
        return n

    def same_structure(self, other):
        return (self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{f}" for f in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def _same_reduced_rows(target: FGAbelianGroup, A, B) -> bool:
    """Whether A and B, the row tuples of two matrices of one shape into
    ``target``, have equal columns once reduced in ``target``: the images
    of the source generators, so the two maps agree.  Compared row by
    row: free rows exactly, a torsion row modulo its invariant factor."""
    f = target.free_rank
    return (A[:f] == B[:f]
            and all(not any((a - b) % q for a, b in zip(ra, rb))
                    for ra, rb, q in zip(A[f:], B[f:],
                                         target.invariant_factors)))


class AbHom(Record):
    """Homomorphism between f.g. abelian groups, as an integer matrix on
    the chosen generators (column-vector convention)."""

    source: FGAbelianGroup
    target: FGAbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        M = self.matrix
        if M.rows != self.target.ncoords or M.cols != self.source.ncoords:
            raise ValidationError("hom matrix shape mismatch")
        # Well-definedness: each relation f_i * e_i of the source must land
        # in the relation lattice of the target.
        sf = self.source.free_rank
        tf = self.target.free_rank
        for j, f in enumerate(self.source.invariant_factors):
            col = M.col(sf + j)
            for i in range(tf):
                if f * col[i] != 0:
                    raise ValidationError("hom not well-defined on torsion generator")
            for i, g in enumerate(self.target.invariant_factors):
                if (f * col[tf + i]) % g:
                    raise ValidationError("hom not well-defined on torsion generator")

    def apply(self, x):
        x = self.source.reduce(x)
        return self.target.reduce(self.matrix.apply(x))

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if not other.target.same_structure(self.source):
            raise ValidationError("hom composition mismatch")
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

    def composite_equals(self, other: "AbHom", h: "AbHom") -> bool:
        """Whether self after other equals h as a map, with the same
        source and target: the images of the generators agree once
        reduced in the target, read on the rows of the product alone."""
        if not other.target.same_structure(self.source):
            raise ValidationError("hom composition mismatch")
        if not (other.source.same_structure(h.source)
                and self.target.same_structure(h.target)):
            return False
        B = other.matrix
        cols = tuple(zip(*B.entries)) if B.rows else ((),) * B.cols
        return _same_reduced_rows(
            self.target, tuple(tuple(sum(map(mul, r, c)) for c in cols)
                               for r in self.matrix.entries), h.matrix.entries)

    def is_identity_of(self, G: FGAbelianGroup) -> bool:
        """Whether this is the identity map of G: source and target G,
        and each generator sent to itself once reduced in G."""
        return (self.source.same_structure(G) and self.target.same_structure(G)
                and _same_reduced_rows(G, self.matrix.entries,
                                       IntMatrix.identity(G.ncoords).entries))

    @classmethod
    def identity(cls, G: FGAbelianGroup):
        return cls(G, G, IntMatrix.identity(G.ncoords))


class DiagonalizableGroup(Record):
    """(C*)^torus_rank x finite_part; houses Z(G) and its torsion."""

    torus_rank: int
    finite_part: FGAbelianGroup

    def __post_init__(self):
        if not self.finite_part.is_finite:
            raise ValidationError("finite part must be finite")

    def describe(self):
        parts = ["C*"] * self.torus_rank
        if self.finite_part.invariant_factors:
            parts.append(self.finite_part.describe())
        return " x ".join(parts) if parts else "1"


def torsion_at(G: DiagonalizableGroup, n: int) -> FGAbelianGroup:
    """The n-torsion subgroup Z(G)[n] as a finite abelian group.

    Coordinates: one per finite-part invariant factor f with gcd(f, n) > 1
    (in chain order), then torus_rank coordinates of modulus n.
    """
    if n < 1:
        raise ValidationError("torsion level must be >= 1")
    factors = [gcd(f, n) for f in G.finite_part.invariant_factors]
    factors = [f for f in factors if f > 1]
    if n > 1:
        factors += [n] * G.torus_rank
    return FGAbelianGroup(0, tuple(factors))


def stable_level(G: DiagonalizableGroup, n: int) -> int:
    """The level k_used at which ``cohomology.stabilized_h2`` reads
    H^2(Gamma, G) off the tower G[n^k], n = |Gamma| > 1 (its docstring
    proves it): e + 2 with a torus, max(e, 1) + 1 without, for the least
    e >= 0 with n^e killing the n-part of every finite invariant
    factor."""
    fin = G.finite_part.invariant_factors
    e = 0
    while any(gcd(f, n ** e) != gcd(f, n ** (e + 1)) for f in fin):
        e += 1
    return e + 2 if G.torus_rank else max(e, 1) + 1


def torsion_inclusion(G: DiagonalizableGroup, n: int, N: int) -> AbHom:
    """Canonical inclusion Z(G)[n] -> Z(G)[N] for n | N.

    On a finite-part coordinate the map Z/g -> Z/g' is multiplication by
    g'/g (g = gcd(f, n), g' = gcd(f, N)); on a torus coordinate it is
    Z/n -> Z/N, x -> (N/n) x.
    """
    if N % n:
        raise ValidationError("torsion levels must be nested (n | N)")
    src = torsion_at(G, n)
    dst = torsion_at(G, N)
    fin = G.finite_part.invariant_factors
    src_fin = [gcd(f, n) for f in fin]
    dst_fin = [gcd(f, N) for f in fin]
    # coordinate index maps, skipping trivial (gcd == 1) coordinates
    src_idx = [i for i, g in enumerate(src_fin) if g > 1]
    dst_idx = [i for i, g in enumerate(dst_fin) if g > 1]
    dst_pos = {i: p for p, i in enumerate(dst_idx)}
    M = [[0] * src.ncoords for _ in range(dst.ncoords)]
    for p, i in enumerate(src_idx):
        M[dst_pos[i]][p] = dst_fin[i] // src_fin[i]
    for t in range(G.torus_rank if n > 1 else 0):
        M[len(dst_idx) + t][len(src_idx) + t] = N // n
    return AbHom(src, dst, IntMatrix.from_rows(M, cols=src.ncoords))
