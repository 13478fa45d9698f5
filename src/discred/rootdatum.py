"""Root data, reflections, Weyl groups, Dynkin diagrams, and centers.

A root datum is the combinatorial stand-in for a connected reductive
group: two dual lattices (character and cocharacter, both Z^rank with
the dot product as pairing) plus matching lists of roots and coroots.
Degenerate data with no roots are legal and model tori.

Every based datum, given by simple roots or by explicit roots, is
checked by one closure: its simple roots and coroots closed under the
simple reflections (``close_simple``) must give exactly its (root,
coroot) pairs.  The data this accepts are the reduced ones, those of
connected reductive groups.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from .abgroup import DiagonalizableGroup, FGAbelianGroup
from .errors import InternalCheckError, ValidationError
from .exactlin import IntMatrix, cokernel_presentation, smith_normal_form
from .grouptable import permutation_closure
from .record import Record, field

# Largest Weyl group that ``weyl_generate`` enumerates.
WEYL_CAP = 100000
# Largest root system that ``close_simple`` closes from simple data
# alone before calling the input a runaway.
ROOT_CAP = 10000


class RootDatum(Record):
    rank: int
    roots: tuple      # tuple of integer vectors in X^* coordinates
    coroots: tuple    # tuple of integer vectors in X_* coordinates, bijective

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(map(tuple, self.roots)))
        object.__setattr__(self, "coroots", tuple(map(tuple, self.coroots)))

    @property
    def nroots(self):
        return len(self.roots)

    def pairing(self, coroot, root):
        return sum(map(mul, coroot, root))


class BasedRootDatum(Record):
    datum: RootDatum
    simple_indices: tuple
    # the roots' coefficients in the simple roots, recorded by
    # ``standard.from_simple``, whose closure built the datum, so that
    # ``simple_coefficients`` does not run the same closure again; not
    # compared
    closure_coefficients: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "simple_indices", tuple(self.simple_indices))

    @property
    def simple_roots(self):
        return tuple(self.datum.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.datum.coroots[i] for i in self.simple_indices)

    @cached_property
    def simple_coefficients(self):
        """The roots' coefficients in the simple roots as ``close_simple``
        finds them, computed on first use and kept with the datum: the
        closure of the simple data, which must give exactly the datum's
        (root, coroot) pairs, else ValidationError.  A datum that
        ``from_simple`` built is that closure and keeps its record.  Read
        only once ``defect`` has found the simple roots independent, so
        the coefficients are unique."""
        if self.closure_coefficients is not None:
            return self.closure_coefficients
        roots = self.datum.roots
        _, coeffs = close_simple(self.simple_roots, self.simple_coroots,
                                 dict(zip(roots, self.datum.coroots)))
        return tuple(tuple(coeffs[b]) for b in roots)

    @cached_property
    def defect(self):
        """``validate_based``'s verdict, computed on first use and kept
        with the datum: None, or a message naming the first failure.

        One check for every datum.  After the shape of the pairs,
        distinct roots, <coroot, root> = 2, the simple indices and the
        independence of the simple roots (the rank of one Smith form of
        them), the closure of the simple data under the simple
        reflections must be the datum (``simple_coefficients``): then it
        is a root datum (``close_simple``).  Last, every root must be a
        nonnegative or nonpositive combination of the simple roots, so
        that they are a base.  A reduced based root datum passes, as
        each of its roots is a Weyl conjugate of a simple root with the
        transported coroot (Springer, Linear Algebraic Groups, 7.4); a
        non-reduced one, such as BC_1, fails at a root the simple
        reflections never reach, and no reductive group has it."""
        datum, rank = self.datum, self.datum.rank
        if len(datum.roots) != len(datum.coroots):
            return "roots and coroots are not bijective (length mismatch)"
        seen = set()
        for k, (b, bv) in enumerate(zip(datum.roots, datum.coroots)):
            if len(b) != rank or len(bv) != rank:
                return f"root/coroot {k} has wrong length for rank {rank}"
            if b in seen:
                return f"duplicate root {b}"
            seen.add(b)
            m = sum(map(mul, bv, b))
            if m != 2:
                return (f"pairing <coroot, root> != 2 for pair {k}: "
                        f"<{bv}, {b}> = {m}")
        idx = self.simple_indices
        if len(set(idx)) != len(idx) or any(i < 0 or i >= datum.nroots
                                            for i in idx):
            return "simple_indices is not a subset of the root indices"
        if idx and smith_normal_form(simple_matrix(self),
                                     keep=()).rank < len(idx):
            return "simple roots are linearly dependent"
        try:
            coefficients = self.simple_coefficients
        except ValidationError as e:
            return str(e)
        for b, coeffs in zip(datum.roots, coefficients):
            if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                return (f"root {b} is neither positive nor negative "
                        f"(coeffs {coeffs})")
        return None


class WeylGroup(Record):
    """W as permutations of the root indices, in BFS order from the
    identity: ``permutations[i][j]`` is the index of w_i(root j).  W acts
    faithfully on the roots of a valid datum (it fixes the coroot-
    orthogonal part of X^* pointwise), so the permutations are W; no
    caller needs its matrices on X^*."""
    rank: int
    permutations: tuple

    @property
    def order(self):
        return len(self.permutations)


class DynkinDiagram(Record):
    vertices: tuple   # simple-root indices into the datum's root list
    edges: tuple      # (i, j, <alpha_j^v, alpha_i>, <alpha_i^v, alpha_j>) with i < j
                      # positions i, j index into ``vertices``


def close_simple(simple_roots, simple_coroots, listed=None):
    """The closure of simple roots and coroots under the simple
    reflections: dicts root -> coroot and root -> its coefficients in the
    simple roots.

    Each root keeps the coefficients it was found with: simple root i
    starts at e_i, and s_i r = r - <alpha_i^v, r> alpha_i lowers
    coefficient i by that pairing.

    The closure is also the check of the root-datum axioms, given
    <alpha_i^v, alpha_i> = 2.  Every edge (r, c) -> (s_i r, s_i^v c) is
    visited once, and a root reached again must carry the same coroot,
    so every root is w alpha_j with coroot w^{-t} alpha_j^v, w a product
    of the s_i (s_i^v is the transpose of the involution s_i).  The
    pairing is W-invariant, so <c(r), r> = <alpha_j^v, alpha_j> = 2;
    s_r = w s_j w^{-1} permutes R and s_r^v = w^{-t} s_j^v w^t permutes
    R^v, as R is closed under every s_i and R^v under every s_i^v
    (Springer, Linear Algebraic Groups, 7.4).  When <alpha_i^v, r> = 0,
    s_i r = r and the transported coroot c - <c, alpha_i> alpha_i^v is c
    exactly when <c, alpha_i> = 0, so only that pairing is computed.

    With ``listed``, a datum's map root -> coroot, the closure must give
    exactly its pairs: it stops at the first root it reaches that
    ``listed`` does not hold with the transported coroot, so it reaches
    at most one root more than ``listed`` holds, and then names a listed
    root it never reached.  Without ``listed`` it stops at ``ROOT_CAP``
    roots.  Raises ValidationError at the first failure.
    """
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
                    continue
                if listed is None:
                    if len(pairs) >= ROOT_CAP:
                        raise ValidationError("root system closure runaway")
                elif r2 not in listed:
                    raise ValidationError(
                        f"the reflection at simple root {a} takes root {r} "
                        f"to {r2}, which is not a root")
                elif listed[r2] != c2:
                    raise ValidationError(
                        f"the reflection at simple root {a} takes root {r} "
                        f"to {r2} with coroot {c2}, not {listed[r2]}")
                pairs[r2] = c2
                coeffs[r2] = k2 = k.copy()
                k2[i] -= n
                nxt.append(r2)
        frontier = nxt
    if listed is not None and len(pairs) < len(listed):
        missing = next(b for b in listed if b not in pairs)
        raise ValidationError(f"root {missing} is not reached by the simple "
                              f"reflections")
    return pairs, coeffs


def _reflect(v, m, a):
    """v - m a, the image of v under the reflection at a when
    m = <a^v, v>."""
    return tuple(x - m * y for x, y in zip(v, a))


def validate_based(based: BasedRootDatum):
    """None when the based-datum invariants hold, else a message; checked
    once per datum."""
    return based.defect


def require_valid_based(based: BasedRootDatum):
    msg = validate_based(based)
    if msg is not None:
        raise ValidationError(msg)


def simple_matrix(based: BasedRootDatum) -> IntMatrix:
    """rank x (number of simple roots) matrix with simple roots as columns."""
    rank = based.datum.rank
    cols = based.simple_roots
    return IntMatrix._of(rank, len(cols),
                         tuple(tuple(c[i] for c in cols) for i in range(rank)))


def weyl_generate(based: BasedRootDatum) -> WeylGroup:
    """Closure of the simple reflections, deterministic element order.
    Raises ValidationError with ``validate_based``'s message for an
    invalid datum, before any closure."""
    require_valid_based(based)
    datum = based.datum
    index = {b: j for j, b in enumerate(datum.roots)}
    perms = []
    for k in based.simple_indices:
        a, av = datum.roots[k], datum.coroots[k]
        perms.append(tuple(index[_reflect(b, datum.pairing(av, b), a)]
                           for b in datum.roots))
    elems, _, _ = permutation_closure(datum.nroots, perms, WEYL_CAP, "Weyl")
    return WeylGroup(datum.rank, tuple(elems))


def _positive_indices(based: BasedRootDatum):
    """Indices of the roots in the positive system R+ of the base."""
    return [j for j, coeffs in enumerate(based.simple_coefficients)
            if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs)]


class PositiveSystem(Record):
    roots: tuple       # sorted tuple of root vectors
    weyl: WeylGroup
    index: int         # of the w carrying the base system onto this one


def positive_systems(weyl: WeylGroup, based: BasedRootDatum):
    """Orbit of R+(base) under W, with the unique w carrying the base
    system onto each.  Asserts that w -> w.R+ is a bijection.  Raises
    ValidationError with ``validate_based``'s message for an invalid
    datum."""
    require_valid_based(based)
    pos = _positive_indices(based)
    roots = based.datum.roots
    # the roots are distinct, so sorted ranks order the systems as the
    # sorted root tuples would; roots are built only for the result
    by_rank = sorted(range(len(roots)), key=roots.__getitem__)
    rank = [0] * len(roots)
    for r, j in enumerate(by_rank):
        rank[j] = r
    systems = {}
    for i, w in enumerate(weyl.permutations):
        key = tuple(sorted([rank[w[j]] for j in pos]))
        if key in systems:
            raise InternalCheckError(
                "two Weyl elements map the base system to the same positive "
                "system (simple transitivity fails)")
        systems[key] = i
    return [PositiveSystem(tuple(roots[by_rank[r]] for r in key), weyl,
                           systems[key]) for key in sorted(systems)]


def dynkin(based: BasedRootDatum) -> DynkinDiagram:
    """Dynkin diagram on the simple roots; an edge joins two distinct
    vertices iff their pairing is nonzero, and carries both pairings."""
    k = len(based.simple_indices)
    roots = based.simple_roots
    coroots = based.simple_coroots
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            down = based.datum.pairing(coroots[j], roots[i])
            up = based.datum.pairing(coroots[i], roots[j])
            if (down != 0) != (up != 0):
                raise ValidationError(
                    f"asymmetric vanishing of pairings between simple roots "
                    f"{i} and {j}")
            if down != 0:
                edges.append((i, j, down, up))
    return DynkinDiagram(tuple(based.simple_indices), tuple(edges))


def cartan_pairing(based: BasedRootDatum, i: int, j: int) -> int:
    """<alpha_i^v, alpha_j> on simple positions i, j."""
    return based.datum.pairing(based.simple_coroots[i], based.simple_roots[j])


class CenterData(Record):
    """Z(G) = Hom(X^*/ZR, C*) together with the SNF presentation of
    X^*/ZR used to transport automorphism actions exactly.

    ``moduli`` has one entry per presented coordinate of X^*/ZR: d >= 1
    for torsion (1 = trivial), 0 for free.  ``to_presented`` maps standard
    X^* coordinates to presented coordinates.
    """
    group: DiagonalizableGroup
    to_presented: IntMatrix
    from_presented: IntMatrix
    moduli: tuple


def center_data(datum: RootDatum) -> CenterData:
    rank = datum.rank
    rel = IntMatrix.from_rows(list(datum.roots), cols=rank)
    pres = cokernel_presentation(rel)
    fin = FGAbelianGroup(0, pres.invariant_factors)
    group = DiagonalizableGroup(torus_rank=pres.free_rank, finite_part=fin)
    return CenterData(group=group,
                      to_presented=pres.to_presented,
                      from_presented=pres.from_presented,
                      moduli=pres.moduli)


def center(datum: RootDatum) -> DiagonalizableGroup:
    """Z(G) as a diagonalizable group: m torus factors plus the finite
    part read off the SNF of the root relations."""
    return center_data(datum).group
