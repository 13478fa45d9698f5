"""Root data, reflections, Weyl groups, Dynkin diagrams, and centers.

A root datum is the combinatorial stand-in for a connected reductive
group: two dual lattices (character and cocharacter, both Z^rank with
the dot product as pairing) plus matching lists of roots and coroots.
Degenerate data with no roots are legal and model tori.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import mul

from .abgroup import DiagonalizableGroup, FGAbelianGroup
from .errors import InternalCheckError, ValidationError
from .exactlin import IntMatrix, cokernel_presentation, smith_normal_form
from .grouptable import permutation_closure
from .record import Record, field

# Largest Weyl group that ``weyl_generate`` enumerates.
WEYL_CAP = 100000


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
    # the roots' coefficients in the simple roots as ``from_simple``'s
    # closure found them (None for explicit roots); not compared.  A
    # datum that carries them is trusted to be closed: ``defect`` skips
    # ``validate`` for it
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
    def simple_smith(self):
        """The Smith form of ``simple_matrix``, kept with the datum: it
        decides independence in ``defect`` and solves for coefficients
        (``express_in_simple``).  A datum with ``closure_coefficients``
        reads its coefficients off the closure and only the rank here,
        so its form keeps no transform."""
        keep = () if self.closure_coefficients is not None else ("U", "V")
        return smith_normal_form(simple_matrix(self), keep=keep)

    @cached_property
    def simple_coefficients(self):
        """The roots' coefficients in the simple roots: the closure's
        record when there is one, else ``express_in_simple``, computed on
        first use and kept with the datum.  Read only once ``defect`` has
        found the simple roots independent, so the two agree."""
        if self.closure_coefficients is not None:
            return self.closure_coefficients
        return express_in_simple(self)

    @cached_property
    def defect(self):
        """``validate_based``'s verdict, computed on first use and kept
        with the datum.

        A datum that ``standard.from_simple`` closed (it carries
        ``closure_coefficients``) satisfies every axiom of ``validate``
        except, possibly, distinct roots: its closure transported each
        coroot consistently along every edge, so <c(r), r> = 2 and the
        reflections and coreflections at every root are conjugates
        w s_j w^{-1} and w^{-t} s_j^v w^t of simple ones, which permute
        the closed sets R and R^v (the proof is ``from_simple``'s).  Its
        non-simple roots are distinct keys of the closure, none of them
        simple, so only a repeated simple root is left to find, with
        ``validate``'s message.  Explicit roots take the full
        ``validate``."""
        if self.closure_coefficients is None:
            msg = validate(self.datum)
        else:
            msg = _repeated_simple_root(self.simple_roots)
        if msg is not None:
            return msg
        idx = self.simple_indices
        if len(set(idx)) != len(idx) or any(i < 0 or i >= self.datum.nroots
                                            for i in idx):
            return "simple_indices is not a subset of the root indices"
        # linear independence: the simple-root matrix has full column rank
        if idx and self.simple_smith.rank < len(idx):
            return "simple roots are linearly dependent"
        for b, coeffs in zip(self.datum.roots, self.simple_coefficients):
            if coeffs is None:
                return (f"root {b} is not an integer combination of the "
                        f"simple roots")
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


def validate(datum: RootDatum):
    """None when every root-datum axiom holds, else a message naming the
    first violated axiom and a witness."""
    if len(datum.roots) != len(datum.coroots):
        return "roots and coroots are not bijective (length mismatch)"
    seen = set()
    for k, (b, bv) in enumerate(zip(datum.roots, datum.coroots)):
        if len(b) != datum.rank or len(bv) != datum.rank:
            return f"root/coroot {k} has wrong length for rank {datum.rank}"
        if b in seen:
            return f"duplicate root {b}"
        seen.add(b)
        if datum.pairing(bv, b) != 2:
            return (f"pairing <coroot, root> != 2 for pair {k}: "
                    f"<{bv}, {b}> = {datum.pairing(bv, b)}")
    # pairing[k][j] = <coroot k, root j>: row k serves the reflection at
    # root k, column k the coreflection; a zero pairing fixes the vector.
    # Row k sums x times coordinate column i of the roots over the
    # nonzero coordinates x = coroot k [i]; every coroot has one, as its
    # pairing with its root is 2.
    root_columns = list(zip(*datum.roots))
    pairing = []
    for bv in datum.coroots:
        row = None
        for x, column in zip(bv, root_columns):
            if x:
                row = ([x * y for y in column] if row is None else
                       [p + x * y for p, y in zip(row, column)])
        pairing.append(row)
    # Membership by exact linear keys: balanced base-B digits with
    # B > 2 max|coordinate| (1 + max|pairing|) number every root, coroot
    # and image v - m a below injectively, and key(v - m a) is
    # key(v) - m key(a); an image is built only for a failure message.
    bound = max(map(abs, chain.from_iterable(datum.roots + datum.coroots)),
                default=0)
    top = max(map(abs, chain.from_iterable(pairing)), default=0)
    base = 2 * bound * (1 + top) + 1
    powers = [base ** i for i in range(datum.rank)]
    root_keys = [sum(map(mul, b, powers)) for b in datum.roots]
    coroot_keys = [sum(map(mul, bv, powers)) for bv in datum.coroots]
    root_set, coroot_set = set(root_keys), set(coroot_keys)
    columns = list(zip(*pairing))
    for k, (ka, kav) in enumerate(zip(root_keys, coroot_keys)):
        row, col = pairing[k], columns[k]
        if not root_set.issuperset([kb - m * ka
                                    for kb, m in zip(root_keys, row)]):
            j = next(j for j, m in enumerate(row)
                     if root_keys[j] - m * ka not in root_set)
            b, a = datum.roots[j], datum.roots[k]
            return (f"reflection at root {k} does not permute the "
                    f"roots (image of {b} is {_reflect(b, row[j], a)})")
        if not coroot_set.issuperset([kbv - m * kav
                                      for kbv, m in zip(coroot_keys, col)]):
            j = next(j for j, m in enumerate(col)
                     if coroot_keys[j] - m * kav not in coroot_set)
            bv, av = datum.coroots[j], datum.coroots[k]
            return (f"coreflection at root {k} does not permute the "
                    f"coroots (image of {bv} is {_reflect(bv, col[j], av)})")
    return None


def _repeated_simple_root(simple_roots):
    """``validate``'s "duplicate root" message for the first simple root
    equal to an earlier one, else None."""
    seen = set()
    for b in simple_roots:
        if b in seen:
            return f"duplicate root {b}"
        seen.add(b)
    return None


def _reflect(v, m, a):
    """v - m a, the image of v under the reflection (or, with a coroot
    for a, the coreflection) at a when m = <a^v, v>."""
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


def express_in_simple(based: BasedRootDatum):
    """Integer coefficients of each root in the simple roots (None for a
    root outside their span), from the datum's one Smith form of the
    simple-root matrix; a datum whose closure recorded them keeps no
    transforms there, so solving on one takes a Smith form of its own."""
    snf = based.simple_smith
    if snf.U is None:
        snf = smith_normal_form(simple_matrix(based))
    return [snf.solve(b) for b in based.datum.roots]


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
    pos = []
    for j, coeffs in enumerate(based.simple_coefficients):
        if coeffs is None:
            raise ValidationError(f"root {based.datum.roots[j]} not in the "
                                  f"simple-root lattice")
        if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs):
            pos.append(j)
    return pos


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
