"""Bar-resolution group cohomology H^p(Gamma, A), p <= 2, A finite.

Cochain spaces are finite modules; kernels and images are computed by
exact integer linear algebra.  A degree-p cochain is a total map
Gamma^p -> A, stored flat as an integer vector with one block of
coefficient coordinates per p-tuple (tuples in lexicographic order), so
the whole calculus reduces to Smith normal forms of the differential
matrices lifted to Z with explicit modulus relations.

Degree 3 cochains exist only as differential targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .abgroup import AbHom, DiagonalizableGroup, FGAbelianGroup
from .errors import BudgetExceededError, InternalCheckError, ValidationError
from .exactlin import (IntMatrix, cokernel_presentation,
                       congruence_kernel_basis, echelon_reduce,
                       modular_echelon, smith_normal_form)
from .grouptable import FiniteGroup


@dataclass(frozen=True)
class GammaModule:
    """Finite abelian coefficient group with an action of a finite group."""

    gamma: FiniteGroup
    coeff: FGAbelianGroup
    action: tuple  # AbHom automorphism of coeff, one per gamma element

    def act(self, g, x):
        return self.action[g].apply(x)


def gamma_module(gamma: FiniteGroup, coeff: FGAbelianGroup, action) -> GammaModule:
    """Validated constructor: the action must be a homomorphism into
    Aut(coeff)."""
    if not coeff.is_finite:
        raise ValidationError("coefficient group must be finite")
    action = tuple(action)
    if len(action) != gamma.order:
        raise ValidationError("need one action map per gamma element")
    ident = action[gamma.identity]
    if not ident.equal_as_map(AbHom.identity(coeff)):
        raise ValidationError("action of the identity is not the identity")
    for x in range(gamma.order):
        for y in range(gamma.order):
            lhs = action[x].compose(action[y])
            if not lhs.equal_as_map(action[gamma.mul(x, y)]):
                raise ValidationError(
                    f"action is not a homomorphism at pair ({x}, {y})")
    return GammaModule(gamma, coeff, action)


def trivial_module(gamma: FiniteGroup, coeff: FGAbelianGroup) -> GammaModule:
    ident = AbHom.identity(coeff)
    return GammaModule(gamma, coeff, tuple(ident for _ in range(gamma.order)))


@dataclass(frozen=True)
class Cochain:
    """Total map Gamma^degree -> coefficient group, values keyed by
    tuples of gamma element indices."""

    degree: int
    values: tuple  # sorted tuple of (gamma_tuple, coeff_element) pairs

    @classmethod
    def from_map(cls, degree, mapping):
        return cls(degree, tuple(sorted((tuple(k), tuple(v))
                                        for k, v in mapping.items())))

    def value(self, *gammas):
        d = dict(self.values)
        return d[tuple(gammas)]

    def as_dict(self):
        return dict(self.values)

    def is_normalized(self, identity=0):
        return all(all(v == 0 for v in val)
                   for key, val in self.values if identity in key)


class _Space:
    """Flat coordinates for the cochain module C^p(Gamma, A)."""

    def __init__(self, module: GammaModule, p: int):
        self.module = module
        self.p = p
        self.t = module.coeff.ncoords
        self.tuples = list(itertools.product(range(module.gamma.order),
                                             repeat=p))
        self.index = {tup: i for i, tup in enumerate(self.tuples)}
        self.dim = len(self.tuples) * self.t
        self.mods = tuple(module.coeff.invariant_factors[i % self.t]
                          for i in range(self.dim)) if self.t else ()

    def flat(self, tup, k):
        return self.index[tup] * self.t + k

    def reduce(self, vec):
        return [v % q for v, q in zip(vec, self.mods)]

    def to_cochain(self, vec) -> Cochain:
        vec = self.reduce(vec)
        mapping = {tup: tuple(vec[i * self.t:(i + 1) * self.t])
                   for i, tup in enumerate(self.tuples)}
        return Cochain.from_map(self.p, mapping)

    def from_cochain(self, c: Cochain):
        if c.degree != self.p:
            raise ValidationError("cochain degree mismatch")
        d = c.as_dict()
        vec = [0] * self.dim
        for tup in self.tuples:
            if tup not in d:
                raise ValidationError(f"cochain is not total: missing {tup}")
            val = self.module.coeff.reduce(d[tup])
            for k in range(self.t):
                vec[self.flat(tup, k)] = val[k]
        return vec


def _bar_terms(gamma: FiniteGroup, tup):
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


def differential(M: GammaModule, c: Cochain) -> Cochain:
    """Bar differential C^p -> C^{p+1}, supported for p <= 2."""
    if c.degree > 2:
        raise ValidationError("differential supported only up to degree 2")
    d = c.as_dict()
    coeff = M.coeff
    out = {}
    for tup in itertools.product(range(M.gamma.order), repeat=c.degree + 1):
        total = coeff.zero()
        for sign, src, actor in _bar_terms(M.gamma, tup):
            v = coeff.reduce(d[src])
            if actor is not None:
                v = M.act(actor, v)
            total = coeff.add(total, coeff.scale(sign, v))
        out[tup] = total
    return Cochain.from_map(c.degree + 1, out)


def is_cocycle(M: GammaModule, c: Cochain) -> bool:
    dc = differential(M, c)
    zero = M.coeff.zero()
    return all(v == zero for _, v in dc.values)


def _diff_matrix(M: GammaModule, p: int) -> IntMatrix:
    """Integer matrix of the differential C^p -> C^{p+1} on flat coords."""
    src = _Space(M, p)
    dst = _Space(M, p + 1)
    t = src.t
    rows = [[0] * src.dim for _ in range(dst.dim)]
    for tup in dst.tuples:
        for sign, stup, actor in _bar_terms(M.gamma, tup):
            if actor is None:
                for k in range(t):
                    rows[dst.flat(tup, k)][src.flat(stup, k)] += sign
            else:
                amat = M.action[actor].matrix
                for r in range(t):
                    row = rows[dst.flat(tup, r)]
                    for k in range(t):
                        a = amat[r, k]
                        if a:
                            row[src.flat(stup, k)] += sign * a
    return IntMatrix.from_rows(rows, cols=src.dim)


class _CachedSolver:
    """Integer solver around one precomputed Smith decomposition."""

    def __init__(self, A: IntMatrix):
        self.A = A
        self.snf = smith_normal_form(A)

    def solve(self, b):
        snf = self.snf
        c = snf.U.apply(b)
        diag = snf.diagonal
        y = [0] * self.A.cols
        for i in range(self.A.rows):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % d:
                    return None
                y[i] = c[i] // d
        return snf.V.apply(y)


class CohomologyGroup:
    """H^p as a finite abelian group with normalized representative
    cocycles per canonical generator."""

    def __init__(self, module, degree, group, space, zbasis, zsolver,
                 pres, bnd_solver, bnd_cols, d_prev):
        self.module = module
        self.degree = degree
        self.group = group
        self._space = space
        self._zbasis = zbasis
        self._zsolver = zsolver
        self._pres = pres
        self._bnd_solver = bnd_solver
        self._bnd_cols = bnd_cols
        self._d_prev = d_prev
        self._echelon = None
        self._set_generators(())

    def _set_generators(self, vecs):
        """Generator cocycles, one per invariant factor, as flat vectors
        and as cochains."""
        self._gen_vecs = tuple(vecs)
        self.generators = tuple(self._space.to_cochain(v) for v in vecs)

    def order(self):
        return self.group.order()

    def coordinates_of(self, c: Cochain):
        """Class coordinates of a cocycle in the canonical generators."""
        vec = self._space.from_cochain(c)
        return self._coords_of_vec(vec)

    def _coords_of_vec(self, vec):
        if self._space.dim == 0:
            return ()
        x = self._zsolver.solve(vec)
        if x is None:
            raise ValidationError("cochain is not a cocycle")
        y = self._pres.to_presented.apply(x)
        return tuple(y[i] % m for i, m in enumerate(self._pres.moduli) if m > 1)

    def is_coboundary(self, c: Cochain) -> bool:
        return all(v == 0 for v in self.coordinates_of(c))

    def coboundary_witness(self, c: Cochain):
        """A (p-1)-cochain b with db = c, or None when c is not a
        coboundary."""
        if self.degree == 0:
            return None
        vec = self._space.from_cochain(c)
        if self._space.dim == 0:
            return Cochain.from_map(self.degree - 1, {
                tup: self.module.coeff.zero()
                for tup in _Space(self.module, self.degree - 1).tuples})
        sol = self._bnd_solver.solve(vec)
        if sol is None:
            return None
        prev = _Space(self.module, self.degree - 1)
        return prev.to_cochain(list(sol[: self._bnd_cols]))

    def _normalize_vec(self, vec):
        """Normalized cocycle vector in the same class (degree 2: subtract
        the coboundary of the constant map at c(1,1), which is
        (g1, g2) -> g1.c(1,1))."""
        space = self._space
        vec = space.reduce(vec)
        if self.degree != 2 or space.dim == 0:
            return vec
        M = self.module
        t = space.t
        start = space.flat((M.gamma.identity, M.gamma.identity), 0)
        c11 = vec[start:start + t]
        if not any(c11):
            return vec
        for g1 in range(M.gamma.order):
            gc = M.act(g1, c11)
            for g2 in range(M.gamma.order):
                base = space.flat((g1, g2), 0)
                for k in range(t):
                    vec[base + k] -= gc[k]
        return space.reduce(vec)

    def _canonical_vec(self, vec):
        """Lexicographically smallest normalized cocycle vector in the
        class of the normalized cocycle ``vec``: greedy reduction against
        a triangular basis of the lattice L spanned by the coboundaries of
        normalized 1-cochains and the modulus relations, built on first
        use."""
        space = self._space
        if self.degree != 2 or space.dim == 0:
            return space.reduce(vec)
        if self._echelon is None:
            ident = self.module.gamma.identity
            d1 = self._d_prev
            self._echelon = modular_echelon(
                (d1.col(j) for j in range(d1.cols) if j // space.t != ident),
                space.mods)
        return echelon_reduce(self._echelon, vec, space.mods)

    def _class_vector(self, coords):
        """Unreduced combination of the generator cocycles."""
        vec = [0] * self._space.dim
        for c, gv in zip(coords, self._gen_vecs):
            vec = [a + c * b for a, b in zip(vec, gv)]
        return vec

    def normalize(self, c: Cochain) -> Cochain:
        """The canonical representative of the class of ``c``: the
        lexicographically smallest normalized cocycle in that class (in
        flat coordinates, entries in [0, q)), for every input."""
        vec = self._normalize_vec(self._space.from_cochain(c))
        return self._space.to_cochain(self._canonical_vec(vec))

    def class_representative(self, coords) -> Cochain:
        """The lexicographically smallest normalized cocycle in the class
        with the given coordinates."""
        vec = self._normalize_vec(self._class_vector(coords))
        return self._space.to_cochain(self._canonical_vec(vec))

    def classes(self):
        """Every cohomology class with its canonical (lexicographically
        smallest normalized) representative."""
        out = []
        for coords in itertools.product(
                *(range(f) for f in self.group.invariant_factors)):
            rep = self.class_representative(coords)
            out.append(CohomologyClass(self.module, self.degree, rep,
                                       coords, self.group))
        return out


@dataclass(frozen=True)
class CohomologyClass:
    module: GammaModule
    degree: int
    representative: Cochain
    coordinates: tuple
    group_structure: FGAbelianGroup

    @property
    def is_trivial(self):
        return all(c == 0 for c in self.coordinates)


def cohomology_group(M: GammaModule, p: int, budget: int = 2_000_000) -> CohomologyGroup:
    """H^p(Gamma, A) by exact integer linear algebra.

    The cochain modules are lifted to Z with explicit modulus relations;
    cocycles are a congruence kernel, coboundaries an image lattice, and
    the quotient a cokernel presentation.
    """
    if p not in (0, 1, 2):
        raise ValidationError("cohomology supported only in degrees 0..2")
    space = _Space(M, p)
    nxt = _Space(M, p + 1)
    if space.dim * max(nxt.dim, 1) > budget:
        raise BudgetExceededError(
            f"cochain problem size {space.dim}x{nxt.dim} exceeds budget {budget}")
    if space.dim == 0 or M.coeff.order() == 1:
        return CohomologyGroup(M, p, FGAbelianGroup(0, ()), space,
                               None, None, None, None, 0, None)
    Q = M.coeff.exponent()
    d_p = _diff_matrix(M, p)
    scaled = IntMatrix.from_rows(
        [[(Q // q) * x for x in d_p.row(r)] for r, q in enumerate(nxt.mods)],
        cols=space.dim)
    zbasis = congruence_kernel_basis(scaled, Q)
    zsolver = _CachedSolver(zbasis)

    # boundary generators: image of d_{p-1} plus the modulus relations
    bnd_gens = []
    bnd_cols = 0
    d_prev = None
    if p > 0:
        d_prev = _diff_matrix(M, p - 1)
        bnd_cols = d_prev.cols
        bnd_gens.extend(d_prev.col(j) for j in range(d_prev.cols))
    for i, q in enumerate(space.mods):
        bnd_gens.append(tuple(q if k == i else 0 for k in range(space.dim)))

    coords_rows = []
    for gen in bnd_gens:
        x = zsolver.solve(gen)
        if x is None:
            raise InternalCheckError("boundary generator is not a cocycle")
        coords_rows.append(x)
    pres = cokernel_presentation(IntMatrix.from_rows(coords_rows,
                                                     cols=space.dim))
    if pres.free_rank != 0:
        raise InternalCheckError("cohomology of a finite module came out infinite")
    group = FGAbelianGroup(0, pres.invariant_factors)

    # witness solver: [d_{p-1} | diag(mods_p)] x = cocycle
    bnd_solver = None
    if p > 0:
        cols = bnd_cols + space.dim
        rows = []
        for r in range(space.dim):
            left = d_prev.row(r) if bnd_cols else ()
            right = tuple(space.mods[r] if k == r else 0
                          for k in range(space.dim))
            rows.append(tuple(left) + right)
        bnd_solver = _CachedSolver(IntMatrix.from_rows(rows, cols=cols))

    H = CohomologyGroup(M, p, group, space, zbasis, zsolver, pres,
                        bnd_solver, bnd_cols, d_prev)
    H._set_generators([
        H._normalize_vec(zbasis.apply(pres.from_presented.col(pos)))
        for pos, m in enumerate(pres.moduli) if m > 1])
    return H


def eckmann_check(M: GammaModule, p: int, H: CohomologyGroup = None) -> bool:
    """|Gamma| * H^p = 0 for p >= 1 (the transfer argument); failure
    would be a bug, never an input problem."""
    if p < 1:
        raise ValidationError("the transfer bound only holds in degree >= 1")
    if H is None:
        H = cohomology_group(M, p)
    n = M.gamma.order
    for gen in H.generators:
        scaled = Cochain.from_map(
            p, {tup: M.coeff.scale(n, val) for tup, val in gen.values})
        if any(c != 0 for c in H.coordinates_of(scaled)):
            return False
    return True


def cochain_sum(coeff: FGAbelianGroup, terms) -> Cochain:
    """Sum of (multiplier, cochain) terms with values in ``coeff``."""
    terms = list(terms)
    if not terms:
        raise ValidationError("empty cochain sum")
    degree = terms[0][1].degree
    keys = [k for k, _ in terms[0][1].values]
    out = {k: coeff.zero() for k in keys}
    for mult, c in terms:
        if c.degree != degree:
            raise ValidationError("cochain degree mismatch in sum")
        for k, v in c.values:
            out[k] = coeff.add(out[k], coeff.scale(mult, v))
    return Cochain.from_map(degree, out)


def push_cochain(inc: AbHom, c: Cochain) -> Cochain:
    """Apply a coefficient homomorphism to every value of a cochain."""
    return Cochain.from_map(c.degree,
                            {tup: inc.apply(val) for tup, val in c.values})


@dataclass(frozen=True)
class StabilizedH2:
    """Stable value of the torsion tower H^2(Gamma, Z[n^k])."""

    group: FGAbelianGroup
    k_used: int
    representatives: tuple        # normalized cocycles, values in Z[n^k_used]
    module: GammaModule           # the coefficient module at level k_used
    cohomology: CohomologyGroup   # H^2 at level k_used
    tower_orders: tuple           # |H^2| at each computed level
    comparison_iso: tuple         # iso flags for the H-level comparison maps


def _image_subgroup(Hs, Ht, inclusion):
    """(structure, generator coord vectors in Ht) of the image of Hs in Ht
    under the coefficient inclusion."""
    pushed = [Ht.coordinates_of(push_cochain(inclusion, gen))
              for gen in Hs.generators]
    g = len(pushed)
    tf = Ht.group.invariant_factors
    if g == 0:
        return FGAbelianGroup(0, ()), []
    # kernel of Z^g -> Ht
    cols = g + len(tf)
    rows = []
    for i in range(len(tf)):
        rows.append(tuple(pushed[j][i] for j in range(g))
                    + tuple(tf[i] if k == i else 0 for k in range(len(tf))))
    from .exactlin import kernel_basis
    K = kernel_basis(IntMatrix.from_rows(rows, cols=cols)) if rows else []
    rel_rows = [k[:g] for k in K]
    pres = cokernel_presentation(IntMatrix.from_rows(rel_rows, cols=g)
                                 if rel_rows else IntMatrix.from_rows([], cols=g))
    if pres.free_rank != 0:
        raise InternalCheckError("image subgroup came out infinite")
    struct = FGAbelianGroup(0, pres.invariant_factors)
    gens = []
    for pos in [i for i, m in enumerate(pres.moduli) if m > 1]:
        x = pres.from_presented.col(pos)
        coord = tuple(sum(x[j] * pushed[j][i] for j in range(g)) % tf[i]
                      for i in range(len(tf)))
        gens.append(coord)
    return struct, gens


def stabilized_h2(gamma: FiniteGroup, Z: DiagonalizableGroup, module_at,
                  max_k: int = 4, budget: int = 2_000_000) -> StabilizedH2:
    """H^2(Gamma, Z_fin) via the torsion tower Z[n^k], n = |Gamma|.

    ``module_at(n_power)`` must return the GammaModule on the torsion
    subgroup Z[n_power], compatibly across levels.  The stable value is
    the image of one tower level in the next once those images agree (as
    measured through the inclusion-induced comparison maps) for two
    consecutive steps.
    """
    from .abgroup import torsion_inclusion

    n = gamma.order
    if n == 1:
        M = module_at(1)
        H = cohomology_group(M, 2, budget=budget)
        return StabilizedH2(H.group, 1, H.generators, M, H,
                            (H.order(),), ())

    Hs = {}
    Ms = {}

    def level(k):
        if k not in Hs:
            Ms[k] = module_at(n ** k)
            Hs[k] = cohomology_group(Ms[k], 2, budget=budget)
        return Hs[k]

    def inclusion(k):
        return torsion_inclusion(Z, n ** k, n ** (k + 1))

    iso_flags = []
    images = {}

    def image(k):
        if k not in images:
            images[k] = _image_subgroup(level(k), level(k + 1), inclusion(k))
        return images[k]

    def comparison_iso(k):
        """Is the map image(k) -> image(k+1) an isomorphism?"""
        s1, g1 = image(k)
        s2, _ = image(k + 1)
        if not s1.same_structure(s2):
            return False
        # push the image generators one more level and measure the order
        Hk1, Hk2 = level(k + 1), level(k + 2)
        inc = inclusion(k + 1)
        pushed_gens = []
        t = Hk1._space.t
        for coord in g1:
            vec = Hk1._class_vector(coord)
            pushed = [x for i in range(0, len(vec), t)
                      for x in inc.matrix.apply(vec[i:i + t])]
            pushed_gens.append(Hk2._coords_of_vec(pushed))
        tf = Hk2.group.invariant_factors
        if not pushed_gens:
            return True
        rows = []
        g = len(pushed_gens)
        for i in range(len(tf)):
            rows.append(tuple(pushed_gens[j][i] for j in range(g))
                        + tuple(tf[i] if m == i else 0 for m in range(len(tf))))
        from .exactlin import kernel_basis
        K = kernel_basis(IntMatrix.from_rows(rows, cols=g + len(tf)))
        rel_rows = [v[:g] for v in K]
        pres = cokernel_presentation(IntMatrix.from_rows(rel_rows, cols=g)
                                     if rel_rows else
                                     IntMatrix.from_rows([], cols=g))
        pushed_order = prod(pres.invariant_factors) if pres.free_rank == 0 else 0
        return pushed_order == s1.order()

    stable_at = None
    k = 1
    while k + 3 <= max_k:
        ok1 = comparison_iso(k)
        iso_flags.append(ok1)
        if ok1 and comparison_iso(k + 1):
            stable_at = k
            break
        k += 1

    if stable_at is None:
        raise BudgetExceededError(
            f"torsion tower did not stabilize within max_k={max_k}; "
            f"partial tower orders: "
            f"{tuple(Hs[j].order() for j in sorted(Hs))}")

    k_used = stable_at + 1
    struct, gen_coords = image(stable_at)
    Hk = level(k_used)
    reps = tuple(Hk.class_representative(c) for c in gen_coords)
    tower_orders = tuple(Hs[j].order() for j in sorted(Hs))
    return StabilizedH2(struct, k_used, reps, Ms[k_used], Hk,
                        tower_orders, tuple(iso_flags))
