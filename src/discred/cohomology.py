"""Group cohomology H^p(Gamma, A), p <= 2, A finite.

A cochain, the public ``Cochain``, is a total map Gamma^p -> A that
owns its one layout, the n^p values in product order.  Every degree is
computed on one complex, A -> A^S -> Hom_Gamma(R, A), from the relation
module R of the Cayley graph of (Gamma, S) (``relations.RelationModule``):
t, |S| t and (n|S| - n + 1) t unknowns in degrees 0, 1, 2 instead of
(n-1)^p t.  Bar cochains stay the API; ``relations`` reads each once
(``read_cochain``) and alone knows their normalized layout (Brown,
Cohomology of Groups, GTM 87, I.5).  This module does the lattice work:
congruence kernels, cokernels with modulus relations, coboundary
witnesses on them and the triangular basis of the normalized bar
coboundaries that canonical representatives reduce against.  The full
bar ``differential``, on the same reader, is the public checker.

Classes travel up the torsion tower and into ``classify`` as coordinate
vectors; a ``Cochain`` is built only when a caller asks for one
(``generators``, ``class_representative``, ``representatives``).

Degree 3 cochains exist only as differential targets.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .abgroup import (AbHom, DiagonalizableGroup, FGAbelianGroup,
                      stable_level, torsion_inclusion)
from .errors import InternalCheckError, ValidationError
from .exactlin import (IntMatrix, cokernel_presentation,
                       congruence_kernel_basis, echelon_reduce,
                       modular_echelon, smith_normal_form, unit_pivot_kernel)
from .grouptable import FiniteGroup, first_failing_pair
from .record import Record
from .relations import (RelationModule, columns_vanish, read_cochain,
                        reduce_columns, require_within_budget)


class GammaModule(Record):
    """Finite abelian group (every ``FGAbelianGroup`` is) with an action
    of a finite group, checked when built to be a homomorphism into
    Aut(coeff).  With the identity acting trivially it is one when
    x.(s.a) = (xs).a for all x and all s in S = ``gamma.generators``:
    every y is a word in S, and if x.(w.a) = (xw).a for all x then
    x.((ws).a) = x.(w.(s.a)) = (xw).(s.a) = (xws).a, by induction on
    the length of y."""

    gamma: FiniteGroup
    coeff: FGAbelianGroup
    action: tuple  # AbHom automorphism of coeff, one per gamma element

    def __post_init__(self):
        action = tuple(self.action)
        object.__setattr__(self, "action", action)
        if len(action) != self.gamma.order:
            raise ValidationError("need one action map per gamma element")
        if not action[self.gamma.identity].is_identity_of(self.coeff):
            raise ValidationError("action of the identity is not the identity")
        bad = first_failing_pair(self.gamma, action, AbHom.composite_equals)
        if bad is not None:
            raise ValidationError(f"action is not a homomorphism at pair {bad}")

    def act(self, g, x):
        return self.action[g].apply(x)

    @cached_property
    def index_tables(self):
        """(acted, add) on positions in ``coeff.elements()``: acted[g][j]
        is that of g.a_j, add[i][j] that of a_i + a_j."""
        elems = self.coeff.elements()
        pos = {e: i for i, e in enumerate(elems)}
        return ([[pos[self.act(g, y)] for y in elems]
                 for g in self.gamma.elements()],
                [[pos[self.coeff.add(x, y)] for y in elems] for x in elems])


def gamma_module(gamma: FiniteGroup, coeff: FGAbelianGroup, action) -> GammaModule:
    """The ``GammaModule``; its constructor checks the action."""
    return GammaModule(gamma, coeff, action)


def trivial_module(gamma: FiniteGroup, coeff: FGAbelianGroup) -> GammaModule:
    return GammaModule(gamma, coeff, (AbHom.identity(coeff),) * gamma.order)


class Cochain(Record):
    """Total map Gamma^p -> coefficient group, p = ``degree``: its n^p
    values in product order, (x_0, .., x_(p-1)) at sum_j x_j n^(p-1-j).
    The library reads ``entries``; the keyed view is for the API."""

    degree: int
    entries: tuple  # coefficient elements, in product order

    @classmethod
    def from_map(cls, degree, mapping):
        """The cochain of a map keyed by p-tuples of indices below n, the
        largest given plus 1; ValidationError on another key or at the
        first tuple, in product order, without a value."""
        for key in mapping:
            if not (isinstance(key, tuple) and len(key) == degree
                    and all(isinstance(x, int) and x >= 0 for x in key)):
                raise ValidationError(f"cochain key {key!r} is not a "
                                      f"{degree}-tuple of non-negative ints")
        n = max((max(key, default=0) + 1 for key in mapping), default=0)
        keys = itertools.product(range(n), repeat=degree)
        try:
            return cls(degree, tuple(tuple(mapping[key]) for key in keys))
        except KeyError as e:
            raise ValidationError(
                f"cochain is not total: missing {e.args[0]}") from None

    @cached_property
    def values(self):
        """The sorted (tuple, value) pairs, built on first read."""
        p = self.degree
        n = round(len(self.entries) ** (1 / p)) if p else 0
        return tuple(zip(itertools.product(range(n), repeat=p), self.entries))

    def as_dict(self):
        return dict(self.values)

    def is_normalized(self, identity=0):
        """Whether c is 0 at the tuples containing ``identity``."""
        p, entries = self.degree, self.entries
        n = round(len(entries) ** (1 / p)) if p else 0
        return all(not any(v) for i, v in enumerate(entries)
                   if any(i // n ** j % n == identity for j in range(p)))


def _bar_columns(M: GammaModule, c: Cochain):
    p = c.degree
    if p not in (0, 1, 2):
        raise ValidationError("differential supported only up to degree 2")
    c, n, table = read_cochain(M, p, c), M.gamma.order, M.gamma.table
    ident = IntMatrix.identity(M.coeff.ncoords).entries
    for r in range(M.coeff.ncoords):
        cr, col = [x[r] for x in c], []
        for g, a in enumerate(a.matrix.entries for a in M.action):
            gc = cr if a == ident else [     # coordinate r of g.c
                sum(m * v for m, v in zip(a[r], x)) for x in c]
            if p == 0:
                col.append(gc[0] - cr[0])
            elif p == 1:
                col.extend([u - cr[gh] + cr[g] for u, gh in zip(gc, table[g])])
            else:
                cg = cr[g * n:(g + 1) * n]
                for h, gh in enumerate(table[g]):
                    col.extend([u - v + cg[hk] - cg[h] for u, v, hk in zip(
                        gc[h * n:(h + 1) * n], cr[gh * n:(gh + 1) * n],
                        table[h])])
        yield col   # coordinate r of dc, raw, in product order


def differential(M: GammaModule, c: Cochain) -> Cochain:
    """Bar differential C^p -> C^(p+1), p <= 2, at all n^(p+1) tuples:
    dc(x, ..) = x.c(..) + sum_i (-1)^i c(.., x_(i-1) x_i, ..)
    + (-1)^(p+1) c(.., x_(p-1)) on raw integers, reduced once.  The
    public checker: it shares only the reader with the engine."""
    p = c.degree + 1
    return Cochain(p, tuple(reduce_columns(
        M.coeff, list(_bar_columns(M, c)), M.gamma.order ** p)))


def is_cocycle(M: GammaModule, c: Cochain) -> bool:
    return columns_vanish(M.coeff, _bar_columns(M, c))


class CohomologyGroup:
    """H^p as a finite abelian group with representative cocycles per
    canonical generator, as flat degree-p cochains of the complex of the
    Cayley graph (``relations.RelationModule``): the cokernel of
    ``boundary`` on the core coordinates of the cocycles ``kernel``, 0
    without a kernel.
    The ``budget`` of ``cohomology_group`` also bounds the dense
    canonical basis, where ``_echelon`` builds it."""

    def __init__(self, module, degree, relations, kernel, boundary, budget):
        self.module, self.degree, self._rel = module, degree, relations
        self._budget = budget
        self._kernel, self._boundary = kernel, boundary
        self._canonical = {}
        self.group, self._pres, self._gen_vecs = FGAbelianGroup(0, ()), None, ()
        if kernel is not None:
            self._pres = pres = cokernel_presentation(boundary)
            if pres.free_rank != 0:
                raise InternalCheckError("cohomology of a finite module came out infinite")
            self.group = FGAbelianGroup(0, pres.invariant_factors)
            self._gen_vecs = tuple(
                [x % q for x, q in zip(kernel.vector(pres.from_presented.col(i)),
                                       relations.mods)]
                for i, m in enumerate(pres.moduli) if m > 1)

    @property
    def generators(self):
        """Generator cocycles, one per invariant factor."""
        rel = self._rel
        return tuple(Cochain(self.degree, rel.to_cochain(rel.to_bar(v)))
                     for v in self._gen_vecs)

    def order(self):
        return self.group.order()

    def _normalized(self, c: Cochain):
        """(normalized coordinates, cochain of the complex) of the cocycle
        ``c``, shifted as ``from_cochain`` does; ValidationError on other
        cochains."""
        vec, _ = self._rel.from_cochain(c)
        phi = None if vec is None else self._rel.from_bar(vec)
        if phi is None:
            raise ValidationError("cochain is not a cocycle")
        return vec, phi

    def coordinates_of(self, c: Cochain):
        """Class coordinates of a cocycle in the canonical generators."""
        return self._coords_of_vec(self._normalized(c)[1])

    def _coords_of_vec(self, vec):
        if self._kernel is None:
            return ()
        x = self._kernel.coordinates(vec)
        if x is None:
            raise ValidationError("cochain is not a cocycle")
        y = self._pres.to_presented.apply(x)
        return tuple(y[i] % m for i, m in enumerate(self._pres.moduli) if m > 1)

    def coboundary_witness(self, c: Cochain):
        """A (p-1)-cochain b with db = c, or None when c is not a
        coboundary, solved in the core coordinates of the cocycles
        (``cohomology_group``)."""
        rel, kernel = self._rel, self._kernel
        values = rel.coboundary_witness(c, lambda phi: (
            [0] * rel.blocks[self.degree - 1] * rel.t if kernel is None
            else self._witness_smith.solve(kernel.coordinates(phi))))
        return None if values is None else Cochain(self.degree - 1, values)

    @cached_property
    def _witness_smith(self):
        """The Smith form of boundary^T, taken on the first witness."""
        return smith_normal_form(self._boundary.transpose())

    @cached_property
    def _echelon(self):
        """Triangular basis of the lattice of the coboundaries of
        normalized (p-1)-cochains and the modulus relations;
        BudgetExceededError first when it would have more dense cells
        than the budget."""
        require_within_budget(self.module.gamma, self._rel.t, self.degree,
                              self._budget, canonical=True)
        return modular_echelon(self._rel.bar_coboundaries(),
                               self._rel.bar_mods)

    def _class_vector(self, coords):
        """Unreduced combination of the generator vectors (of which
        there is at least one)."""
        vec = [0] * len(self._gen_vecs[0])
        for c, gv in zip(coords, self._gen_vecs):
            vec = [a + c * b for a, b in zip(vec, gv)]
        return vec

    def _canonical_class(self, coords):
        """Canonical normalized cocycle vector of the class with these
        coordinates, kept per class once computed."""
        key = tuple(c % f for c, f in
                    zip(coords, self.group.invariant_factors))
        if key not in self._canonical:
            echelon, mods = self._echelon, self._rel.bar_mods   # gate first
            vec = (self._rel.to_bar(self._class_vector(key)) if any(key)
                   else [0] * len(mods))
            self._canonical[key] = tuple(echelon_reduce(echelon, vec, mods))
        return self._canonical[key]

    def normalize(self, c: Cochain) -> Cochain:
        """The canonical representative of the class of the cocycle
        ``c``: the lexicographically smallest normalized cocycle in it
        (flat entries in [0, q)), by greedy reduction against
        ``_echelon``; ValidationError on other cochains."""
        vec = echelon_reduce(self._echelon, self._normalized(c)[0],
                             self._rel.bar_mods)
        return Cochain(self.degree, self._rel.to_cochain(vec))

    def class_representative(self, coords) -> Cochain:
        """The lexicographically smallest normalized cocycle in the class
        with the given coordinates."""
        return Cochain(self.degree,
                       self._rel.to_cochain(self._canonical_class(coords)))

    def classes(self):
        """Every cohomology class with its canonical (lexicographically
        smallest normalized) representative."""
        return [CohomologyClass(self.module, self.degree,
                                self.class_representative(coords), coords,
                                self.group)
                for coords in itertools.product(
                    *(range(f) for f in self.group.invariant_factors))]


class CohomologyClass(Record):
    module: GammaModule
    degree: int
    representative: Cochain
    coordinates: tuple
    group_structure: FGAbelianGroup


def cohomology_group(M: GammaModule, p: int, budget: int = 2_000_000) -> CohomologyGroup:
    """H^p(Gamma, A) by exact integer linear algebra.

    On the complex A -> A^S -> Hom_Gamma(R, A) (``relations``), lifted
    to Z with modulus relations, the cocycles are the congruence kernel
    of d_p mod Q, the exponent of A.  The kernel eliminates the unit
    pivots of the sparse rows of d_p (``unit_pivot_kernel``); only the
    core left takes a Smith form.  A unit entry in column j forces
    q_j = Q, so a pivot column's modulus relation has core coordinates
    0, and H^p, the other Smith form, is the cokernel of ``boundary``:
    the core coordinates of the columns of d_(p-1), then of the free
    columns' q_f e_f.  A cocycle with core coordinates 0 is 0 mod Q, so
    a witness a of phi = d_(p-1) a (mod mods) heads a solution lambda of
    boundary^T lambda = coordinates(phi).  ``budget`` caps what
    ``require_within_budget`` bounds, here and in ``_echelon``.
    """
    if p not in (0, 1, 2):
        raise ValidationError("cohomology supported only in degrees 0..2")
    require_within_budget(M.gamma, M.coeff.ncoords, p, budget)
    rel = RelationModule(M, p)
    if rel.dim == 0 or M.coeff.order() == 1:
        return CohomologyGroup(M, p, rel, None, None, budget)
    Q = M.coeff.exponent()
    kernel = unit_pivot_kernel(rel.cocycle_rows(Q), rel.dim, Q)

    # boundary generators in the core basis, then the modulus relations
    # q_f e_f of the free columns
    coords_rows = [kernel.coordinates(b) for b in rel.coboundaries()]
    coords_rows.extend(kernel.unit_coordinates(k, rel.mods[f])
                       for k, f in enumerate(kernel.free))
    if None in coords_rows:
        raise InternalCheckError("boundary generator is not a cocycle")
    return CohomologyGroup(M, p, rel, kernel, IntMatrix.from_rows(
        coords_rows, cols=len(kernel.free)), budget)


def eckmann_check(M: GammaModule, p: int, H: CohomologyGroup = None) -> bool:
    """|Gamma| * H^p = 0 for p >= 1 (the transfer argument); failure
    would be a bug, never an input problem.  ValidationError when ``H``
    is given and is not H^p of M."""
    if p < 1:
        raise ValidationError("the transfer bound only holds in degree >= 1")
    if H is None:
        H = cohomology_group(M, p)
    elif H.module != M or H.degree != p:
        raise ValidationError(f"H is not H^{p} of the module M")
    n = M.gamma.order
    return not any(any(H._coords_of_vec([n * x for x in gv]))
                   for gv in H._gen_vecs)


def cochain_sum(coeff: FGAbelianGroup, terms) -> Cochain:
    """Sum of (multiplier, cochain) terms with values in ``coeff``; no caller
    in the package, kept while the benchmark's tracer wraps it by name."""
    terms = list(terms)
    if not terms:
        raise ValidationError("empty cochain sum")
    degree, count = terms[0][1].degree, len(terms[0][1].entries)
    out = [coeff.zero()] * count
    for mult, c in terms:
        if c.degree != degree:
            raise ValidationError("cochain degree mismatch in sum")
        if len(c.entries) != count:
            raise ValidationError("cochains in a sum differ in their tuples")
        out = [coeff.add(x, coeff.scale(mult, v))
               for x, v in zip(out, c.entries)]
    return Cochain(degree, tuple(out))


def push_cochain(inc: AbHom, c: Cochain) -> Cochain:
    """Apply a coefficient homomorphism to every value of a cochain; no caller
    in the package, kept while the benchmark's tracer wraps it by name."""
    return Cochain(c.degree, tuple(map(inc.apply, c.entries)))


class StabilizedH2(Record):
    """H^2(Gamma, Z) read off the torsion tower H^2(Gamma, Z[n^k]), its
    generators given by their coordinates in H^2 at level k_used.  The
    generators are chosen by their canonical cocycles
    (``_canonical_basis``), so they do not depend on the coordinates the
    engine gives H^2."""

    group: FGAbelianGroup
    k_used: int
    generator_coords: tuple       # canonical stable generators, coordinates
    module: GammaModule           # the coefficient module at level k_used
    cohomology: CohomologyGroup   # H^2 at level k_used
    tower_orders: tuple           # |H^2| at levels 1 to max(max_k, k_used)

    @property
    def representatives(self):
        """Canonical cocycles of the stable generators, values in
        Z[n^k_used]."""
        return tuple(self.cohomology.class_representative(c)
                     for c in self.generator_coords)


def _span(coords, factors):
    """(structure, generators) of the subgroup of sum_i Z/f_i (f_i =
    factors[i] | Q = f_r) that ``coords`` generate: Z^g / K, K the
    congruence kernel mod Q of the rows scaled by Q / f_i, with basis
    V diag(s): Z^g / K = sum_j Z/s_j on the images of V's columns."""
    if not coords or not factors:
        return FGAbelianGroup(0, ()), []
    Q = factors[-1]
    K = congruence_kernel_basis(IntMatrix.from_rows(
        [[x[i] * (Q // f) for x in coords] for i, f in enumerate(factors)],
        cols=len(coords)), Q)
    s = K.scales
    order = sorted((j for j in range(len(s)) if s[j] > 1), key=s.__getitem__)
    return FGAbelianGroup(0, tuple(s[j] for j in order)), [
        tuple(sum(row[j] // s[j] * x[i] for row, x in
                  zip(K.basis.entries, coords)) % f
              for i, f in enumerate(factors)) for j in order]


def _push_class(Hs, Ht, inclusion, coords):
    """Coordinates in Ht of the class ``coords`` of Hs, pushed along the
    coefficient inclusion block by block: both share Gamma, so the same
    Cayley graph and the same blocks."""
    if not Hs._gen_vecs:
        return (0,) * len(Ht.group.invariant_factors)
    vec, t = Hs._class_vector(coords), Hs._rel.t
    return Ht._coords_of_vec([
        x for j in range(0, len(vec), t)
        for x in inclusion.matrix.apply(vec[j:j + t])])


def _image_subgroup(Hs, Ht, inclusion):
    """(structure, generator coord vectors in Ht) of the image of Hs in Ht
    under the coefficient inclusion."""
    g = len(Hs._gen_vecs)
    pushed = [_push_class(Hs, Ht, inclusion, [int(i == j) for j in range(g)])
              for i in range(g)]
    return _span(pushed, Ht.group.invariant_factors)


def _canonical_basis(H, struct, gens):
    """Generators of the subgroup of H spanned by ``gens`` (invariant
    factors d_1 | ... | d_r, those of ``struct``), chosen by the classes'
    canonical cocycles: for i = r down to 1, the class x with the
    lexicographically least canonical cocycle among those with
    ord(x) = d_i and ord(x mod <g_(i+1), ..., g_r>) = d_i.  Each choice
    has trivial intersection with the span of the later ones, so the
    spans have orders d_i ... d_r and the choices form a basis; they
    depend only on the subgroup and the canonical cocycles, not on the
    coordinates the engine gave H."""
    factors = H.group.invariant_factors
    d = struct.invariant_factors

    def combine(x, y, k):
        return tuple((a + k * b) % f for a, b, f in zip(x, y, factors))

    zero = (0,) * len(factors)
    elements = [zero]
    for g, di in zip(gens, d):
        elements = [combine(x, g, k) for x in elements for k in range(di)]
    chosen = []
    span = {zero}
    for di in reversed(d):
        cands = [x for x in elements
                 if combine(zero, x, di) == zero
                 and all(combine(zero, x, k) not in span for k in range(1, di))]
        if not cands:
            raise InternalCheckError("no canonical generator of the stable group")
        best = min(cands, key=H._canonical_class)
        chosen.append(best)
        span = {combine(y, best, k) for y in span for k in range(di)}
    return tuple(reversed(chosen))


def tower_length(Z: DiagonalizableGroup, n: int, max_k: int) -> int:
    """How many levels ``stabilized_h2`` lists in ``tower_orders`` for
    |Gamma| = n: 1 when n = 1, else max(max_k, k_used), k_used =
    ``stable_level(Z, n)``."""
    return 1 if n == 1 else max(max_k, stable_level(Z, n))


def stabilized_h2(gamma: FiniteGroup, Z: DiagonalizableGroup, module_at,
                  max_k: int = 4, budget: int = 2_000_000) -> StabilizedH2:
    """H^2(Gamma, Z) from the torsion tower Z[n^k], n = |Gamma|, at a
    level read off Z.

    ``module_at(n_power)`` must return the GammaModule on the torsion
    subgroup Z[n_power], compatibly across levels.  Levels 1 to
    max(max_k, k_used) are listed in ``tower_orders``, but ``module_at``
    and H^2 run only up to the level from which on every order is the
    same, and the higher levels list its order: without a torus Z[n^k]
    is one module for every k >= max(e, 1); with one, (c) below holds
    from k_used on.

    Let D' be the n-primary torsion of Z, T' its torus part and e the
    least e >= 0 with n^e (D'/T') = 0: the n-part of every finite
    invariant factor divides n^e.  H^i(Gamma, Z) = H^i(Gamma, D') for
    i >= 2, and n kills H^1 and H^2 (Brown, Cohomology of Groups,
    III.10).
    (a) For k >= e, n^k maps D' onto T' with kernel Z[n^k], so the
        kernel of level k -> H^2(D') is delta_k(H^1(T')); it equals
        the kernel of level k -> level k+1, as
        iota o delta_k = delta_(k+1) o n = 0.
    (b) For k >= e + 1, level k -> H^2(D') is onto: the next map
        factors through n on H^2(T'), which is 0.
    (c) So for k >= e + 1 level k is an extension of H^2(Gamma, D') by
        H^1(Gamma, T'): the kernel delta_k(H^1(T')) is all of H^1(T'),
        as H^1(D') -> H^1(T') factors through n on H^1(T') too.  Its
        order does not depend on k.
    So the image of level k_used - 1 in level k_used is H^2(Gamma, Z)
    for k_used = e + 2.  Without a torus every level from max(e, 1) on
    is H^2(D'), and k_used = max(e, 1) + 1 (the same when e = 0).  The
    e + 2 is needed: C2 acting on C* x Z/2 by (t, z) -> (t^-1 (-1)^z, z)
    has e = 1 and tower orders 1, 2, 2, 2, but the image of level 1 in
    level 2 is 0, while H^2 = Z/2 is the image of level 2 in level 3.
    """
    n = gamma.order
    top = tower_length(Z, n, max_k)
    if n == 1:
        M = module_at(1)
        H = cohomology_group(M, 2, budget=budget)
        return StabilizedH2(H.group, 1, (), M, H, (H.order(),) * top)

    k_used = stable_level(Z, n)
    # every level from ``built`` on has the order of level ``built``:
    # one module without a torus, (c) with one
    built = k_used if Z.torus_rank else k_used - 1
    Hs = [cohomology_group(module_at(n ** k), 2, budget)
          for k in range(1, built + 1)]
    orders = [h.order() for h in Hs]
    # without a torus, levels k_used - 1 = built and k_used share a module
    low, H = Hs[k_used - 2], Hs[-1]
    struct, gen_coords = _image_subgroup(
        low, H, torsion_inclusion(Z, n ** (k_used - 1), n ** k_used))
    return StabilizedH2(struct, k_used, _canonical_basis(H, struct, gen_coords),
                        H.module, H,
                        tuple(orders + [orders[-1]] * (top - built)))
