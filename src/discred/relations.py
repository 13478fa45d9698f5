"""The cochain complex of a Cayley graph: the cohomology H^p, p <= 2, of
a finite group on unknowns that grow with n|S| instead of n^p.

Lyndon's exact sequence 0 -> R -> Z Gamma^S -> Z Gamma -> Z -> 0
(Lyndon, Ann. of Math. 52, 1950; Gruenberg, J. London Math. Soc. 35,
1960), with R the cycle space of the Cayley graph of (Gamma, S), gives
the complex A -> A^S -> Hom_Gamma(R, A): H^0 = ker d_0,
H^1 = ker d_1 / im d_0 and H^2 = coker d_1, the Hom_Gamma(R, A) inside
A^m cut out by the equivariance map d_2.  The graph belongs to Gamma
(``grouptable.CayleyGraph``, one per (Gamma, S)): its tree, cycles,
their translates and the rows of d_1 and d_2 under the trivial action
are shared by every module, degree and tower level over Gamma.
``cohomology`` does the lattice work; this module supplies the
matrices and owns the bar cochains that the API speaks (Brown,
Cohomology of Groups, GTM 87, section I.5).  A total p-cochain has one
layout, that of ``cohomology.Cochain``: its n^p values in product order
(``entries``), read once and checked by ``read_cochain`` and written
here as such a list; its normalized bar coordinates are the values at
``bar_positions``.  On that layout: the conversions to and from the
complex, the bar coboundary columns that canonical representatives
reduce against, Light's test for 2-cocycles and the tree lift of
coboundary witnesses.  ``require_within_budget`` bounds the cells of
its matrices before any is built.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import add, itemgetter

from .errors import BudgetExceededError, ValidationError
from .grouptable import FiniteGroup


class RelationModule:
    """The complex C^0 = A -> C^1 = A^S -> C^2 = Hom_Gamma(R, A) of the
    Cayley graph of (Gamma, S), S = ``gamma.generators``, for the module
    M, in degree p.  A cochain is a flat vector of blocks of t
    coefficient coordinates: one block in degree 0, one per s in S in
    degree 1 and one per basis cycle of R in degree 2.

    The graph is Gamma's own (``gamma.cayley_graph()``), built once per
    (Gamma, S) and read here.  Its edges are the pairs (x, s), from x to
    xs.  The breadth-first tree of ``closure`` from the identity holds
    n - 1 of them; each of the other m = n|S| - n + 1 edges (x, s) closes
    the fundamental cycle C_(x,s) (the edge, plus the tree path to x,
    minus the tree path to xs), and these cycles are a Z-basis of R.  A
    map phi on R is stored by its values phi(C_k) on the basis.  The
    module keeps the matrix of each element of Gamma, None where it is
    the identity, which then costs no t x t product.

    The differentials: d_0 a = (s.a - a)_s; d_1 a = phi_a, with
    phi_a(C) the sum of the terms y.a_s over the edges (y, s) of C; and
    d_2 phi = (phi(s.C_k) - s.phi(C_k))_(s, k), whose kernel is
    Hom_Gamma(R, A).

    Bar cochains convert at the boundary.  A normalized bar p-cochain
    vanishes on every tuple containing the identity and is kept flat,
    one block of t coordinates per p-tuple over Gamma minus the identity:
    the values at ``bar_positions``, in lexicographic order.  Every class
    has a normalized representative, and a 2-cocycle c becomes one by
    subtracting the coboundary of the constant map at c(1, 1)
    (``from_cochain``).  Degree 0 is the same vector.
    A normalized 1-cocycle f gives (f(s))_s; back, f(1) = 0 and
    f(xs) = f(x) + x.f(s) along the tree edges.  A normalized 2-cocycle
    c gives phi(C_(x,s)) = beta(x) + c(x, s) - beta(xs), where
    beta(xs) = beta(x) + c(x, s) along the tree edges; back, phi gives
    the normalized cocycle that is 0 on tree edges and phi(C_(x,s)) on
    the other edges (x, s), extended along the tree by
    c(x, ys) = c(x, y) + c(xy, s) - x.c(y, s)."""

    def __init__(self, M, p):
        self.module = M
        self.p = p
        # the tree, the cycles and their translates belong to Gamma
        self.graph = graph = M.gamma.cayley_graph()
        self.gens = graph.gens
        self.t = t = M.coeff.ncoords
        # blocks of t coordinates in C^0, C^1, C^2
        self.blocks = (1, len(self.gens), len(graph.edges))
        self.dim = self.blocks[self.p] * t
        self.mods = M.coeff.invariant_factors * self.blocks[self.p]
        ident = tuple(tuple(int(i == j) for j in range(t)) for i in range(t))
        # the matrix of each element, None for the identity
        self.acts = [None if a.matrix.entries == ident else a.matrix.entries
                     for a in M.action]
        self.trivial = all(a is None for a in self.acts)

    def _act(self, g, v):
        a = self.acts[g]
        return v if a is None else [sum(x * y for x, y in zip(row, v))
                                    for row in a]

    def _tree_sums(self, step):
        """v(1) = 0 and v(xs) = v(x) + step(x, s index) along the tree
        edges: v at every vertex."""
        vertices, parent = self.graph.vertices, self.graph.parent
        v = {vertices[0]: [0] * self.t}
        for z in vertices[1:]:
            x, si = parent[z]
            v[z] = [a + b for a, b in zip(v[x], step(x, si))]
        return v

    def _rows(self, k):
        """The matrix of d_k : C^k -> C^(k+1) as sparse rows, lists of
        (column, value) pairs with value != 0, k in {0, 1, 2}.  Row (s, r)
        of d_0 is row r of s - 1.  Column (s, i) of d_1 is phi of the
        unit vector e_i at s.  Row (s, j, r) of d_2 reads s.C_j on the
        edges outside the tree, where it has its coordinates in the
        basis.  Under the trivial action rows 1 and 2 expand the graph's
        block rows over the t coordinates."""
        t, acts, graph = self.t, self.acts, self.graph
        if k == 0:
            return [[] if acts[s] is None else
                    [(i, a - (i == r)) for i, a in enumerate(acts[s][r])
                     if a != (i == r)] for s in self.gens for r in range(t)]
        if self.trivial:
            blocks = graph.d1_blocks if k == 1 else graph.d2_blocks
            return [[(b * t + r, v) for b, v in row]
                    for row in blocks for r in range(t)]
        rows = []
        if k == 1:
            for terms in graph.cycles:
                for r in range(t):
                    row = {}    # s index -> the t values of its block
                    for y, si, c in terms:
                        block = row.setdefault(si, [0] * t)
                        if acts[y] is None:
                            block[r] += c
                        else:
                            for i, a in enumerate(acts[y][r]):
                                block[i] += c * a
                    rows.append([(si * t + i, v) for si, block in row.items()
                                 for i, v in enumerate(block) if v])
            return rows
        for s, per_cycle in zip(self.gens, graph.translates):
            amat = acts[s]
            for j, coef in enumerate(per_cycle):
                for r in range(t):
                    row = {e * t + r: c for e, c in coef}
                    if amat is None:
                        row[j * t + r] = row.get(j * t + r, 0) - 1
                    else:
                        for i, a in enumerate(amat[r], j * t):
                            row[i] = row.get(i, 0) - a
                    rows.append([(i, v) for i, v in row.items() if v])
        return rows

    def cocycle_rows(self, Q):
        """The rows of d_p, sparse as ``_rows`` gives them, row r scaled
        by Q / q_r for the modulus q_r of its coordinate, so that the
        cocycles are the congruence kernel mod Q."""
        scale = [Q // q for q in self.module.coeff.invariant_factors]
        rows = self._rows(self.p)
        if all(x == 1 for x in scale):
            return rows
        return [[(j, scale[r % self.t] * v) for j, v in row]
                for r, row in enumerate(rows)]

    def coboundaries(self):
        """The columns of d_(p-1), the images of the unit vectors of
        C^(p-1) in the order (block, coordinate); none in degree 0."""
        if self.p == 0:
            return []
        rows = self._rows(self.p - 1)
        cols = [[0] * len(rows)
                for _ in range(self.blocks[self.p - 1] * self.t)]
        for r, row in enumerate(rows):
            for j, v in row:
                cols[j][r] = v
        return cols

    @cached_property
    def bar_positions(self):
        """The normalized bar layout of degree p, built on first use: the
        position in ``read_cochain``'s product order of each p-tuple over
        Gamma minus the identity, in lexicographic order.  Block i of t
        normalized coordinates is the value at bar_positions[i]."""
        gamma = self.module.gamma
        return [i for i, tup in enumerate(itertools.product(
            range(gamma.order), repeat=self.p)) if gamma.identity not in tup]

    @cached_property
    def bar_mods(self):
        """The modulus of each normalized bar coordinate."""
        return self.module.coeff.invariant_factors * len(self.bar_positions)

    def _reduce_bar(self, vec):
        return [v % q for v, q in zip(vec, self.bar_mods)]

    def to_cochain(self, vec):
        """The values, in product order as ``Cochain.entries`` keeps
        them, of the total p-cochain with normalized bar coordinates
        ``vec``: its blocks there, zero elsewhere.  ``vec`` is taken as
        it is; ``to_bar`` and ``echelon_reduce`` give reduced ones."""
        out = [(0,) * self.t] * self.module.gamma.order ** self.p
        for i, block in zip(self.bar_positions, zip(*[iter(vec)] * self.t)):
            out[i] = block
        return tuple(out)

    def from_cochain(self, c):
        """(vec, shift): the normalized bar coordinates of c - d(const
        shift), where shift = c(1, 1) in degree 2 and zero below.  ``vec``
        is None when that difference is not normalized, which no cocycle
        allows: a 2-cocycle has c(1, g) = c(1, 1) and
        c(g, 1) = g.c(1, 1), and a 1-cocycle has c(1) = 0."""
        M = self.module
        n, e = M.gamma.order, M.gamma.identity
        values = read_cochain(M, self.p, c)
        shift = values[e * n + e] if self.p == 2 else (0,) * self.t
        if any(shift):
            acted = [self._act(g, shift) for g in range(n)]
            values = [tuple((x - y) % q for x, y, q in zip(
                v, acted[i // n], M.coeff.invariant_factors))
                for i, v in enumerate(values)]
        blocks = [values[i] for i in self.bar_positions]
        normalized = sum(map(any, values)) == sum(map(any, blocks))
        return ([x for v in blocks for x in v] if normalized else None), shift

    def cocycle_witness(self, c):
        """Light's test: the first (g, s, h), in the order g, s in S, h,
        at which the total 2-cochain c, its values by position (as
        ``read_cochain`` gives them), fails g.c(s, h)
        - c(gs, h) + c(g, sh) - c(g, s) = 0, or None.  These triples imply
        the rest, normalized or not (Light's test): they say that each
        (a, s) associates in the middle of the law
        (a, x)(b, y) = (a + x.b + c(x, y), xy) on A x Gamma, such elements
        are closed under products, and S reaches all of the finite group
        Gamma by non-empty words."""
        gamma, mods = self.module.gamma, self.module.coeff.invariant_factors
        table, n, act = gamma.table, gamma.order, self._act
        rows = [c[x * n:(x + 1) * n] for x in range(n)]  # rows[x][y] = c(x, y)
        for g, cg in enumerate(rows):
            for s in self.gens:
                # the residues at every h, one coordinate at a time
                gcs, rgs, e = rows[s], rows[table[g][s]], cg[s]
                if self.acts[g] is not None:
                    gcs = [act(g, v) for v in gcs]
                fails, cgsh = [0] * n, [cg[x] for x in table[s]]
                for i, q in enumerate(mods):
                    fails = [f or (a[i] - b[i] + d[i] - e[i]) % q
                             for f, a, b, d in zip(fails, gcs, rgs, cgsh)]
                if any(fails):
                    return g, s, next(h for h, f in enumerate(fails) if f)
        return None

    def from_bar(self, vec):
        """The cochain in C^p of the normalized bar p-cocycle ``vec``, or
        None when ``vec`` is no cocycle.  In degree 1 the conditions
        f(xs) = f(x) + x.f(s) on every edge (x, s) make f a crossed
        homomorphism, by induction on word length in S."""
        mods = self.module.coeff.invariant_factors
        if self.p == 0:
            if any(any((a - b) % q for a, b, q in
                       zip(self._act(s, vec), vec, mods))
                   for s in self.gens):
                return None
            return self._reduce_bar(vec)
        table, n = self.module.gamma.table, self.module.gamma.order
        c = self.to_cochain(vec)
        if self.p == 1:
            for x, fx in enumerate(c):
                for s in self.gens:
                    if any((a + b - d) % q for a, b, d, q in
                           zip(fx, self._act(x, c[s]), c[table[x][s]], mods)):
                        return None
            return [v % q for s in self.gens for v, q in zip(c[s], mods)]
        if self.cocycle_witness(c) is not None:
            return None
        beta = self._tree_sums(lambda x, si: c[x * n + self.gens[si]])
        out = []
        for x, si in self.graph.edges:
            s = self.gens[si]
            out.extend(a + b - d for a, b, d in
                       zip(beta[x], c[x * n + s], beta[table[x][s]]))
        return [v % q for v, q in zip(out, self.mods)]

    def to_bar(self, phi):
        """Normalized bar coordinates of the p-cocycle of ``phi``.  In
        degree 2 it is zero on tree edges, phi(C_(x,s)) on the other
        edges (x, s), extended along the tree in the second argument.
        The closure reaches each s in S from the identity first, so the
        edges (1, s) are tree edges and the cocycle vanishes at the
        identity.  Along the tree edge (p, s) into y,
        c(x, y) = c(x, p) + c(xp, s), as c(p, s) = 0."""
        gamma, t = self.module.gamma, self.t
        if self.p == 0:
            return self._reduce_bar(phi)
        if self.p == 1:
            f = self._tree_sums(
                lambda x, si: self._act(x, phi[si * t:(si + 1) * t]))
            return self._reduce_bar([v for g in self.bar_positions
                                     for v in f[g]])
        n, graph = gamma.order, self.graph
        # on[s index][z]: phi at the edge (z, s), None on tree edges
        on = [[None] * n for _ in self.gens]
        for (z, si), block in zip(graph.edges, zip(*[iter(phi)] * t)):
            on[si][z] = block
        by_col = list(zip(*gamma.table))    # by_col[p][x] = xp
        col = [[(0,) * t] * n] * n    # col[y][x] = c(x, y), 0 at y = 1
        for y in graph.vertices[1:]:
            p, si = graph.parent[y]
            col[y] = [cx if b is None else tuple(map(add, cx, b)) for cx, b
                      in zip(col[p], map(on[si].__getitem__, by_col[p]))]
        return self._reduce_bar([v for i in self.bar_positions
                                 for v in col[i % n][i // n]])

    def bar_coboundaries(self):
        """The normalized bar coboundaries d(delta_(u, i)) in the degree-p
        bar layout, p <= 2, for the basis (p-1)-cochains delta_(u, i), u
        over the (p-1)-tuples over Gamma minus the identity in
        lexicographic order and i over the coefficient coordinates:
        x.e_i at (x,) + u, -e_i at each (x, y) with xy = u_1, and
        (-1)^p e_i at u + (y,), dropping every tuple that contains the
        identity; a normalized tuple's block is sum_j rank(x_j)
        (n-1)^(p-1-j).  None in degree 0."""
        p, t = self.p, self.t
        if p == 0:
            return
        gamma = self.module.gamma
        dim, mul, inv = len(self.bar_mods), gamma.mul, gamma.inv
        others = [g for g in range(gamma.order) if g != gamma.identity]
        m = len(others)
        rank = [x - (x > gamma.identity) for x in range(gamma.order)]
        for u in itertools.product(others, repeat=p - 1):
            b = rank[u[0]] if u else 0
            terms = [(1, rank[x] * m ** (p - 1) + b, self.acts[x])
                     for x in others]
            terms += [(-1, rank[x] * m + rank[mul(inv(x), g)], None)
                      for g in u for x in others if x != g]
            terms += [((-1) ** p, b * m + rank[y], None) for y in others]
            for i in range(t):
                col = [0] * dim
                for sign, r, amat in terms:
                    if amat is None:
                        col[r * t + i] += sign
                    else:
                        for k in range(t):
                            col[r * t + k] += sign * amat[k][i]
                yield col

    def coboundary_witness(self, c, solve):
        """The values of a (p-1)-cochain b with db = c, as ``to_cochain``
        gives them, or None when the p-cochain c is no coboundary (always
        in degree 0).  For the normalized coordinates vec of
        c - d(const shift) (``from_cochain``), ``solve(from_bar(vec))``
        starts with a, d_(p-1) a = from_bar(vec) (mod mods), or is None;
        a is a witness itself in degree 1; in degree 2 it gives the a_s
        on S, followed along the tree, b(xs) = b(x) + x.a_s - vec(x, s).
        Then b adds the shift."""
        vec, shift = self.from_cochain(c)
        phi = None if vec is None else self.from_bar(vec)
        sol = None if self.p == 0 or phi is None else solve(phi)
        if sol is None:
            return None
        gamma, t = self.module.gamma, self.t
        if self.p == 1:
            b = [sol[:t]]
        else:
            cv, n = self.to_cochain(vec), gamma.order
            tree = self._tree_sums(lambda x, si: [
                u - w for u, w in zip(self._act(x, sol[si * t:(si + 1) * t]),
                                      cv[x * n + self.gens[si]])])
            b = [tree[g] for g in range(n)]
        mods = self.module.coeff.invariant_factors
        return tuple(tuple((x + y) % q for x, y, q in zip(v, shift, mods))
                     for v in b)


def read_cochain(M, p, c):
    """The one reader of the cochains the API takes: the values of the
    total p-cochain c over M, its ``entries`` in product order, each
    reduced once.  ValidationError unless c has degree p, n^p values
    (a short list names the first tuple of Gamma^p it has no value at)
    and in every value a tuple or list of t ints, bools excluded (the
    first value that is not one is named by its tuple)."""
    if c.degree != p:
        raise ValidationError("cochain degree mismatch")
    values, n = c.entries, M.gamma.order
    size = n ** p
    if len(values) < size:
        raise ValidationError(
            f"cochain is not total: missing {_tuple_at(len(values), n, p)}")
    if len(values) > size:
        raise ValidationError(f"cochain has {len(values)} values, "
                              f"Gamma^{p} has {size} tuples")
    if not set(map(type, values)) <= {tuple, list}:
        _reject_first(values, n, p, lambda v: isinstance(v, (tuple, list)),
                      "is not a tuple or list")
    t = M.coeff.ncoords
    if set(map(len, values)) != {t}:
        raise ValidationError("coordinate length mismatch")
    cols = [list(map(itemgetter(j), values)) for j in range(t)]
    if any(not set(map(type, col)) <= {int} for col in cols):
        _reject_first(values, n, p, lambda v: all(
            isinstance(x, int) and not isinstance(x, bool) for x in v),
            "has a coordinate that is not an int")
    return reduce_columns(M.coeff, cols, len(values))


def _tuple_at(i, n, p):
    """The tuple of Gamma^p at position i of the product order."""
    return tuple(i // n ** (p - 1 - j) % n for j in range(p))


def _reject_first(values, n, p, ok, what):
    """ValidationError naming the first value that fails ``ok``, if any:
    the fast checks of ``read_cochain`` also stop at int and sequence
    subclasses, which pass."""
    i = next((i for i, v in enumerate(values) if not ok(v)), None)
    if i is not None:
        raise ValidationError(f"cochain value {values[i]!r} at "
                              f"{_tuple_at(i, n, p)} {what}")


def reduce_columns(coeff, cols, count):
    """The ``count`` values of the finite group coeff with coordinates
    ``cols``, one sequence of numbers per coordinate, as tuples reduced
    the way ``coeff.reduce`` reduces them."""
    return list(zip(*[[x % q for x in col] for col, q in zip(
        cols, coeff.invariant_factors)])) or [()] * count


def columns_vanish(coeff, cols):
    """Whether every value of the finite group coeff with coordinates
    ``cols`` (as for ``reduce_columns``) is 0, the columns read one at a
    time up to the first that is not."""
    return not any(any(map(q.__rmod__, col))
                   for col, q in zip(cols, coeff.invariant_factors))


def require_within_budget(gamma: FiniteGroup, t: int, p: int, budget: int,
                          canonical: bool = False):
    """Raise BudgetExceededError when the matrices of H^p, for t
    coefficient coordinates, would have more than ``budget`` cells as
    dense matrices: an upper bound, as only the core of d_p and the
    cokernel take dense Smith forms.  With c_-1 = 0, c_0 = t,
    c_1 = |S| t, c_2 = m t (m = n|S| - n + 1, S = ``gamma.generators``)
    and d_p r_p x c_p (r_0 = |S| t, r_1 = m t, r_2 = |S| m t), degree p
    counts max(r_p, c_(p-1) + c_p) c_p.  With ``canonical`` it first
    counts the dense triangular basis that canonical representatives of
    H^p reduce against, ((n-1)^p t)^2 entries; that check needs no
    generating set."""
    n = gamma.order
    if canonical:
        dim = (n - 1) ** p * t
        if dim * dim > budget:
            raise BudgetExceededError(
                f"canonical form size {dim}x{dim} exceeds budget {budget}")
    s = len(gamma.generators)
    m = n * s - n + 1
    c = (0, t, s * t, m * t, s * m * t)   # c_-1 .. c_2, then r_2
    rows, cols = max(c[p + 2], c[p] + c[p + 1]), c[p + 1]
    if rows * cols > budget:
        raise BudgetExceededError(
            f"cochain problem size {rows}x{cols} exceeds budget {budget}")
