"""The cochain complex of a Cayley graph: the cohomology H^p, p <= 2, of
a finite group on unknowns that grow with n|S| instead of n^p.

Lyndon's exact sequence 0 -> R -> Z Gamma^S -> Z Gamma -> Z -> 0
(Lyndon, Ann. of Math. 52, 1950; Gruenberg, J. London Math. Soc. 35,
1960), with R the cycle space of the Cayley graph of (Gamma, S), gives
the complex A -> A^S -> Hom_Gamma(R, A): H^0 = ker d_0,
H^1 = ker d_1 / im d_0 and H^2 = coker d_1, the Hom_Gamma(R, A) inside
A^m cut out by the equivariance map d_2.  ``cohomology`` does the
lattice work; this module supplies the matrices and converts between
the complex and normalized bar cochains.
"""

from __future__ import annotations

from functools import cached_property

from .exactlin import IntegerSolver, IntMatrix
from .grouptable import closure


class RelationModule:
    """The complex C^0 = A -> C^1 = A^S -> C^2 = Hom_Gamma(R, A) of the
    Cayley graph of (Gamma, S), S = ``gamma.generators``, for the module
    M, in the degree p of ``space``, which holds the normalized bar
    coordinates of degree p.  A cochain is a flat vector of blocks of t
    coefficient coordinates: one block in degree 0, one per s in S in
    degree 1 and one per basis cycle of R in degree 2.

    The edges of the graph are the pairs (x, s), from x to xs.  The
    breadth-first tree of ``closure`` from the identity holds n - 1 of
    them; each of the other m = n|S| - n + 1 edges (x, s) closes the
    fundamental cycle C_(x,s) (the edge, plus the tree path to x, minus
    the tree path to xs), and these cycles are a Z-basis of R.  A map
    phi on R is stored by its values phi(C_k) on the basis.

    The differentials: d_0 a = (s.a - a)_s; d_1 a = phi_a, with
    phi_a(C) the sum of the terms y.a_s over the edges (y, s) of C; and
    d_2 phi = (phi(s.C_k) - s.phi(C_k))_(s, k), whose kernel is
    Hom_Gamma(R, A).

    Bar cochains convert at the boundary.  Degree 0 is the same vector.
    A normalized 1-cocycle f gives (f(s))_s; back, f(1) = 0 and
    f(xs) = f(x) + x.f(s) along the tree edges.  A normalized 2-cocycle
    c gives phi(C_(x,s)) = beta(x) + c(x, s) - beta(xs), where
    beta(xs) = beta(x) + c(x, s) along the tree edges; back, phi gives
    the normalized cocycle that is 0 on tree edges and phi(C_(x,s)) on
    the other edges (x, s), extended along the tree by
    c(x, ys) = c(x, y) + c(xy, s) - x.c(y, s)."""

    def __init__(self, M, space):
        gamma = M.gamma
        self.module = M
        self.space = space
        self.p = space.p
        self.gens = gamma.generators
        elems, _, tree = closure(gamma.identity, self.gens, gamma.mul,
                                 gamma.order, "group")
        self.vertices = elems
        # tree edge into each vertex but the identity: (parent, s index)
        self.parent = {z: (elems[i], si)
                       for z, (i, si) in zip(elems[1:], tree[1:])}
        tree_edges = set(self.parent.values())
        self.edges = [(x, si) for x in elems for si in range(len(self.gens))
                      if (x, si) not in tree_edges]
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self.t = t = M.coeff.ncoords
        # blocks of t coordinates in C^0, C^1, C^2
        self.blocks = (1, len(self.gens), len(self.edges))
        self.dim = self.blocks[self.p] * t
        self.mods = M.coeff.invariant_factors * self.blocks[self.p]
        self.acts = {g: M.action[g].matrix.entries for g in elems}
        self._solver = None

    @cached_property
    def cycles(self):
        """The basis cycles, built on first use: d_0 reads none."""
        return [self._cycle(x, si) for x, si in self.edges]

    def _path(self, y):
        """Vertices whose tree edges lead from the identity to y."""
        path = []
        while y in self.parent:
            path.append(y)
            y = self.parent[y][0]
        return path[::-1]

    def _cycle(self, x, si):
        """The basis cycle of the edge (x, s) as (vertex, s index,
        coefficient) edge terms; the tree paths to its two ends share
        their first edges, which cancel."""
        to_x = self._path(x)
        to_xs = self._path(self.module.gamma.mul(x, self.gens[si]))
        common = 0
        while (common < min(len(to_x), len(to_xs))
               and to_x[common] == to_xs[common]):
            common += 1
        return ([(x, si, 1)]
                + [self.parent[z] + (1,) for z in to_x[common:]]
                + [self.parent[z] + (-1,) for z in to_xs[common:]])

    def _act(self, g, v):
        return [sum(a * b for a, b in zip(row, v)) for row in self.acts[g]]

    def _tree_sums(self, step):
        """v(1) = 0 and v(xs) = v(x) + step(x, s index) along the tree
        edges: v at every vertex."""
        v = {self.vertices[0]: [0] * self.t}
        for z in self.vertices[1:]:
            x, si = self.parent[z]
            v[z] = [a + b for a, b in zip(v[x], step(x, si))]
        return v

    def _rows(self, k):
        """The matrix of d_k : C^k -> C^(k+1) as rows, k in {0, 1, 2}.
        Row (s, r) of d_0 is row r of s - 1.  Column (s, i) of d_1 is
        phi of the unit vector e_i at s.  Row (s, j, r) of d_2 reads
        s.C_j on the edges outside the tree, where it has its
        coordinates in the basis."""
        t, mul = self.t, self.module.gamma.mul
        if k == 0:
            return [[a - (i == r) for i, a in enumerate(self.acts[s][r])]
                    for s in self.gens for r in range(t)]
        if k == 1:
            rows = [[0] * (self.blocks[1] * t)
                    for _ in range(self.blocks[2] * t)]
            for j, terms in enumerate(self.cycles):
                for y, si, c in terms:
                    amat = self.acts[y]
                    for r in range(t):
                        row = rows[j * t + r]
                        for i in range(t):
                            row[si * t + i] += c * amat[r][i]
            return rows
        rows = []
        width = self.blocks[2] * t
        for s in self.gens:
            amat = self.acts[s]
            for j, terms in enumerate(self.cycles):
                # the edges of a cycle are distinct, and so are their
                # translates
                coef = [(self.edge_index.get((mul(s, x), si)), c)
                        for x, si, c in terms]
                for r in range(t):
                    row = [0] * width
                    for e, c in coef:
                        if e is not None:
                            row[e * t + r] = c
                    for col, a in enumerate(amat[r]):
                        row[j * t + col] -= a
                    rows.append(row)
        return rows

    def cocycle_matrix(self, Q):
        """The rows of d_p, row r scaled by Q / q_r for the modulus q_r
        of its coordinate, so that the cocycles are the congruence
        kernel mod Q."""
        mods = self.module.coeff.invariant_factors
        return IntMatrix.from_rows(
            [[(Q // mods[r % self.t]) * x for x in row]
             for r, row in enumerate(self._rows(self.p))], cols=self.dim)

    def coboundaries(self):
        """The columns of d_(p-1), the images of the unit vectors of
        C^(p-1) in the order (block, coordinate); none in degree 0."""
        if self.p == 0:
            return []
        rows = self._rows(self.p - 1)
        return [[row[j] for row in rows]
                for j in range(self.blocks[self.p - 1] * self.t)]

    def _bar_value(self, vec):
        """c(x, y) from normalized bar coordinates of degree 2; zero at
        the identity."""
        index, t = self.space.index, self.t
        zero = [0] * t

        def value(x, y):
            i = index.get((x, y))
            return zero if i is None else vec[i * t:(i + 1) * t]
        return value

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
            return self.space.reduce(vec)
        gamma, t = self.module.gamma, self.t
        mul = gamma.mul
        if self.p == 1:
            f = {gamma.identity: [0] * t}
            for i, (g,) in enumerate(self.space.tuples):
                f[g] = vec[i * t:(i + 1) * t]
            for x, fx in f.items():
                for s in self.gens:
                    if any((a + b - d) % q for a, b, d, q in
                           zip(fx, self._act(x, f[s]), f[mul(x, s)], mods)):
                        return None
            return [v % q for s in self.gens for v, q in zip(f[s], mods)]
        if not self._is_cocycle(vec):
            return None
        c = self._bar_value(vec)
        beta = self._tree_sums(lambda x, si: c(x, self.gens[si]))
        out = []
        for x, si in self.edges:
            s = self.gens[si]
            out.extend(a + b - d for a, b, d in
                       zip(beta[x], c(x, s), beta[mul(x, s)]))
        return [v % q for v, q in zip(out, self.mods)]

    def to_bar(self, phi):
        """Normalized bar coordinates of the p-cocycle of ``phi``.  In
        degree 2 it is zero on tree edges, phi(C_(x,s)) on the other
        edges (x, s), extended along the tree in the second argument.
        The closure reaches each s in S from the identity first, so the
        edges (1, s) are tree edges and the cocycle vanishes at the
        identity."""
        gamma, t, space = self.module.gamma, self.t, self.space
        if self.p == 0:
            return space.reduce(phi)
        if self.p == 1:
            f = self._tree_sums(
                lambda x, si: self._act(x, phi[si * t:(si + 1) * t]))
            return space.reduce([v for (g,) in space.tuples for v in f[g]])
        zero = [0] * t

        def edge(x, si):
            k = self.edge_index.get((x, si))
            return zero if k is None else phi[k * t:(k + 1) * t]

        elements = range(gamma.order)
        col = {gamma.identity: [zero] * gamma.order}   # col[y][x] = c(x, y)
        for y in self.vertices[1:]:
            p, si = self.parent[y]
            cp = col[p]
            col[y] = [[a + b - d for a, b, d in
                       zip(cp[x], edge(gamma.mul(x, p), si),
                           self._act(x, edge(p, si)))]
                      for x in elements]
        vec = [0] * space.dim
        for i, (x, y) in enumerate(space.tuples):
            vec[i * t:(i + 1) * t] = col[y][x]
        return space.reduce(vec)

    def _is_cocycle(self, vec):
        """Whether the normalized bar 2-cochain ``vec`` is a cocycle: the
        conditions at (g, s, h) with s in S and g, h != 1 imply the rest,
        since they say that the section element of s associates in the
        extension A x_c Gamma, and such elements are closed under
        products (Light's associativity test)."""
        gamma, mods = self.module.gamma, self.module.coeff.invariant_factors
        c = self._bar_value(vec)
        others = [g for g in range(gamma.order) if g != gamma.identity]
        for g in others:
            for s in self.gens:
                gs, cgs = gamma.mul(g, s), c(g, s)
                for h in others:
                    if any((a - b + d - e) % q for a, b, d, e, q in
                           zip(self._act(g, c(s, h)), c(gs, h),
                               c(g, gamma.mul(s, h)), cgs, mods)):
                        return False
        return True

    def coboundary_witness(self, vec):
        """Normalized bar (p-1)-cochain coordinates of b with db = ``vec``,
        or None when ``vec`` is no coboundary (always in degree 0).  A
        solution a of [d_(p-1) | diag(mods)] a = from_bar(vec) is b
        itself in degree 1; in degree 2 it gives b the values a_s on S,
        and b follows the tree, b(xs) = b(x) + x.a_s - c(x, s)."""
        phi = self.from_bar(vec)
        if self.p == 0 or phi is None:
            return None
        if self._solver is None:
            rows = self._rows(self.p - 1)
            self._solver = IntegerSolver(IntMatrix.from_rows(
                [row + [q if k == r else 0 for k in range(self.dim)]
                 for r, (row, q) in enumerate(zip(rows, self.mods))],
                cols=self.blocks[self.p - 1] * self.t + self.dim))
        sol = self._solver.solve(phi)
        if sol is None:
            return None
        gamma, t = self.module.gamma, self.t
        if self.p == 1:
            return sol[:t]
        c = self._bar_value(vec)
        b = self._tree_sums(lambda x, si: [
            u - w for u, w in zip(self._act(x, sol[si * t:(si + 1) * t]),
                                  c(x, self.gens[si]))])
        return [v for g in range(gamma.order) if g != gamma.identity
                for v in b[g]]
