"""The relation module of a Cayley graph: degree-2 cohomology of a finite
group on n|S| - n + 1 unknowns per coefficient coordinate.

Lyndon's exact sequence 0 -> R -> Z Gamma^S -> Z Gamma -> Z -> 0
(Lyndon, Ann. of Math. 52, 1950; Gruenberg, J. London Math. Soc. 35,
1960), with R the cycle space of the Cayley graph of (Gamma, S), gives
H^2(Gamma, A) = coker(A^S -> Hom_Gamma(R, A)).  ``cohomology`` does the
lattice work; this module supplies the matrices and converts between
Gamma-maps on R and normalized bar cochains.
"""

from __future__ import annotations

from .exactlin import IntegerSolver, IntMatrix
from .grouptable import closure, generating_set


class RelationModule:
    """The relation module R of the Cayley graph of (Gamma, S), S the
    greedy ``generating_set``, with the Gamma-maps R -> A of the module
    M; ``space`` holds the normalized bar coordinates of degree 2.

    The edges of the graph are the pairs (x, s), from x to xs.  The
    breadth-first tree of ``closure`` from the identity holds n - 1 of
    them; each of the other m = n|S| - n + 1 edges (x, s) closes the
    fundamental cycle C_(x,s) (the edge, plus the tree path to x, minus
    the tree path to xs), and these cycles are a Z-basis of R.  A map
    phi on R is stored by its values on the basis: block k of a flat
    vector holds phi(C_k), t coefficient coordinates.

    Bar cochains convert at the boundary.  A normalized 2-cocycle c
    gives phi(C_(x,s)) = beta(x) + c(x, s) - beta(xs), where
    beta(xs) = beta(x) + c(x, s) along the tree edges; back, phi gives
    the normalized cocycle that is 0 on tree edges and phi(C_(x,s)) on
    the other edges (x, s), extended along the tree by
    c(x, ys) = c(x, y) + c(xy, s) - x.c(y, s)."""

    def __init__(self, M, space):
        gamma = M.gamma
        self.module = M
        self.space = space
        self.gens = tuple(generating_set(gamma))
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
        self.dim = len(self.edges) * t
        self.mods = tuple(M.coeff.invariant_factors[i % t]
                          for i in range(self.dim)) if t else ()
        self.acts = {g: M.action[g].matrix.entries for g in elems}
        self.cycles = [self._cycle(x, si) for x, si in self.edges]
        self._solver = None

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

    def equivariance_matrix(self, Q):
        """Rows phi(s.C_k) - s.phi(C_k) for s in S, each basis cycle C_k
        and coefficient coordinate r, scaled by Q / q_r so that every row
        is a congruence mod Q.  s.C_k is read on the edges outside the
        tree, where it has its coordinates in the basis."""
        mul, t, mods = self.module.gamma.mul, self.t, self.mods
        rows = []
        for s in self.gens:
            amat = self.acts[s]
            for k, terms in enumerate(self.cycles):
                # the edges of a cycle are distinct, and so are their
                # translates
                coef = [(self.edge_index.get((mul(s, x), si)), c)
                        for x, si, c in terms]
                for r in range(t):
                    row = [0] * self.dim
                    for j, c in coef:
                        if j is not None:
                            row[j * t + r] = c
                    for col, a in enumerate(amat[r]):
                        row[k * t + col] -= a
                    scale = Q // mods[r]
                    rows.append([scale * x for x in row])
        return IntMatrix.from_rows(rows, cols=self.dim)

    def coboundaries(self):
        """The images phi_a(C) = sum of the terms y.a_s over the edges
        (y, s) of C, for a the unit vectors of A^S: |S| t vectors, in
        the order (s, coordinate)."""
        t = self.t
        out = [[0] * self.dim for _ in range(len(self.gens) * t)]
        for k, terms in enumerate(self.cycles):
            for y, si, c in terms:
                amat = self.acts[y]
                for i in range(t):
                    vec = out[si * t + i]
                    for r in range(t):
                        vec[k * t + r] += c * amat[r][i]
        return out

    def _bar_value(self, vec):
        """c(x, y) from normalized bar coordinates; zero at the
        identity."""
        index, t = self.space.index, self.t
        zero = [0] * t

        def value(x, y):
            i = index.get((x, y))
            return zero if i is None else vec[i * t:(i + 1) * t]
        return value

    def from_bar(self, vec):
        """The Gamma-map on R of the normalized 2-cocycle ``vec``."""
        c = self._bar_value(vec)
        mul, gens = self.module.gamma.mul, self.gens
        beta = {self.vertices[0]: [0] * self.t}
        for z in self.vertices[1:]:
            x, si = self.parent[z]
            beta[z] = [a + b for a, b in zip(beta[x], c(x, gens[si]))]
        out = []
        for x, si in self.edges:
            s = gens[si]
            out.extend(a + b - d for a, b, d in
                       zip(beta[x], c(x, s), beta[mul(x, s)]))
        return [v % q for v, q in zip(out, self.mods)]

    def to_bar(self, phi):
        """Normalized bar coordinates of the 2-cocycle of ``phi``: zero
        on tree edges, phi(C_(x,s)) on the other edges (x, s), extended
        along the tree in the second argument.  The closure reaches each
        s in S from the identity first, so the edges (1, s) are tree
        edges and the cocycle vanishes at the identity."""
        gamma, t = self.module.gamma, self.t
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
        space = self.space
        vec = [0] * space.dim
        for i, (x, y) in enumerate(space.tuples):
            vec[i * t:(i + 1) * t] = col[y][x]
        return space.reduce(vec)

    def is_cocycle(self, vec):
        """Whether the normalized bar cochain ``vec`` is a cocycle: the
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
        """Normalized 1-cochain coordinates of b with db = ``vec``, or
        None when ``vec`` is no coboundary.  A solution a of
        [coboundaries | diag(mods)] a = phi gives b the values a_s on S,
        and b follows the tree, b(xs) = b(x) + x.a_s - c(x, s)."""
        if not self.is_cocycle(vec):
            return None
        if self._solver is None:
            gens = self.coboundaries()
            self._solver = IntegerSolver(IntMatrix.from_rows(
                [tuple(g[r] for g in gens)
                 + tuple(q if k == r else 0 for k in range(self.dim))
                 for r, q in enumerate(self.mods)],
                cols=len(gens) + self.dim))
        sol = self._solver.solve(self.from_bar(vec))
        if sol is None:
            return None
        gamma, t = self.module.gamma, self.t
        c = self._bar_value(vec)
        b = {gamma.identity: [0] * t}
        for z in self.vertices[1:]:
            x, si = self.parent[z]
            a = sol[si * t:(si + 1) * t]
            b[z] = [u + v - w for u, v, w in
                    zip(b[x], self._act(x, a), c(x, self.gens[si]))]
        return [v for g in range(gamma.order) if g != gamma.identity
                for v in b[g]]
