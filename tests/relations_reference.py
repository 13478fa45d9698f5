"""The routines of ``relations.RelationModule`` that read the Cayley
graph and the action matrices, as they were before the graph became
Gamma's own (``grouptable.CayleyGraph``) and identity actions skipped
their products: this class rebuilds the tree, the cycles and the edge
index from ``closure`` for every module and applies every element's
matrix.  The tests check the library's ``_rows``, ``to_bar``,
``from_bar`` and ``_light_witness`` against it, row for row.

It also keeps the reading of total cochains as it was before cochains
were read by position: ``_total`` as a dict keyed by tuple,
``from_cochain`` reducing value by value, ``to_cochain`` through
``bar_index`` and Light's test through the ``_bar_value`` closure
(``cocycle_witness``).  The library's reader must give the same vectors,
witnesses and errors on every cochain whose tuples lie in Gamma^p."""

import itertools
from functools import cached_property

from discred.errors import ValidationError
from discred.grouptable import closure


class ReferenceRelationModule:
    """The complex of the Cayley graph of (Gamma, S), S =
    ``gamma.generators``, for the module M in degree p, built from
    scratch (see ``relations.RelationModule`` for the layout)."""

    def __init__(self, M, p):
        gamma = M.gamma
        self.module = M
        self.p = p
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
        """The matrix of d_k : C^k -> C^(k+1) as sparse rows, lists of
        (column, value) pairs with value != 0, k in {0, 1, 2}.  Row (s, r)
        of d_0 is row r of s - 1.  Column (s, i) of d_1 is phi of the
        unit vector e_i at s.  Row (s, j, r) of d_2 reads s.C_j on the
        edges outside the tree, where it has its coordinates in the
        basis."""
        t, mul = self.t, self.module.gamma.mul
        if k == 0:
            return [[(i, a - (i == r)) for i, a in enumerate(self.acts[s][r])
                     if a != (i == r)] for s in self.gens for r in range(t)]
        rows = []
        if k == 1:
            for terms in self.cycles:
                for r in range(t):
                    row = {}
                    for y, si, c in terms:
                        for i, a in enumerate(self.acts[y][r], si * t):
                            row[i] = row.get(i, 0) + c * a
                    rows.append([(i, v) for i, v in row.items() if v])
            return rows
        for s in self.gens:
            amat = self.acts[s]
            for j, terms in enumerate(self.cycles):
                # the edges of a cycle are distinct, and so are their
                # translates
                coef = [(self.edge_index.get((mul(s, x), si)), c)
                        for x, si, c in terms]
                for r in range(t):
                    row = {e * t + r: c for e, c in coef if e is not None}
                    for i, a in enumerate(amat[r], j * t):
                        row[i] = row.get(i, 0) - a
                    rows.append([(i, v) for i, v in row.items() if v])
        return rows

    @cached_property
    def bar_index(self):
        """The normalized bar layout of degree p, built on first use: each
        p-tuple over Gamma minus the identity, in lexicographic order, to
        the number of its block of t coordinates."""
        gamma = self.module.gamma
        others = [g for g in range(gamma.order) if g != gamma.identity]
        return {tup: i for i, tup in
                enumerate(itertools.product(others, repeat=self.p))}

    @cached_property
    def bar_mods(self):
        """The modulus of each normalized bar coordinate."""
        return self.module.coeff.invariant_factors * len(self.bar_index)

    def _reduce_bar(self, vec):
        return [v % q for v, q in zip(vec, self.bar_mods)]

    def _total(self, c):
        """The values of the p-cochain c by tuple, in product order;
        ValidationError unless c has degree p and is total."""
        if c.degree != self.p:
            raise ValidationError("cochain degree mismatch")
        d = c.as_dict()
        try:
            return {tup: d[tup] for tup in itertools.product(
                range(self.module.gamma.order), repeat=self.p)}
        except KeyError as e:
            raise ValidationError(
                f"cochain is not total: missing {e.args[0]}") from None

    def from_cochain(self, c):
        """(vec, shift): the normalized bar coordinates of c - d(const
        shift), where shift = c(1, 1) in degree 2 and zero below, vec
        None when that difference is not normalized."""
        d = self._total(c)
        M, index, t = self.module, self.bar_index, self.t
        coeff, ident = M.coeff, M.gamma.identity
        shift = coeff.zero()
        if self.p == 2:
            shift = coeff.reduce(d[(ident, ident)])
        acted = [M.act(g, shift) for g in range(M.gamma.order)] \
            if any(shift) else None
        vec = [0] * len(self.bar_mods)
        normalized = True
        for tup, val in d.items():
            if acted is not None:
                val = [x - y for x, y in zip(val, acted[tup[0]])]
            val = coeff.reduce(val)
            i = index.get(tup)
            if i is None:
                normalized = normalized and not any(val)
            else:
                vec[i * t:(i + 1) * t] = val
        return (vec if normalized else None), shift

    def to_cochain(self, vec):
        """The (tuple, value) pairs, in product order, of the total
        p-cochain with normalized bar coordinates ``vec``."""
        gamma, t = self.module.gamma, self.t
        vec = self._reduce_bar(vec)
        zero = (0,) * t
        blocks = iter([tuple(vec[i * t:(i + 1) * t])
                       for i in range(len(self.bar_index))])
        return tuple(
            (tup, zero if gamma.identity in tup else next(blocks))
            for tup in itertools.product(range(gamma.order), repeat=self.p))

    def cocycle_witness(self, c):
        """Light's test on the total 2-cochain c, read as a dict."""
        coeff = self.module.coeff
        d = {k: coeff.reduce(v) for k, v in self._total(c).items()}
        return self._light_witness(lambda x, y: d[x, y])

    def _bar_value(self, vec):
        """c(x, y) from normalized bar coordinates of degree 2; zero at
        the identity."""
        index, t = self.bar_index, self.t
        zero = [0] * t

        def value(x, y):
            i = index.get((x, y))
            return zero if i is None else vec[i * t:(i + 1) * t]
        return value

    def _light_witness(self, c):
        """The first (g, s, h), in the order g, s in S, h, at which the
        total 2-cochain c(x, y) fails g.c(s, h) - c(gs, h) + c(g, sh)
        - c(g, s) = 0, or None.  These triples imply the rest, normalized
        or not (Light's test): they say that each (a, s) associates in the
        middle of the law (a, x)(b, y) = (a + x.b + c(x, y), xy) on
        A x Gamma, such elements are closed under products, and S reaches
        all of the finite group Gamma by non-empty words."""
        gamma, mods = self.module.gamma, self.module.coeff.invariant_factors
        mul, n = gamma.mul, gamma.order
        for g in range(n):
            for s in self.gens:
                gs, cgs = mul(g, s), c(g, s)
                for h in range(n):
                    if any((a - b + d - e) % q for a, b, d, e, q in
                           zip(self._act(g, c(s, h)), c(gs, h),
                               c(g, mul(s, h)), cgs, mods)):
                        return (g, s, h)
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
        gamma, t = self.module.gamma, self.t
        mul = gamma.mul
        if self.p == 1:
            f = {gamma.identity: [0] * t}
            for (g,), i in self.bar_index.items():
                f[g] = vec[i * t:(i + 1) * t]
            for x, fx in f.items():
                for s in self.gens:
                    if any((a + b - d) % q for a, b, d, q in
                           zip(fx, self._act(x, f[s]), f[mul(x, s)], mods)):
                        return None
            return [v % q for s in self.gens for v, q in zip(f[s], mods)]
        c = self._bar_value(vec)
        if self._light_witness(c) is not None:
            return None
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
        gamma, t = self.module.gamma, self.t
        if self.p == 0:
            return self._reduce_bar(phi)
        if self.p == 1:
            f = self._tree_sums(
                lambda x, si: self._act(x, phi[si * t:(si + 1) * t]))
            return self._reduce_bar([v for (g,) in self.bar_index
                                     for v in f[g]])
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
        vec = [0] * len(self.bar_mods)
        for (x, y), i in self.bar_index.items():
            vec[i * t:(i + 1) * t] = col[y][x]
        return self._reduce_bar(vec)
