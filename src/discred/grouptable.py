"""Finite groups given by explicit multiplication tables.

These serve two roles: the component group of a disconnected group, and
small stand-in models of connected groups when verifying the pushout
construction.  Element 0 is the identity for every group built here by
closure; raw tables may put the identity anywhere.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import chain
from operator import itemgetter

from .errors import BudgetExceededError, ValidationError
from .record import Record, field

# Largest group that ``from_generators`` and ``cyclic`` build.
GROUP_CAP = 10000


class FiniteGroup(Record):
    order: int
    table: tuple          # table[i][j] = index of x_i * x_j
    identity: int
    inverse: tuple
    # ``closure``'s tree over the construction generators and their
    # number (from_generators and cyclic only); not compared.
    closure_tree: tuple | None = field(default=None, compare=False)
    generator_count: int | None = field(default=None, compare=False)

    @cached_property
    def generators(self):
        """The greedy ``generating_set``, computed once per group object.

        These are element indices chosen by ``generating_set``, not the
        construction generators that ``closure_tree`` numbers.
        """
        return tuple(generating_set(self))

    @cached_property
    def _cayley_graphs(self):
        return {}

    def cayley_graph(self):
        """The ``CayleyGraph`` of the group on S = ``generators``, built
        once per S: a group whose S changes gets a graph on the new S."""
        gens = self.generators
        graph = self._cayley_graphs.get(gens)
        if graph is None:
            graph = self._cayley_graphs[gens] = CayleyGraph(self, gens)
        return graph

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self.inverse[i]

    def element_order(self, i):
        n, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            n += 1
        return n

    def elements(self):
        return range(self.order)


def validate_table(table):
    """Check a multiplication table from outside and return the
    FiniteGroup; the tables built here come with a proof instead.

    Associativity is checked by Light's test: the elements s with
    (a s) c = a (s c) for all a and c contain the identity and are
    closed under products, so checking every s in a set S whose
    right-multiplication closure from the identity reaches the whole
    table (the greedy ``generating_set``) proves the table associative.
    Cost O(n^2 |S|).  Raises ValidationError naming the first violated
    axiom; for associativity, a failing triple (a, s, c).
    """
    n = len(table)
    table = tuple(tuple(row) for row in table)
    if any(len(row) != n for row in table):
        raise ValidationError("multiplication table is not square")
    if n and (min(map(min, table)) < 0 or max(map(max, table)) >= n):
        raise ValidationError("table entry out of range")
    elements = tuple(range(n))
    column = tuple(zip(*table))   # column[x][a] = a * x
    identity = next((e for e in range(n)
                     if table[e] == elements and column[e] == elements), None)
    if identity is None:
        raise ValidationError("table has no identity element")
    inverse = []
    for x, row in enumerate(table):
        # the first right inverse is the answer when it is two-sided
        y = row.index(identity) if identity in row else None
        if y is not None and column[x][y] != identity:
            y = next((y for y, xy in enumerate(row)
                      if xy == identity and column[x][y] == identity), None)
        if y is None:
            raise ValidationError(f"element {x} has no inverse")
        inverse.append(y)
    G = FiniteGroup(n, table, identity, tuple(inverse))
    for s in G.generators:
        s_row = table[s]
        for a, a_row in enumerate(table):
            as_row = table[column[s][a]]
            if as_row != tuple([a_row[sc] for sc in s_row]):
                c = next(c for c in range(n) if as_row[c] != a_row[s_row[c]])
                raise ValidationError(
                    f"associativity fails at triple ({a}, {s}, {c})")
    return G


def closure(identity, gens, mul, cap, what):
    """Breadth-first closure of ``identity`` under right multiplication by
    ``gens``.

    Elements are numbered in discovery order: the identity first, then
    the products ``x * g`` for each element x in turn and each generator
    g in input order.  Returns ``(elements, index, tree)`` with
    ``index[x]`` the number of x and ``tree[i] = (parent, generator)``
    the first product that reached element i (``tree[0]`` is None).
    Raises BudgetExceededError when the closure outgrows ``cap``.
    """
    elements = [identity]
    index = {identity: 0}
    tree = [None]
    for i, x in enumerate(elements):
        for gi, g in enumerate(gens):
            y = mul(x, g)
            if y not in index:
                if len(elements) >= cap:
                    raise BudgetExceededError(
                        f"{what} closure exceeds cap {cap}")
                index[y] = len(elements)
                elements.append(y)
                tree.append((i, gi))
    return elements, index, tree


class CayleyGraph:
    """The Cayley graph of the finite group ``gamma`` on the generating
    tuple ``gens`` = S: the combinatorics of the complex
    A -> A^S -> Hom_Gamma(R, A) of ``relations.RelationModule``, which
    depend on (Gamma, S) alone, so that every module, degree and tower
    level over Gamma shares them (``FiniteGroup.cayley_graph``).

    The edges are the pairs (x, s index), from x to xs.  The
    breadth-first tree of ``closure`` from the identity holds n - 1 of
    them, one into each vertex but the identity (``parent``); each of
    the other m = n|S| - n + 1 edges (``edges``, numbered by
    ``edge_index``) closes the fundamental cycle C_(x,s): the edge, plus
    the tree path to x, minus the tree path to xs.  These cycles are a
    Z-basis of the cycle space R.  The closure reaches each s in S from
    the identity first, so the edges (1, s) are tree edges."""

    def __init__(self, gamma, gens):
        # the table, not the group: the group keeps the graph
        self.table, self.gens = gamma.table, gens
        elems, _, tree = closure(gamma.identity, gens, gamma.mul,
                                 gamma.order, "group")
        self.vertices = elems
        # tree edge into each vertex but the identity: (parent, s index)
        self.parent = {z: (elems[i], si)
                       for z, (i, si) in zip(elems[1:], tree[1:])}
        tree_edges = set(self.parent.values())
        self.edges = [(x, si) for x in elems for si in range(len(gens))
                      if (x, si) not in tree_edges]
        self.edge_index = {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def cycles(self):
        """The basis cycles as lists of (vertex, s index, coefficient)
        edge terms, built on first use: d_0 reads none."""
        return [self._cycle(x, si) for x, si in self.edges]

    def _path(self, y):
        """Vertices whose tree edges lead from the identity to y."""
        path = []
        while y in self.parent:
            path.append(y)
            y = self.parent[y][0]
        return path[::-1]

    def _cycle(self, x, si):
        """The basis cycle of the edge (x, s); the tree paths to its two
        ends share their first edges, which cancel."""
        to_x = self._path(x)
        to_xs = self._path(self.table[x][self.gens[si]])
        common = 0
        while (common < min(len(to_x), len(to_xs))
               and to_x[common] == to_xs[common]):
            common += 1
        return ([(x, si, 1)]
                + [self.parent[z] + (1,) for z in to_x[common:]]
                + [self.parent[z] + (-1,) for z in to_xs[common:]])

    @cached_property
    def translates(self):
        """translates[s index][j]: the (edge number, coefficient) terms of
        s.C_j on the edges outside the tree, where it has its coordinates
        in the basis of R.  The edges of a cycle are distinct, and so are
        their translates."""
        index = self.edge_index
        out = []
        for s in self.gens:
            row = self.table[s]
            per_cycle = []
            for terms in self.cycles:
                coef = [(index.get((row[x], si)), c) for x, si, c in terms]
                per_cycle.append([(e, c) for e, c in coef if e is not None])
            out.append(per_cycle)
        return out

    @cached_property
    def d1_blocks(self):
        """The rows of d_1 under the trivial action, one per basis cycle:
        (s index, sum of the coefficients of the edges (y, s) of the
        cycle) pairs, nonzero, s in order of first appearance.  Row r of
        d_1 on t coordinates has the entries (s t + r, sum)."""
        rows = []
        for terms in self.cycles:
            row = {}
            for _, si, c in terms:
                row[si] = row.get(si, 0) + c
            rows.append([(si, v) for si, v in row.items() if v])
        return rows

    @cached_property
    def d2_blocks(self):
        """The rows of d_2 under the trivial action, one per (s, C_j):
        phi(s.C_j) - phi(C_j) as (cycle number, coefficient) pairs,
        nonzero.  Row r of d_2 on t coordinates has the entries
        (k t + r, coefficient)."""
        rows = []
        for per_cycle in self.translates:
            for j, coef in enumerate(per_cycle):
                row = dict(coef)
                row[j] = row.get(j, 0) - 1
                rows.append([(k, v) for k, v in row.items() if v])
        return rows


def compose(e, g):
    """The permutation e * g of {0..n-1}: g applied first, then e."""
    return tuple(e[k] for k in g)


def _times(g):
    """e -> compose(e, g) as one ``itemgetter``; with a single index an
    itemgetter returns a scalar, so degree <= 1 keeps ``compose``."""
    return itemgetter(*g) if len(g) > 1 else partial(compose, g=g)


def permutation_closure(degree, perms, cap, what):
    """``closure`` of the identity of {0..degree-1} under right
    multiplication by the permutations ``perms`` (tuples), each product
    read off by one getter per generator."""
    return closure(tuple(range(degree)), [_times(g) for g in perms],
                   lambda e, times: times(e), cap, what)


def from_generators(degree, perms):
    """Closure of permutation generators on {0..degree-1} as a table.

    Elements are numbered by ``closure`` from the identity, applying
    generators in input order (canonical numbering), and the group keeps
    the closure tree.  Element 0 is the identity.
    """
    gens = [tuple(p) for p in perms]
    if any(sorted(p) != list(range(degree)) for p in gens):
        raise ValidationError("generator is not a permutation of the degree")
    elems, index, tree = permutation_closure(degree, gens, GROUP_CAP, "group")
    n = len(elems)
    right = [_times(p) for p in elems]
    table = tuple(tuple([index[times(e)] for times in right]) for e in elems)
    inverse = tuple(index[_invert(p)] for p in elems)
    return FiniteGroup(n, table, 0, inverse, closure_tree=tuple(tree),
                       generator_count=len(gens))


def _invert(p):
    """The inverse of the permutation p."""
    q = [0] * len(p)
    for i, pi in enumerate(p):
        q[pi] = i
    return tuple(q)


def cyclic(n):
    """Z/n as a table: element i is the i-th power of the generator 1,
    numbered as ``from_generators`` numbers an n-cycle, with the same
    closure tree; no generator for n = 1."""
    if n < 1:
        raise ValidationError("cyclic order must be >= 1")
    if n > GROUP_CAP:
        raise BudgetExceededError(f"group closure exceeds cap {GROUP_CAP}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inverse = tuple(-i % n for i in range(n))
    tree = (None,) + tuple((i, 0) for i in range(n - 1))
    return FiniteGroup(n, table, 0, inverse, closure_tree=tree,
                       generator_count=int(n > 1))


def hom_check(f, src: FiniteGroup, dst: FiniteGroup) -> bool:
    """True iff the total map f (indexable by src elements) is a
    homomorphism of the group src to the group dst.

    Checks f(1) = 1 and f(x s) = f(x) f(s) for every x and every s in
    ``src.generators``: |src| |S| lookups.  Every y is a word in S, so
    f(x y) = f(x) f(y) follows by induction on the length of y (the
    empty word needs f(1) = 1, the only check when src is trivial).
    The argument needs src to be a group whose elements S reaches by
    right multiplication, and dst associative.
    """
    if len(f) != src.order:
        raise ValidationError("map is not total on the source group")
    images = [f[y] for y in range(src.order)]
    if images[src.identity] != dst.identity:
        return False
    dst_table = dst.table
    for s in src.generators:
        fs = images[s]
        if [images[row[s]] for row in src.table] != \
           [dst_table[fx][fs] for fx in images]:
            return False
    return True


def first_failing_pair(G: FiniteGroup, images, agrees):
    """The first pair (x, s), by x and then by s in ``G.generators``,
    with agrees(images[x], images[s], images[xs]) false, or None.  Each
    distinct triple of (hashable) images is tried once, so a map that
    repeats over G is checked once per distinct triple it is part of."""
    index, checked = {}, set()
    ids = [index.setdefault(a, len(index)) for a in images]
    for x in range(G.order):
        for s in G.generators:
            xs = G.mul(x, s)
            if (ids[x], ids[s], ids[xs]) not in checked:
                if not agrees(images[x], images[s], images[xs]):
                    return x, s
                checked.add((ids[x], ids[s], ids[xs]))
    return None


def composes(a, b, ab):
    """Whether the index maps a, b and ab satisfy a o b = ab."""
    return tuple([a[x] for x in b]) == ab


def generating_set(G: FiniteGroup):
    """Greedy generating set: each element not yet in the span of the
    earlier ones, in index order.  The span is the closure of the
    identity under right multiplication, so on a table not yet known to
    be associative the result still reaches every element from the
    identity, which is what ``validate_table`` needs.  One span grows:
    the old one is closed under the earlier generators, so a new
    generator is applied to it, and every generator to what that adds."""
    table, gens = G.table, []
    span, seen = [G.identity], {G.identity}
    for x in range(G.order):
        if len(span) == G.order:
            break
        if x in seen:
            continue
        gens.append(x)
        i = len(span)
        for y in span[:i]:
            z = table[y][x]
            if z not in seen:
                seen.add(z)
                span.append(z)
        while i < len(span):
            row = table[span[i]]
            for g in gens:
                if row[g] not in seen:
                    seen.add(row[g])
                    span.append(row[g])
            i += 1
    return gens


def is_subgroup(G: FiniteGroup, subset) -> bool:
    s = frozenset(subset)
    if G.identity not in s:
        return False
    return all(G.mul(x, y) in s and G.inv(x) in s for x in s for y in s)


def is_normal(G: FiniteGroup, subset) -> bool:
    """True iff ``subset`` is a normal subgroup of the group G: a
    subgroup with g s g^-1 in s for every g, read off the row of g."""
    s = frozenset(subset)
    if not is_subgroup(G, s):
        return False
    table = G.table
    return all(s.issuperset([table[row[x]][gi] for x in s])
               for row, gi in zip(table, G.inverse))


def quotient(G: FiniteGroup, normal_subset):
    """Quotient by a normal subgroup; returns (group, coset_of) where
    coset_of[i] is the quotient index of element i.  Cosets are numbered
    by their first element; the cosets, the quotient table and its
    inverses are read off the rows of G.  The table is not checked
    again: ``is_normal`` accepted the subgroup, so it is a group."""
    s = frozenset(normal_subset)
    if not is_normal(G, s):
        raise ValidationError("subset is not a normal subgroup")
    coset_of = [None] * G.order
    reps = []
    for g, row in enumerate(G.table):
        if coset_of[g] is None:
            idx = len(reps)
            reps.append(g)
            for x in s:
                coset_of[row[x]] = idx
    table = tuple(tuple([coset_of[row[r]] for r in reps])
                  for row in (G.table[g] for g in reps))
    inverse = tuple(coset_of[G.inv(r)] for r in reps)
    return (FiniteGroup(len(reps), table, coset_of[G.identity], inverse),
            tuple(coset_of))


def twisted_rows(n_table, h_table, act, c):
    """The rows of (x1, h1)(x2, h2) = (x1 act[h1](x2) c[h1][h2], h1 h2)
    on N x H, with (x, h) at index x * |H| + h; no axiom is checked.

    ``n_table`` and ``h_table`` are multiplication tables, ``act[h]`` an
    index map on N and ``c[h1][h2]`` an element of N.  Row (x1, h1) is
    the chain of the blocks (h1, y) over x2, one per y = x1 act[h1](x2);
    block (h1, y) holds the indices of (y c[h1][h2], h1 h2) over h2.
    The blocks are built once over one shared list of index cells, so
    rows share them and their index objects.
    """
    nh = len(h_table)
    cells = [tuple(range(y * nh, (y + 1) * nh)) for y in range(len(n_table))]
    blocks = [[tuple([cells[y_row[cy]][h] for cy, h in zip(c_h1, h1_row)])
               for y_row in n_table]
              for h1_row, c_h1 in zip(h_table, c)]
    return tuple([tuple(chain.from_iterable([blk[x1_row[x]] for x in a1]))
                  for x1_row in n_table for a1, blk in zip(act, blocks)])


def check_action(N: FiniteGroup, H: FiniteGroup, act):
    """``act`` as a tuple of index maps, checked to be a homomorphism
    H -> Aut(N); raises ValidationError at the first failure.

    Each distinct map in ``act`` is checked once (``hom_check``, so N
    must be a group), then act(1) = id, then act(h s) = act(h) act(s)
    for every h and every s in ``H.generators``, once per distinct
    triple of maps (``first_failing_pair``): with act(1) = id, induction
    on the length of a word in S makes h -> act(h) a homomorphism
    H -> Aut(N), which needs H to be a group.  A rejected map is named
    by the first h that carries it.
    """
    act = tuple(tuple(a) for a in act)
    elements = tuple(range(N.order))
    checked = set()
    for h in range(H.order):
        a = act[h]
        if a not in checked:
            if sorted(a) != list(elements) or not hom_check(a, N, N):
                raise ValidationError(f"act[{h}] is not an automorphism")
            checked.add(a)
    if act[H.identity] != elements:
        raise ValidationError("act at the identity is not the identity map")
    if first_failing_pair(H, act, composes) is not None:
        raise ValidationError("act is not a homomorphism")
    return act


def semidirect_product(N: FiniteGroup, H: FiniteGroup, act):
    """N x| H with act[h] an automorphism of N (as an index map).

    Element (x, h) sits at index x * |H| + h; multiplication
    (x1, h1)(x2, h2) = (x1 * act[h1](x2), h1 h2), the ``twisted_rows``
    with c the identity.  ``check_action`` checks act first.
    """
    act = check_action(N, H, act)
    nh = H.order
    table = twisted_rows(N.table, H.table, act, [[N.identity] * nh] * nh)
    inverse = []
    for x in range(N.order):
        for h in range(nh):
            hi = H.inv(h)
            inverse.append(act[hi][N.inv(x)] * nh + hi)
    return FiniteGroup(N.order * nh, table, N.identity * nh + H.identity,
                       tuple(inverse))


def find_isomorphism(A: FiniteGroup, B: FiniteGroup):
    """Brute-force isomorphism A -> B (None when not isomorphic).

    Backtracks over images of a small generating set; desk scale only.
    Nothing in the package calls it (``extension.quotient_mod_center``
    returns the natural map); the tests use it to identify groups, and
    the benchmark's tracer wraps it.
    """
    if A.order != B.order:
        return None
    if sorted(A.element_order(x) for x in A.elements()) != \
       sorted(B.element_order(x) for x in B.elements()):
        return None

    gens = A.generators
    elems, _, tree = closure(A.identity, gens, A.mul, A.order, "group")

    b_by_order = {}
    for y in range(B.order):
        b_by_order.setdefault(B.element_order(y), []).append(y)

    def tree_map(images):
        """Push generator images along the closure tree of A; None unless
        the result is a bijective homomorphism."""
        f = [None] * A.order
        f[A.identity] = B.identity
        for x, (parent, gi) in zip(elems[1:], tree[1:]):
            f[x] = B.mul(f[elems[parent]], images[gi])
        if len(set(f)) != A.order:
            return None
        return f if hom_check(f, A, B) else None

    def backtrack(i, images):
        if i == len(gens):
            return tree_map(images)
        for y in b_by_order.get(A.element_order(gens[i]), []):
            res = backtrack(i + 1, images + [y])
            if res is not None:
                return res
        return None

    return backtrack(0, [])
