"""Finite groups given by explicit multiplication tables.

These serve two roles: the component group of a disconnected group, and
small stand-in models of connected groups when verifying the pushout
construction.  Element 0 is the identity for every group built here by
closure; raw tables may put the identity anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .errors import BudgetExceededError, ValidationError

# Largest group that ``from_generators`` and ``cyclic`` build.
GROUP_CAP = 10000


@dataclass(frozen=True)
class FiniteGroup:
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

    def is_abelian(self):
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(self.order) for j in range(i))


def validate_table(table, identity=None):
    """Check a multiplication table and return the FiniteGroup.

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
    if any(x < 0 or x >= n for row in table for x in row):
        raise ValidationError("table entry out of range")
    elements = tuple(range(n))
    column = tuple(zip(*table))   # column[x][a] = a * x
    if identity is None:
        identity = next((e for e in range(n)
                         if table[e] == elements and column[e] == elements),
                        None)
        if identity is None:
            raise ValidationError("table has no identity element")
    elif table[identity] != elements or column[identity] != elements:
        raise ValidationError(f"element {identity} is not an identity")
    inverse = []
    for x, row in enumerate(table):
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


def compose(e, g):
    """The permutation e * g of {0..n-1}: g applied first, then e."""
    return tuple(e[k] for k in g)


def from_generators(degree, perms):
    """Closure of permutation generators on {0..degree-1} as a table.

    Elements are numbered by ``closure`` from the identity, applying
    generators in input order (canonical numbering), and the group keeps
    the closure tree.  Element 0 is the identity.
    """
    gens = [tuple(p) for p in perms]
    if any(sorted(p) != list(range(degree)) for p in gens):
        raise ValidationError("generator is not a permutation of the degree")
    elems, index, tree = closure(tuple(range(degree)), gens, compose,
                                 GROUP_CAP, "group")
    n = len(elems)
    table = tuple(tuple(index[compose(elems[i], elems[j])] for j in range(n))
                  for i in range(n))
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


def subgroup_closure(G: FiniteGroup, seed):
    """Element set of the subgroup generated by ``seed`` (in a finite
    group, the closure of the identity under right multiplication)."""
    elems, _, _ = closure(G.identity, tuple(seed), G.mul, G.order, "subgroup")
    return frozenset(elems)


def generating_set(G: FiniteGroup):
    """Greedy generating set: each element not yet in the span of the
    earlier ones, in index order.  The span is the closure of the
    identity under right multiplication, so on a table not yet known to
    be associative the result still reaches every element from the
    identity, which is what ``validate_table`` needs."""
    gens = []
    span = subgroup_closure(G, [])
    for x in range(G.order):
        if len(span) == G.order:
            break
        if x not in span:
            gens.append(x)
            span = subgroup_closure(G, gens)
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


def direct_product(A: FiniteGroup, B: FiniteGroup):
    """A x B with element (a, b) at index a * |B| + b: the semidirect
    product through identity maps."""
    return semidirect_product(A, B, [tuple(range(A.order))] * B.order)


def semidirect_product(N: FiniteGroup, H: FiniteGroup, act):
    """N x| H with act[h] an automorphism of N (as an index map).

    Element (x, h) sits at index x * |H| + h; multiplication
    (x1, h1)(x2, h2) = (x1 * act[h1](x2), h1 h2), the ``twisted_rows``
    with c the identity.  Each distinct map in ``act`` is checked once
    (``hom_check``, so N must be a group), then act(1) = id, then
    act(h s) = act(h) act(s) for every h and every s in
    ``H.generators``: with act(1) = id, induction on the length of a
    word in S makes h -> act(h) a homomorphism H -> Aut(N), which needs
    H to be a group.
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
    for s in H.generators:
        a_s = act[s]
        for a1, h1_row in zip(act, H.table):
            if tuple([a1[x] for x in a_s]) != act[h1_row[s]]:
                raise ValidationError("act is not a homomorphism")
    nh = H.order
    table = twisted_rows(N.table, H.table, act, [[N.identity] * nh] * nh)
    inverse = []
    for x in elements:
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
