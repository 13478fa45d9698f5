"""Finite groups given by explicit multiplication tables.

These serve two roles: the component group of a disconnected group, and
small stand-in models of connected groups when verifying the pushout
construction.  Element 0 is the identity for every group built here by
closure; raw tables may put the identity anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, ValidationError


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple          # table[i][j] = index of x_i * x_j
    identity: int
    inverse: tuple
    # BFS words in the construction generators (from_generators only);
    # not part of the group's identity.
    generator_words: tuple | None = field(default=None, compare=False)

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

    Raises ValidationError naming the first violated axiom.
    """
    n = len(table)
    table = tuple(tuple(int(x) for x in row) for row in table)
    if any(len(row) != n for row in table):
        raise ValidationError("multiplication table is not square")
    if any(x < 0 or x >= n for row in table for x in row):
        raise ValidationError("table entry out of range")
    if identity is None:
        identity = next((e for e in range(n)
                         if all(table[e][x] == x and table[x][e] == x
                                for x in range(n))), None)
        if identity is None:
            raise ValidationError("table has no identity element")
    else:
        if any(table[identity][x] != x or table[x][identity] != x
               for x in range(n)):
            raise ValidationError(f"element {identity} is not an identity")
    inverse = [None] * n
    for x in range(n):
        for y in range(n):
            if table[x][y] == identity and table[y][x] == identity:
                inverse[x] = y
                break
        if inverse[x] is None:
            raise ValidationError(f"element {x} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValidationError(
                        f"associativity fails at triple ({a}, {b}, {c})")
    return FiniteGroup(n, table, identity, tuple(inverse))


def from_generators(degree, perms, cap=10000):
    """Closure of permutation generators on {0..degree-1} as a table.

    Elements are numbered by BFS from the identity, applying generators
    in input order (canonical numbering).  Element 0 is the identity.
    """
    gens = []
    for p in perms:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(degree)):
            raise ValidationError("generator is not a permutation of the degree")
        gens.append(p)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    words = [()]
    frontier = [0]
    while frontier:
        new_frontier = []
        for ei in frontier:
            e = elems[ei]
            for gi, g in enumerate(gens):
                # right-multiply: e * g (composition, g applied first)
                prod = tuple(e[g[k]] for k in range(degree))
                if prod not in index:
                    if len(elems) >= cap:
                        raise BudgetExceededError(
                            f"group closure exceeds cap {cap}")
                    index[prod] = len(elems)
                    elems.append(prod)
                    words.append(words[ei] + (gi,))
                    new_frontier.append(index[prod])
        frontier = new_frontier
    n = len(elems)
    table = tuple(tuple(index[tuple(elems[i][elems[j][k]] for k in range(degree))]
                        for j in range(n))
                  for i in range(n))
    inverse = tuple(next(j for j in range(n) if table[i][j] == 0)
                    for i in range(n))
    return FiniteGroup(n, table, 0, inverse, generator_words=tuple(words))


def cyclic(n):
    """Z/n as a table (identity 0, generator 1 when n > 1)."""
    if n == 1:
        return from_generators(1, [])
    return from_generators(n, [tuple((i + 1) % n for i in range(n))])


def hom_check(f, src: FiniteGroup, dst: FiniteGroup) -> bool:
    """True iff the total map f (indexable by src elements) is a
    homomorphism."""
    if len(f) != src.order:
        raise ValidationError("map is not total on the source group")
    return all(f[src.mul(x, y)] == dst.mul(f[x], f[y])
               for x in range(src.order) for y in range(src.order))


def subgroup_closure(G: FiniteGroup, seed):
    """Element set of the subgroup generated by ``seed``."""
    sub = {G.identity}
    frontier = set(seed) | {G.identity}
    while frontier:
        nxt = set()
        for x in frontier:
            for y in list(sub) + list(frontier):
                for z in (G.mul(x, y), G.mul(y, x), G.inv(x)):
                    if z not in sub and z not in frontier and z not in nxt:
                        nxt.add(z)
        sub |= frontier
        frontier = nxt
    return frozenset(sub)


def generating_set(G: FiniteGroup):
    """Greedy generating set: each element not yet in the span of the
    earlier ones, in index order."""
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
    s = frozenset(subset)
    if not is_subgroup(G, s):
        return False
    return all(G.mul(G.mul(g, x), G.inv(g)) in s
               for g in range(G.order) for x in s)


def quotient(G: FiniteGroup, normal_subset):
    """Quotient by a normal subgroup; returns (group, coset_of) where
    coset_of[i] is the quotient index of element i."""
    s = frozenset(normal_subset)
    if not is_normal(G, s):
        raise ValidationError("subset is not a normal subgroup")
    coset_of = [None] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] is None:
            idx = len(reps)
            reps.append(g)
            for x in s:
                coset_of[G.mul(g, x)] = idx
    m = len(reps)
    table = tuple(tuple(coset_of[G.mul(reps[i], reps[j])] for j in range(m))
                  for i in range(m))
    q = validate_table(table, identity=coset_of[G.identity])
    return q, tuple(coset_of)


def direct_product(A: FiniteGroup, B: FiniteGroup):
    """A x B with element (a, b) at index a * |B| + b."""
    n = A.order * B.order
    nb = B.order

    def idx(a, b):
        return a * nb + b

    table = tuple(tuple(idx(A.mul(i // nb, j // nb), B.mul(i % nb, j % nb))
                        for j in range(n)) for i in range(n))
    ident = idx(A.identity, B.identity)
    inverse = tuple(idx(A.inv(i // nb), B.inv(i % nb)) for i in range(n))
    return FiniteGroup(n, table, ident, inverse)


def semidirect_product(N: FiniteGroup, H: FiniteGroup, act):
    """N x| H with act[h] an automorphism of N (as an index map).

    Element (x, h) sits at index x * |H| + h; multiplication
    (x1, h1)(x2, h2) = (x1 * act[h1](x2), h1 h2).
    """
    for h in range(H.order):
        if not hom_check(act[h], N, N) or sorted(act[h]) != list(range(N.order)):
            raise ValidationError(f"act[{h}] is not an automorphism")
    if list(act[H.identity]) != list(range(N.order)):
        raise ValidationError("act at the identity is not the identity map")
    for h1 in range(H.order):
        for h2 in range(H.order):
            composed = [act[h1][act[h2][x]] for x in range(N.order)]
            if composed != list(act[H.mul(h1, h2)]):
                raise ValidationError("act is not a homomorphism")
    nh = H.order
    n = N.order * nh

    def idx(x, h):
        return x * nh + h

    table = tuple(tuple(idx(N.mul(i // nh, act[i % nh][j // nh]),
                            H.mul(i % nh, j % nh))
                        for j in range(n)) for i in range(n))
    ident = idx(N.identity, H.identity)
    inverse = []
    for i in range(n):
        x, h = i // nh, i % nh
        hi = H.inv(h)
        inverse.append(idx(act[hi][N.inv(x)], hi))
    return FiniteGroup(n, table, ident, tuple(inverse))


def find_isomorphism(A: FiniteGroup, B: FiniteGroup):
    """Brute-force isomorphism A -> B (None when not isomorphic).

    Backtracks over images of a small generating set; desk scale only.
    """
    if A.order != B.order:
        return None
    if sorted(A.element_order(x) for x in A.elements()) != \
       sorted(B.element_order(x) for x in B.elements()):
        return None

    gens = generating_set(A)

    b_by_order = {}
    for y in range(B.order):
        b_by_order.setdefault(B.element_order(y), []).append(y)

    def words_map(images):
        """Extend generator images to a full map by closure; None on clash."""
        f = {A.identity: B.identity}
        frontier = [A.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for gi, g in enumerate(gens):
                    z = A.mul(x, g)
                    fz = B.mul(f[x], images[gi])
                    if z in f:
                        if f[z] != fz:
                            return None
                    else:
                        f[z] = fz
                        nxt.append(z)
            frontier = nxt
        if len(f) != A.order or len(set(f.values())) != A.order:
            return None
        fl = [f[x] for x in range(A.order)]
        return fl if hom_check(fl, A, B) else None

    def backtrack(i, images):
        if i == len(gens):
            return words_map(images)
        for y in b_by_order.get(A.element_order(gens[i]), []):
            res = backtrack(i + 1, images + [y])
            if res is not None:
                return res
        return None

    return backtrack(0, [])
