"""The group-table routines as they were before they checked on
generator pairs and read tables off shared rows: ``hom_check`` and the
``semidirect_product`` act check over every pair of elements,
``is_normal`` conjugating with ``mul``/``inv`` calls, and ``quotient``,
``semidirect_product`` and ``direct_product`` building their tables
entry by entry, ``from_generators`` closing and tabulating with one
``compose`` per product, ``validate_table`` scanning every entry
for its range and every row for a two-sided inverse in Python, and
``generating_set`` closing its span afresh after each generator.  Kept as
the reference that ``discred.grouptable`` must match verdict for
verdict, message for message and table for table."""

from discred.errors import ValidationError
from discred.grouptable import (GROUP_CAP, FiniteGroup, closure, compose,
                                is_subgroup, subgroup_closure, validate_table)


def reference_validate_table(table):
    n = len(table)
    table = tuple(tuple(row) for row in table)
    if any(len(row) != n for row in table):
        raise ValidationError("multiplication table is not square")
    if any(x < 0 or x >= n for row in table for x in row):
        raise ValidationError("table entry out of range")
    elements = tuple(range(n))
    column = tuple(zip(*table))
    identity = next((e for e in range(n)
                     if table[e] == elements and column[e] == elements), None)
    if identity is None:
        raise ValidationError("table has no identity element")
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


def reference_from_generators(degree, perms):
    gens = [tuple(p) for p in perms]
    if any(sorted(p) != list(range(degree)) for p in gens):
        raise ValidationError("generator is not a permutation of the degree")
    elems, index, tree = closure(tuple(range(degree)), gens, compose,
                                 GROUP_CAP, "group")
    n = len(elems)
    table = tuple(tuple(index[compose(elems[i], elems[j])] for j in range(n))
                  for i in range(n))
    inverse = tuple(index[tuple(p.index(k) for k in range(degree))]
                    for p in elems)
    return FiniteGroup(n, table, 0, inverse, closure_tree=tuple(tree),
                       generator_count=len(gens))


def reference_hom_check(f, src: FiniteGroup, dst: FiniteGroup) -> bool:
    if len(f) != src.order:
        raise ValidationError("map is not total on the source group")
    images = [f[y] for y in range(src.order)]
    return all([images[xy] for xy in row] == [dst.table[fx][fy] for fy in images]
               for row, fx in zip(src.table, images))


def reference_is_normal(G: FiniteGroup, subset) -> bool:
    s = frozenset(subset)
    if not is_subgroup(G, s):
        return False
    return all(G.mul(G.mul(g, x), G.inv(g)) in s
               for g in range(G.order) for x in s)


def reference_quotient(G: FiniteGroup, normal_subset):
    s = frozenset(normal_subset)
    if not reference_is_normal(G, s):
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
    q = validate_table(table)
    return q, tuple(coset_of)


def reference_semidirect_product(N: FiniteGroup, H: FiniteGroup, act):
    act = tuple(tuple(a) for a in act)
    elements = tuple(range(N.order))
    checked = set()
    for h in range(H.order):
        a = act[h]
        if a not in checked:
            if sorted(a) != list(elements) or not reference_hom_check(a, N, N):
                raise ValidationError(f"act[{h}] is not an automorphism")
            checked.add(a)
    if act[H.identity] != elements:
        raise ValidationError("act at the identity is not the identity map")
    for h1 in range(H.order):
        a1, h1_row = act[h1], H.table[h1]
        for h2 in range(H.order):
            if any(a1[x] != y for x, y in zip(act[h2], act[h1_row[h2]])):
                raise ValidationError("act is not a homomorphism")
    nh = H.order
    table = []
    for x1_row in N.table:
        for a1, h1_row in zip(act, H.table):
            n_part = [x1_row[x] * nh for x in a1]
            table.append(tuple([nx + h for nx in n_part for h in h1_row]))
    ident = N.identity * nh + H.identity
    inverse = []
    for x in elements:
        for h in range(nh):
            hi = H.inv(h)
            inverse.append(act[hi][N.inv(x)] * nh + hi)
    return FiniteGroup(N.order * nh, tuple(table), ident, tuple(inverse))


def reference_direct_product(A: FiniteGroup, B: FiniteGroup):
    n = A.order * B.order
    nb = B.order

    def idx(a, b):
        return a * nb + b

    table = tuple(tuple(idx(A.mul(i // nb, j // nb), B.mul(i % nb, j % nb))
                        for j in range(n)) for i in range(n))
    ident = idx(A.identity, B.identity)
    inverse = tuple(idx(A.inv(i // nb), B.inv(i % nb)) for i in range(n))
    return FiniteGroup(n, table, ident, inverse)


def reference_generating_set(G: FiniteGroup):
    """The greedy generating set, re-closing the span from the identity
    after each generator it adds."""
    gens = []
    span = subgroup_closure(G, [])
    for x in range(G.order):
        if len(span) == G.order:
            break
        if x not in span:
            gens.append(x)
            span = subgroup_closure(G, gens)
    return gens
