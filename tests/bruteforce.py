"""Independent brute-force H^2 oracle for cross-checking the linear
algebra route.

A normalized 2-cocycle is determined by its values c(s, -) on a set of
group generators s: the cocycle identity at (s, x, y) rewrites
c(sx, y) in terms of the row of s and the row of x, so rows propagate
down a left-Cayley BFS.  Enumerating the free generator-row values and
keeping the candidates that satisfy every instance of the identity
gives the full set of normalized cocycles (depth-first, each instance
checked as soon as its values are known); coboundaries are enumerated
directly from 1-cochains.  Everything here is sets of value tuples --
no matrices, no Smith forms -- so a disagreement with the main code
cannot share a root cause with it.
"""

from __future__ import annotations

import itertools

from discred.abgroup import FGAbelianGroup
from discred.cohomology import GammaModule
from discred.grouptable import FiniteGroup
from grouptable_reference import subgroup_closure


def _generating_set(G: FiniteGroup):
    gens = []
    span = subgroup_closure(G, [])
    for x in range(G.order):
        if x not in span:
            gens.append(x)
            span = subgroup_closure(G, gens)
            if len(span) == G.order:
                break
    return gens


def _left_bfs(G: FiniteGroup, gens):
    """parent[x] = (s, y) with x = s * y, in BFS order from the identity."""
    parent = {G.identity: None}
    order = [G.identity]
    frontier = [G.identity]
    while frontier:
        nxt = []
        for y in frontier:
            for s in gens:
                x = G.mul(s, y)
                if x not in parent:
                    parent[x] = (s, y)
                    order.append(x)
                    nxt.append(x)
        frontier = nxt
    return parent, order


def normalized_cocycles(M: GammaModule):
    """All normalized 2-cocycles, as dicts on Gamma x Gamma.

    Depth-first over the generator-row slots, one value at a time.  After
    each assignment every value the row propagation can reach is filled
    in, and every instance of the cocycle identity whose four values are
    all known is checked at once, so a bad prefix is cut before its
    subtree is enumerated.  A leaf is a total map satisfying all |Gamma|^3
    instances.
    """
    G = M.gamma
    A = M.coeff
    n = G.order
    gens = _generating_set(G)
    parent, bfs = _left_bfs(G, gens)
    others = [g for g in G.elements() if g != G.identity]
    slots = [(s, d) for s in gens for d in others]
    # (key, s, y, d), key = (s y, d): c(s y, d) = s.c(y, d) + c(s, y d) - c(s, y)
    derive = [((x, d), parent[x][0], parent[x][1], d)
              for x in bfs if parent[x] is not None for d in others]
    # the identity instances each value takes part in
    watch = {}
    for g1, g2, g3 in itertools.product(G.elements(), repeat=3):
        keys = ((g2, g3), (g1, G.mul(g2, g3)), (g1, g2), (G.mul(g1, g2), g3))
        for key in set(keys):
            watch.setdefault(key, []).append((g1,) + keys)

    def settle(c, new):
        """Propagate rows from the known values, then check the identity
        instances touching each new value; False on a violation."""
        changed = True
        while changed:
            changed = False
            for key, s, y, d in derive:
                if key in c:
                    continue
                yd, sy, syd = (y, d), (s, y), (s, G.mul(y, d))
                if yd in c and sy in c and syd in c:
                    c[key] = A.add(A.sub(M.act(s, c[yd]), c[sy]), c[syd])
                    new.append(key)
                    changed = True
        for key in new:
            for g1, k1, k2, k3, k4 in watch[key]:
                if k1 in c and k2 in c and k3 in c and k4 in c:
                    if (A.add(M.act(g1, c[k1]), c[k2])
                            != A.add(c[k3], c[k4])):
                        return False
        return True

    start = {(G.identity, d): A.zero() for d in G.elements()}
    for g in G.elements():
        start[(g, G.identity)] = A.zero()
    found = []
    if not settle(start, list(start)):
        return found

    def extend(c, i):
        if i == len(slots):
            if len(c) == n * n:
                found.append(c)
            return
        key = slots[i]
        for v in A.elements():
            child = dict(c)
            child[key] = v
            if settle(child, [key]):
                extend(child, i + 1)

    extend(start, 0)
    return found


def _flat(M, c):
    keys = sorted(k for k in c)
    return tuple(v for k in keys for v in c[k])


def normalized_coboundaries(M: GammaModule):
    """All coboundaries of normalized 1-cochains, as flat value tuples."""
    G = M.gamma
    A = M.coeff
    others = [g for g in G.elements() if g != G.identity]
    out = set()
    for combo in itertools.product(A.elements(), repeat=len(others)):
        b = {G.identity: A.zero()}
        for g, v in zip(others, combo):
            b[g] = v
        db = {}
        for g1 in G.elements():
            for g2 in G.elements():
                db[(g1, g2)] = A.sub(A.add(M.act(g1, b[g2]), b[g1]),
                                     b[G.mul(g1, g2)])
        out.add(_flat(M, db))
    return out


def h2_by_enumeration(M: GammaModule):
    """(order, sorted multiset of class orders) of H^2(Gamma, A).

    Class orders are counted without enumerating cosets: the classes of
    order dividing k are exactly the cocycles z with k z a coboundary,
    |B| of them per class.
    """
    A = M.coeff
    cocycles = sorted(_flat(M, c) for c in normalized_cocycles(M))
    bset = normalized_coboundaries(M)
    if not bset <= set(cocycles):
        raise AssertionError("a coboundary failed the cocycle enumeration")
    order, rem = divmod(len(cocycles), len(bset))
    if rem:
        raise AssertionError("coboundary count does not divide cocycle count")

    def scale_flat(k, flat):
        t = A.ncoords
        out = []
        for i in range(0, len(flat), t):
            out.extend(A.scale(k, flat[i:i + t]))
        return tuple(out)

    divisors = [k for k in range(1, order + 1) if order % k == 0]
    dividing = {}
    for k in divisors:
        count, rem = divmod(sum(scale_flat(k, z) in bset for z in cocycles),
                            len(bset))
        if rem:
            raise AssertionError("order-dividing count is not a coset multiple")
        dividing[k] = count
    exact = {}
    for k in divisors:
        exact[k] = dividing[k] - sum(exact[e] for e in divisors
                                     if e < k and k % e == 0)
    class_orders = sorted(k for k in divisors for _ in range(exact[k]))
    if len(class_orders) != order:
        raise AssertionError("coset count mismatch")
    return order, class_orders


def zip_flat_add(A: FGAbelianGroup, f1, f2):
    t = A.ncoords
    out = []
    for i in range(0, len(f1), t):
        out.extend(A.add(f1[i:i + t], f2[i:i + t]))
    return tuple(out)


def structure_from_class_orders(order, class_orders):
    """Invariant factors of the unique abelian group with this order and
    element-order multiset (small cases)."""
    for factors in _abelian_structures(order):
        G = FGAbelianGroup(0, factors)
        if sorted(G.element_order(x) for x in G.elements()) == class_orders:
            return factors
    raise AssertionError("no abelian group matches the class orders")


def _abelian_structures(order):
    """All invariant-factor chains with the given product."""
    if order == 1:
        yield ()
        return
    for last in range(2, order + 1):
        if order % last:
            continue
        if order == last:
            yield (last,)
            continue
        for rest in _abelian_structures(order // last):
            if not rest or last % rest[-1] == 0:
                yield rest + (last,)
