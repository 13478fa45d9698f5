import re
from functools import cache
from itertools import product

import pytest
from grouptable_reference import (reference_direct_product,
                                  reference_from_generators,
                                  reference_hom_check, reference_is_normal,
                                  reference_quotient,
                                  reference_semidirect_product,
                                  reference_validate_table)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discred import grouptable
from discred.errors import BudgetExceededError, ValidationError
from discred.grouptable import (closure, compose, cyclic, direct_product,
                                find_isomorphism, from_generators, hom_check,
                                is_normal, is_subgroup, quotient,
                                semidirect_product, subgroup_closure,
                                validate_table)


def s3():
    return from_generators(3, [(1, 0, 2), (1, 2, 0)])


class TestValidateTable:
    def test_identity_found(self):
        g = validate_table([[1, 0], [0, 1]])
        assert g.identity == 1
        assert g.order == 2

    def test_no_identity(self):
        with pytest.raises(ValidationError, match="identity"):
            validate_table([[1, 0], [1, 0]])

    def test_non_associative(self):
        # a quasigroup table without associativity
        with pytest.raises(ValidationError, match="associativity"):
            validate_table([[0, 1, 2, 3, 4],
                            [1, 0, 3, 4, 2],
                            [2, 4, 0, 1, 3],
                            [3, 2, 4, 0, 1],
                            [4, 3, 1, 2, 0]])

    def test_entry_range(self):
        with pytest.raises(ValidationError, match="range"):
            validate_table([[0, 1], [1, 5]])


class TestGenerators:
    def test_s3(self):
        g = s3()
        assert g.order == 6
        assert not g.is_abelian()
        assert sorted(g.element_order(x) for x in g.elements()) == \
            [1, 2, 2, 2, 3, 3]

    def test_identity_is_zero(self):
        assert s3().identity == 0

    def test_words_reconstruct(self):
        """The words read off the closure tree spell each element in the
        construction generators."""
        g = s3()
        assert g.generator_count == 2
        words = [()]
        for parent, gi in g.closure_tree[1:]:
            words.append(words[parent] + (gi,))
        gen_elem = {w[0]: i for i, w in enumerate(words) if len(w) == 1}
        assert len(gen_elem) == g.generator_count
        for i, word in enumerate(words):
            x = g.identity
            for gi in word:
                x = g.mul(x, gen_elem[gi])
            assert x == i

    def test_cyclic(self):
        c = cyclic(6)
        assert c.order == 6
        assert c.element_order(1) == 6


def _n_cycle(n):
    return tuple((i + 1) % n for i in range(n))


class TestClosure:
    def test_tree_reaches_each_element(self):
        g = s3()
        gens = (1, 2)
        elems, index, tree = closure(g.identity, gens, g.mul, g.order, "t")
        assert sorted(elems) == list(range(6)) and elems[0] == g.identity
        assert all(index[x] == i for i, x in enumerate(elems))
        assert tree[0] is None
        for i, (parent, gi) in enumerate(tree[1:], start=1):
            assert parent < i and elems[i] == g.mul(elems[parent], gens[gi])

    def test_cap_names_the_closure(self):
        g = cyclic(5)
        with pytest.raises(BudgetExceededError,
                           match="thing closure exceeds cap 4"):
            closure(g.identity, [1], g.mul, 4, "thing")
        assert len(closure(g.identity, [1], g.mul, 5, "thing")[0]) == 5

    @pytest.mark.parametrize("n", range(1, 31))
    def test_cyclic_equals_n_cycle_closure(self, n):
        direct, closed = cyclic(n), from_generators(n, [_n_cycle(n)])
        for name in ("order", "table", "identity", "inverse",
                     "closure_tree"):
            assert getattr(direct, name) == getattr(closed, name), name
        # the identity permutation generates nothing: cyclic(1) has no
        # generator
        assert direct.generator_count == int(n > 1)
        assert closed.generator_count == 1

    def test_cyclic_over_cap_raises_before_work(self):
        with pytest.raises(BudgetExceededError,
                           match="group closure exceeds cap 10000"):
            cyclic(10 ** 5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_cyclic_order_below_one(self, n):
        with pytest.raises(ValidationError):
            cyclic(n)

    def test_from_generators_over_cap(self):
        # S8 has 40320 > 10000 elements
        with pytest.raises(BudgetExceededError,
                           match="group closure exceeds cap 10000"):
            from_generators(8, [_n_cycle(8), (1, 0, 2, 3, 4, 5, 6, 7)])


def _closure_under_products(G, seed):
    """The subset of G generated by ``seed``: add every product of two
    members until nothing new appears (finite, so inverses come free)."""
    sub = {G.identity} | set(seed)
    while True:
        new = {G.mul(x, y) for x in sub for y in sub} - sub
        if not new:
            return frozenset(sub)
        sub |= new


_PERMUTATION_GROUPS = [
    s3(), cyclic(6), direct_product(cyclic(2), cyclic(4)),
    from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),        # S4
    from_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)]),        # A4
    from_generators(5, [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)]),  # D5
]


@pytest.mark.parametrize("degree,perms", [
    (0, []), (1, []), (3, [(1, 0, 2), (1, 2, 0)]),
    (4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
    (5, [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)]),
    (8, [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)])])
def test_from_generators_inverses_match_the_table(degree, perms):
    """``from_generators`` finds each inverse by inverting the
    permutation; it is the two-sided inverse the table has."""
    G = from_generators(degree, perms)
    for x in range(G.order):
        y = G.inv(x)
        assert G.mul(x, y) == G.mul(y, x) == G.identity
    assert G.inverse == tuple(row.index(G.identity) for row in G.table)


# generators of the groups of _PERMUTATION_GROUPS (C6 as a 6-cycle, C2 x C4
# on 2 + 4 points), then every degree below 3
_GENERATOR_INPUTS = [
    (3, [(1, 0, 2), (1, 2, 0)]), (6, [(1, 2, 3, 4, 5, 0)]),
    (6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]),
    (4, [(1, 2, 3, 0), (1, 0, 2, 3)]), (4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
    (5, [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)]),
    (0, []), (0, [()]), (1, []), (1, [(0,)]), (1, [(0,), (0,)]),
    (2, []), (2, [(0, 1)]), (2, [(1, 0)]), (2, [(0, 1), (1, 0), (1, 0)])]


@pytest.mark.parametrize("degree,perms", _GENERATOR_INPUTS)
def test_from_generators_matches_compose_reference(degree, perms):
    """The table read off one itemgetter per element, and the closure
    through one getter per generator, are the ``compose``-built ones."""
    G = from_generators(degree, perms)
    ref = reference_from_generators(degree, perms)
    assert G == ref
    assert (G.closure_tree, G.generator_count) == \
        (ref.closure_tree, ref.generator_count)


def test_generator_inputs_build_the_permutation_groups():
    built = [from_generators(d, p) for d, p in _GENERATOR_INPUTS[:6]]
    assert [G.order for G in built] == [G.order for G in _PERMUTATION_GROUPS]
    assert built[0] == _PERMUTATION_GROUPS[0]
    assert built[1] == _PERMUTATION_GROUPS[1]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subgroup_closure_is_closure_under_products(data):
    G = data.draw(st.sampled_from(_PERMUTATION_GROUPS))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    assert subgroup_closure(G, seed) == _closure_under_products(G, seed)


def test_generating_set_spans():
    for G in _PERMUTATION_GROUPS:
        gens = grouptable.generating_set(G)
        assert _closure_under_products(G, gens) == frozenset(range(G.order))
        for i, x in enumerate(gens):
            assert x not in _closure_under_products(G, gens[:i])


class TestSubgroupsQuotients:
    def test_closure(self):
        g = s3()
        three = next(x for x in g.elements() if g.element_order(x) == 3)
        sub = subgroup_closure(g, [three])
        assert len(sub) == 3
        assert is_subgroup(g, sub) and is_normal(g, sub)

    def test_non_normal(self):
        g = s3()
        two = next(x for x in g.elements() if g.element_order(x) == 2)
        sub = subgroup_closure(g, [two])
        assert is_subgroup(g, sub) and not is_normal(g, sub)

    def test_quotient(self):
        g = s3()
        three = next(x for x in g.elements() if g.element_order(x) == 3)
        q, coset_of = quotient(g, subgroup_closure(g, [three]))
        assert q.order == 2
        assert hom_check(coset_of, g, q)

    def test_quotient_rejects_non_normal(self):
        g = s3()
        two = next(x for x in g.elements() if g.element_order(x) == 2)
        with pytest.raises(ValidationError):
            quotient(g, subgroup_closure(g, [two]))


class TestProducts:
    def test_direct(self):
        k4 = direct_product(cyclic(2), cyclic(2))
        assert k4.order == 4 and k4.is_abelian()
        assert all(k4.element_order(x) <= 2 for x in k4.elements())

    def test_semidirect_s3(self):
        c3, c2 = cyclic(3), cyclic(2)
        inv = (0, 2, 1)  # inversion on Z/3
        sd = semidirect_product(c3, c2, (tuple(range(3)), inv))
        assert find_isomorphism(sd, s3()) is not None

    def test_semidirect_rejects_bad_action(self):
        c3, c2 = cyclic(3), cyclic(2)
        with pytest.raises(ValidationError):
            semidirect_product(c3, c2, (tuple(range(3)), (1, 2, 0)))


class TestIsomorphism:
    def test_positive(self):
        f = find_isomorphism(cyclic(4), cyclic(4))
        assert f is not None
        assert hom_check(f, cyclic(4), cyclic(4))

    def test_negative_same_order(self):
        assert find_isomorphism(cyclic(4),
                                direct_product(cyclic(2), cyclic(2))) is None
        assert find_isomorphism(cyclic(6), s3()) is None

    def test_semidirect_vs_direct(self):
        c3, c2 = cyclic(3), cyclic(2)
        triv = semidirect_product(c3, c2, (tuple(range(3)), tuple(range(3))))
        assert find_isomorphism(triv, cyclic(6)) is not None


def _first_failing_axiom(table):
    """The first group axiom a square table (entries in range) violates,
    by direct search over every element, pair and triple: "identity",
    "inverse", "associativity", or None for a group table."""
    n = len(table)
    identity = next((e for e in range(n)
                     if all(table[e][x] == x == table[x][e]
                            for x in range(n))), None)
    if identity is None:
        return "identity"
    if not all(any(table[x][y] == identity == table[y][x] for y in range(n))
               for x in range(n)):
        return "inverse"
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return "associativity"
    return None


def _relabel(table, perm):
    """The same magma with element x renamed perm[x]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


@st.composite
def _tables_with_identity_and_inverses(draw, max_order=8, relabel=True):
    """Random tables with a two-sided identity e (element 0 unless
    ``relabel``) and, for every x, some y with xy = yx = e; almost never
    associative."""
    n = draw(st.integers(1, max_order))
    e = draw(st.integers(0, n - 1)) if relabel else 0
    table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
             for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    others = [x for x in range(n) if x != e]
    for x in others:
        y = draw(st.sampled_from(others))
        table[x][y] = table[y][x] = e
    return table


@st.composite
def _products_with_cyclic(draw):
    """C_m x T, T a random table with identity 0 and inverses, with
    (t, k) at index t * m + k.  The greedy generating set then starts
    with the generator of C_m, which associates with everything, so
    only the later generators can find a failing triple."""
    m = draw(st.integers(2, 4))
    T = draw(_tables_with_identity_and_inverses(max_order=8 // m,
                                                relabel=False))
    n = m * len(T)
    return [[T[a // m][b // m] * m + (a + b) % m for b in range(n)]
            for a in range(n)]


@st.composite
def _random_loops(draw):
    """Random loops of order <= 7 (Latin squares with a two-sided
    identity), filled by randomized backtracking, then relabeled."""
    n = draw(st.integers(1, 7))
    rnd = draw(st.randoms(use_true_random=False))
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = x
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        free = [v for v in range(n) if v not in table[i]
                and all(table[r][j] != v for r in range(n))]
        rnd.shuffle(free)
        for v in free:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return _relabel(table, draw(st.permutations(range(n))))


_SMALL_GROUPS = [g for g in _PERMUTATION_GROUPS if g.order <= 8] + [
    cyclic(1), cyclic(5), cyclic(8),
    from_generators(4, [(1, 2, 3, 0), (3, 2, 1, 0)]),                # D4
    from_generators(8, [(1, 2, 3, 0, 5, 6, 7, 4),
                        (4, 7, 6, 5, 2, 1, 0, 3)]),                  # Q8
    from_generators(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                        (0, 1, 2, 3, 5, 4)]),                        # C2^3
]


@st.composite
def _perturbed_group_tables(draw):
    """Group tables of order <= 8, relabeled, with zero, one or two
    entries changed."""
    G = draw(st.sampled_from(_SMALL_GROUPS))
    n = G.order
    table = _relabel(G.table, draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[a][b] = draw(st.integers(0, n - 1))
    return table


class TestLightsTest:
    """validate_table (Light's test over a generating set) accepts and
    rejects exactly the tables a direct O(n^3) search does."""

    def _agrees(self, table):
        expected = _first_failing_axiom(table)
        try:
            G = validate_table(table)
        except ValidationError as e:
            msg = str(e)
            assert expected is not None, msg
            assert expected in msg, msg
            if expected == "associativity":
                a, s, c = map(int, re.search(
                    r"triple \((\d+), (\d+), (\d+)\)", msg).groups())
                assert table[table[a][s]][c] != table[a][table[s][c]]
            return expected
        assert expected is None
        assert G.table == tuple(map(tuple, table))
        assert all(G.mul(x, G.inv(x)) == G.identity == G.mul(G.inv(x), x)
                   for x in range(G.order))
        return expected

    @settings(max_examples=200, deadline=None)
    @given(table=_tables_with_identity_and_inverses())
    def test_tables_with_identity_and_inverses(self, table):
        self._agrees(table)

    @settings(max_examples=100, deadline=None)
    @given(table=_products_with_cyclic())
    def test_products_with_cyclic(self, table):
        self._agrees(table)

    @settings(max_examples=80, deadline=None)
    @given(table=_random_loops())
    def test_random_loops(self, table):
        self._agrees(table)

    @settings(max_examples=200, deadline=None)
    @given(table=_perturbed_group_tables())
    def test_perturbed_group_tables(self, table):
        self._agrees(table)

    def test_failure_only_at_second_generator(self):
        # identity 1, every element its own inverse; the generating set
        # is [0, 2], 0 associates with everything and 2 does not
        table = [[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 2], [2, 3, 2, 1]]
        unchecked = grouptable.FiniteGroup(4, tuple(map(tuple, table)), 1,
                                           (0, 1, 2, 3))
        assert grouptable.generating_set(unchecked) == [0, 2]
        assert _first_failing_axiom(table) == "associativity"
        assert all(table[table[a][0]][c] == table[a][table[0][c]]
                   for a in range(4) for c in range(4))
        with pytest.raises(ValidationError,
                           match=r"associativity fails at triple \(\d+, 2, "):
            validate_table(table)


@st.composite
def _malformed_tables(draw):
    """Tables of order <= 6 with entries in [-1, n], a row of another
    length a fifth of the time."""
    n = draw(st.integers(0, 6))
    table = [draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
             for _ in range(n)]
    if n and draw(st.integers(0, 4)) == 0:
        table[draw(st.integers(0, n - 1))] = draw(
            st.lists(st.integers(0, n - 1), max_size=n + 1))
    return table


@st.composite
def _tables_and_identities(draw):
    """A random, perturbed, loop or malformed table, with its identity
    named a third of the time."""
    table = draw(st.one_of(_tables_with_identity_and_inverses(),
                           _perturbed_group_tables(), _random_loops(),
                           _malformed_tables()))
    n = len(table)
    named = n and all(len(row) == n for row in table) and \
        draw(st.integers(0, 2)) == 0
    return table, draw(st.integers(0, n - 1)) if named else None


@settings(max_examples=300, deadline=None)
@given(case=_tables_and_identities())
# the first right inverse of 1 is 2, which is no left inverse; 3 is
@example(case=([[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
               None))
@example(case=([], None))
@example(case=([[0, 1], [1]], None))
def test_validate_table_matches_reference(case):
    """The range check and the inverse scan run in C with the same
    verdict and message as the Python scans they replaced."""
    table, identity = case
    assert _outcome(validate_table, table, identity) == \
        _outcome(reference_validate_table, table, identity)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hom_check_matches_every_pair(data):
    src = data.draw(st.sampled_from(_SMALL_GROUPS))
    dst = data.draw(st.sampled_from(_SMALL_GROUPS))
    if data.draw(st.booleans()):   # a homomorphism: through the trivial map
        f = [dst.identity] * src.order
    else:
        f = data.draw(st.lists(st.integers(0, dst.order - 1),
                               min_size=src.order, max_size=src.order))
    expected = all(f[src.mul(x, y)] == dst.mul(f[x], f[y])
                   for x in range(src.order) for y in range(src.order))
    assert hom_check(f, src, dst) == expected
    assert hom_check(list(range(src.order)), src, src)


class TestGeneratorsProperty:
    def test_is_the_generating_set_cached(self):
        G = from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
        assert G.generators == tuple(grouptable.generating_set(G))
        assert G.generators is G.generators

    def test_not_part_of_equality(self):
        G, H = cyclic(6), cyclic(6)
        G.generators
        assert G == H and hash(G) == hash(H)


# The generator-pair checks and the row-built tables against the
# all-pairs, entry-by-entry reference (tests/grouptable_reference.py).

def _pushed(G, images, mul, start):
    """The map on G sending the identity to ``start`` and x * s to
    f(x) * images[s] along the closure tree of ``G.generators``: a
    homomorphism exactly when the images satisfy G's relations."""
    elems, _, tree = closure(G.identity, G.generators, G.mul, G.order, "g")
    f = [None] * G.order
    f[G.identity] = start
    for x, (parent, gi) in zip(elems[1:], tree[1:]):
        f[x] = mul(f[elems[parent]], images[gi])
    return f


@cache
def _automorphisms(G):
    """Every automorphism of G as an index map, the identity first."""
    ident = tuple(range(G.order))
    out = [ident]
    for images in product(range(G.order), repeat=len(G.generators)):
        f = tuple(_pushed(G, images, G.mul, G.identity))
        if f != ident and len(set(f)) == G.order and \
           reference_hom_check(f, G, G):
            out.append(f)
    return tuple(out)


def _non_generators(G):
    return [x for x in range(G.order)
            if x != G.identity and x not in G.generators]


@st.composite
def _maps(draw):
    """(src, dst, f): a random map, a map pushed along the generators
    (a homomorphism when the images satisfy the relations, always for
    the trivial and the identity map), or such a map changed at one
    element that is neither a generator nor the identity."""
    src = draw(st.sampled_from(_SMALL_GROUPS))
    dst = draw(st.sampled_from(_SMALL_GROUPS + [src]))
    kind = draw(st.sampled_from(["random", "pushed", "perturbed"]))
    if kind == "random":
        return src, dst, draw(st.lists(st.integers(0, dst.order - 1),
                                       min_size=src.order,
                                       max_size=src.order))
    if dst is src and draw(st.booleans()):
        images = src.generators
    else:
        images = [draw(st.integers(0, dst.order - 1))
                  for _ in src.generators]
    f = _pushed(src, images, dst.mul, dst.identity)
    others = _non_generators(src)
    if kind == "perturbed" and others:
        f[draw(st.sampled_from(others))] = draw(st.integers(0, dst.order - 1))
    return src, dst, f


@settings(max_examples=300, deadline=None)
@given(case=_maps())
@example(case=(cyclic(1), cyclic(2), [1]))     # f(1) != 1, no generators
def test_hom_check_matches_reference(case):
    src, dst, f = case
    assert hom_check(f, src, dst) == reference_hom_check(f, src, dst)


def _outcome(fn, *args):
    """What ``fn`` makes of ``args``: its error message, or the group
    (order, table, identity, inverse) and any further results."""
    try:
        out = fn(*args)
    except ValidationError as e:
        return ("error", str(e))
    G, rest = (out[0], out[1:]) if isinstance(out, tuple) else (out, ())
    return ("group", G.order, G.table, G.identity, G.inverse) + rest


@st.composite
def _subsets(draw):
    """(G, subset): the subgroup generated by a few elements (normal or
    not), or a random subset (rarely a subgroup)."""
    G = draw(st.sampled_from(_SMALL_GROUPS + _PERMUTATION_GROUPS))
    elems = st.integers(0, G.order - 1)
    if draw(st.booleans()):
        return G, subgroup_closure(G, draw(st.lists(elems, max_size=3)))
    return G, frozenset(draw(st.lists(elems, max_size=G.order)))


_S4 = _PERMUTATION_GROUPS[3]
_SQ = _S4.mul(1, 1)
# in S4: the non-normal C4 of the first generator and C2 of its square,
# the normal Klein four-group those squares generate, and the whole group
_S4_SUBGROUPS = [subgroup_closure(_S4, [1]), subgroup_closure(_S4, [_SQ]),
                 subgroup_closure(_S4, [_S4.mul(_S4.mul(g, _SQ), _S4.inv(g))
                                        for g in range(_S4.order)]),
                 frozenset(range(_S4.order))]


def _with_s4_subgroups(test):
    for s in _S4_SUBGROUPS:
        test = example(case=(_S4, s))(test)
    return test


class TestNormalQuotientReference:
    @settings(max_examples=300, deadline=None)
    @given(case=_subsets())
    @_with_s4_subgroups
    def test_is_normal_matches_reference(self, case):
        G, s = case
        assert is_normal(G, s) == reference_is_normal(G, s)

    @settings(max_examples=300, deadline=None)
    @given(case=_subsets())
    @_with_s4_subgroups
    def test_quotient_matches_reference(self, case):
        G, s = case
        assert _outcome(quotient, G, s) == _outcome(reference_quotient, G, s)

    def test_quotient_checks_no_table(self, monkeypatch):
        """The quotient table and its inverses are read off the rows of
        G; a quotient by a subgroup that ``is_normal`` accepted is a
        group, so no ``validate_table`` runs."""
        calls = []
        inner = grouptable.validate_table

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)
        monkeypatch.setattr(grouptable, "validate_table", counted)
        for G, s in [(_S4, _S4_SUBGROUPS[2]), (_S4, _S4_SUBGROUPS[3]),
                     (cyclic(8), frozenset({0, 4}))]:
            q, coset_of = quotient(G, s)
            assert q.order * len(s) == G.order
            assert hom_check(coset_of, G, q)
        assert calls == []


@st.composite
def _act_lists(draw):
    """(N, H, act): act pushed along H's generators from automorphisms
    of N (a homomorphism H -> Aut(N) when the images satisfy H's
    relations), then changed at one element that is not a generator, at
    the identity, or to a map that is not an automorphism."""
    N = draw(st.sampled_from(_SMALL_GROUPS))
    H = draw(st.sampled_from(_SMALL_GROUPS))
    auts = st.sampled_from(_automorphisms(N))
    images = [draw(auts) for _ in H.generators]
    act = _pushed(H, images, compose, tuple(range(N.order)))
    kind = draw(st.sampled_from(["pushed", "non-generator", "identity",
                                 "not automorphism"]))
    others = _non_generators(H)
    if kind == "non-generator" and others:
        act[draw(st.sampled_from(others))] = draw(auts)
    elif kind == "identity":
        act[H.identity] = draw(auts)
    elif kind == "not automorphism":
        act[draw(st.integers(0, H.order - 1))] = tuple(draw(st.lists(
            st.integers(0, N.order - 1), min_size=N.order,
            max_size=N.order)))
    return N, H, act


_INV3 = (0, 2, 1)


@settings(max_examples=300, deadline=None)
@given(case=_act_lists())
# C3 x| C4 through inversion, wrong only at 3, which is no generator
@example(case=(cyclic(3), cyclic(4), [(0, 1, 2), _INV3, (0, 1, 2),
                                      (0, 1, 2)]))
# wrong only at the identity, of a trivial and of a cyclic H
@example(case=(cyclic(3), cyclic(1), [_INV3]))
@example(case=(cyclic(3), cyclic(2), [_INV3, _INV3]))
def test_semidirect_product_matches_reference(case):
    N, H, act = case
    assert _outcome(semidirect_product, N, H, act) == \
        _outcome(reference_semidirect_product, N, H, act)


def test_semidirect_rows_share_index_objects():
    """Rows are chains of shared blocks: each index is one object."""
    sd = semidirect_product(cyclic(32), cyclic(16), [tuple(range(32))] * 16)
    assert len({id(x) for row in sd.table for x in row}) == sd.order


@pytest.mark.parametrize("a,b", list(product(range(len(_SMALL_GROUPS)),
                                             repeat=2)))
def test_direct_product_matches_reference(a, b):
    """The direct product through identity maps is the per-entry (a, b)
    table, identity and inverses included."""
    A, B = _SMALL_GROUPS[a], _SMALL_GROUPS[b]
    assert _outcome(direct_product, A, B) == \
        _outcome(reference_direct_product, A, B)
