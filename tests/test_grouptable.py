import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import grouptable
from discred.errors import BudgetExceededError, ValidationError
from discred.grouptable import (closure, cyclic, direct_product,
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
        g = s3()
        gen_elem = {w[0]: i for i, w in enumerate(g.generator_words)
                    if len(w) == 1}
        for i, word in enumerate(g.generator_words):
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
                     "generator_words"):
            assert getattr(direct, name) == getattr(closed, name), name

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
