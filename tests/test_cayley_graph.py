"""One Cayley graph per (Gamma, S), and the relation module's fast paths
against the code they replaced.

``grouptable.CayleyGraph`` is built once per group and generating set S
and read by every ``relations.RelationModule`` over that group: H^1 and
H^2 of one module, every tower level of ``classify`` and repeated
``cohomology_group`` calls share it, and a group whose S changes gets a
graph on the new S.  ``RelationModule`` skips the identity matrices and
expands the graph's block rows under the trivial action;
``relations_reference`` keeps the version that rebuilt the graph per
module and applied every matrix, and the two must agree row for row."""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from discred import autbrd, grouptable, standard
from discred.abgroup import FGAbelianGroup
from discred.cli import main
from discred.cohomology import cohomology_group, trivial_module
from discred.extension import classify
from discred.grouptable import cyclic, from_generators
from discred.relations import RelationModule, read_cochain
from grouptable_reference import direct_product
from relations_reference import ReferenceRelationModule

from test_normalized import _cochain, _modules

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems")


def _count_graphs(monkeypatch):
    """The (order, S) of every ``CayleyGraph`` built from now on."""
    built = []
    init = grouptable.CayleyGraph.__init__

    def counting(self, gamma, gens):
        built.append((gamma.order, gens))
        init(self, gamma, gens)
    monkeypatch.setattr(grouptable.CayleyGraph, "__init__", counting)
    return built


def _s3():
    return from_generators(3, [(1, 0, 2), (1, 2, 0)])


def test_one_graph_for_every_degree_of_a_module(monkeypatch):
    built = _count_graphs(monkeypatch)
    M = trivial_module(_s3(), FGAbelianGroup(0, (2, 4)))
    for p in (0, 1, 2, 1, 2):
        H = cohomology_group(M, p)
        g = len(H.generators)
        assert [H.coordinates_of(gen) for gen in H.generators] == [
            tuple(int(i == j) for i in range(g)) for j in range(g)]
    assert built == [(6, M.gamma.generators)]


def test_one_graph_across_the_tower_of_a_gl2_swap_classify(monkeypatch,
                                                           capsys):
    built = _count_graphs(monkeypatch)
    code = main(["classify", "--input",
                 os.path.join(PROBLEMS, "gl2_z2_swap.json"),
                 "--format", "json"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["tower_orders"]) == 4
    assert len(built) == 1
    based = standard.gl2()
    ad = autbrd.ad_from_generator_images(based, cyclic(2),
                                         [[[0, -1], [-1, 0]]])
    for _ in range(3):
        classify(based, ad)
    assert len(built) == 2


def test_a_changed_generating_set_gets_its_own_graph(monkeypatch):
    """The graph is keyed by S, not by the group: reversing S builds one
    graph on the reversed S, and restoring S finds the first again."""
    built = _count_graphs(monkeypatch)
    gamma = direct_product(cyclic(2), cyclic(2))
    S = gamma.generators
    first = gamma.cayley_graph()
    with monkeypatch.context() as m:
        m.setattr(grouptable.FiniteGroup, "generators", property(
            lambda G: tuple(grouptable.generating_set(G))[::-1]))
        reversed_graph = gamma.cayley_graph()
        assert reversed_graph.gens == S[::-1] != S
        assert RelationModule(trivial_module(gamma, FGAbelianGroup(0, (2,))),
                              2).graph is reversed_graph
    assert gamma.cayley_graph() is first
    assert built == [(4, S), (4, S[::-1])]


def _fast_path_modules():
    """``_modules()`` plus trivial actions with t > 1 and composite
    moduli, where every matrix is the identity."""
    groups = [cyclic(4), direct_product(cyclic(2), cyclic(2)), _s3()]
    coeffs = [(2, 4), (3, 9), (2, 2, 4)]
    return _modules() + tuple(trivial_module(G, FGAbelianGroup(0, f))
                              for G in groups for f in coeffs)


def _vector(draw, mods):
    """Entries drawn below and above their moduli, so that reduction is
    part of what is compared."""
    return [draw(st.integers(-q, 2 * q)) for q in mods]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fast_paths_match_reference(data):
    modules = _fast_path_modules()
    M = modules[data.draw(st.integers(0, len(modules) - 1))]
    p = data.draw(st.integers(0, 2))
    rel, ref = RelationModule(M, p), ReferenceRelationModule(M, p)
    for k in range(3):
        assert rel._rows(k) == ref._rows(k)

    # an arbitrary cochain of the complex, and a cocycle: a combination
    # of the generators of H^p and of the coboundaries
    phi = _vector(data.draw, rel.mods)
    assert rel.to_bar(phi) == ref.to_bar(phi)
    H = cohomology_group(M, p)
    cocycle = [0] * rel.dim
    for vec in list(H._gen_vecs) + rel.coboundaries():
        k = data.draw(st.integers(-3, 3))
        cocycle = [a + k * b for a, b in zip(cocycle, vec)]
    bar = rel.to_bar(cocycle)
    assert bar == ref.to_bar(cocycle)
    assert rel.from_bar(bar) == ref.from_bar(bar) is not None

    # an arbitrary bar cochain, and the cocycle moved at one coordinate
    vec = _vector(data.draw, rel.bar_mods)
    assert rel.from_bar(vec) == ref.from_bar(vec)
    i = data.draw(st.integers(0, len(bar) - 1))
    moved = bar[:i] + [bar[i] + 1] + bar[i + 1:]
    assert rel.from_bar(moved) == ref.from_bar(moved)
    if p == 2:
        for v in (vec, bar, moved):
            assert (rel.cocycle_witness(rel.to_cochain(v))
                    == ref._light_witness(ref._bar_value(v)))
        c = _cochain(M, 2, data.draw)
        d = {k: M.coeff.reduce(v) for k, v in c.values}
        assert rel.cocycle_witness(read_cochain(M, 2, c)) \
            == ref._light_witness(lambda x, y: d[x, y])
