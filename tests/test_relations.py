"""H^0, H^1, H^2 on the complex of the Cayley graph against the full bar
complex: the same invariant factors on the small modules of
``test_normalized``, generators that are normalized bar cocycles and
generate the full complex's H^p, and bar -> Cayley -> bar round trips
that keep the class.  Then the sizes the bar cocycle matrix could not
reach: S4 and A5, in process and through the CLI."""

import itertools
import json
import os
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import cli
from discred.abgroup import AbHom, FGAbelianGroup
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, gamma_module, is_cocycle)
from discred.exactlin import (IntMatrix, cokernel_presentation,
                              congruence_kernel_basis)
from discred.grouptable import from_generators
from discred.relations import RelationModule

from test_normalized import _bar_images, _cochain, _modules

S4 = ((1, 0, 2, 3), (1, 2, 3, 0))
A5 = ((1, 2, 0, 3, 4), (0, 1, 3, 4, 2))


@lru_cache(maxsize=None)
def _full_h(index, p):
    """H^p on the full bar complex of module ``index``: its invariant
    factors, the p-tuples over Gamma in the order of the flat
    coordinates, and the map from a flat cocycle vector to its class.
    Cocycles are the congruence kernel of d_p, coboundaries the images
    under d_(p-1) and the modulus relations."""
    M = _modules()[index]
    A = M.coeff
    t, Q = A.ncoords, A.exponent()
    dp = _bar_images(M, p)
    keys = list(itertools.product(M.gamma.elements(), repeat=p))
    mods = A.invariant_factors * len(keys)
    rows = [[(Q // mods[r % t]) * col[r] for col in dp]
            for r in range(len(dp[0]))]
    kernel = congruence_kernel_basis(IntMatrix.from_rows(rows, cols=len(dp)),
                                     Q)
    rels = [kernel.coordinates(c)
            for c in (_bar_images(M, p - 1) if p else [])]
    rels += [kernel.unit_coordinates(i, q) for i, q in enumerate(mods)]
    pres = cokernel_presentation(IntMatrix.from_rows(rels, cols=len(mods)))

    def coords(vec):
        y = pres.to_presented.apply(kernel.coordinates(vec))
        return tuple(y[i] % m for i, m in enumerate(pres.moduli) if m > 1)
    return pres.invariant_factors, keys, coords


def _flat(c, keys):
    d = c.as_dict()
    return [x for k in keys for x in d[k]]


def _matches_full_bar_complex(index, p):
    M = _modules()[index]
    H = cohomology_group(M, p)
    factors, keys, coords = _full_h(index, p)
    assert H.group.invariant_factors == factors
    images = []
    for j, gen in enumerate(H.generators):
        assert gen.is_normalized(M.gamma.identity)
        assert is_cocycle(M, gen)
        assert H.coordinates_of(gen) == tuple(int(k == j)
                                              for k in range(len(factors)))
        images.append(coords(_flat(gen, keys)))
    # the generator classes span the full complex's H^p
    span = {tuple(sum(c * g[i] for c, g in zip(cs, images)) % f
                  for i, f in enumerate(factors))
            for cs in itertools.product(*(range(f) for f in factors))}
    assert len(span) == H.order()


@pytest.mark.parametrize("index", range(len(_modules())))
def test_h2_matches_full_bar_complex(index):
    _matches_full_bar_complex(index, 2)


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("index", range(len(_modules())))
def test_h0_h1_match_full_bar_complex(index, p):
    _matches_full_bar_complex(index, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bar_cayley_bar_round_trip(data):
    """A 2-cocycle taken to its map on the fundamental cycles and back
    keeps its class; the difference has a coboundary witness.  A
    1-cocycle, a derivation, taken to its values on S and back is the
    same derivation."""
    M = _modules()[data.draw(st.integers(0, len(_modules()) - 1))]
    A = M.coeff
    H = cohomology_group(M, 2)
    coords = tuple(data.draw(st.integers(0, f - 1))
                   for f in H.group.invariant_factors)
    b = _cochain(M, 1, data.draw, nonzero_at_identity=True)
    c = cochain_sum(A, [(1, H.class_representative(coords)),
                        (1, differential(M, b))])
    rel = RelationModule(M, 2)
    vec, _ = rel.from_cochain(c)
    phi = rel.from_bar(vec)
    back = Cochain(2, rel.to_cochain(rel.to_bar(phi)))
    assert back.is_normalized(M.gamma.identity) and is_cocycle(M, back)
    assert rel.from_bar(rel.to_bar(phi)) == phi
    assert H.coordinates_of(back) == H.coordinates_of(c) == coords
    diff = cochain_sum(A, [(1, c), (-1, back)])
    w = H.coboundary_witness(diff)
    assert w is not None and differential(M, w) == diff

    H = cohomology_group(M, 1)
    coords = tuple(data.draw(st.integers(0, f - 1))
                   for f in H.group.invariant_factors)
    b = _cochain(M, 0, data.draw)
    f = cochain_sum(A, [(1, H.class_representative(coords)),
                        (1, differential(M, b))])
    rel = RelationModule(M, 1)
    vec, _ = rel.from_cochain(f)
    a = rel.from_bar(vec)
    assert len(a) == len(M.gamma.generators) * A.ncoords
    assert Cochain(1, rel.to_cochain(rel.to_bar(a))) == f
    assert rel.from_bar(rel.to_bar(a)) == a
    assert H.coordinates_of(f) == coords


def _trivial_z2(gens, degree):
    G = from_generators(degree, [list(g) for g in gens])
    A = FGAbelianGroup(0, (2,))
    return gamma_module(G, A, [AbHom.identity(A)] * G.order)


@pytest.mark.parametrize("gens,degree,factors,unknowns", [
    (S4, 4, (2, 2), 25),
    (A5, 5, (2,), 61),
])
def test_large_gamma_at_default_budget(gens, degree, factors, unknowns):
    M = _trivial_z2(gens, degree)
    H = cohomology_group(M, 2)
    assert H.group.invariant_factors == factors
    assert H._rel.dim == unknowns
    for j, gen in enumerate(H.generators):
        assert gen.is_normalized(M.gamma.identity)
        assert H.coordinates_of(gen) == tuple(int(k == j)
                                              for k in range(len(factors)))
        assert H.coboundary_witness(gen) is None
    if degree == 4:
        assert all(is_cocycle(M, gen) for gen in H.generators)


def test_cli_classify_sl2_over_s4(tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems", "sl2_z2_trivial.json")
    with open(path) as fh:
        data = json.load(fh)
    data["gamma"] = {"type": "permutations", "degree": 4,
                     "generators": [list(g) for g in S4]}
    problem = tmp_path / "sl2_s4.json"
    problem.write_text(json.dumps(data))
    code = cli.main(["classify", "--input", str(problem), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["h2"]["invariant_factors"] == [2, 2]
    assert len(report["classes"]) == 4
    M = _trivial_z2(S4, 4)
    for cls in report["classes"]:
        c = Cochain.from_map(2, {tuple(k): tuple(v) for k, v in cls["cocycle"]})
        assert is_cocycle(M, c)
