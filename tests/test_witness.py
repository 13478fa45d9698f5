"""Coboundary witnesses solved on the cokernel's relations, in the core
coordinates of the cocycles, against the dense solve of
[d_(p-1) | diag(mods)] they replaced (``tests/dense_h2_reference.py``);
the one Smith form a witness takes; and the modules whose H^p has no
kernel, where the solution is 0."""

import itertools

import pytest
from dense_h2_reference import dense_witness
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import cohomology, exactlin, relations
from discred.abgroup import FGAbelianGroup
from discred.cohomology import (Cochain, cochain_sum, cohomology_group,
                                differential, is_cocycle, trivial_module)
from discred.grouptable import cyclic, from_generators

from test_normalized import _cochain, _modules


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_witness_matches_dense_reference(data):
    """Non-normalized coboundaries, cocycles off the coboundaries and
    random cochains (mostly no cocycles): the witness and the dense
    reference agree on None, and every witness w has dw = c."""
    M = _modules()[data.draw(st.integers(0, len(_modules()) - 1))]
    p = data.draw(st.sampled_from([1, 2]))
    H = cohomology_group(M, p)
    kind = data.draw(st.sampled_from(["coboundary", "class", "cochain"]))
    if kind == "cochain":
        c = _cochain(M, p, data.draw)
    else:
        b = _cochain(M, p - 1, data.draw, nonzero_at_identity=True)
        c = differential(M, b)
        factors = H.group.invariant_factors
        if kind == "class" and factors:
            coords = [data.draw(st.integers(0, f - 1)) for f in factors]
            coords[0] = data.draw(st.integers(1, factors[0] - 1))
            c = cochain_sum(M.coeff, [(1, H.class_representative(coords)),
                                      (1, c)])
        else:
            kind = "coboundary"
    w = H.coboundary_witness(c)
    assert (w is None) == (dense_witness(M, c) is None)
    if kind == "coboundary":
        assert w is not None
    if kind == "class" or not is_cocycle(M, c):
        assert w is None
    if w is not None:
        assert differential(M, w) == c


S5 = from_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


def test_s5_witness_takes_one_small_smith_form(monkeypatch):
    """H^2(S5, Z/2): the first witness takes one Smith form, of the
    cokernel's relations, (|S| t + |free|) x |free| at most, and the
    second takes none.  The dense [d_1 | diag(mods)] was 121 x 123."""
    M = trivial_module(S5, FGAbelianGroup(0, (2,)))
    H = cohomology_group(M, 2)
    shapes = []
    inner = exactlin.smith_normal_form

    def recording(A, *args, **kwargs):
        shapes.append((A.rows, A.cols))
        return inner(A, *args, **kwargs)
    for module in (exactlin, cohomology, relations):   # wherever it is read
        if vars(module).get("smith_normal_form") is inner:
            monkeypatch.setattr(module, "smith_normal_form", recording)
    free = len(H._kernel.free)
    for seed in (1, 2):
        b = Cochain.from_map(1, {(g,): ((g * seed) % 3 % 2,)
                                 for g in S5.elements()})
        db = differential(M, b)
        w = H.coboundary_witness(db)
        assert w is not None and differential(M, w) == db
        assert len(shapes) == 1
    (rows, cols), = shapes
    assert rows * cols <= (len(S5.generators) + free) * free


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("M", [
    trivial_module(cyclic(1), FGAbelianGroup(0, (3,))),
    trivial_module(cyclic(2), FGAbelianGroup(0, ())),
], ids=["C1_Z3", "C2_trivial"])
def test_witness_without_a_kernel(M, p):
    """H^p = 0 with no kernel to solve in: every coboundary c = db,
    among them c(1, 1) = b(1) != 0 for C1 on Z/3 in degree 2, gets a
    witness w with dw = c."""
    H = cohomology_group(M, p)
    assert H._kernel is None
    tuples = list(itertools.product(M.gamma.elements(), repeat=p - 1))
    shifts = set()
    for values in itertools.product(M.coeff.elements(), repeat=len(tuples)):
        c = differential(M, Cochain.from_map(p - 1, dict(zip(tuples, values))))
        w = H.coboundary_witness(c)
        assert w is not None and differential(M, w) == c
        shifts.add(c.as_dict()[(M.gamma.identity,) * p])
    if p == 2 and M.coeff.order() == 3:
        assert shifts == {(0,), (1,), (2,)}
