"""The sparse unit-pivot elimination against the dense route it
replaced: ``exactlin.unit_pivot_kernel`` against
``congruence_kernel_basis`` on random sparse matrices, and
``cohomology_group`` against ``tests/dense_h2_reference.py`` in degrees
0, 1 and 2.  Then H^2(S6, Z/2) and H^2(S6, Z/4) at the default budget,
where no Smith form sees more than the core."""

import random
from math import gcd

import pytest
from dense_h2_reference import DenseH, dense_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import cohomology, exactlin
from discred.abgroup import FGAbelianGroup
from discred.cohomology import Cochain, cohomology_group, trivial_module
from discred.errors import BudgetExceededError
from discred.exactlin import congruence_kernel_basis, unit_pivot_kernel
from discred.grouptable import from_generators
from discred.relations import RelationModule

from test_normalized import _modules
from unit_pivot_reference import reference_unit_pivot_kernel

MODULI = (1, 2, 3, 4, 6, 8, 9, 12, 30, 36)


@st.composite
def _sparse_problems(draw):
    """(rows, n, q): sparse rows over n <= 7 columns, each scaled by
    q / q_r for a drawn divisor q_r of q (mixed moduli, as the rows of
    d_p come), with units, non-units, several entries or none per row,
    and copies of earlier rows."""
    q = draw(st.sampled_from(MODULI))
    n = draw(st.integers(0, 7))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
            continue
        scale = q // draw(st.sampled_from([d for d in MODULI if q % d == 0]))
        pairs = draw(st.dictionaries(st.integers(0, n - 1),
                                     st.integers(-2 * q, 2 * q),
                                     max_size=4)) if n else {}
        rows.append([(j, scale * v) for j, v in pairs.items()])
    return rows, n, q


def _mul(rows, x):
    return [sum(v * x[j] for j, v in row) for row in rows]


def _basis(kernel):
    """The basis of K: the core basis extended by the pivot values, and
    q e_p for each pivot p."""
    k = len(kernel.free)
    out = [kernel.vector([int(i == j) for i in range(k)]) for j in range(k)]
    for p, _ in kernel.pivots:
        out.append([kernel.q * (i == p) for i in range(kernel.n)])
    return out


def _same_lattice(rows, n, q):
    """The kernel, after checking that its basis and the dense one span
    each other's lattice."""
    kernel = unit_pivot_kernel(rows, n, q)
    dense = congruence_kernel_basis(dense_rows(rows, n), q)
    assert sorted(kernel.free + tuple(p for p, _ in kernel.pivots)) == \
        list(range(n))
    basis = _basis(kernel)
    assert len(basis) == n
    for v in basis:
        assert all(a % q == 0 for a in _mul(rows, v))
        assert dense.coordinates(v) is not None
    for j in range(n):
        assert kernel.coordinates(dense.basis.col(j)) is not None
    return kernel


@pytest.mark.parametrize("rows,n,q", [
    ([], 0, 4), ([[]], 3, 6), ([[(0, 0)], [(1, 6)]], 2, 6),
    ([[(0, 2), (1, 3)], [(0, 4), (1, 6)]], 2, 12),
    ([[(0, 1), (1, 1)], [(0, 1), (1, 1)], [(1, 2), (2, 4)]], 3, 8)])
def test_same_lattice_on_fixed_shapes(rows, n, q):
    _same_lattice(rows, n, q)


@settings(max_examples=300, deadline=None)
@given(problem=_sparse_problems(), data=st.data())
def test_same_lattice_as_dense_kernel(problem, data):
    """The lattices agree, ``coordinates`` round-trips through
    ``vector`` and returns None exactly off the lattice, and
    ``unit_coordinates`` agrees with ``coordinates``."""
    rows, n, q = problem
    kernel = _same_lattice(rows, n, q)
    coords = data.draw(st.lists(st.integers(-50, 50), min_size=len(kernel.free),
                                max_size=len(kernel.free)))
    assert kernel.coordinates(kernel.vector(coords)) == tuple(coords)
    x = data.draw(st.lists(st.integers(-3 * q, 3 * q), min_size=n, max_size=n))
    c = kernel.coordinates(x)
    assert (c is None) == any(a % q for a in _mul(rows, x))
    if c is not None:
        # x and the vector of its coordinates differ by the q e_p alone
        diff = [a - b for a, b in zip(x, kernel.vector(c))]
        assert all(diff[f] == 0 for f in kernel.free)
        assert all(d % q == 0 for d in diff)
    for k, f in enumerate(kernel.free):
        m = data.draw(st.integers(-q, q))
        unit = [m * (i == f) for i in range(n)]
        assert kernel.unit_coordinates(k, m) == kernel.coordinates(unit)


def _scan_order(rows, n, q):
    """The pivot columns in the order that a linear scan picks them: the
    least (Markowitz cost, row, column) over every unit entry of the
    live rows, zero rows and copies dropped first as the elimination
    drops them."""
    rows = list({frozenset(r.items()): r for r in
                 ({j: v % q for j, v in row if v % q} for row in rows)
                 if r}.values())
    live, order = set(range(len(rows))), []
    while True:
        count = [0] * n
        for i in live:
            for j in rows[i]:
                count[j] += 1
        units = [((len(rows[i]) - 1) * (count[j] - 1), i, j) for i in live
                 for j, v in rows[i].items() if gcd(v, q) == 1]
        if not units:
            return order
        _, i, j = min(units)
        live.discard(i)
        inv = pow(rows[i][j], -1, q)
        for r in live:
            f = rows[r].get(j, 0) * inv
            for k, a in rows[i].items():
                x = (rows[r].get(k, 0) - f * a) % q
                if x:
                    rows[r][k] = x
                else:
                    rows[r].pop(k, None)
        order.append(j)


@settings(max_examples=200, deadline=None)
@given(problem=_sparse_problems())
def test_pivots_in_markowitz_order(problem):
    """The lazy heap picks the pivots a linear scan for the least
    (cost, row, column) picks."""
    kernel = unit_pivot_kernel(*problem)
    assert [p for p, _ in kernel.pivots] == _scan_order(*problem)


@pytest.mark.parametrize("q", [2, 4, 6])
def test_pivots_in_markowitz_order_on_s4(q):
    """The same on the 50 x 25 rows of d_2 for S4 on Z/q: fill-in, heavy
    columns and, for q = 4 and 6, non-unit entries."""
    S4 = from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    rel = RelationModule(trivial_module(S4, FGAbelianGroup(0, (q,))), 2)
    problem = (rel.cocycle_rows(q), rel.dim, q)
    kernel = unit_pivot_kernel(*problem)
    assert [p for p, _ in kernel.pivots] == _scan_order(*problem)


def _same_as_reference(rows, n, q):
    """``unit_pivot_kernel`` against the routine it replaced
    (``unit_pivot_reference``): the same pivots, expressions, free
    columns and core."""
    assert unit_pivot_kernel(rows, n, q) == reference_unit_pivot_kernel(
        rows, n, q)


@settings(max_examples=300, deadline=None)
@given(problem=_sparse_problems())
def test_same_kernel_as_reference(problem):
    _same_as_reference(*problem)


@pytest.mark.parametrize("q", [2, 4, 6])
@pytest.mark.parametrize("degree", [1, 2])
def test_same_kernel_as_reference_on_s4(q, degree):
    S4 = from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    rel = RelationModule(trivial_module(S4, FGAbelianGroup(0, (q,))), degree)
    _same_as_reference(rel.cocycle_rows(q), rel.dim, q)


def test_same_kernel_as_reference_on_random_sparse_rows():
    """Wider inputs than the Hypothesis rows: up to 30 rows over 20
    columns, composite moduli, with fill-in."""
    rng = random.Random(11)
    for _ in range(300):
        q, n = rng.choice((4, 6, 12, 30, 36)), rng.randint(1, 20)
        rows = [[(j, rng.randint(-q, q)) for j in
                 rng.sample(range(n), rng.randint(1, min(n, 5)))]
                for _ in range(rng.randint(1, 30))]
        _same_as_reference(rows, n, q)


def test_core_goes_to_the_dense_kernel():
    """2 is no unit mod 4: nothing is eliminated and the whole matrix is
    the core."""
    kernel = unit_pivot_kernel([[(0, 2), (1, 2)]], 2, 4)
    assert kernel.pivots == () and kernel.free == (0, 1)
    assert kernel.core is not None
    assert kernel.coordinates([1, 1]) == kernel.core.coordinates([1, 1])
    assert kernel.coordinates([1, 0]) is None


def test_ties_break_to_the_lowest_row_and_column():
    """Every pivot costs 0 here; the lowest (row, column) goes first."""
    kernel = unit_pivot_kernel([[(1, 1)], [(0, 1)], [(2, 1), (3, 1)]], 4, 5)
    assert [p for p, _ in kernel.pivots] == [1, 0, 2]
    assert kernel.free == (3,)
    assert kernel.pivots[2] == (2, {0: 4})


def _random_cocycles(ref, rng, count=4):
    """Random integer combinations of the dense kernel basis."""
    B = ref.kernel.basis
    for _ in range(count):
        yield list(B.apply([rng.randint(-5, 5) for _ in range(B.cols)]))


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("index", range(len(_modules())))
def test_cohomology_matches_dense_reference(index, p):
    """Equal invariant factors, and the reference's coordinates of the
    new generators carry ``coordinates_of`` onto the reference's own
    coordinates, on random cocycles given as bar cochains."""
    M = _modules()[index]
    H = cohomology_group(M, p)
    ref = DenseH(M, p)
    factors = H.group.invariant_factors
    assert factors == ref.invariant_factors
    images = [ref.coordinates(gv) for gv in H._gen_vecs]
    assert None not in images
    rel = H._rel
    for vec in _random_cocycles(ref, random.Random(index * 3 + p)):
        c = Cochain(p, rel.to_cochain(rel.to_bar(vec)))
        coords = H.coordinates_of(c)
        assert ref.coordinates(vec) == tuple(
            sum(x * im[i] for x, im in zip(coords, images)) % f
            for i, f in enumerate(factors))


S6 = from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])


@pytest.mark.parametrize("q", [2, 4])
def test_s6_at_the_default_budget(monkeypatch, q):
    """H^2(S6, Z/q) = (Z/2)^2 for q = 2, 4.  d_2 is 1442 x 721, yet no
    Smith form sees more cells than the larger of the core, left over by
    the elimination, and the cokernel on its coordinates."""
    shapes, cores = [], []
    smith, kernel_basis = (exactlin.smith_normal_form,
                           exactlin.congruence_kernel_basis)

    def recording_smith(A, *args, **kwargs):
        shapes.append((A.rows, A.cols))
        return smith(A, *args, **kwargs)

    def recording_kernel(A, *args):
        cores.append((A.rows, A.cols))
        return kernel_basis(A, *args)
    monkeypatch.setattr(exactlin, "smith_normal_form", recording_smith)
    monkeypatch.setattr(exactlin, "congruence_kernel_basis", recording_kernel)
    H = cohomology_group(trivial_module(S6, FGAbelianGroup(0, (q,))), 2)
    assert H.group.invariant_factors == (2, 2)
    free = len(H._kernel.free)
    relations = len(S6.generators) + free
    assert len(shapes) == 1 + len(cores) and len(cores) == (q == 4)
    bound = max([r * c for r, c in cores] + [free * relations])
    assert max(r * c for r, c in shapes) <= bound < 1000


def test_s6_canonical_forms_exceed_the_budget_before_any_conversion(
        monkeypatch):
    """H^2(S6, Z/2) fits the default budget, but its dense canonical basis
    would have ((n - 1)^2 t)^2 = 516961^2 cells.  ``normalize``,
    ``class_representative`` and ``classes`` name that estimate in a
    BudgetExceededError before any cochain is read or converted: the
    cochain given to ``normalize`` is not even total."""
    H = cohomology_group(trivial_module(S6, FGAbelianGroup(0, (2,))), 2)

    def never(*args):
        raise AssertionError("the dense canonical basis was built")
    monkeypatch.setattr(cohomology, "modular_echelon", never)
    dim = 719 ** 2
    message = f"canonical form size {dim}x{dim} exceeds budget 2000000"
    for call in (lambda: H.normalize(Cochain(2, ())),
                 lambda: H.class_representative((1, 0)), H.classes):
        with pytest.raises(BudgetExceededError, match=message):
            call()
