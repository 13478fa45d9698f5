import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred.errors import ValidationError
from discred.exactlin import (TRANSFORMS, IntMatrix, cokernel_presentation,
                              column_lattice_basis, congruence_kernel_basis,
                              echelon_reduce,
                              inverse_unimodular, kernel_basis,
                              modular_echelon, smith_normal_form,
                              solve_integer)

from smith_reference import reference_smith

KEEPS = [keep for k in range(len(TRANSFORMS) + 1)
         for keep in itertools.combinations(TRANSFORMS, k)]

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def mat(rows):
    return IntMatrix.from_rows(rows)


def det(M):
    """The determinant of the square matrix M by fraction-free (Bareiss)
    elimination: a check on Smith forms that shares no code with them."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    a = [list(r) for r in M.entries]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


def well_formed(M):
    """Whether M, perhaps wrapped by ``IntMatrix._of`` without a check,
    is what the checked constructor makes of its fields: a tuple of
    ``rows`` tuples of length ``cols``."""
    return (type(M.entries) is tuple
            and all(type(r) is tuple for r in M.entries)
            and IntMatrix(M.rows, M.cols, M.entries) == M)


class TestIntMatrix:
    def test_matmul_and_apply(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        assert a.apply((1, 1)) == (3, 7)

    def test_det_bareiss(self):
        assert det(mat([[2, 0], [0, 3]])) == 6
        assert det(mat([[1, 2], [2, 4]])) == 0
        assert det(mat([[0, 1, 2], [3, 4, 5], [6, 7, 9]])) == -3

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            det(mat([[1, 2]]))

    def test_unimodular(self):
        """A square matrix is unimodular exactly when every entry of its
        Smith diagonal is 1, the rule ``autbrd.is_brd_automorphism``
        reads; the diagonal's product is |det|."""
        def unimodular(M):
            return all(d == 1 for d in smith_normal_form(M, keep=()).diagonal)
        assert unimodular(mat([[1, 5], [0, 1]]))
        assert not unimodular(mat([[2, 0], [0, 1]]))

    @settings(max_examples=100, deadline=None)
    @given(square_matrices)
    def test_smith_diagonal_gives_abs_det(self, rows):
        M = mat(rows)
        diagonal = smith_normal_form(M, keep=()).diagonal
        assert math.prod(diagonal) == abs(det(M))
        assert all(d == 1 for d in diagonal) == (abs(det(M)) == 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_identity(self, n):
        eye = IntMatrix.identity(n)
        assert well_formed(eye) and eye.rows == eye.cols == n
        assert eye.entries == tuple(tuple(int(i == j) for j in range(n))
                                    for i in range(n))

    def test_unchecked_wrapper_is_the_checked_matrix(self):
        """``_of`` gives the record the constructor gives: equal, the
        same hash and repr, frozen."""
        entries = ((1, 2, 3), (4, 5, 6))
        a, b = IntMatrix._of(2, 3, entries), IntMatrix(2, 3, entries)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        with pytest.raises(AttributeError):
            a.rows = 3

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.integers(1, 12))
    def test_kernel_basis_well_formed(self, rows, q):
        K = congruence_kernel_basis(mat(rows), q)
        assert well_formed(K.basis) and well_formed(K.V_inv)

    def test_inverse_unimodular(self):
        a = mat([[1, 5], [0, 1]])
        inv = inverse_unimodular(a)
        assert (a @ inv).entries == IntMatrix.identity(2).entries


class TestSmith:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_invariants(self, rows):
        A = mat(rows)
        snf = smith_normal_form(A)
        prod = snf.U @ A @ snf.V
        assert prod.entries == snf.D.entries
        assert abs(det(snf.U)) == abs(det(snf.V)) == 1
        diag = snf.diagonal
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        # zero entries come after all nonzero ones
        assert diag == tuple(nz) + (0,) * (len(diag) - len(nz))

    def test_known_chain(self):
        snf = smith_normal_form(mat([[2, 0], [0, 3]]))
        assert snf.diagonal == (1, 6)

    def test_deterministic(self):
        rows = [[4, 6, 2], [6, 3, 9]]
        s1 = smith_normal_form(mat(rows))
        s2 = smith_normal_form(mat(rows))
        assert s1.U.entries == s2.U.entries and s1.V.entries == s2.V.entries


class TestSmithAgainstReference:
    """The restricted row and column updates give the transforms of the
    routine that walked whole rows (``smith_reference``)."""

    @staticmethod
    def _same(A, keep=TRANSFORMS):
        """The transforms in ``keep`` are the reference's, the others
        None; D and its diagonal are the reference's whatever is kept."""
        (U, D, V, U_inv, V_inv), fixups = reference_smith(A)
        snf = smith_normal_form(A, keep=keep)
        for M in (snf.U, snf.D, snf.V, snf.U_inv, snf.V_inv):
            assert M is None or well_formed(M)
        assert snf.D == D and snf.original_shape == (A.rows, A.cols)
        assert snf.diagonal == tuple(D[i, i]
                                     for i in range(min(A.rows, A.cols)))
        for name, want in zip(("U", "V", "U_inv", "V_inv"),
                              (U, V, U_inv, V_inv)):
            assert getattr(snf, name) == (want if name in keep else None), name
        return fixups

    def test_random_matrices(self):
        rng = random.Random(7)
        fixups = 0
        for _ in range(400):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            bound = rng.choice([1, 3, 9, 40])
            A = mat([[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                      for _ in range(n)] for _ in range(m)])
            fixups += self._same(A) > 0
        assert fixups > 0

    @pytest.mark.parametrize("keep", KEEPS)
    def test_every_keep(self, keep):
        """Each subset of the transforms, on matrices with 0 to 6 rows
        and columns."""
        rng = random.Random(len(keep) * 31 + sum(map(len, keep)))
        fixups = 0
        for _ in range(120):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            bound = rng.choice([1, 3, 9, 40])
            A = IntMatrix(m, n, tuple(tuple(rng.randint(-bound, bound)
                                            if rng.random() < 0.7 else 0
                                            for _ in range(n))
                                      for _ in range(m)))
            fixups += self._same(A, keep) > 0
        assert fixups > 0

    @pytest.mark.parametrize("keep", KEEPS)
    @pytest.mark.parametrize("shape", [(0, 0), (0, 1), (1, 0), (2, 0),
                                       (3, 0), (5, 0), (0, 4)])
    def test_empty_shapes(self, shape, keep):
        """0 x n and m x 0, the shapes the workloads also take."""
        m, n = shape
        A = IntMatrix(m, n, ((),) * m)
        self._same(A, keep)
        snf = smith_normal_form(A, keep=keep)
        assert snf.diagonal == () and snf.rank == 0

    def test_unknown_transform(self):
        with pytest.raises(ValidationError, match="unknown transform"):
            smith_normal_form(mat([[1]]), keep=("U", "W"))

    @pytest.mark.parametrize("rows", [
        [[2, 0], [0, 3]],
        [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
        [[6, 0, 0, 0], [0, 10, 0, 0], [0, 0, 15, 0], [0, 0, 0, 1]],
        [[3, 0, 0], [0, 2, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 9, 0], [4, 0, 0], [0, 0, 6]],
    ])
    def test_divisibility_fixups(self, rows):
        assert self._same(mat(rows)) > 0


class TestSolve:
    def test_solvable(self):
        A = mat([[1, 2], [0, 3]])
        x = solve_integer(A, (5, 6))
        assert x == (1, 2)

    def test_unsolvable_over_z(self):
        A = mat([[2]])
        assert solve_integer(A, (3,)) is None

    @settings(max_examples=40, deadline=None)
    @given(small_matrices, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_round_trip(self, rows, xs):
        A = mat(rows)
        x = tuple(xs[: A.cols])
        b = A.apply(x)
        sol = solve_integer(A, b)
        assert sol is not None
        assert A.apply(sol) == b


class TestKernels:
    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_kernel_members(self, rows):
        A = mat(rows)
        for v in kernel_basis(A):
            assert all(x == 0 for x in A.apply(v))

    def test_kernel_rank(self):
        assert len(kernel_basis(mat([[1, 2, 3]]))) == 2
        assert kernel_basis(mat([[1, 0], [0, 1]])) == []

    def test_congruence_kernel(self):
        # x + y = 0 mod 4: lattice generated by (1, -1) and (0, 4)
        A = mat([[1, 1]])
        B = congruence_kernel_basis(A, 4).basis
        assert B.rows == 2 and B.cols == 2
        assert abs(det(B)) == 4
        for j in range(B.cols):
            col = B.col(j)
            assert (col[0] + col[1]) % 4 == 0

    @settings(max_examples=30, deadline=None)
    @given(small_matrices, st.sampled_from([2, 3, 4, 6]))
    def test_congruence_kernel_complete(self, rows, q):
        """Lattice membership matches a brute-force mod-q check."""
        A = mat(rows)
        B = congruence_kernel_basis(A, q).basis
        assert abs(det(B)) > 0
        import itertools
        for x in itertools.product(range(q), repeat=A.cols):
            in_lattice = solve_integer(B, x) is not None
            satisfies = all(v % q == 0 for v in A.apply(x))
            assert satisfies == in_lattice


class TestCokernel:
    def test_z_mod_2_and_3(self):
        pres = cokernel_presentation(mat([[2, 0], [0, 3]]))
        assert pres.free_rank == 0
        assert pres.invariant_factors == (6,)

    def test_free_part(self):
        pres = cokernel_presentation(mat([[1, -1, 0]]))
        assert pres.free_rank == 2
        assert pres.invariant_factors == ()

    def test_presentation_maps_inverse(self):
        pres = cokernel_presentation(mat([[4, 0], [0, 6]]))
        rt = pres.to_presented @ pres.from_presented
        assert rt.entries == IntMatrix.identity(rt.rows).entries

    def test_column_lattice_basis(self):
        basis = column_lattice_basis(mat([[2, 4], [0, 0]]))
        assert basis == [(2, 0)]


@st.composite
def shaped_matrices(draw):
    """Integer matrices of any shape up to 5 x 5, zero-sized included,
    of rank at most k (a product of r x k and k x c factors), with some
    rows and columns zeroed out."""
    r, c, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.integers(-4, 4)
    left = [[draw(entries) for _ in range(k)] for _ in range(r)]
    right = [[draw(entries) for _ in range(c)] for _ in range(k)]
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2))
    return IntMatrix(r, c, tuple(
        tuple(0 if i in zero_rows or j in zero_cols
              else sum(left[i][m] * right[m][j] for m in range(k))
              for j in range(c)) for i in range(r)))


def _old_transpose(A):
    """``IntMatrix.transpose`` as it was: every entry indexed, then the
    constructor's copy and shape check."""
    return IntMatrix(A.cols, A.rows,
                     tuple(tuple(A.entries[i][j] for i in range(A.rows))
                           for j in range(A.cols)))


def _old_matmul(A, B):
    """``IntMatrix.__matmul__`` as it was, on ``_old_transpose``."""
    bt = _old_transpose(B).entries
    return IntMatrix(A.rows, B.cols,
                     tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in bt)
                           for r in A.entries))


class TestProductAgainstOldConstruction:
    """``@`` and ``transpose`` build their entries once and skip the
    constructor's check; the result must equal the checked construction,
    zero-sized shapes included."""

    @settings(max_examples=200, deadline=None)
    @given(shaped_matrices(), st.integers(0, 5), st.integers(-4, 4))
    def test_matmul_and_transpose(self, A, c, seed):
        rng = random.Random(seed)
        B = IntMatrix(A.cols, c, tuple(
            tuple(rng.randint(-4, 4) for _ in range(c))
            for _ in range(A.cols)))
        assert A.transpose() == _old_transpose(A)
        assert A @ B == _old_matmul(A, B)
        assert type((A @ B).entries) is tuple

    @pytest.mark.parametrize("r,k,c", [(0, 3, 2), (3, 0, 2), (2, 3, 0),
                                       (0, 0, 0), (0, 0, 4), (4, 0, 0)])
    def test_zero_sized(self, r, k, c):
        A = IntMatrix(r, k, tuple((1,) * k for _ in range(r)))
        B = IntMatrix(k, c, tuple((2,) * c for _ in range(k)))
        P = A @ B
        assert P == _old_matmul(A, B)
        assert (P.rows, P.cols) == (r, c)
        assert P.entries == tuple((0,) * c for _ in range(r))
        for M in (A, B, P):
            T = M.transpose()
            assert T == _old_transpose(M)
            assert (T.rows, T.cols) == (M.cols, M.rows)
            assert T.transpose() == M


class TestTrackedInverses:
    """The inverses kept by the elimination against ``inverse_unimodular``,
    the path they replace."""

    @settings(max_examples=80, deadline=None)
    @given(shaped_matrices())
    def test_tracked_inverses(self, A):
        snf = smith_normal_form(A, keep=("U", "V", "U_inv", "V_inv"))
        assert snf.U_inv.entries == inverse_unimodular(snf.U).entries
        assert snf.V_inv.entries == inverse_unimodular(snf.V).entries
        # tracking more transforms changes none of them
        plain = smith_normal_form(A)
        assert (plain.U, plain.D, plain.V) == (snf.U, snf.D, snf.V)
        assert plain.U_inv is None and plain.V_inv is None

    def test_untracked_transforms_are_none(self):
        snf = smith_normal_form(mat([[2, 4], [6, 8]]), keep=("V",))
        assert snf.U is None and snf.U_inv is None and snf.V_inv is None
        with pytest.raises(ValidationError):
            smith_normal_form(mat([[1]]), keep=("W",))

    @settings(max_examples=80, deadline=None)
    @given(shaped_matrices())
    def test_cokernel_from_presented(self, A):
        pres = cokernel_presentation(A)
        assert pres.from_presented.entries == \
            inverse_unimodular(pres.to_presented).entries

    @settings(max_examples=80, deadline=None)
    @given(shaped_matrices(), st.sampled_from([1, 2, 4, 6, 9]), st.data())
    def test_congruence_kernel_coordinates(self, A, q, data):
        kernel = congruence_kernel_basis(A, q)
        B, n = kernel.basis, A.cols
        solver = smith_normal_form(B)
        vec = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
        inside = B.apply(data.draw(vec))
        for b in (inside, tuple(data.draw(vec))):
            x = kernel.coordinates(b)
            assert x == solver.solve(b)
        assert kernel.coordinates(inside) is not None
        for i in range(n):
            mult = data.draw(st.integers(1, 12))
            unit = tuple(mult if k == i else 0 for k in range(n))
            assert kernel.unit_coordinates(i, mult) == solver.solve(unit)


def _span_mod(gens, moduli):
    """The subgroup of (+)_i Z/q_i generated by ``gens``, by closure."""
    zero = tuple(0 for _ in moduli)
    span, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % q for a, b, q in zip(x, g, moduli))
                if y not in span:
                    span.add(y)
                    nxt.append(y)
        frontier = nxt
    return span


echelon_inputs = st.lists(st.sampled_from([2, 3, 4, 6, 8]), min_size=1,
                          max_size=4).flatmap(
    lambda qs: st.tuples(
        st.just(qs),
        st.lists(st.lists(st.integers(-20, 20), min_size=len(qs),
                          max_size=len(qs)), max_size=3),
        st.lists(st.integers(-20, 20), min_size=len(qs), max_size=len(qs))))


class TestModularEchelon:
    def test_small_example(self):
        # L = <(2, 1)> + 4Z^2: pivots 2 and 2, (3, 3) reduces to (1, 0)
        rows = modular_echelon([(2, 1)], (4, 4))
        assert rows == [[2, 1], [0, 2]]
        assert echelon_reduce(rows, (3, 3), (4, 4)) == [1, 0]

    def test_no_generators(self):
        rows = modular_echelon([], (3, 5))
        assert rows == [[3, 0], [0, 5]]
        assert echelon_reduce(rows, (7, -1), (3, 5)) == [1, 4]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            modular_echelon([(1,)], (2, 2))

    @settings(max_examples=150, deadline=None)
    @given(echelon_inputs)
    def test_triangular_and_lex_minimal(self, args):
        moduli, gens, vec = args
        n = len(moduli)
        rows = modular_echelon(gens, moduli)
        for i, row in enumerate(rows):
            assert all(x == 0 for x in row[:i])
            assert row[i] > 0 and moduli[i] % row[i] == 0
            assert all(0 <= row[j] < moduli[j] for j in range(i + 1, n))
        span = _span_mod([tuple(g) for g in gens], moduli)
        # the rows span the same subgroup of (+) Z/q_i as the generators
        assert _span_mod([tuple(r) for r in rows], moduli) == span
        coset = sorted(tuple((v + s) % q for v, s, q in zip(vec, x, moduli))
                       for x in span)
        assert tuple(echelon_reduce(rows, vec, moduli)) == coset[0]
