"""Exact linear algebra over the integers.

Everything runs on Python's arbitrary-precision ints; intermediate entries
of a Smith reduction may blow up well past machine words and that is fine.
The Smith normal form is the dense engine behind integer solving,
kernels and cokernel presentations; it keeps the inverses of its
transforms as it goes, so each lattice job reads everything from one
elimination.  A sparse congruence kernel first eliminates its pivots
that are units mod q (``unit_pivot_kernel``): only the core left over
reaches a Smith form.

Pivoting is deterministic: the smallest nonzero absolute value wins, ties
broken by lowest (row, col) index, so decompositions are reproducible.

Matrices are built once.  ``IntMatrix(rows, cols, entries)`` and
``from_rows`` copy the entries into tuples once and check the shape
(``from_rows`` then wraps its own copy with ``_of``): that is for data
from callers.  A matrix the package makes from row tuples it built
itself with the shape it declares (a product, a transpose, the
identity, a Smith form's D and transforms, a kernel basis, an action on
a torsion subgroup) is wrapped with ``IntMatrix._of``, which skips both.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd
from operator import mul

from .errors import ValidationError
from .record import Record


class IntMatrix(Record):
    """Immutable rectangular integer matrix (row-major tuple of tuples).

    The shape is stored explicitly so that 0xN and Nx0 matrices keep
    track of the ambient dimension.  Entries must already be ints: input
    is checked where it enters (the CLI parser), not here.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        ent = tuple(tuple(row) for row in self.entries)
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise ValidationError("matrix entries do not match declared shape")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _of(cls, rows, cols, entries):
        """A matrix on ``entries``, a tuple of ``rows`` row tuples of
        length ``cols`` that the caller built with that shape; the
        constructor's copy and shape check are skipped."""
        m = object.__new__(cls)
        d = m.__dict__      # where ``object.__setattr__`` puts the fields
        d["rows"], d["cols"], d["entries"] = rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, rows, cols=None):
        """The matrix on ``rows`` (each copied into a tuple once), of
        ``cols`` columns, the length of the first row by default."""
        rows = tuple(tuple(r) for r in rows)
        if cols is None:
            if not rows:
                raise ValidationError("cols is required for a 0-row matrix")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValidationError("matrix entries do not match declared shape")
        return cls._of(len(rows), cols, rows)

    @classmethod
    def identity(cls, n):
        return cls._of(n, n, tuple((0,) * i + (1,) + (0,) * (n - i - 1)
                                   for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValidationError("matrix product shape mismatch")
        ot = other.transpose().entries
        return IntMatrix._of(self.rows, other.cols,
                             tuple(tuple(sum(map(mul, r, c)) for c in ot)
                                   for r in self.entries))

    def apply(self, vec):
        """Matrix-vector product (column-vector convention)."""
        if len(vec) != self.cols:
            raise ValidationError("vector length does not match column count")
        return tuple(sum(map(mul, r, vec)) for r in self.entries)

    def transpose(self):
        ent = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._of(self.cols, self.rows, ent)


class SmithDecomposition(Record):
    """U @ A @ V == D with U, V unimodular and D diagonal nonnegative,
    each diagonal entry dividing the next.  ``U_inv`` and ``V_inv`` are
    the inverses of U and V; a transform the caller did not ask to keep
    is None."""

    U: IntMatrix | None
    D: IntMatrix
    V: IntMatrix | None
    original_shape: tuple
    U_inv: IntMatrix | None = None
    V_inv: IntMatrix | None = None

    @cached_property
    def diagonal(self):
        m, n = self.original_shape
        return tuple(row[i] for i, row in
                     zip(range(min(m, n)), self.D.entries))

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    def solve(self, b):
        """One integer solution x of A @ x = b for the decomposed A, or
        None when none exists; needs U and V kept."""
        m, n = self.original_shape
        if len(b) != m:
            raise ValidationError("right-hand side length does not match row count")
        c = self.U.apply(b)
        diag = self.diagonal
        y = [0] * n
        for i in range(m):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if c[i] != 0:
                    return None
            elif c[i] % d:
                return None
            else:
                y[i] = c[i] // d
        return self.V.apply(y)


TRANSFORMS = ("U", "V", "U_inv", "V_inv")


def _pivot(D, t, m, n):
    """Position of the nonzero entry of least absolute value in the
    submatrix D[t:, t:], the first in row-major order among equals, or
    None when the submatrix is zero.  No entry beats an entry 1 found
    first, so the scan stops there."""
    best, piv = 0, None
    for i in range(t, m):
        row = D[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = v if v > 0 else -v
                if piv is None or a < best:
                    if a == 1:
                        return i, j
                    best, piv = a, (i, j)
    return piv


def _identity_rows(k):
    rows = []
    for i in range(k):
        row = [0] * k
        row[i] = 1
        rows.append(row)
    return rows


def _negate_row(t, D, U, Ui_t):
    D[t] = [-x for x in D[t]]
    if U is not None:
        U[t] = [-x for x in U[t]]
    if Ui_t is not None:
        Ui_t[t] = [-x for x in Ui_t[t]]


def _clear(t, m, n, D, U, Ui_t, V_t, Vi):
    """Diagonalize position t of D, each operation mirrored on the kept
    transforms (None when not kept); False when D[t:, t:] is zero."""
    while True:
        piv = _pivot(D, t, m, n)
        if piv is None:
            return False
        i, j = piv
        if i != t:
            D[t], D[i] = D[i], D[t]
            if U is not None:
                U[t], U[i] = U[i], U[t]
            if Ui_t is not None:
                Ui_t[t], Ui_t[i] = Ui_t[i], Ui_t[t]
        if j != t:
            for row in D:
                row[t], row[j] = row[j], row[t]
            if V_t is not None:
                V_t[t], V_t[j] = V_t[j], V_t[t]
            if Vi is not None:
                Vi[t], Vi[j] = Vi[j], Vi[t]
        row_t = D[t]
        p = row_t[t]
        done = True
        # once earlier pivots have cleared their columns, row t vanishes
        # before column t and row updates start there
        k = t if t and not any(islice(row_t, t)) else 0
        tail = row_t[k:]
        for i in range(t + 1, m):
            row = D[i]
            if row[t]:
                # row_i -= q row_t
                q = row[t] // p
                row[k:] = [x - q * y
                           for x, y in zip(islice(row, k, None), tail)]
                if U is not None:
                    U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                if Ui_t is not None:
                    Ui_t[t] = [x + q * y for x, y in zip(Ui_t[t], Ui_t[i])]
                if row[t]:
                    done = False
        rows = None     # the rows of D with a nonzero entry in column t
        for j in range(t + 1, n):
            if row_t[j]:
                # col_j -= q col_t
                if rows is None:
                    rows = [row for row in D if row[t]]
                q = row_t[j] // p
                for row in rows:
                    row[j] -= q * row[t]
                if V_t is not None:
                    V_t[j] = [x - q * y for x, y in zip(V_t[j], V_t[t])]
                if Vi is not None:
                    Vi[t] = [x + q * y for x, y in zip(Vi[t], Vi[j])]
                if row_t[j]:
                    done = False
        if done:
            if p < 0:
                _negate_row(t, D, U, Ui_t)
            return True


def smith_normal_form(A: IntMatrix, keep=("U", "V")) -> SmithDecomposition:
    """Smith normal form with the transforms named in ``keep`` (any of
    ``TRANSFORMS``); the others are not tracked and come back as None.

    Each elementary operation on D is mirrored on the kept transforms
    (Cohen, GTM 138, section 2.4): row_i -= q row_j on U is
    col_j += q col_i on U^-1, and col_i -= q col_j on V is
    row_j += q row_i on V^-1; swaps and negations act alike on both.
    U^-1 and V are stored transposed, so every update is a row update.
    D and the transforms are lists of row lists, updated in place and
    wrapped once at the end.
    """
    m, n = A.rows, A.cols
    U = Ui_t = V_t = Vi = None      # Ui_t = (U^-1)^T, V_t = V^T
    for name in keep:
        if name == "U":
            U = _identity_rows(m)
        elif name == "V":
            V_t = _identity_rows(n)
        elif name == "U_inv":
            Ui_t = _identity_rows(m)
        elif name == "V_inv":
            Vi = _identity_rows(n)
        else:
            raise ValidationError(f"unknown transform in {keep!r}")
    D = [list(r) for r in A.entries]
    state = (D, U, Ui_t, V_t, Vi)

    r, top = 0, min(m, n)
    while r < top and _clear(r, m, n, *state):
        r += 1

    # Enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b % a:
                # col_i += col_(i+1)
                for row in D:
                    row[i] += row[i + 1]
                if V_t is not None:
                    V_t[i] = [x + y for x, y in zip(V_t[i], V_t[i + 1])]
                if Vi is not None:
                    Vi[i + 1] = [x - y for x, y in zip(Vi[i + 1], Vi[i])]
                _clear(i, m, n, *state)
                _clear(i + 1, m, n, *state)
                changed = True
    # _clear(i + 1) may pivot on a later row and leave its diagonal negative
    for i in range(r):
        if D[i][i] < 0:
            _negate_row(i, D, U, Ui_t)

    of = IntMatrix._of
    return SmithDecomposition(
        None if U is None else of(m, m, tuple(map(tuple, U))),
        of(m, n, tuple(map(tuple, D))),
        None if V_t is None else of(n, n, tuple(zip(*V_t))),
        (m, n),
        None if Ui_t is None else of(m, m, tuple(zip(*Ui_t))),
        None if Vi is None else of(n, n, tuple(map(tuple, Vi))))


def inverse_unimodular(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (via its Smith form, which
    is the identity, so M^-1 = V @ U).  For a transform of a Smith form,
    keep its inverse from the same elimination instead."""
    snf = smith_normal_form(M)
    if snf.diagonal != tuple([1] * M.rows):
        raise ValidationError("matrix is not unimodular")
    return snf.V @ snf.U


def solve_integer(A: IntMatrix, b):
    """One integer solution x of A @ x = b, or None when none exists."""
    return smith_normal_form(A).solve(b)


def kernel_basis(A: IntMatrix):
    """Basis (list of integer vectors) of the lattice {x : A @ x = 0}; no
    caller in the package, kept while the benchmark's tracer wraps it."""
    snf = smith_normal_form(A, keep=("V",))
    diag = snf.diagonal
    basis = []
    for j in range(A.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append(snf.V.col(j))
    return basis


class CongruenceKernel(Record):
    """A basis B = V diag(s) of a full-rank lattice, as columns, with
    V^-1 from the same elimination: coordinates in B are
    x = diag(s)^-1 V^-1 b, one product and no second elimination."""

    basis: IntMatrix
    scales: tuple
    V_inv: IntMatrix

    def coordinates(self, b):
        """The unique x with B @ x = b, or None when b is not in the
        lattice."""
        if len(b) != self.basis.rows:
            raise ValidationError("vector length does not match the lattice")
        return self._unscale(self.V_inv.apply(b))

    def unit_coordinates(self, i, q):
        """Coordinates of q e_i: q times column i of V^-1, unscaled."""
        return self._unscale([q * row[i] for row in self.V_inv.entries])

    def _unscale(self, c):
        x = []
        for ci, s in zip(c, self.scales):
            if ci % s:
                return None
            x.append(ci // s)
        return tuple(x)


def congruence_kernel_basis(A: IntMatrix, q: int) -> CongruenceKernel:
    """Basis of the full-rank lattice {x in Z^n : A @ x = 0 (mod q)}, q >= 1.

    Columns of V scaled by s_i = q / gcd(d_i, q) form a basis: in the
    Smith coordinates the congruence is d_i * y_i = 0 (mod q).
    """
    if q < 1:
        raise ValidationError("modulus must be >= 1")
    snf = smith_normal_form(A, keep=("V", "V_inv"))
    diag = snf.diagonal
    n = A.cols
    scales = tuple(q // gcd(diag[j], q) if j < len(diag) and diag[j] else 1
                   for j in range(n))
    basis = IntMatrix._of(n, n, tuple(tuple(x * s for x, s in zip(row, scales))
                                      for row in snf.V.entries))
    return CongruenceKernel(basis, scales, snf.V_inv)


class UnitPivotKernel(Record):
    """K = {x in Z^n : A x = 0 (mod q)} from ``unit_pivot_kernel``:
    x_p = sum_k e_k x_(free[k]) (mod q) on K for each (p, {k: e_k}) in
    ``pivots``; ``core`` is the congruence kernel of the rows left over,
    on the free columns (None: no row left).  The core basis, extended
    by the pivot values, and the q e_p are a basis of K; coordinates are
    in the core basis, modulo the q e_p."""

    n: int
    q: int
    free: tuple
    pivots: tuple
    core: CongruenceKernel | None

    def coordinates(self, b):
        """Core coordinates of b; None off K."""
        if len(b) != self.n:
            raise ValidationError("vector length does not match the lattice")
        x = [b[f] for f in self.free]
        for p, e in self.pivots:
            if (b[p] - sum(c * x[k] for k, c in e.items())) % self.q:
                return None
        return tuple(x) if self.core is None else self.core.coordinates(x)

    def unit_coordinates(self, k, c):
        """Core coordinates of c e_f, f = free[k]; None off K."""
        if any(c * e.get(k, 0) % self.q for _, e in self.pivots):
            return None
        if self.core is not None:
            return self.core.unit_coordinates(k, c)
        return tuple(c * (i == k) for i in range(len(self.free)))

    def vector(self, coords):
        """The vector of K with these core coordinates, pivots in [0, q)."""
        x = coords if self.core is None else self.core.basis.apply(coords)
        b = [0] * self.n
        for f, v in zip(self.free, x):
            b[f] = v
        for p, e in self.pivots:
            b[p] = sum(c * x[k] for k, c in e.items()) % self.q
        return b


def unit_pivot_kernel(rows, n, q) -> UnitPivotKernel:
    """The congruence kernel mod q >= 1 of an n-column matrix given by
    sparse rows of (column, value) pairs, columns distinct.

    Structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90):
    a pivot a = A[i][j] prime to q gives x_j = -a^-1 sum_k A[i][k] x_k
    (mod q) and is cleared from column j by row operations mod q.  The
    least Markowitz cost (len(row i) - 1)(len(column j) - 1) goes first,
    ties to the lowest (i, j), off a lazy heap; back-substitution writes
    the pivots in the free columns.  The rows left go to
    ``congruence_kernel_basis``."""
    if q < 1:
        raise ValidationError("modulus must be >= 1")
    # drop zero rows and copies
    rows = list({frozenset(r.items()): r for r in
                 ({j: v % q for j, v in row if v % q} for row in rows)
                 if r}.values())
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def entries(pairs):
        return [((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j)
                for i, j in pairs if gcd(rows[i][j], q) == 1]

    heap = entries((i, j) for i, row in enumerate(rows) for j in row)
    heapify(heap)
    steps = []
    live = len(rows)    # rows neither pivoted nor zero: the rest is stale
    while live and heap:
        cost, i, j = heappop(heap)
        row = rows[i]
        if not row or gcd(row.get(j, 0), q) != 1:
            continue
        now = (len(row) - 1) * (len(cols[j]) - 1)
        if cost != now:
            if cost < now:     # its cost rose
                heappush(heap, (now, i, j))
            continue
        rows[i] = None
        live -= 1
        counts = {}
        for k in row:
            counts[k] = len(cols[k])
            cols[k].discard(i)
        inv = pow(row[j], -1, q)
        # a live unit keeps a heap entry of at most its cost: new units
        # get one, and so do shrunk rows and columns, once a step
        fresh = set()
        for r in tuple(cols[j]):
            other = rows[r]
            size = len(other)
            f = other[j] * inv % q
            for k, a in row.items():
                old = other.get(k, 0)
                x = (old - f * a) % q
                if x:
                    other[k] = x
                    cols[k].add(r)
                    if gcd(old, q) != 1:
                        fresh.add((r, k))
                elif old:
                    del other[k]
                    cols[k].discard(r)
            if len(other) < size:
                if not other:
                    live -= 1
                fresh.update((r, k) for k in other)
        steps.append((j, row, inv))
        fresh.update((r, k) for k in row if len(cols[k]) < counts[k]
                     for r in cols[k])
        for entry in entries(fresh):
            heappush(heap, entry)

    pivoted = {j for j, _, _ in steps}
    free = tuple(j for j in range(n) if j not in pivoted)
    at = {f: k for k, f in enumerate(free)}
    expr = {}
    for j, row, inv in reversed(steps):
        e = {}
        for k, a in row.items():
            if k != j:
                for m, c in ({at[k]: 1} if k in at else expr[k]).items():
                    e[m] = (e.get(m, 0) - inv * a * c) % q
        expr[j] = {m: c for m, c in e.items() if c}
    core = [[row.get(f, 0) for f in free] for row in rows if row]
    return UnitPivotKernel(
        n, q, free, tuple((j, expr[j]) for j, _, _ in steps),
        congruence_kernel_basis(IntMatrix.from_rows(core, len(free)), q)
        if core else None)


class CokernelPresentation(Record):
    """coker(relations on Z^cols) ~= Z^free_rank (+) sum_i Z/f_i.

    ``to_presented`` maps standard coordinates to presented coordinates
    (``from_presented`` is its inverse); ``moduli`` gives one modulus per
    presented coordinate: d_i for torsion (possibly 1 = trivial), 0 for
    free.  ``invariant_factors`` lists only the moduli > 1.
    """

    free_rank: int
    invariant_factors: tuple
    to_presented: IntMatrix
    from_presented: IntMatrix
    moduli: tuple


def cokernel_presentation(A: IntMatrix) -> CokernelPresentation:
    """Present Z^cols modulo the lattice spanned by the rows of A."""
    At = A.transpose()            # map Z^rows -> Z^cols, image = row lattice
    snf = smith_normal_form(At, keep=("U", "U_inv"))
    n = A.cols
    diag = snf.diagonal
    moduli = tuple((diag[i] if i < len(diag) else 0) for i in range(n))
    factors = tuple(d for d in moduli if d > 1)
    free = sum(1 for d in moduli if d == 0)
    return CokernelPresentation(
        free_rank=free,
        invariant_factors=factors,
        to_presented=snf.U,
        from_presented=snf.U_inv,
        moduli=moduli,
    )


def modular_echelon(generators, moduli):
    """Upper-triangular basis of the lattice L spanned by ``generators``
    and the modulus relations q_i e_i (q_i = moduli[i] >= 1).

    Row i is zero before position i, has pivot h_i = row[i] > 0 with
    h_i | q_i, and keeps every later entry j reduced mod q_j, so
    coefficients never grow (Cohen, GTM 138, §2.4).  Starting from the
    pivots q_i e_i, each generator is folded in by unimodular gcd steps.
    """
    n = len(moduli)
    rows = [[0] * i + [q] + [0] * (n - i - 1) for i, q in enumerate(moduli)]
    for gen in generators:
        if len(gen) != n:
            raise ValidationError("generator length does not match moduli")
        v = [x % q for x, q in zip(gen, moduli)]
        for i in range(n):
            a = v[i]
            if not a:
                continue
            row = rows[i]
            d, s, t = _xgcd(row[i], a)
            u, w = a // d, row[i] // d
            # [s t; u -w] has determinant -1, so the span is unchanged
            new_row, rest = [0] * n, [0] * n
            new_row[i] = d
            for j in range(i + 1, n):
                x, y, q = row[j], v[j], moduli[j]
                new_row[j] = (s * x + t * y) % q
                rest[j] = (u * x - w * y) % q
            rows[i], v = new_row, rest
    return rows


def echelon_reduce(rows, vec, moduli):
    """Lexicographically smallest vector of (vec + L) with every entry
    in [0, q_i), for ``rows`` from ``modular_echelon``: entry i is fixed
    mod h_i, which lattice vectors vanishing before i cannot improve."""
    v = [x % q for x, q in zip(vec, moduli)]
    for i, row in enumerate(rows):
        k = v[i] // row[i]
        if k:
            for j in range(i, len(v)):
                v[j] = (v[j] - k * row[j]) % moduli[j]
    return v


def _xgcd(a, b):
    """(d, s, t) with d = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return a, s0, t0


def column_lattice_basis(A: IntMatrix):
    """Basis vectors of the lattice spanned by the columns of A; no caller
    in the package, kept while the benchmark's tracer wraps it by name."""
    snf = smith_normal_form(A, keep=("U_inv",))
    return [tuple(d * x for x in snf.U_inv.col(i))
            for i, d in enumerate(snf.diagonal) if d != 0]
