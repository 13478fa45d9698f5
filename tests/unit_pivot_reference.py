"""The unit-pivot elimination as it was before its fresh heap entries
became a set and its loop stopped at the last live row: each step
pushed every fresh (row, column) as often as it was found and the heap
was drained to the end.  Kept as the reference that
``exactlin.unit_pivot_kernel`` must match pivot for pivot."""

from heapq import heapify, heappop, heappush
from math import gcd

from discred.errors import ValidationError
from discred.exactlin import (IntMatrix, UnitPivotKernel,
                              congruence_kernel_basis)


def reference_unit_pivot_kernel(rows, n, q) -> UnitPivotKernel:
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
    while heap:
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
        counts = {}
        for k in row:
            counts[k] = len(cols[k])
            cols[k].discard(i)
        inv = pow(row[j], -1, q)
        # a live unit keeps a heap entry of at most its cost: new units
        # get one, and so do shrunk rows and columns
        fresh = []
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
                        fresh.append((r, k))
                elif old:
                    del other[k]
                    cols[k].discard(r)
            if len(other) < size:
                fresh.extend((r, k) for k in other)
        steps.append((j, row, inv))
        fresh.extend((r, k) for k in row if len(cols[k]) < counts[k]
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
