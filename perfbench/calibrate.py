"""Machine-speed calibration.

The benchmark's sandbox shares its cores with other tenants: the speed
of a core drifts by tens of percent over minutes, so raw wall times of
the same code differ that much between runs.  A fixed pure-Python kernel,
timed just before each pass and around each set-up, measures the speed
of the moment.  A wall time multiplied by ``REFERENCE_S`` over the
kernel's time is the time the work would take at the reference speed,
at which the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code and never calls discred, so a
change to discred cannot move it.  It is shaped like discred's work:
integer row operations on lists, tuples as dict keys, table building
over a few megabytes, and the pivot search and row operations of a
Smith normal form on a 200 x 200 matrix.  Timed next to passes of the
four workloads over twenty minutes on a 2-core Xeon, the pivot-search
part followed their pass times more closely than the table building
did; the two together did about as well as the pivot search alone, or
better.
"""

import gc
from time import perf_counter

REFERENCE_S = 0.06


def _eliminate(n=36, p=10007):
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(n)] for i in range(n)]
    seen = {}
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k] % p), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][k], p - 2, p)
        pk = [x * inv % p for x in rows[k]]
        rows[k] = pk
        for i in range(n):
            if i != k and rows[i][k]:
                q = rows[i][k]
                rows[i] = [(a - q * b) % p for a, b in zip(rows[i], pk)]
            key = tuple(x % 97 for x in rows[i])
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def _table(n=224):
    index = {(a, b): a * 16 + b for a in range(n // 16) for b in range(16)}
    elems = list(index)
    table = tuple(tuple(index[((a1 + a2 + b1 * b2) % (n // 16), (b1 + b2) % 16)]
                        for a2, b2 in elems)
                  for a1, b1 in elems)
    return sum(table[i][table[i][i]] for i in range(n))


def _pivot_rows(n=200, steps=6):
    """The inner loops of a Smith normal form: find the smallest nonzero
    entry of the remaining submatrix, clear its column by row
    operations."""
    rows = [[(i * 31 + j * 17) % 23 - 11 for j in range(n)] for i in range(n)]
    for t in range(steps):
        piv, best = None, None
        for i in range(t, n):
            row = rows[i]
            for j in range(t, n):
                v = row[j]
                if v and (piv is None or abs(v) < best):
                    piv, best = (i, j), abs(v)
        prow, c = rows[piv[0]], piv[1]
        for i in range(n):
            if i != piv[0] and rows[i][c]:
                q = rows[i][c] // prow[c]
                row = rows[i]
                for k in range(n):
                    row[k] -= q * prow[k]
    return sum(map(sum, rows))


def speed():
    """Seconds the kernel takes now (about REFERENCE_S on the machine
    the reference was taken on).

    The heap is collected first and the cyclic collector is off while
    the kernel runs, so the objects discred allocated and kept cannot
    move the kernel's time."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(3):
            _eliminate()
        _table()
        _pivot_rows()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
