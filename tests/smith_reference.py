"""The Smith normal form routine as it was before its row updates were
restricted to the columns from the pivot on and its column updates to
the rows with a nonzero pivot-column entry: every update walks whole
rows.  Kept as the reference that ``exactlin.smith_normal_form`` must
match transform for transform.  Returns the five matrices and the number
of divisibility-chain fix-ups the input needed."""

from discred.exactlin import IntMatrix, _pivot


def _submul(a, b, q):
    return [x - q * y for x, y in zip(a, b)]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transposed(rows, n):
    return IntMatrix(n, n, tuple(zip(*rows)))


def reference_smith(A: IntMatrix):
    m, n = A.rows, A.cols
    D = [list(r) for r in A.entries]
    U, Ui_t, V_t, Vi = _eye(m), _eye(m), _eye(n), _eye(n)

    def swap_rows(i, j):
        for M in (D, U, Ui_t):
            M[i], M[j] = M[j], M[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for M in (V_t, Vi):
            M[i], M[j] = M[j], M[i]

    def submul_row(i, j, q):
        D[i] = _submul(D[i], D[j], q)
        U[i] = _submul(U[i], U[j], q)
        Ui_t[j] = _submul(Ui_t[j], Ui_t[i], -q)

    def submul_col(i, j, q):
        for row in D:
            row[i] -= q * row[j]
        V_t[i] = _submul(V_t[i], V_t[j], q)
        Vi[j] = _submul(Vi[j], Vi[i], -q)

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        Ui_t[i] = [-x for x in Ui_t[i]]

    def clear(t):
        while True:
            piv = _pivot(D, t, m, n)
            if piv is None:
                return False
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            p = D[t][t]
            done = True
            for i in range(t + 1, m):
                if D[i][t]:
                    submul_row(i, t, D[i][t] // p)
                    if D[i][t]:
                        done = False
            for j in range(t + 1, n):
                if D[t][j]:
                    submul_col(j, t, D[t][j] // p)
                    if D[t][j]:
                        done = False
            if done:
                if D[t][t] < 0:
                    negate_row(t)
                return True

    r = 0
    while r < min(m, n) and clear(r):
        r += 1
    fixups = 0
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b % a:
                submul_col(i, i + 1, -1)
                clear(i)
                clear(i + 1)
                changed = True
                fixups += 1
    for i in range(r):
        if D[i][i] < 0:
            negate_row(i)
    return (IntMatrix(m, m, tuple(map(tuple, U))),
            IntMatrix(m, n, tuple(map(tuple, D))),
            _transposed(V_t, n), _transposed(Ui_t, m),
            IntMatrix(n, n, tuple(map(tuple, Vi)))), fixups
