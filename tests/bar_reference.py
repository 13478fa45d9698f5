"""The normalized bar differential as a dense matrix, built row by row
from the bar terms of each target tuple, as ``cohomology`` built it for
the cocycle rows of degrees 0 and 1 and for the triangular basis of
canonical representatives.  Kept as the reference that the columns
``cohomology._coboundary_columns`` builds directly must equal, entry for
entry and in the same order."""

from discred.cohomology import _bar_terms, _Space
from discred.exactlin import IntMatrix


def reference_diff_matrix(M, p, rows) -> IntMatrix:
    """Integer matrix of the differential from normalized p-cochains to
    the (p+1)-tuples ``rows`` (none containing the identity), on flat
    coordinates.  Bar terms on a tuple containing the identity vanish on
    normalized cochains and are dropped."""
    src = _Space(M, p)
    t = src.t
    out = [[0] * src.dim for _ in range(len(rows) * t)]
    for i, tup in enumerate(rows):
        for sign, stup, actor in _bar_terms(M.gamma, tup):
            j = src.index.get(stup)
            if j is None:
                continue
            if actor is None:
                for k in range(t):
                    out[i * t + k][j * t + k] += sign
            else:
                amat = M.action[actor].matrix
                for r in range(t):
                    row = out[i * t + r]
                    for k in range(t):
                        a = amat[r, k]
                        if a:
                            row[j * t + k] += sign * a
    return IntMatrix.from_rows(out, cols=src.dim)
