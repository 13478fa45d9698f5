"""The full check of a based root datum, kept as the oracle for
``BasedRootDatum.defect``, which decides every datum by one closure of
its simple data.

``reference_validate`` is the root-datum axioms as ``rootdatum.validate``
checked them: every image with a nonzero pairing is built as a tuple
and looked up in a set of tuples.  ``reference_defect`` adds the simple
indices, the rank of the simple roots and the signs of every root's
coefficients in them, solved over Q.  It accepts non-reduced data such
as BC_1, which ``defect`` rejects.
"""

from fractions import Fraction
from operator import mul


def _reflect(v, m, a):
    return tuple(x - m * y for x, y in zip(v, a))


def reference_validate(datum):
    if len(datum.roots) != len(datum.coroots):
        return "roots and coroots are not bijective (length mismatch)"
    seen = set()
    for k, (b, bv) in enumerate(zip(datum.roots, datum.coroots)):
        if len(b) != datum.rank or len(bv) != datum.rank:
            return f"root/coroot {k} has wrong length for rank {datum.rank}"
        if b in seen:
            return f"duplicate root {b}"
        seen.add(b)
        if datum.pairing(bv, b) != 2:
            return (f"pairing <coroot, root> != 2 for pair {k}: "
                    f"<{bv}, {b}> = {datum.pairing(bv, b)}")
    root_set = set(datum.roots)
    coroot_set = set(datum.coroots)
    pairing = [[sum(map(mul, bv, b)) for b in datum.roots]
               for bv in datum.coroots]
    for k, (a, av) in enumerate(zip(datum.roots, datum.coroots)):
        for b, m in zip(datum.roots, pairing[k]):
            if m:
                img = _reflect(b, m, a)
                if img not in root_set:
                    return (f"reflection at root {k} does not permute the "
                            f"roots (image of {b} is {img})")
        for bv, row in zip(datum.coroots, pairing):
            m = row[k]
            if m:
                img = _reflect(bv, m, av)
                if img not in coroot_set:
                    return (f"coreflection at root {k} does not permute the "
                            f"coroots (image of {bv} is {img})")
    return None


def _echelon(columns, b=None):
    """Gauss-Jordan elimination over Q of the matrix with the given
    columns (and ``b`` as one more): the reduced rows and the pivot
    column of each."""
    ncols = len(columns) + (b is not None)
    vectors = list(columns) + ([b] if b is not None else [])
    rows = [[Fraction(v[r]) for v in vectors]
            for r in range(len(vectors[0]) if vectors else 0)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def _rank(vectors):
    """Rank of a list of integer vectors, by elimination over Q."""
    return len(_echelon(vectors)[1])


def reference_coefficients(simple, b):
    """The integer coefficients of ``b`` in the linearly independent
    vectors ``simple``, or None when ``b`` is no integer combination of
    them."""
    rows, pivots = _echelon(simple, b)
    if len(simple) in pivots:
        return None
    coeffs = tuple(row[-1] for row in rows[:len(simple)])
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)


def reference_defect(based, axioms=reference_validate):
    """The full check of ``based``, with the root-datum axioms checked by
    ``axioms``."""
    datum = based.datum
    msg = axioms(datum)
    if msg is not None:
        return msg
    idx = based.simple_indices
    if len(set(idx)) != len(idx) or any(i < 0 or i >= datum.nroots
                                        for i in idx):
        return "simple_indices is not a subset of the root indices"
    simple = [datum.roots[i] for i in idx]
    if idx and _rank(simple) < len(idx):
        return "simple roots are linearly dependent"
    for b in datum.roots:
        coeffs = reference_coefficients(simple, b)
        if coeffs is None:
            return (f"root {b} is not an integer combination of the "
                    f"simple roots")
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            return (f"root {b} is neither positive nor negative "
                    f"(coeffs {coeffs})")
    return None
