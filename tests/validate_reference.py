"""``rootdatum.validate`` as it was before reflected roots and coroots
were found by their linear keys: every image with a nonzero pairing is
built as a tuple and looked up in a set of tuples.  Kept as the
reference that ``rootdatum.validate`` must match message for message.

``reference_defect`` is ``BasedRootDatum.defect`` as it was before a
datum closed by ``standard.from_simple`` skipped ``validate``: the full
axiom check on every datum, then the simple indices, the rank of the
simple roots and the signs of every root's coefficients."""

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


def _rank(vectors):
    """Rank of a list of integer vectors, by elimination over Q."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_defect(based):
    datum = based.datum
    msg = reference_validate(datum)
    if msg is not None:
        return msg
    idx = based.simple_indices
    if len(set(idx)) != len(idx) or any(i < 0 or i >= datum.nroots
                                        for i in idx):
        return "simple_indices is not a subset of the root indices"
    if idx and _rank([datum.roots[i] for i in idx]) < len(idx):
        return "simple roots are linearly dependent"
    for b, coeffs in zip(datum.roots, based.simple_coefficients):
        if coeffs is None:
            return (f"root {b} is not an integer combination of the "
                    f"simple roots")
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            return (f"root {b} is neither positive nor negative "
                    f"(coeffs {coeffs})")
    return None
