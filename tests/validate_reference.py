"""``rootdatum.validate`` as it was before reflected roots and coroots
were found by their linear keys: every image with a nonzero pairing is
built as a tuple and looked up in a set of tuples.  Kept as the
reference that ``rootdatum.validate`` must match message for message."""

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
