"""``rootdatum.positive_systems`` as it was before each w.R+ was keyed
by the sorted ranks of its root indices: every image is built as a
sorted tuple of root vectors and keyed by it.  Kept as the reference
that ``positive_systems`` must match system for system, index for index
and error for error."""

from discred.errors import InternalCheckError
from discred.rootdatum import (PositiveSystem, _positive_indices,
                               require_valid_based)


def reference_positive_systems(weyl, based):
    require_valid_based(based)
    pos = _positive_indices(based)
    roots = based.datum.roots
    systems = {}
    for i, w in enumerate(weyl.permutations):
        img = tuple(sorted(roots[w[j]] for j in pos))
        if img in systems:
            raise InternalCheckError(
                "two Weyl elements map the base system to the same positive "
                "system (simple transitivity fails)")
        systems[img] = i
    return [PositiveSystem(s, weyl, systems[s]) for s in sorted(systems)]
