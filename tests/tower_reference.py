"""The torsion tower as ``stabilized_h2`` once chose its level, kept as
the reference that the level read off Z must match.

The loop compares image orders over levels 1 to max_k: the map
image(k, k+1) -> image(k+1, k+2) lands on image(k, k+2), a subgroup of
image(k+1, k+2), so it is an isomorphism exactly when the three orders
agree.  Once two consecutive comparisons hold, at k and k + 1, the
answer is image(k, k+1) at level k + 1.  It raises when no such k fits
below max_k, which it does on inputs that have an answer (SL4 under a
trivial C2 at max_k 4, for one)."""

from discred.abgroup import torsion_inclusion
from discred.cohomology import (StabilizedH2, _canonical_basis,
                                _image_subgroup, cohomology_group)
from discred.errors import BudgetExceededError


def reference_stabilized_h2(gamma, Z, module_at, max_k=4,
                            budget=2_000_000) -> StabilizedH2:
    """``StabilizedH2`` of the comparison loop; ``tower_orders`` lists
    the levels the loop computed, 1 to k_used + 2."""
    n = gamma.order
    if n == 1:
        M = module_at(1)
        H = cohomology_group(M, 2, budget=budget)
        return StabilizedH2(H.group, 1, (), M, H, (H.order(),))

    Hs, Ms, images = {}, {}, {}

    def level(k):
        if k not in Hs:
            Ms[k] = module_at(n ** k)
            Hs[k] = cohomology_group(Ms[k], 2, budget=budget)
        return Hs[k]

    def image(a, b):
        if (a, b) not in images:
            images[a, b] = _image_subgroup(
                level(a), level(b), torsion_inclusion(Z, n ** a, n ** b))
        return images[a, b]

    def comparison_iso(k):
        return (image(k, k + 1)[0].order() == image(k, k + 2)[0].order()
                == image(k + 1, k + 2)[0].order())

    k = 1
    while k + 3 <= max_k:
        if comparison_iso(k) and comparison_iso(k + 1):
            struct, gen_coords = image(k, k + 1)
            H = level(k + 1)
            return StabilizedH2(struct, k + 1,
                                _canonical_basis(H, struct, gen_coords),
                                Ms[k + 1], H,
                                tuple(Hs[j].order() for j in sorted(Hs)))
        k += 1
    raise BudgetExceededError(
        f"torsion tower did not stabilize within max_k={max_k}")
