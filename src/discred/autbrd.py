"""Automorphisms of a based root datum and their action on the center.

A lattice automorphism T counts when it permutes the simple roots and
its transpose permutes the simple coroots; these are exactly the
distinguished automorphisms, and the outer automorphism classes of the
group.  Since T preserves the root lattice it descends to X^*/ZR and
hence acts on the center; we transport that action through the recorded
SNF presentation, with the left-action convention that T acts on
characters by precomposition with T^{-1}.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, prod

from .abgroup import AbHom, torsion_at
from .errors import InternalCheckError, ValidationError
from .exactlin import IntMatrix, inverse_unimodular, smith_normal_form
from .grouptable import FiniteGroup, first_failing_pair
from .record import Record, field
from .rootdatum import (BasedRootDatum, CenterData, cartan_pairing,
                        simple_matrix)


class BRDAutomorphism(Record):
    matrix: IntMatrix
    simple_root_permutation: tuple  # position p of Pi -> position of image

    def compose(self, other: "BRDAutomorphism") -> "BRDAutomorphism":
        perm = tuple(self.simple_root_permutation[p]
                     for p in other.simple_root_permutation)
        return BRDAutomorphism(self.matrix @ other.matrix, perm)

    @cached_property
    def inverse_matrix(self) -> IntMatrix:
        """T^{-1}, computed on first use and kept with the automorphism,
        so every tower level reuses it."""
        return inverse_unimodular(self.matrix)

    @classmethod
    def identity(cls, based: BasedRootDatum):
        k = len(based.simple_indices)
        return cls(IntMatrix.identity(based.datum.rank), tuple(range(k)))


class BrdCheck(Record):
    ok: bool
    witness: str | None
    permutation: tuple | None


def is_brd_automorphism(based: BasedRootDatum, T: IntMatrix) -> BrdCheck:
    """Both conditions: T permutes the simple roots, and the transpose of
    T permutes the simple coroots (compatibly)."""
    rank = based.datum.rank
    if T.rows != rank or T.cols != rank:
        raise ValidationError("automorphism matrix has wrong shape")
    # unimodular exactly when every Smith invariant is 1; their product
    # is |det T|
    diagonal = smith_normal_form(T, keep=()).diagonal
    if any(d != 1 for d in diagonal):
        return BrdCheck(False, f"matrix is not unimodular "
                               f"(|det| {prod(diagonal)})", None)
    simple = list(based.simple_roots)
    perm = []
    for p, a in enumerate(simple):
        img = T.apply(a)
        if img not in simple:
            return BrdCheck(False,
                            f"T maps simple root {a} to {img}, not a simple root",
                            None)
        perm.append(simple.index(img))
    if sorted(perm) != list(range(len(simple))):
        return BrdCheck(False, "T is not injective on the simple roots", None)
    Tt = T.transpose()
    cosimple = list(based.simple_coroots)
    for p, av in enumerate(cosimple):
        img = Tt.apply(av)
        if img not in cosimple:
            return BrdCheck(False,
                            f"transpose of T maps simple coroot {av} to {img}, "
                            f"not a simple coroot", None)
        # compatibility: t(T) must carry the coroot of T(alpha) back to
        # the coroot of alpha
        if img != cosimple[perm.index(p)] and len(set(cosimple)) == len(cosimple):
            return BrdCheck(False,
                            f"coroot permutation incompatible with the root "
                            f"permutation at position {p}", None)
    return BrdCheck(True, None, tuple(perm))


def brd_automorphism(based: BasedRootDatum, T: IntMatrix) -> BRDAutomorphism:
    chk = is_brd_automorphism(based, T)
    if not chk.ok:
        raise ValidationError(f"not a based-root-datum automorphism: {chk.witness}")
    return BRDAutomorphism(T, chk.permutation)


class DiagramAutomorphisms(Record):
    automorphisms: tuple          # BRDAutomorphism, lexicographic in permutation
    non_lifting: tuple            # diagram symmetries with no lattice lift


def diagram_automorphisms(based: BasedRootDatum) -> DiagramAutomorphisms:
    """All lattice automorphisms induced by Dynkin-diagram symmetries.

    Requires a semisimple datum (simple roots spanning a finite-index
    sublattice); for a datum with torus directions the automorphism group
    is infinite and the caller must supply the images explicitly.
    """
    k = len(based.simple_indices)
    rank = based.datum.rank
    if k != rank:
        raise ValidationError(
            "datum is not semisimple: diagram automorphisms are only "
            "enumerable when the simple roots span a finite-index sublattice")
    pairings = [[cartan_pairing(based, i, j) for j in range(k)] for i in range(k)]
    lift = smith_normal_form(simple_matrix(based).transpose())
    autos = []
    non_lifting = []
    for sigma in itertools.permutations(range(k)):
        if any(pairings[sigma[i]][sigma[j]] != pairings[i][j]
               for i in range(k) for j in range(k)):
            continue
        # lift: T @ S = S_sigma, solved row-by-row as S^t @ T^t = S_sigma^t
        target = [based.simple_roots[sigma[j]] for j in range(k)]
        t_rows = []
        for i in range(rank):
            rhs = tuple(target[j][i] for j in range(k))
            row = lift.solve(rhs)
            if row is None:
                t_rows = None
                break
            t_rows.append(row)
        if t_rows is None:
            non_lifting.append(sigma)
            continue
        T = IntMatrix.from_rows(t_rows, cols=rank)
        chk = is_brd_automorphism(based, T)
        if chk.ok:
            autos.append(BRDAutomorphism(T, chk.permutation))
        else:
            non_lifting.append(sigma)
    return DiagramAutomorphisms(tuple(autos), tuple(non_lifting))


def presented_action(cd: CenterData, T: BRDAutomorphism) -> IntMatrix:
    """The level-independent part of ``induced_center_action``: the
    transpose of the presented matrix of T^{-1} on Q = X^*/ZR."""
    return (cd.to_presented @ T.inverse_matrix @ cd.from_presented).transpose()


def center_action_at(cd: CenterData, M: IntMatrix | None, n: int) -> AbHom:
    """The per-level part of ``induced_center_action``: the automorphism
    of Z(G)[n] that M = ``presented_action(cd, T)`` induces.  M is read
    only when Z(G)[n] has coordinates, so None stands in for it when
    Z(G)[n] is trivial."""
    tor = torsion_at(cd.group, n)
    # character order per presented coordinate
    g = [gcd(d, n) if d >= 1 else n for d in cd.moduli]
    active = [i for i, gi in enumerate(g) if gi > 1]
    if len(active) != tor.ncoords:
        raise InternalCheckError("torsion coordinate bookkeeping mismatch")
    rows = []
    for i in active:
        row = []
        for j in active:
            e = (M[i, j] * (n // g[j])) % n
            if e % (n // g[i]):
                raise InternalCheckError(
                    "induced action does not preserve the torsion subgroup")
            row.append((e // (n // g[i])) % g[i])
        rows.append(tuple(row))
    return AbHom(tor, tor,
                 IntMatrix._of(tor.ncoords, tor.ncoords, tuple(rows)))


def induced_center_action(cd: CenterData, T: BRDAutomorphism, n: int) -> AbHom:
    """Automorphism of Z(G)[n] induced by the distinguished automorphism T.

    T preserves ZR, so it descends to Q = X^*/ZR; characters transform by
    precomposition with the inverse.  Writing characters of order dividing
    n as Z/n-combinations in the presented coordinates, the action matrix
    is the transpose of the presented matrix of T^{-1}
    (``presented_action``, the same at every n), rescaled onto the
    per-coordinate character orders (``center_action_at``).  T^{-1} and
    the presented matrix are formed only when Z(G)[n] has coordinates.
    """
    M = presented_action(cd, T) if torsion_at(cd.group, n).ncoords else None
    return center_action_at(cd, M, n)


class AdHom(Record):
    """Homomorphism from a finite group into the distinguished
    automorphisms, one image per group element.

    ``checked_against`` is the based datum on which every image is known
    to be a distinguished automorphism, or None.  The constructors below
    set it to the datum they checked their images on, and
    ``validate_ad`` then skips its per-image check for that datum only.
    An ad built by hand leaves it None and has every image checked."""
    gamma: FiniteGroup
    images: tuple  # BRDAutomorphism per element index
    checked_against: BasedRootDatum | None = field(default=None,
                                                   compare=False)


def trivial_ad(based: BasedRootDatum, gamma: FiniteGroup) -> AdHom:
    ident = BRDAutomorphism.identity(based)
    return AdHom(gamma, tuple(ident for _ in range(gamma.order)), based)


def ad_from_generator_images(based: BasedRootDatum, gamma: FiniteGroup,
                             generator_matrices) -> AdHom:
    """Extend one image per construction generator along the closure tree
    of ``gamma``: an element's image is its parent's times its edge's."""
    if gamma.closure_tree is None:
        raise ValidationError(
            "gamma carries no closure tree; supply one matrix per element")
    if len(generator_matrices) != gamma.generator_count:
        raise ValidationError(
            f"need one matrix per gamma generator ({gamma.generator_count}), "
            f"got {len(generator_matrices)}")
    gens = [brd_automorphism(based, IntMatrix.from_rows(m, cols=based.datum.rank))
            for m in generator_matrices]
    images = [BRDAutomorphism.identity(based)]
    for parent, gi in gamma.closure_tree[1:]:
        images.append(images[parent].compose(gens[gi]))
    return AdHom(gamma, tuple(images), based)


def ad_from_element_images(based: BasedRootDatum, gamma: FiniteGroup,
                           matrices) -> AdHom:
    if len(matrices) != gamma.order:
        raise ValidationError("need exactly one matrix per gamma element")
    images = tuple(brd_automorphism(based,
                                    IntMatrix.from_rows(m, cols=based.datum.rank))
                   for m in matrices)
    return AdHom(gamma, images, based)


def validate_ad(based: BasedRootDatum, ad: AdHom):
    """None when ad is a homomorphism into the distinguished
    automorphisms, else a message with a witness.

    The homomorphism property is checked at the pairs (x, s) with s in
    the generating set S of ``gamma.generators``: every y is a word in S,
    and if Ad(x)Ad(w) = Ad(xw) for all x then
    Ad(x)Ad(ws) = Ad(x)Ad(w)Ad(s) = Ad(xw)Ad(s) = Ad(xws), so with
    Ad(1) = 1 it holds for all x and y by induction on the length of
    y.  Each distinct image matrix is checked once, and so is each
    distinct triple of them (``first_failing_pair``); a rejected one is
    named by the first element, or the first pair, that carries it.

    The images of an ad with ``checked_against == based`` are not
    checked again one by one: its constructor checked them on this
    datum.  Each image of ``ad_from_element_images``, and each generator
    image of ``ad_from_generator_images``, passed ``brd_automorphism``;
    ``trivial_ad``'s images are the identity.  The other images of
    ``ad_from_generator_images`` are products of generator images, and a
    product of distinguished automorphisms is one: T1 T2 is unimodular
    and permutes the simple roots, and (T1 T2)^t = T2^t T1^t carries
    the coroot of T1 T2(alpha) to the coroot of T2(alpha), and that to
    the coroot of alpha.  The identity and homomorphism checks, which
    read how the images fit ``gamma``, always run."""
    gamma = ad.gamma
    if len(ad.images) != gamma.order:
        return "images are not total on gamma"
    if ad.checked_against != based:
        checked = set()
        for i, im in enumerate(ad.images):
            if im.matrix not in checked:
                chk = is_brd_automorphism(based, im.matrix)
                if not chk.ok:
                    return f"image of element {i} fails: {chk.witness}"
                checked.add(im.matrix)
    ident = ad.images[gamma.identity].matrix
    if ident.entries != IntMatrix.identity(based.datum.rank).entries:
        return "image of the identity is not the identity matrix"
    bad = first_failing_pair(gamma, [im.matrix for im in ad.images],
                             lambda a, b, ab: (a @ b).entries == ab.entries)
    if bad is not None:
        return (f"homomorphism property fails at pair {bad}: "
                f"Ad(x)Ad(y) != Ad(xy)")
    return None


def require_valid_ad(based: BasedRootDatum, ad: AdHom):
    msg = validate_ad(based, ad)
    if msg is not None:
        raise ValidationError(msg)
