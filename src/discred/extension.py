"""Explicit finite extension models and the pushout construction.

A 2-cocycle c on Gamma with values in a finite module A determines a
group law on A x Gamma; associativity of that law is literally the
cocycle identity, and the model carries the embedding of A, the
projection to Gamma, and the canonical section.  Pushing such a model
out along a central embedding A -> G of a finite stand-in for the
connected group produces the disconnected group E = (G x| E~)/D, with D
the antidiagonal copy of A.

Classification of the disconnected groups over a root datum lives here
too: one descriptor per class in the stabilized H^2 of the center.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abgroup import DiagonalizableGroup, FGAbelianGroup, torsion_at
from .autbrd import AdHom, center_action_at, presented_action
from .cohomology import (Cochain, CohomologyGroup, GammaModule, cochain_sum,
                         cohomology_group, gamma_module,
                         require_within_budget, stabilized_h2)
from .errors import InternalCheckError, ValidationError
from .grouptable import (FiniteGroup, find_isomorphism, hom_check, quotient,
                         semidirect_product, validate_table)
from .relations import RelationModule
from .rootdatum import (BasedRootDatum, CenterData, center_data,
                        require_valid_based)


def cocycle_witness(M: GammaModule, c: Cochain):
    """None when the total 2-cochain c satisfies the 2-cocycle identity,
    else a failing triple (g, s, h) with s in ``gamma.generators``: the
    first that Light's test finds (``RelationModule.cocycle_witness``).
    ValidationError when c is not total."""
    if c.degree != 2:
        raise ValidationError("expected a degree-2 cochain")
    return RelationModule(M, 2).cocycle_witness(c)


@dataclass(frozen=True)
class ExtensionModel:
    """Finite group on A x Gamma with the group law twisted by a
    normalized 2-cocycle."""

    module: GammaModule
    cocycle: Cochain
    group: FiniteGroup
    embed: tuple     # position in module.coeff.elements() -> group index
    project: tuple   # group index -> gamma element
    section: tuple   # gamma element -> group index (canonical section)


def build_extension(M: GammaModule, c: Cochain) -> ExtensionModel:
    """Group law on A x Gamma from a normalized 2-cocycle.

    (a1, g1)(a2, g2) = (a1 + g1.a2 + c(g1, g2), g1 g2).  Raises with the
    failing triple when c is not a cocycle (the table check: the law's
    associator is dc) and rejects non-normalized cochains, whose law has
    no identity at (0, 1).
    """
    ident = M.gamma.identity
    vals = {k: M.coeff.reduce(v) for k, v in c.values}
    if c.degree != 2:
        raise ValidationError("expected a degree-2 cochain")
    needed = {(g1, g2) for g1 in range(M.gamma.order)
              for g2 in range(M.gamma.order)}
    if set(vals) != needed:
        raise ValidationError("cochain is not total on Gamma x Gamma")
    if any(vals[k] != M.coeff.zero() for k in vals if ident in k):
        raise ValidationError("cochain is not normalized: c vanishes on "
                              "neither all (1, g) nor all (g, 1)")
    A = M.coeff
    elems = A.elements()
    pos = {e: i for i, e in enumerate(elems)}
    n = M.gamma.order

    def idx(a, g):
        return pos[a] * n + g

    # positions in elems: of a sum, of g.a, and of c(g1, g2)
    add = [[pos[A.add(x, y)] for y in elems] for x in elems]
    acted = [[pos[M.act(g, y)] for y in elems] for g in range(n)]
    cval = [[pos[vals[(g1, g2)]] for g2 in range(n)] for g1 in range(n)]
    table = []
    for add_p1 in add:
        for g1_row, acted_g1, c_g1 in zip(M.gamma.table, acted, cval):
            table.append(tuple([add[add_p1[q]][c] * n + g2
                                for q in acted_g1
                                for c, g2 in zip(c_g1, g1_row)]))
    order = len(table)
    try:
        group = validate_table(table, identity=idx(A.zero(), ident))
    except ValidationError:
        w = cocycle_witness(M, c)
        if w is None:
            raise InternalCheckError(
                "the twisted law of a 2-cocycle is not a group")
        raise ValidationError(
            f"not a 2-cocycle, so the twisted law is not associative; "
            f"witness triple {w}")
    embed = tuple(idx(e, ident) for e in elems)
    project = tuple(i % n for i in range(order))
    section = tuple(idx(A.zero(), g) for g in range(n))
    if not hom_check(project, group, M.gamma):
        raise InternalCheckError("projection of the model is not a homomorphism")
    return ExtensionModel(M, c, group, embed, project, section)


def extract_cocycle(M: GammaModule, E: FiniteGroup, embed, project,
                    section) -> Cochain:
    """The 2-cocycle of a section: c(g1, g2) = s(g1) s(g2) s(g1 g2)^{-1},
    read back through the embedding of A."""
    elems = M.coeff.elements()
    back = {e: elems[p] for p, e in enumerate(embed)}
    n = M.gamma.order
    if len(section) != n:
        raise ValidationError("section is not total on gamma")
    for g in range(n):
        if project[section[g]] != g:
            raise ValidationError(f"section does not split the projection at {g}")
    out = {}
    for g1 in range(n):
        for g2 in range(n):
            prod = E.mul(E.mul(section[g1], section[g2]),
                         E.inv(section[M.gamma.mul(g1, g2)]))
            if prod not in back:
                raise ValidationError(
                    "section defect leaves the embedded coefficient group")
            out[(g1, g2)] = back[prod]
    return Cochain.from_map(2, out)


def extensions_equivalent(M: GammaModule, c1: Cochain, c2: Cochain,
                          H: CohomologyGroup = None):
    """A 1-cochain b with c1 - c2 = db when the extensions are
    equivalent, else None."""
    if H is None:
        H = cohomology_group(M, 2)
    diff = cochain_sum(M.coeff, [(1, c1), (-1, c2)])
    return H.coboundary_witness(diff)


@dataclass(frozen=True)
class PushoutChecks:
    antidiagonal_is_normal: bool
    kernel_is_antidiagonal: bool
    order: int
    expected_order: int


@dataclass(frozen=True)
class PushoutModel:
    """E = (G x| E~)/D with D the antidiagonal copy of A."""

    group: FiniteGroup
    gamma: FiniteGroup
    semidirect: FiniteGroup
    coset_of: tuple       # semidirect index -> E index
    antidiagonal: frozenset
    embed_g: tuple        # G element -> E index
    embed_a: tuple        # coefficient position -> E index (through G)
    project: tuple        # E index -> gamma element
    checks: PushoutChecks


def pushout(G: FiniteGroup, z_embed, act, model: ExtensionModel) -> PushoutModel:
    """Push the extension model out along a central embedding z: A -> G.

    ``act[g]`` is the automorphism of G modeling Ad(g); the action of E~
    on G factors through the projection, which encodes the contract that
    the embedded copy of A acts trivially.  Requires z central, injective,
    and equivariant: act[g](z(a)) = z(g.a).
    """
    M = model.module
    if len(act) != M.gamma.order:
        raise ValidationError(
            f"act has {len(act)} maps, need one per gamma element "
            f"({M.gamma.order})")
    A = M.coeff
    elems = A.elements()
    if len(z_embed) != len(elems) or len(set(z_embed)) != len(elems):
        raise ValidationError("central embedding is not injective/total")
    zmap = {e: z_embed[i] for i, e in enumerate(elems)}
    addtab = [[zmap[A.add(x, y)] for y in elems] for x in elems]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if G.mul(zmap[x], zmap[y]) != addtab[i][j]:
                raise ValidationError("z is not a homomorphism A -> G")
    # the centralizer of z(x) is a subgroup: commuting with S suffices
    for x in elems:
        zx = zmap[x]
        if any(G.mul(zx, s) != G.mul(s, zx) for s in G.generators):
            raise ValidationError(f"image of {x} is not central in G")

    Et = model.group
    act2 = tuple(tuple(act[model.project[e]]) for e in range(Et.order))
    # checks each act[g] once; E~ element g = (0, g) is the first to carry
    # act[g], so a rejection names g
    sd = semidirect_product(G, Et, act2)
    for g in range(M.gamma.order):
        for x in elems:
            if act[g][zmap[x]] != zmap[M.act(g, x)]:
                raise ValidationError(
                    f"act[{g}] is not equivariant on the embedded center")
    ne = Et.order
    anti = frozenset(G.inv(zmap[e]) * ne + model.embed[i]
                     for i, e in enumerate(elems))
    try:
        E, coset_of = quotient(sd, anti)
    except ValidationError:
        raise InternalCheckError("antidiagonal is not a normal subgroup")
    ident_coset = coset_of[sd.identity]
    kernel_ok = frozenset(i for i in range(sd.order)
                          if coset_of[i] == ident_coset) == anti
    embed_g = tuple(coset_of[g * ne + Et.identity] for g in range(G.order))
    embed_a = tuple(embed_g[zmap[e]] for e in elems)
    project = [None] * E.order
    for i in range(sd.order):
        g = model.project[i % ne]
        if project[coset_of[i]] is None:
            project[coset_of[i]] = g
        elif project[coset_of[i]] != g:
            raise InternalCheckError("projection to gamma is not well-defined")
    if not hom_check(project, E, M.gamma):
        raise InternalCheckError("projection of the pushout is not a homomorphism")
    checks = PushoutChecks(antidiagonal_is_normal=True,
                           kernel_is_antidiagonal=kernel_ok,
                           order=E.order,
                           expected_order=G.order * M.gamma.order)
    return PushoutModel(E, M.gamma, sd, tuple(coset_of), anti, embed_g,
                        embed_a, tuple(project), checks)


def quotient_mod_center(G: FiniteGroup, z_embed, act, push: PushoutModel):
    """Isomorphism E/Z -> (G/Z) x| Gamma, or None.

    Z is the embedded copy of A; modding it out of the pushout must
    recover the semidirect product of the adjoint-side quotient with
    Gamma.
    """
    M_gamma = push.gamma
    zset = frozenset(z_embed)
    Gq, gcoset = quotient(G, zset)
    # the action descends to G/Z
    actq = []
    for g in range(M_gamma.order):
        img = [None] * Gq.order
        for x in range(G.order):
            t = gcoset[act[g][x]]
            if img[gcoset[x]] is None:
                img[gcoset[x]] = t
            elif img[gcoset[x]] != t:
                raise ValidationError("action does not descend to G/Z")
        actq.append(tuple(img))
    target = semidirect_product(Gq, M_gamma, tuple(actq))
    zbar = frozenset(push.embed_a)
    Eq, _ = quotient(push.group, zbar)
    return find_isomorphism(Eq, target)


@dataclass(frozen=True)
class DisconnectedGroupDescriptor:
    """One equivalence class of disconnected groups E with identity
    component prescribed by the root datum and component group Gamma."""

    coordinates: tuple
    cocycle: Cochain      # normalized representative, values in Z(G)[n^k]
    is_split: bool
    torsion_level: int


@dataclass(frozen=True)
class Classification:
    center: DiagonalizableGroup
    group: FGAbelianGroup          # stabilized H^2
    k_used: int
    torsion_level: int
    module: GammaModule            # coefficients Z(G)[n^k_used]
    descriptors: tuple
    tower_orders: tuple


def center_modules(cd: CenterData, ad: AdHom):
    """``module_at`` of the torsion tower Z(G)[m] under ad, for
    ``stabilized_h2``.  The action of each distinct ad image on X^*/ZR
    is presented once (``presented_action``, one T^{-1} per image, none
    when the levels have no coordinates); each level only reduces it
    (``center_action_at``), once per distinct image, and the result
    equals the module built from ``induced_center_action`` at every
    element."""
    gamma = ad.gamma
    keys = [im.matrix.entries for im in ad.images]
    has_coords = torsion_at(cd.group, gamma.order).ncoords > 0
    presented = {}
    for key, im in zip(keys, ad.images):
        if key not in presented:
            presented[key] = presented_action(cd, im) if has_coords else None

    def module_at(m):
        level = {key: center_action_at(cd, M, m)
                 for key, M in presented.items()}
        return gamma_module(gamma, torsion_at(cd.group, m),
                            [level[key] for key in keys])
    return module_at


def classify(based: BasedRootDatum, ad: AdHom, max_k: int = 4,
             budget: int = 2_000_000) -> Classification:
    """All classes of disconnected groups over the based root datum with
    component group gamma acting by ad.

    Each descriptor carries the canonical cocycle of its class: the
    lexicographically smallest normalized cocycle, for every input."""
    from .autbrd import require_valid_ad

    require_valid_based(based)
    gamma = ad.gamma
    cd = center_data(based.datum)
    Z = cd.group
    # the coefficient rank is the same at every tower level n^k, k >= 1
    require_within_budget(gamma, torsion_at(Z, gamma.order).ncoords, 2,
                          budget, canonical=True)
    require_valid_ad(based, ad)

    res = stabilized_h2(gamma, Z, center_modules(cd, ad), max_k=max_k,
                        budget=budget)
    H = res.cohomology
    level = gamma.order ** res.k_used
    descriptors = []
    for coords in itertools.product(
            *(range(f) for f in res.group.invariant_factors)):
        combo = [sum(c * gen[i]
                     for c, gen in zip(coords, res.generator_coords))
                 for i in range(len(H.group.invariant_factors))]
        descriptors.append(DisconnectedGroupDescriptor(
            coordinates=coords,
            cocycle=H.class_representative(combo),
            is_split=all(c == 0 for c in coords),
            torsion_level=level))
    return Classification(Z, res.group, res.k_used, level, res.module,
                          tuple(descriptors), res.tower_orders)
