"""Explicit finite extension models and the pushout construction.

A 2-cocycle c on Gamma with values in a finite module A determines a
group law on A x Gamma; associativity of that law is literally the
cocycle identity, and the model carries the embedding of A, the
projection to Gamma, and the canonical section.  Pushing such a model
out along a central embedding z: A -> G of a finite stand-in for the
connected group produces the disconnected group E = (G x| E~)/D, with D
the antidiagonal copy of A.  E is built directly on G x Gamma, its law
twisted by z(c), and the quotient map from G x| E~ is checked as a
homomorphism with kernel D; no table of G x| E~ is built.

Classification of the disconnected groups over a root datum lives here
too: one descriptor per class in the stabilized H^2 of the center.
``center_modules`` and ``classify`` import the root-datum layer
(``rootdatum``, ``autbrd``) when called, so the extension models load
neither; ``AdHom``, ``BasedRootDatum`` and ``CenterData`` in their
annotations are those modules' classes.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .abgroup import (DiagonalizableGroup, FGAbelianGroup, stable_level,
                      torsion_at)
from .cohomology import (Cochain, CohomologyGroup, GammaModule,
                         cohomology_group, gamma_module, stabilized_h2)
from .errors import BudgetExceededError, InternalCheckError, ValidationError
from .grouptable import (FiniteGroup, check_action, hom_check, is_normal,
                         quotient, semidirect_product, twisted_rows)
from .record import Record
from .relations import RelationModule, read_cochain, require_within_budget


def cocycle_witness(M: GammaModule, c: Cochain):
    """None when the total 2-cochain c satisfies the 2-cocycle identity,
    else a failing triple (g, s, h) with s in ``gamma.generators``: the
    first that Light's test finds (``RelationModule.cocycle_witness``).
    ValidationError when c is not total."""
    if c.degree != 2:
        raise ValidationError("expected a degree-2 cochain")
    return RelationModule(M, 2).cocycle_witness(c)


class ExtensionModel(Record):
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

    (a1, g1)(a2, g2) = (a1 + g1.a2 + c(g1, g2), g1 g2).  Rejects
    non-normalized cochains, then non-cocycles with the failing triple of
    ``cocycle_witness``; M checked its action when it was built.  Values
    are read by ``read_cochain``, so unreduced values and lists are
    accepted.  The ``twisted_rows`` table needs no check: c normalized
    makes (0, 1) a two-sided identity, the associator of the law is
    dc(g1, g2, g3) in the first coordinate, and (a, g) has the right
    inverse (-g^{-1}.(a + c(g, g^{-1})), g^{-1}); a finite monoid whose
    elements all have right inverses is a group, so each row's ``index``
    of the identity is its inverse.
    """
    if c.degree != 2:
        raise ValidationError("expected a degree-2 cochain")
    A = M.coeff
    elems = A.elements()
    pos = {e: i for i, e in enumerate(elems)}
    n = M.gamma.order
    vals = [pos[v] for v in read_cochain(M, 2, c)]
    cval = [vals[g * n:(g + 1) * n] for g in range(n)]
    ident, zero = M.gamma.identity, pos[A.zero()]
    if any(p != zero for p in cval[ident]) or any(
            row[ident] != zero for row in cval):
        raise ValidationError("cochain is not normalized: c vanishes on "
                              "neither all (1, g) nor all (g, 1)")
    w = cocycle_witness(M, c)
    if w is not None:
        raise ValidationError(
            f"not a 2-cocycle, so the twisted law is not associative; "
            f"witness triple {w}")

    # positions in elems: of g.a, of a sum, and of c(g1, g2)
    acted, add = M.index_tables
    table = twisted_rows(add, M.gamma.table, acted, cval)
    order = len(table)
    e = zero * n + ident
    group = FiniteGroup(order, table, e, tuple(row.index(e) for row in table))
    embed = tuple(p * n + ident for p in range(len(elems)))
    project = tuple(i % n for i in range(order))
    section = tuple(zero * n + g for g in range(n))
    if not hom_check(project, group, M.gamma):
        raise InternalCheckError("projection of the model is not a homomorphism")
    return ExtensionModel(M, c, group, embed, project, section)


def extract_cocycle(M: GammaModule, E: FiniteGroup, embed, project,
                    section) -> Cochain:
    """The 2-cocycle of a section: c(g1, g2) = s(g1) s(g2) s(g1 g2)^{-1},
    read back through the embedding of A.  ValidationError when the
    embedding, the projection or the section is not total or has an
    index outside E or Gamma, when the embedding is not injective, or
    when the section does not split."""
    elems = M.coeff.elements()
    if len(embed) != len(elems):
        raise ValidationError("embed is not total on the coefficient group")
    if any(not 0 <= x < E.order for x in embed):
        raise ValidationError("embed has an index outside E")
    back = {e: elems[p] for p, e in enumerate(embed)}
    if len(back) != len(elems):
        raise ValidationError("embed is not injective")
    n = M.gamma.order
    if len(project) != E.order:
        raise ValidationError("project is not total on E")
    if any(not 0 <= x < n for x in project):
        raise ValidationError("project has an index outside gamma")
    if len(section) != n:
        raise ValidationError("section is not total on gamma")
    if any(not 0 <= x < E.order for x in section):
        raise ValidationError("section has an index outside E")
    for g in range(n):
        if project[section[g]] != g:
            raise ValidationError(f"section does not split the projection at {g}")
    table = E.table
    # s(g)^{-1} for each g
    inv_sec = [E.inverse[x] for x in section]
    out = []    # in product order: g1, then g2
    for g1, g_row in enumerate(M.gamma.table):
        s1_row = table[section[g1]]
        for g12, s2 in zip(g_row, section):
            prod = table[s1_row[s2]][inv_sec[g12]]
            if prod not in back:
                raise ValidationError(
                    "section defect leaves the embedded coefficient group")
            out.append(back[prod])
    return Cochain(2, tuple(out))


def extensions_equivalent(M: GammaModule, c1: Cochain, c2: Cochain,
                          H: CohomologyGroup = None):
    """A 1-cochain b with c1 - c2 = db when the extensions are
    equivalent, else None; ValidationError when ``H`` is given and is
    not H^2 of M, or when the reader (``relations.read_cochain``)
    rejects c1 or c2."""
    if H is None:
        H = cohomology_group(M, 2)
    elif H.module != M or H.degree != 2:
        raise ValidationError("H is not H^2 of the module M")
    diff = tuple(tuple(x - y for x, y in zip(u, v)) for u, v in
                 zip(read_cochain(M, 2, c1), read_cochain(M, 2, c2)))
    return H.coboundary_witness(Cochain(2, diff))


class PushoutChecks(Record):
    """The contracts a pushout checked.  The antidiagonal D is normal
    as the kernel of the checked homomorphism G x| E~ -> E, so
    ``antidiagonal_is_normal`` holds exactly when
    ``kernel_is_antidiagonal`` does."""

    antidiagonal_is_normal: bool
    kernel_is_antidiagonal: bool
    order: int
    expected_order: int


class PushoutModel(Record):
    """E = (G x| E~)/D with D the antidiagonal copy of A, built on
    G x Gamma: (g, gamma) at index g * |Gamma| + gamma.

    ``coset_of`` maps G x| E~ (index g * |E~| + e) onto E; the table of
    G x| E~ itself is built only when ``semidirect`` is read.  Nothing in
    the package reads ``coset_of`` or ``antidiagonal``: they are the
    construction's record, which the tests check against a reference.
    """

    group: FiniteGroup
    gamma: FiniteGroup
    coset_of: tuple       # semidirect index -> E index
    antidiagonal: frozenset
    embed_g: tuple        # G element -> E index
    embed_a: tuple        # coefficient position -> E index (through G)
    project: tuple        # E index -> gamma element
    checks: PushoutChecks
    connected: FiniteGroup
    act: tuple            # gamma element -> automorphism of G
    extension: ExtensionModel

    @cached_property
    def semidirect(self) -> FiniteGroup:
        """G x| E~ with E~ acting through its projection to Gamma, the
        domain of ``coset_of``.  Nothing in the package reads it; the
        benchmark's tracer sizes each pushout by its order."""
        model = self.extension
        return semidirect_product(self.connected, model.group,
                                  [self.act[h] for h in model.project])


def pushout(G: FiniteGroup, z_embed, act, model: ExtensionModel) -> PushoutModel:
    """Push the extension model out along a central embedding z: A -> G.

    ``act[g]`` is the automorphism of G modeling Ad(g); the action of E~
    on G factors through the projection, which encodes the contract that
    the embedded copy of A acts trivially.  Requires z central, injective,
    and equivariant: act[g](z(a)) = z(g.a).

    E is built directly on G x Gamma by one ``twisted_rows`` call, with
    the law (g1, h1)(g2, h2) = (g1 act[h1](g2) z(c(h1, h2)), h1 h2), c the
    cocycle of the model read off s(h1) s(h2) = (c(h1, h2), h1 h2).  The
    law is associative: both (x1 x2) x3 and x1 (x2 x3) have second
    coordinate h1 h2 h3, and the first coordinates are

        g1 act[h1](g2) z(c(h1, h2)) act[h1 h2](g3) z(c(h1 h2, h3)),
        g1 act[h1](g2 act[h2](g3) z(c(h2, h3))) z(c(h1, h2 h3)).

    act is a homomorphism Gamma -> Aut(G) and z is equivariant, so the
    second is g1 act[h1](g2) act[h1 h2](g3) z(h1.c(h2, h3)) z(c(h1, h2 h3));
    z(c(h1, h2)) is central, so the first is
    g1 act[h1](g2) act[h1 h2](g3) z(c(h1, h2)) z(c(h1 h2, h3)); z is a
    homomorphism and c a cocycle (``build_extension`` checked c), so
    the two agree, and (1, 1) is the identity as c is normalized.  Each
    fact is checked here or when the model was built; ``quotient``
    likewise builds its table unchecked.

    The quotient map phi(g, (a, h)) = (g z(a), h) is computed
    arithmetically and checked to be a homomorphism G x| E~ -> E on the
    generators (s, 1) and (1, t), with products read pointwise; it is
    onto, as phi(g, (0, h)) = (g, h), so E = (G x| E~)/ker phi, and
    ker phi is compared with D.
    """
    M = model.module
    gamma = M.gamma
    n = gamma.order
    if len(act) != n:
        raise ValidationError(
            f"act has {len(act)} maps, need one per gamma element ({n})")
    elems = M.coeff.elements()
    if len(z_embed) != len(elems) or len(set(z_embed)) != len(elems):
        raise ValidationError("central embedding is not injective/total")
    if any(not 0 <= z < G.order for z in z_embed):
        raise ValidationError("z_embed has an index outside G")
    acted, add = M.index_tables
    for zx, row in zip(z_embed, add):
        zx_row = G.table[zx]
        if any(zx_row[zy] != z_embed[k] for zy, k in zip(z_embed, row)):
            raise ValidationError("z is not a homomorphism A -> G")
    # the centralizer of z(x) is a subgroup: commuting with S suffices
    for x, zx in zip(elems, z_embed):
        if any(G.mul(zx, s) != G.mul(s, zx) for s in G.generators):
            raise ValidationError(f"image of {x} is not central in G")
    act = check_action(G, gamma, act)
    for g, row in enumerate(acted):
        if any(act[g][zy] != z_embed[k] for zy, k in zip(z_embed, row)):
            raise ValidationError(
                f"act[{g}] is not equivariant on the embedded center")

    # E~ element (a, h) sits at pos(a) * |Gamma| + h (``build_extension``)
    Et, sec = model.group, model.section
    ne = Et.order
    zc = [[z_embed[Et.table[s1][s2] // n] for s2 in sec] for s1 in sec]
    table = twisted_rows(G.table, gamma.table, act, zc)
    ident = G.identity * n + gamma.identity
    zh = [(z_embed[e // n], e % n) for e in range(ne)]
    coset_of = tuple([g_row[za] * n + h for g_row in G.table for za, h in zh])

    # phi(1) = 1 and phi(x y) = phi(x) phi(y) for every x and every
    # generator y of G x| E~ make phi a homomorphism (``hom_check``)
    if coset_of[G.identity * ne + Et.identity] != ident:
        raise InternalCheckError("the pushout map does not fix the identity")

    def respects(y, xy):
        fy = coset_of[y]
        if xy != [table[fx][fy] for fx in coset_of]:
            raise InternalCheckError("the pushout map is not a homomorphism")
    for s in G.generators:
        # (g, e)(s, 1) = (g act[pi(e)](s), e)
        s_by_e = [act[h][s] for h in model.project]
        respects(s * ne + Et.identity,
                 [coset_of[g_row[se] * ne + e] for g_row in G.table
                  for e, se in enumerate(s_by_e)])
    for t in Et.generators:
        # (g, e)(1, t) = (g, e t)
        et = [e_row[t] for e_row in Et.table]
        respects(G.identity * ne + t,
                 [coset_of[base + x] for base in range(0, G.order * ne, ne)
                  for x in et])
    E = FiniteGroup(len(table), table, ident,
                    tuple(row.index(ident) for row in table))

    anti = frozenset(G.inv(zx) * ne + e
                     for zx, e in zip(z_embed, model.embed))
    kernel_ok = frozenset(
        i for i, q in enumerate(coset_of) if q == ident) == anti
    embed_g = tuple(g * n + gamma.identity for g in range(G.order))
    embed_a = tuple(embed_g[z] for z in z_embed)
    project = tuple(i % n for i in range(E.order))
    if not hom_check(project, E, gamma):
        raise InternalCheckError("projection of the pushout is not a homomorphism")
    checks = PushoutChecks(antidiagonal_is_normal=kernel_ok,
                           kernel_is_antidiagonal=kernel_ok,
                           order=E.order,
                           expected_order=G.order * n)
    return PushoutModel(E, gamma, coset_of, anti, embed_g, embed_a, project,
                        checks, G, act, model)


def quotient_mod_center(G: FiniteGroup, z_embed, act, push: PushoutModel):
    """The natural isomorphism E/Z -> (G/Z) x| Gamma, or None.

    Z is the embedded copy of A.  phi(g, gamma) = (gZ, gamma) sends E
    index g * |Gamma| + gamma to gZ * |Gamma| + gamma, with G/Z numbered
    by ``quotient`` and Gamma acting by act mod Z.  phi is checked to be
    a homomorphism on ``E.generators``, target products read off the
    tables of G/Z and Gamma and act mod Z, so no table of the target or
    of E/Z is built; then its kernel is compared with Z.  phi is onto,
    so it induces an isomorphism E/Z -> target, and that map is the
    identity of indices: ``quotient`` numbers cosets in the order of
    their least elements, the coset gZ of G by the rank of min gZ, and
    the coset of (g, gamma) in E, the fibre {(gz, gamma) : z in Z} of
    phi, has least element min gZ * |Gamma| + gamma, so the cosets of E
    come in the order of the pairs (gZ, gamma).  When the check fails
    the result is None, or a ValidationError when Z is not normal in E,
    as ``quotient`` of E by Z would raise.  A G other than the pushout's
    connected group, an index of z_embed outside G and an act[g] that is
    no permutation of G raise ValidationError before any work.
    """
    connected = push.connected
    if G.order != connected.order:
        raise ValidationError(f"G has order {G.order}, the pushout's "
                              f"connected group {connected.order}")
    if G is not connected and G.table != connected.table:
        raise ValidationError("G is not the pushout's connected group: "
                              "their tables differ")
    if any(not 0 <= z < G.order for z in z_embed):
        raise ValidationError("z_embed has an index outside G")
    gamma = push.gamma
    n = gamma.order
    if len(act) != n:
        raise ValidationError(
            f"act has {len(act)} maps, need one per gamma element ({n})")
    elements = list(range(G.order))
    for g, a in enumerate(act):
        if sorted(a) != elements:
            raise ValidationError(f"act[{g}] is not an automorphism")
    Gq, gcoset = quotient(G, frozenset(z_embed))
    # the action descends to G/Z
    actq = []
    for g in range(n):
        img = [None] * Gq.order
        for x in range(G.order):
            t = gcoset[act[g][x]]
            if img[gcoset[x]] is None:
                img[gcoset[x]] = t
            elif img[gcoset[x]] != t:
                raise ValidationError("action does not descend to G/Z")
        actq.append(tuple(img))
    actq = check_action(Gq, gamma, actq)

    E = push.group
    phi = tuple(q * n + h for q in gcoset for h in range(n))
    target_id = Gq.identity * n + gamma.identity

    def respects(s):
        """phi(x s) = phi(x) phi(s) for every x, the target product
        (q1, h1)(qs, hs) = (q1 actq[h1](qs), h1 hs) read off the tables."""
        qs, hs = divmod(phi[s], n)
        by_h = [(a[qs], h_row[hs]) for a, h_row in zip(actq, gamma.table)]
        times_s = [q_row[aq] * n + h for q_row in Gq.table for aq, h in by_h]
        return [phi[row[s]] for row in E.table] == [times_s[p] for p in phi]
    # phi(1) = 1, E's identity being (1, 1), so this makes phi a
    # homomorphism by the argument of ``hom_check``
    ok = all(respects(s) for s in E.generators)
    zbar = frozenset(push.embed_a)
    if ok and frozenset(
            x for x, p in enumerate(phi) if p == target_id) == zbar:
        return tuple(range(Gq.order * n))
    if not is_normal(E, zbar):
        raise ValidationError("subset is not a normal subgroup")
    return None


class DisconnectedGroupDescriptor(Record):
    """One equivalence class of disconnected groups E with identity
    component prescribed by the root datum and component group Gamma."""

    coordinates: tuple
    cocycle: Cochain      # normalized representative, values in Z(G)[n^k]
    is_split: bool
    torsion_level: int


class Classification(Record):
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
    from .autbrd import center_action_at, presented_action

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
    from .rootdatum import center_data, require_valid_based

    require_valid_based(based)
    gamma = ad.gamma
    cd = center_data(based.datum)
    Z = cd.group
    # the coefficient rank is the same at every tower level n^k, k >= 1
    require_within_budget(gamma, torsion_at(Z, gamma.order).ncoords, 2,
                          budget, canonical=True)
    # the report lists one order per level 1 to max(max_k, k_used)
    levels = (1 if gamma.order == 1 else
              max(max_k, stable_level(Z, gamma.order)))
    if levels > budget:
        raise BudgetExceededError(
            f"tower_orders length {levels} exceeds budget {budget}")
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
