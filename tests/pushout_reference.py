"""Earlier forms of the extension-model path, kept as references.

``reference_pushout`` is ``extension.pushout`` as it was before E was
built on G x Gamma: the whole table of G x| E~ (E~ acting through its
projection), then ``quotient`` by the antidiagonal D; the direct build
must match it through its quotient map ``coset_of``.

``reference_quotient_mod_center`` builds the tables of (G/Z) x| Gamma
and E/Z and checks the natural map with ``hom_check``;
``reference_build_extension`` reduces every cochain value and checks
totality against the set of all pairs; ``reference_extract_cocycle``
multiplies through ``FiniteGroup.mul`` and ``inv``.  The extension
module's versions must give the same map, table, None or exception.
"""

from dataclasses import dataclass

from discred.cohomology import Cochain, GammaModule
from discred.errors import InternalCheckError, ValidationError
from discred.extension import ExtensionModel, PushoutChecks, cocycle_witness
from discred.grouptable import (FiniteGroup, hom_check, quotient,
                                semidirect_product, twisted_rows,
                                validate_table)


@dataclass(frozen=True)
class ReferencePushout:
    group: FiniteGroup
    semidirect: FiniteGroup
    coset_of: tuple       # semidirect index -> E index
    antidiagonal: frozenset
    embed_g: tuple
    embed_a: tuple
    project: tuple
    checks: PushoutChecks


def reference_pushout(G: FiniteGroup, z_embed, act,
                      model: ExtensionModel) -> ReferencePushout:
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
    for x in elems:
        for y in elems:
            if G.mul(zmap[x], zmap[y]) != zmap[A.add(x, y)]:
                raise ValidationError("z is not a homomorphism A -> G")
    for x in elems:
        zx = zmap[x]
        if any(G.mul(zx, s) != G.mul(s, zx) for s in G.generators):
            raise ValidationError(f"image of {x} is not central in G")

    Et = model.group
    act2 = tuple(tuple(act[model.project[e]]) for e in range(Et.order))
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
    return ReferencePushout(E, sd, tuple(coset_of), anti, embed_g, embed_a,
                            tuple(project), checks)


def reference_build_extension(M: GammaModule, c: Cochain) -> ExtensionModel:
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

    acted, add = M.index_tables
    cval = [[pos[vals[(g1, g2)]] for g2 in range(n)] for g1 in range(n)]
    table = twisted_rows(add, M.gamma.table, acted, cval)
    order = len(table)
    try:
        group = validate_table(table)
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


def reference_extract_cocycle(M: GammaModule, E: FiniteGroup, embed, project,
                              section) -> Cochain:
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


def reference_quotient_mod_center(G: FiniteGroup, z_embed, act, push):
    M_gamma = push.gamma
    zset = frozenset(z_embed)
    Gq, gcoset = quotient(G, zset)
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
    Eq, ecoset = quotient(push.group, zbar)
    ng = M_gamma.order
    f = [None] * Eq.order
    for x, q in enumerate(ecoset):
        g, h = divmod(x, ng)
        y = gcoset[g] * ng + h
        if f[q] is None:
            f[q] = y
        elif f[q] != y:
            return None
    if Eq.order != target.order or len(set(f)) != Eq.order:
        return None
    return tuple(f) if hom_check(f, Eq, target) else None
