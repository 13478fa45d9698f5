"""``extension.pushout`` as it was before E was built on G x Gamma:
the whole table of G x| E~ (E~ acting through its projection), then
``quotient`` by the antidiagonal D.  Kept as the reference that the
direct build must match through its quotient map ``coset_of``."""

from dataclasses import dataclass

from discred.errors import InternalCheckError, ValidationError
from discred.extension import ExtensionModel, PushoutChecks
from discred.grouptable import (FiniteGroup, hom_check, quotient,
                                semidirect_product)


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
