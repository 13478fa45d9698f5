"""The abelian-group helpers that the tests use as tools and the package
does not need: the difference of two elements, the order of an element
and the composite of two homomorphisms, with the arithmetic the
package's methods of those names had."""

from math import gcd

from discred.abgroup import AbHom, FGAbelianGroup
from discred.errors import ValidationError


def sub(A: FGAbelianGroup, x, y):
    """x - y in A."""
    return A.reduce(tuple(a - b for a, b in zip(x, y)))


def element_order(A: FGAbelianGroup, x):
    """The order of the element x of A: the lcm of the orders of its
    coordinates."""
    n = 1
    for v, f in zip(A.reduce(x), A.invariant_factors):
        if v:
            n = n * (f // gcd(f, v)) // gcd(n, f // gcd(f, v))
    return n


def compose(f: AbHom, g: AbHom) -> AbHom:
    """f after g."""
    if g.target != f.source:
        raise ValidationError("hom composition mismatch")
    return AbHom(g.source, f.target, f.matrix @ g.matrix)
