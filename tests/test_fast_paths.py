"""``quotient_mod_center``, ``build_extension`` and ``extract_cocycle``
against the versions they replaced (tests/pushout_reference.py): on
every class of Z/2 and Z/4 over C2 to C8 and S3, under the trivial
action and inversion through the sign, and on tampered inputs, both
give the same map, table, None or exception, except for a G other than
the pushout's connected group: ``quotient_mod_center`` names it, where
the reference returned None or raised IndexError; and except for a
cochain that is not total: ``Cochain.from_map`` rejects its map, naming
the first missing tuple over the indices it was given, where the
reference's ``build_extension`` named none."""

import functools
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from discred import extension, grouptable
from discred.cohomology import Cochain, cohomology_group
from discred.errors import ValidationError
from discred.extension import (build_extension, extract_cocycle, pushout,
                               quotient_mod_center)
from discred.grouptable import cyclic

from pushout_reference import (reference_build_extension,
                               reference_extract_cocycle,
                               reference_quotient_mod_center)
from test_extension import (_cyclic_central, _dihedral, _moved, _s3, _sign,
                            _sign_module, counted, sl2_like_setup)

GAMMAS = [f"C{n}" for n in range(2, 9)] + ["S3"]


@functools.lru_cache(maxsize=None)
def _module(gamma_name, a, inv):
    """(M, H^2 of M, every class coordinate) of Z/a over gamma."""
    gamma = _s3() if gamma_name == "S3" else cyclic(int(gamma_name[1:]))
    M = _sign_module(gamma, a, inv)
    H = cohomology_group(M, 2)
    classes = list(itertools.product(
        *(range(f) for f in H.group.invariant_factors)))
    return M, H, classes


@functools.lru_cache(maxsize=None)
def _connected(k, a):
    """G = C_(k a), or the dihedral group of order 8 for k = 0 (a = 2,
    its center)."""
    return _dihedral(8) if k == 0 else cyclic(k * a)


def _act(G, gamma, inv):
    """act[g]: inversion of the abelian G where the sign is -1, else the
    identity map."""
    return tuple(tuple(G.inv(x) for x in range(G.order))
                 if inv and _sign(gamma, g) < 0 else tuple(range(G.order))
                 for g in range(gamma.order))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message it raises."""
    try:
        return ("value", fn(*args))
    except Exception as err:   # every outcome is compared
        return ("raise", type(err), str(err))


def _same(fast, reference, *args):
    got, want = outcome(fast, *args), outcome(reference, *args)
    assert got == want
    return got


def _check_quotients(G, z, act, push):
    """The fast and the reference ``quotient_mod_center`` agree, and an
    isomorphism is the identity of indices."""
    got = _same(quotient_mod_center, reference_quotient_mod_center,
                G, z, act, push)
    if got[0] == "value" and got[1] is not None:
        assert got[1] == tuple(range(len(got[1])))
    return got


class TestEveryClass:
    @pytest.mark.parametrize("gamma_name", GAMMAS)
    @pytest.mark.parametrize("a", [2, 4])
    @pytest.mark.parametrize("inv", [False, True])
    def test_every_class_agrees(self, gamma_name, a, inv):
        """Each class representative, pushed into C_2a, gives the same
        model, cocycle and isomorphism E/Z -> (G/Z) x| Gamma."""
        M, H, classes = _module(gamma_name, a, inv)
        G = _connected(2, a)
        z, act = _cyclic_central(G, a), _act(G, M.gamma, inv)
        for coords in classes:
            c = H.class_representative(coords)
            _, model = _same(build_extension, reference_build_extension, M, c)
            args = (M, model.group, model.embed, model.project, model.section)
            _, back = _same(extract_cocycle, reference_extract_cocycle, *args)
            assert back.as_dict() == c.as_dict()
            push = pushout(G, z, act, model)
            iso = _check_quotients(G, z, act, push)
            assert iso[0] == "value" and iso[1] is not None


COCHAIN_TAMPERS = ["none", "moved", "unreduced", "list", "missing", "extra",
                   "replaced key", "non-normalized", "not a cocycle",
                   "wrong length", "degree"]
SECTION_TAMPERS = ["canonical", "moved", "short", "not split", "rotated embed",
                   "embed off A"]
ACT_TAMPERS = ["none", "not descending", "non-normal z", "other z",
               "other pushout's act", "other class", "forged embed_a",
               "other G"]


def _tampered_cochain(data, M, c, kind):
    """c with one fault of the named kind, or c moved by a coboundary; a
    fault in the tuples leaves the map of values, which no cochain
    holds."""
    n, a = M.gamma.order, M.coeff.invariant_factors[0]
    ident = M.gamma.identity
    values = dict(c.values)
    keys = sorted(values)
    others = [k for k in keys if ident not in k]
    if kind == "moved":
        b = [M.coeff.zero() if g == ident
             else (data.draw(st.integers(0, a - 1)),) for g in range(n)]
        return _moved(M, c, b)
    if kind == "degree":
        return Cochain(3, c.entries)
    if kind == "missing":
        del values[data.draw(st.sampled_from(keys))]
    elif kind in ("extra", "replaced key"):
        if kind == "replaced key":
            del values[data.draw(st.sampled_from(keys))]
        values[data.draw(st.sampled_from([(n, 0), (0, n), (0, 0, 0)]))] = \
            M.coeff.zero()
    elif kind == "non-normalized":
        g = data.draw(st.integers(0, n - 1))
        key = data.draw(st.sampled_from([(ident, g), (g, ident)]))
        values[key] = (data.draw(st.integers(1, a - 1)),)
    elif kind in ("unreduced", "list", "not a cocycle", "wrong length"):
        for k in data.draw(st.lists(st.sampled_from(others), min_size=1,
                                    max_size=3, unique=True)):
            v = values[k][0]
            if kind == "unreduced":
                values[k] = (v + a * data.draw(st.sampled_from([-2, -1, 1, 3])),)
            elif kind == "list":
                values[k] = [v]
            elif kind == "not a cocycle":
                values[k] = ((v + 1) % a,)
            else:
                values[k] = (v, 0)
    if kind in ("missing", "extra", "replaced key"):
        return values
    return Cochain(2, tuple(values[k] for k in keys))


def _tampered_section(data, M, model, kind):
    """(embed, project, section) for ``extract_cocycle`` with one fault
    of the named kind, or a section other than the canonical one."""
    n, na = M.gamma.order, len(model.embed)
    embed, project, section = model.embed, model.project, model.section
    if kind == "moved":
        section = tuple(data.draw(st.integers(0, na - 1)) * n + g
                        for g in range(n))
    elif kind == "short":
        section = section[:-1]
    elif kind == "not split":
        g = data.draw(st.integers(0, n - 1))
        section = section[:g] + ((section[g] + 1) % model.group.order,) \
            + section[g + 1:]
    elif kind == "rotated embed":
        embed = embed[1:] + embed[:1]
    elif kind == "embed off A":
        embed = (embed[0] + 1,) + embed[1:]
    return embed, project, section


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tampered_inputs_agree_with_reference(data):
    """One drawn module, class, connected group, cochain fault, section
    fault and ``act``/Z fault: each fast path has the outcome of the
    code it replaced."""
    gamma_name = data.draw(st.sampled_from(GAMMAS))
    a = data.draw(st.sampled_from([2, 4]))
    inv = data.draw(st.booleans())
    M, H, classes = _module(gamma_name, a, inv)
    c = H.class_representative(data.draw(st.sampled_from(classes)))

    kind = data.draw(st.sampled_from(COCHAIN_TAMPERS))
    cochain = _tampered_cochain(data, M, c, kind)
    if kind in ("missing", "extra", "replaced key"):
        # not total: the reference said so without naming a tuple, read
        # off the pairs; ``from_map`` rejects the map itself
        built = outcome(Cochain.from_map, 2, cochain)
        assert built[:2] == ("raise", ValidationError)
        pairs = SimpleNamespace(degree=2, values=tuple(cochain.items()))
        assert outcome(reference_build_extension, M, pairs) == (
            "raise", ValidationError, "cochain is not total on Gamma x Gamma")
    else:
        built = _same(build_extension, reference_build_extension, M, cochain)
    if kind in ("none", "moved", "unreduced", "list"):
        assert built[0] == "value"
    event(f"build_extension: {built[0]}")
    model = built[1] if built[0] == "value" else build_extension(M, c)
    embed, project, section = _tampered_section(
        data, M, model, data.draw(st.sampled_from(SECTION_TAMPERS)))
    event("extract_cocycle: " + _same(
        extract_cocycle, reference_extract_cocycle,
        M, model.group, embed, project, section)[0])

    k = data.draw(st.sampled_from([1, 2, 3] + ([0] if a == 2 else [])))
    G = _connected(k, a)
    abelian = G.is_abelian()
    z, act = _cyclic_central(G, a), _act(G, M.gamma, inv and abelian)
    push = pushout(G, z, act, model)
    fault = data.draw(st.sampled_from(ACT_TAMPERS))
    if fault == "not descending":
        # act[g] followed by the swap of the identity and another element
        g = data.draw(st.integers(0, M.gamma.order - 1))
        y = data.draw(st.integers(0, G.order - 1))
        swap = list(range(G.order))
        swap[G.identity], swap[y] = y, G.identity
        act = act[:g] + (tuple(swap[x] for x in act[g]),) + act[g + 1:]
    elif fault == "non-normal z":
        # a non-central reflection of D8, or {1, x} in a cyclic group
        y = data.draw(st.integers(1, G.order - 1))
        z = (G.identity, y)
    elif fault == "other z":
        z = data.draw(st.sampled_from(
            [(G.identity,), tuple(range(G.order))]))
    elif fault == "other pushout's act":
        act = _act(G, M.gamma, abelian and not inv)
    elif fault == "other class":
        other = H.class_representative(data.draw(st.sampled_from(classes)))
        push = pushout(G, z, act, build_extension(M, other))
    elif fault == "other G":
        # the cyclic group of twice or half the order, not E's G: named
        # before any work
        order = data.draw(st.sampled_from([2 * G.order] + (
            [G.order // 2] if G.order // 2 % a == 0 and abelian else [])))
        other = cyclic(order)
        z, act = _cyclic_central(other, a), _act(other, M.gamma, inv)
        with pytest.raises(ValidationError, match=(
                f"^G has order {order}, the pushout's connected group "
                f"{G.order}$")):
            quotient_mod_center(other, z, act, push)
        event("quotient_mod_center: other G")
        return
    elif fault == "forged embed_a":
        # a pushout whose Z in E is {1, y} for a drawn y: a subgroup
        # other than Z, or not normal, or not a subgroup
        y = data.draw(st.integers(1, push.group.order - 1))
        push = extension.PushoutModel(
            push.group, push.gamma, push.coset_of, push.antidiagonal,
            push.embed_g, (push.group.identity, y), push.project,
            push.checks, push.connected, push.act, push.extension)
    got = _check_quotients(G, z, act, push)
    event(f"quotient_mod_center: {got[0] if got[1] is not None else None}")


@pytest.mark.parametrize("shape,message", [
    ("one map", r"act has 1 maps, need one per gamma element \(2\)"),
    ("three maps", r"act has 3 maps, need one per gamma element \(2\)"),
    ("long maps", r"act\[0\] is not an automorphism"),
    ("short maps", r"act\[0\] is not an automorphism"),
])
def test_act_shape_rejected(shape, message):
    """A wrong number of maps, or maps of the wrong length, are named
    before any work; they used to raise a bare IndexError or return an
    isomorphism."""
    G, z, act, _, model = sl2_like_setup(1)
    push = pushout(G, z, act, model)
    bad = {"one map": act[:1], "three maps": act + act[:1],
           "long maps": tuple(a + (0,) for a in act),
           "short maps": tuple(a[:-1] for a in act)}[shape]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        quotient_mod_center(G, z, bad, push)


@pytest.mark.parametrize("cls", [0, 1])
@pytest.mark.parametrize("other,z,message", [
    (cyclic(8), (0, 4), "G has order 8, the pushout's connected group 4"),
    (cyclic(2), (0, 1), "G has order 2, the pushout's connected group 4"),
    (grouptable.from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)]), (0, 1),
     "G is not the pushout's connected group: their tables differ"),
])
def test_other_connected_group_rejected(cls, other, z, message):
    """A G other than the pushout's C4 is named before any work: C8 with
    z = (0, 4) used to return None, C2 with z = (0, 1) to raise a bare
    IndexError; V4 has C4's order but another table."""
    G, _, act, _, model = sl2_like_setup(cls)
    push = pushout(G, (0, 2), act, model)
    ident = tuple(tuple(range(other.order)) for _ in act)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        quotient_mod_center(other, z, ident, push)


@pytest.mark.parametrize("cls", [0, 1])
def test_quotient_mod_center_builds_no_table_of_e_order(monkeypatch, cls):
    """After ``pushout``, ``quotient_mod_center`` makes one ``quotient``
    call (G/Z) and calls neither ``semidirect_product``, ``twisted_rows``
    nor ``is_normal``; the only generating set it computes is that of
    G/Z, which ``check_action`` reads."""
    G, z, act, M, model = sl2_like_setup(cls)
    push = pushout(G, z, act, model)
    calls = {name: [] for name in ("quotient", "semidirect_product",
                                   "twisted_rows", "is_normal")}
    for name, log in calls.items():
        counted(monkeypatch, extension, name, log)
    gens = []
    counted(monkeypatch, grouptable, "generating_set", gens)
    assert quotient_mod_center(G, z, act, push) == tuple(range(4))
    assert {name: len(log) for name, log in calls.items()} == {
        "quotient": 1, "semidirect_product": 0, "twisted_rows": 0,
        "is_normal": 0}
    assert [args[0].order for args in gens] == [G.order // len(z)]
