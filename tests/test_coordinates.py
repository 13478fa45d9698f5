"""H^2 classes carried as coordinate vectors through the torsion tower and
``classify``, checked against the cochain path they replace: pushing
generator cocycles value by value (``push_cochain``) and reading their
coordinates back, and normalizing sums of representative cochains
(``cochain_sum`` + ``normalize``)."""

import itertools
import os

import pytest

from discred import standard
from discred.abgroup import torsion_at, torsion_inclusion
from discred.autbrd import (ad_from_generator_images, induced_center_action,
                            trivial_ad)
from discred.cli import _parse_ad, _parse_based, _parse_gamma, load_problem
from discred.cohomology import (Cochain, _image_subgroup, _push_class, _span,
                                cochain_sum, cohomology_group, gamma_module,
                                push_cochain, stabilized_h2)
from discred.extension import classify
from discred.grouptable import cyclic
from discred.rootdatum import center_data

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems")
BUNDLED = sorted(f[:-len(".json")] for f in os.listdir(PROBLEMS)
                 if f.endswith(".json"))

# (datum, order of the cyclic gamma, generator matrix or None for trivial)
TOWER = {
    "T5_C2_trivial": (lambda: standard.torus(5), 2, None),
    "T3_C3_cycle": (lambda: standard.torus(3), 3,
                    [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    "T2_C4_rotation": (lambda: standard.torus(2), 4, [[0, -1], [1, 0]]),
    "SL2_C6_trivial": (standard.sl2, 6, None),
    "GL2_C3_trivial": (standard.gl2, 3, None),
    "SL3_C3_trivial": (standard.sl3, 3, None),
}


def _bundled(name):
    data = load_problem(os.path.join(PROBLEMS, name + ".json"))
    based = _parse_based(data)
    ad = _parse_ad(data, based, _parse_gamma(data))
    return based, ad, data.get("max_k", 4)


def _tower_input(label):
    make, n, mat = TOWER[label]
    based = make()
    gamma = cyclic(n)
    ad = (trivial_ad(based, gamma) if mat is None
          else ad_from_generator_images(based, gamma, [mat]))
    return based, ad, 4


def _inputs():
    return ([pytest.param(_bundled, name, id=name) for name in BUNDLED]
            + [pytest.param(_tower_input, label, id=label) for label in TOWER])


def _module_at(based, ad):
    """The coefficient module at each torsion level, as ``classify``
    builds it."""
    cd = center_data(based.datum)
    gamma = ad.gamma

    def module_at(m):
        return gamma_module(gamma, torsion_at(cd.group, m),
                            [induced_center_action(cd, ad.images[g], m)
                             for g in range(gamma.order)])
    return cd.group, module_at


@pytest.mark.parametrize("load,name", _inputs())
def test_descriptor_cocycles_match_cochain_sums(load, name):
    based, ad, max_k = load(name)
    cls = classify(based, ad, max_k=max_k)
    Z, module_at = _module_at(based, ad)
    res = stabilized_h2(ad.gamma, Z, module_at, max_k=max_k)
    H, coeff = res.cohomology, res.module.coeff
    n = ad.gamma.order
    zero = Cochain.from_map(2, {(a, b): coeff.zero()
                                for a in range(n) for b in range(n)})
    assert [d.coordinates for d in cls.descriptors] == list(
        itertools.product(*(range(f) for f in res.group.invariant_factors)))
    for d in cls.descriptors:
        old = (cochain_sum(coeff, zip(d.coordinates, res.representatives))
               if res.representatives else zero)
        assert d.cocycle == H.normalize(old)


@pytest.mark.parametrize("load,name", _inputs())
def test_vector_push_matches_cochain_push(load, name):
    based, ad, max_k = load(name)
    n = ad.gamma.order
    Z, module_at = _module_at(based, ad)
    levels = {k: cohomology_group(module_at(n ** k), 2)
              for k in range(1, max_k + 1)}
    for k in range(1, max_k):
        Hs, Ht = levels[k], levels[k + 1]
        inc = torsion_inclusion(Z, n ** k, n ** (k + 1))
        old = _span([Ht.coordinates_of(push_cochain(inc, gen))
                     for gen in Hs.generators], Ht.group.invariant_factors)
        new = _image_subgroup(Hs, Ht, inc)
        assert new[0].invariant_factors == old[0].invariant_factors
        assert new[1] == old[1]
        for coords in itertools.product(
                *(range(f) for f in Hs.group.invariant_factors)):
            rep = Hs.class_representative(coords)
            assert _push_class(Hs, Ht, inc, coords) == \
                Ht.coordinates_of(push_cochain(inc, rep))
