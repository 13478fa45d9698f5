"""The benchmark tracer's size counters against real results.

``perfbench/tracer.py`` reads fields of the arguments and results of
the functions it wraps (``PushoutModel.semidirect``, for one).  Only a
traced benchmark run would otherwise notice such a field disappearing,
so each ``SIZES`` function is called here on one real call of its
target.  The tracer is executed from its source; nothing is written
next to it.
"""

import importlib
import os
import types

import pytest

from discred import standard
from discred.abgroup import FGAbelianGroup
from discred.autbrd import trivial_ad
from discred.cohomology import Cochain, trivial_module
from discred.exactlin import IntMatrix
from discred.extension import build_extension, center_modules
from discred.grouptable import cyclic
from discred.rootdatum import center_data

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def load_tracer():
    module = types.ModuleType("tracer")
    with open(TRACER) as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


tracer = load_tracer()


def _c4_carry_model():
    """Z/16 as the extension of C4 by Z/4 with the carry cocycle."""
    M = trivial_module(cyclic(4), FGAbelianGroup(0, (4,)))
    carry = Cochain.from_map(2, {(a, b): ((a + b) // 4,)
                                 for a in range(4) for b in range(4)})
    return M, carry


def _pushout_args():
    M, carry = _c4_carry_model()
    return (cyclic(32), (0, 8, 16, 24), (tuple(range(32)),) * 4,
            build_extension(M, carry))


def _tower_args():
    based = standard.sl2()
    ad = trivial_ad(based, cyclic(2))
    cd = center_data(based.datum)
    return ad.gamma, cd.group, center_modules(cd, ad)


# positional arguments of one real call per metric prefix in SIZES
CALLS = {
    "exactlin.smith_normal_form":
        lambda: (IntMatrix.from_rows([[2, 4], [6, 8]]),),
    "cohomology.cohomology_group":
        lambda: (trivial_module(cyclic(2), FGAbelianGroup(0, (2,))), 2),
    "cohomology.stabilized_h2": _tower_args,
    "extension.build_extension": _c4_carry_model,
    "extension.pushout": _pushout_args,
    "grouptable.validate_table":
        lambda: (((0, 1, 2), (1, 2, 0), (2, 0, 1)),),
}


def test_every_size_counter_has_a_call():
    assert set(CALLS) == set(tracer.SIZES)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_size_counter_reads_a_real_result(name):
    _, modname, attr, _ = next(t for t in tracer.TARGETS if t[0] == name)
    fn = getattr(importlib.import_module(f"discred.{modname}"), attr)
    args = CALLS[name]()
    sizes = tracer.SIZES[name](args, {}, fn(*args))
    assert sizes and all(isinstance(v, int) and v >= 0
                         for v in sizes.values())
