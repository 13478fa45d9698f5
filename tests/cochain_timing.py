"""Wall time of reading cochains in and out of H^2, on two groups whose
H^2 itself takes a fraction of a second:

- the public ``differential`` of one H^2(S5, Z/2) generator, the full bar
  formula over all 120^3 triples;
- on H^2(S6, Z/2): ``generators`` (a cocycle of 720^2 values per
  invariant factor), ``coordinates_of`` of the first generator and
  ``coboundary_witness`` of the coboundary db of a fixed 1-cochain b,
  db built here by the formula db(g, h) = b(h) - b(gh) + b(g) of the
  trivial action.

Run from the repository root:  PYTHONPATH=src python tests/cochain_timing.py
Prints one line per step, best of ``--repeat`` runs (default 1).
"""

import argparse
import time

from discred.abgroup import FGAbelianGroup
from discred.cohomology import (Cochain, cohomology_group, differential,
                                trivial_module)
from discred.grouptable import from_generators


def symmetric(k):
    return from_generators(k, [tuple(range(1, k)) + (0,),
                               (1, 0) + tuple(range(2, k))])


def best(repeat, fn):
    """(seconds, result) of the fastest of ``repeat`` calls of fn."""
    times, out = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=1)
    repeat = ap.parse_args().repeat
    z2 = FGAbelianGroup(0, (2,))

    t0 = time.perf_counter()
    s5 = trivial_module(symmetric(5), z2)
    gen = cohomology_group(s5, 2).generators[0]
    print(f"S5 H^2 and its generators: {time.perf_counter() - t0:.2f} s")
    secs, dc = best(repeat, lambda: differential(s5, gen))
    assert all(not any(v) for _, v in dc.values)
    print(f"S5 differential of a generator: {secs:.2f} s")

    t0 = time.perf_counter()
    M = trivial_module(symmetric(6), z2)
    H = cohomology_group(M, 2)
    print(f"S6 H^2: {time.perf_counter() - t0:.2f} s")
    secs, gens = best(repeat, lambda: H.generators)
    print(f"S6 generators: {secs:.2f} s")
    secs, coords = best(repeat, lambda: H.coordinates_of(gens[0]))
    assert coords == (1,) + (0,) * (len(gens) - 1)
    print(f"S6 coordinates_of: {secs:.2f} s")

    n, table = M.gamma.order, M.gamma.table
    b = [(g * g + 3 * g) % 2 for g in range(n)]
    db = Cochain(2, tuple(((g, h), ((b[h] - b[table[g][h]] + b[g]) % 2,))
                          for g in range(n) for h in range(n)))
    secs, w = best(repeat, lambda: H.coboundary_witness(db))
    assert w is not None
    print(f"S6 coboundary_witness: {secs:.2f} s")


if __name__ == "__main__":
    main()
