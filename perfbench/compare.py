"""Compare mode: the run records of a parent and a change, per workload
and end-to-end metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

The files hold run records as steady.py ``--out`` writes them.  Runs
are paired by seed (by position when the seeds differ).  For each
metric it prints both sides' median and quartiles, the share of pairs
the change won (ties count for neither) and a verdict:

- improved: the change wins at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  distance;
- unresolved: either side's spread is wider than the metric's bound,
  unless every run of the change reads better than every run of the
  parent;
- worse: the change's median is worse than the parent's by more than
  the bound, or more items failed;
- within bound: otherwise.

The raw wall times the run records keep next to the scaled ones
(``setup_wall_s``, ``pass_wall_s``, ``pass_tail_wall_s``) are printed
too, with the change's median over the parent's, so that a verdict can
be checked against them; they get no verdict.

Exits 1 when any metric is worse.
"""

from __future__ import annotations

import os
import statistics
import sys

from steady import HERE, by_workload, load_benchmark, read_records, spread


RAW = ("setup_wall_s", "pass_wall_s", "pass_tail_wall_s")


def pairs(parent, change):
    seeds = {r["seed"]: r for r in parent}
    matched = [(seeds[r["seed"]], r) for r in change if r["seed"] in seeds]
    return matched if matched else list(zip(parent, change))


def verdict(p_vals, c_vals, pair_vals, lower_better, bound):
    sign = 1 if lower_better else -1
    better = lambda a, b: sign * (a - b) < 0   # a better than b
    p_med, p_q1, p_q3, p_rel = spread(p_vals)
    c_med, _, _, c_rel = spread(c_vals)
    wins = sum(better(c, p) for p, c in pair_vals) / len(pair_vals)
    gain = sign * (p_med - c_med)
    if wins >= 0.9 and gain > p_q3 - p_q1:
        return wins, "improved"
    if max(p_rel, c_rel) > bound:
        if all(better(c, p) for c in c_vals for p in p_vals):
            return wins, "within bound"
        return wins, "unresolved"
    if -gain > bound * p_med:
        return wins, "worse"
    return wins, "within bound"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark(os.path.dirname(HERE))
    parent = by_workload(read_records(argv[0]))
    change = by_workload(read_records(argv[1]))
    any_worse = False
    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    for workload in parent:
        if workload not in change:
            continue
        matched = pairs(parent[workload], change[workload])
        for m in bench["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent[workload]]
            c_vals = [r["metrics"][name]["value"] for r in change[workload]]
            if len(p_vals) < 2 or len(c_vals) < 2:
                print(f"{workload:<16} {name:<13} needs two runs a side")
                continue
            pv = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in matched]
            won, v = verdict(p_vals, c_vals, pv, m["better"] == "lower", m["bound"])
            any_worse |= v == "worse"
            cols = []
            for vals in (p_vals, c_vals):
                med, q1, q3, _ = spread(vals)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<16} {name:<13} {cols[0]:>34} {cols[1]:>34} "
                  f"{won:>5.0%}  {v}")
        for name in RAW:
            p_vals = [r["metrics"][name]["value"] for r in parent[workload]
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in change[workload]
                      if name in r["metrics"]]
            if len(p_vals) < 2 or len(c_vals) < 2:
                continue
            cols = []
            for vals in (p_vals, c_vals):
                med, q1, q3, _ = spread(vals)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            ratio = statistics.median(c_vals) / statistics.median(p_vals)
            print(f"{workload:<16} {name:<16} {cols[0]:>31} {cols[1]:>34} "
                  f"{'':>5}  raw, change/parent {ratio:.3f}")
        p_fail = sum(r["failed"] for r in parent[workload])
        c_fail = sum(r["failed"] for r in change[workload])
        if c_fail > p_fail:
            any_worse = True
        print(f"{workload:<16} failed items: parent {p_fail}, change {c_fail}"
              + ("  worse" if c_fail > p_fail else ""))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
