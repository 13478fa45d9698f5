"""Write the benchmark's data files from the library at this checkout.

    python3 perfbench/make_data.py

- ``models.json``: every cohomology class (coordinates and normalized
  representative) of each ext_models coefficient module, so that the
  ext_models workload gets its cocycles as data.
- ``expected.json``: the mathematical answers of every cli_bundled,
  h2_ladder and classify_tower item, which the benchmark's checks
  compare against.  Cocycle values are left out: the checks test each
  cocycle on its own, since representatives may legitimately change.

Run it only when a workload's inputs change, and review the diff of
``expected.json`` by hand: it is the reference the benchmark trusts.
"""

import json
import os

import workloads


def _dump(name, data):
    with open(os.path.join(workloads.HERE, name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def models_data():
    from discred.cohomology import cohomology_group
    groups = workloads.Groups()
    keys = {(a, g, inv) for _, _, a, g, inv in workloads.MODELS}
    keys |= {(a, g, inv) for _, a, g, inv in workloads.STANDALONE}
    out = {}
    for a, g, inv in sorted(keys):
        M = workloads.ext_module(groups, a, g, inv)
        out[workloads.module_key(a, g, inv)] = [
            [list(c.coordinates), [[list(k), list(v)] for k, v in
                                   c.representative.values]]
            for c in cohomology_group(M, 2).classes()]
    return out


def expected_data():
    out = {}
    for name in ("cli_bundled", "h2_ladder", "classify_tower"):
        wl = workloads.setup(name, 0)
        answers = {}
        for i, label in enumerate(wl.items):
            answer = wl.summarize(i, wl.run(i))["answer"]
            if name == "cli_bundled":
                prob, rest = label.split(":")
                answers.setdefault(prob, {})[rest.split("#")[0]] = answer
            else:
                answers[label] = answer
        out[name] = answers
    return out


if __name__ == "__main__":
    workloads.import_discred()
    _dump("models.json", models_data())
    _dump("expected.json", expected_data())
