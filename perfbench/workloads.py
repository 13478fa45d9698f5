"""The four benchmark workloads.

Each workload is built by ``setup(name, seed)``, which imports discred
from the checkout's ``src`` and builds and validates every input.  A
workload then offers:

- ``items``: labels of the items in one pass;
- ``run(i)``: the timed work of item ``i``, returning its output;
- ``summarize(i, output)``: the output reduced to JSON data, untimed;
- ``check(i, summary)``: None, or why the summary is wrong, untimed.

The seed orders the items of every pass and picks the free choices
(which cohomology class each extension model uses); it never changes
the amount of work.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from math import prod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBLEMS = os.path.join(ROOT, "src", "discred", "problems")
CLI_COMMANDS = ("check", "center", "weyl", "dynkin", "classify")
CLI_REPEATS = 4   # one pass runs the bundled set this many times

# h2_ladder rows: (label, gamma, coefficient modulus); each runs p = 1, 2
LADDER = [("C4", "C4", 2), ("V4", "V4", 2), ("C6", "C6", 3), ("S3", "S3", 2),
          ("C8", "C8", 2), ("D4", "D4", 3), ("C2^3", "C2^3", 2)]

# classify_tower inputs: label -> (datum, gamma, generator matrices or None)
TOWER = {
    "T5_C2_trivial": ("T5", "C2", None),
    "T3_C3_cycle": ("T3", "C3", [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
    "T2_C4_rotation": ("T2", "C4", [[[0, -1], [1, 0]]]),
    "SL2_C6_trivial": ("SL2", "C6", None),
    "GL2_C3_trivial": ("GL2", "C3", None),
    "SL3_C3_trivial": ("SL3", "C3", None),
}

# ext_models pushout models: (label, G, |A|, gamma, acts by inversion)
MODELS = [
    ("C8_A2_C2", "C8", 2, "C2", False),
    ("D8_A2_C4", "D8", 2, "C4", False),
    ("C8_A4_C4_inv", "C8", 4, "C4", True),
    ("C12_A2_C6_inv", "C12", 2, "C6", True),
    ("C8_A2_C8", "C8", 2, "C8", False),
    ("D16_A2_C4", "D16", 2, "C4", False),
    ("C8_A2_S3_inv", "C8", 2, "S3", True),
    ("C32_A4_C4", "C32", 4, "C4", False),
]
# standalone extension models on A x gamma: (label, |A|, gamma, inversion)
STANDALONE = [("A8_C6", 8, "C6", False), ("A16_C4", 16, "C4", False),
              ("A8_S3_inv", 8, "S3", True)]


def import_discred():
    """discred from this checkout's ``src``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "discred")):
        raise RuntimeError(f"no discred sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import discred
    if not os.path.abspath(discred.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported discred from {discred.__file__}, not {src}")
    return discred


def _load_json(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


_EXPECTED = {}


def expected(workload):
    """Expected answers of a workload, from expected.json (written by
    make_data.py)."""
    if not _EXPECTED:
        _EXPECTED.update(_load_json("expected.json"))
    return _EXPECTED[workload]


def _cochain(discred, values):
    return discred.Cochain.from_map(2, {tuple(k): tuple(v) for k, v in values})


def _values(c):
    return [[list(k), list(v)] for k, v in c.values]


class Groups:
    """Finite groups by name, built once."""

    def __init__(self):
        from discred.grouptable import cyclic, from_generators
        self._make = {
            "V4": lambda: from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
            "S3": lambda: from_generators(3, [(1, 0, 2), (1, 2, 0)]),
            "D4": lambda: from_generators(4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
            "C2^3": lambda: from_generators(6, [(1, 0, 2, 3, 4, 5),
                                                (0, 1, 3, 2, 4, 5),
                                                (0, 1, 2, 3, 5, 4)]),
        }
        self._cyclic = cyclic
        self._from_generators = from_generators
        self._cache = {}

    def get(self, name):
        if name not in self._cache:
            if name in self._make:
                g = self._make[name]()
            elif name[0] == "C":
                g = self._cyclic(int(name[1:]))
            else:  # "D<2n>": dihedral group of order 2n
                n = int(name[1:]) // 2
                g = self._from_generators(n, [tuple((i + 1) % n for i in range(n)),
                                              tuple((-i) % n for i in range(n))])
            self._cache[name] = g
        return self._cache[name]


def reference_tower(based, ad, max_k):
    """(module, H^2 at the level used, generator coordinates) of the
    stabilized tower, from the public functions; used only by checks."""
    from discred.abgroup import torsion_at
    from discred.autbrd import induced_center_action
    from discred.cohomology import cohomology_group, gamma_module, stabilized_h2
    from discred.rootdatum import center_data
    cd = center_data(based.datum)
    gamma = ad.gamma

    def module_at(m):
        return gamma_module(gamma, torsion_at(cd.group, m),
                            [induced_center_action(cd, ad.images[g], m)
                             for g in range(gamma.order)])

    if gamma.order == 1:
        M = module_at(1)
        return M, cohomology_group(M, 2), []
    res = stabilized_h2(gamma, cd.group, module_at, max_k=max_k)
    H = res.cohomology
    return res.module, H, [H.coordinates_of(r) for r in res.representatives]


def check_classes(discred, ref, classes):
    """Each class cocycle on its own: normalized, a cocycle under the
    full bar differential, and with the coordinates it is listed with."""
    from discred.cohomology import is_cocycle
    M, H, gens = ref
    tf = H.group.invariant_factors
    for coords, split, values in classes:
        c = _cochain(discred, values)
        if split != all(x == 0 for x in coords):
            return f"class {coords}: split flag {split} is wrong"
        if not c.is_normalized(M.gamma.identity):
            return f"class {coords}: cocycle is not normalized"
        if not is_cocycle(M, c):
            return f"class {coords}: cocycle fails the bar differential"
        want = tuple(sum(x * g[j] for x, g in zip(coords, gens)) % f
                     for j, f in enumerate(tf))
        got = H.coordinates_of(c)
        if got != want:
            return f"class {coords}: coordinates_of gives {got}, want {want}"
    return None


def classification_answer(center_torus, center_finite, h2, k_used, level,
                          tower, coeff, classes):
    return {"center": [center_torus, list(center_finite)], "h2": list(h2),
            "k_used": k_used, "torsion_level": level,
            "tower_orders": list(tower), "coefficient": list(coeff),
            "classes": [[list(c), s] for c, s, _ in classes]}


def _check_answer(expected, answer):
    if answer != expected:
        return f"answer {json.dumps(answer)} != expected {json.dumps(expected)}"
    return None


class CliBundled:
    """The bundled problems through every CLI command, in-process."""

    def __init__(self, discred, seed):
        from discred import cli
        self.discred = discred
        self.cli = cli
        self.problems = {}
        for fname in sorted(os.listdir(PROBLEMS)):
            if fname.endswith(".json"):
                path = os.path.join(PROBLEMS, fname)
                self.problems[fname] = (path, _build_problem(cli.load_problem(path)))
        self.items = [f"{p}:{c}#{r}" for r in range(CLI_REPEATS)
                      for p in self.problems for c in CLI_COMMANDS]
        self._args = [[c, "--input", self.problems[p][0], "--format", "json"]
                      for r in range(CLI_REPEATS)
                      for p in self.problems for c in CLI_COMMANDS]
        self._refs = {}

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self._args[i])
        return code, out.getvalue()

    def report_bytes(self, output):
        return len(output[1].encode())

    def summarize(self, i, output):
        code, text = output
        if code != 0:
            return {"exit": code}
        rep = json.loads(text)
        cmd = rep["command"]
        if cmd == "check":
            return {"answer": [rep["ok"], rep["rank"], rep["num_roots"],
                               rep["gamma_order"]]}
        if cmd == "center":
            c = rep["center"]
            return {"answer": [c["torus_rank"], c["finite_invariant_factors"]]}
        if cmd == "weyl":
            return {"answer": [rep["order"], rep["positive_systems"]]}
        if cmd == "dynkin":
            return {"answer": [rep["vertices"], rep["edges"]]}
        classes = [(d["coordinates"], d["is_split"], d["cocycle"])
                   for d in rep["classes"]]
        return {"answer": classification_answer(
                    rep["center"]["torus_rank"],
                    rep["center"]["finite_invariant_factors"],
                    rep["h2"]["invariant_factors"], rep["k_used"],
                    rep["torsion_level"], rep["tower_orders"],
                    rep["coefficient_group"]["invariant_factors"], classes),
                "cocycles": [[list(c), s, v] for c, s, v in classes]}

    def check(self, i, summary):
        if "exit" in summary:
            return f"exit code {summary['exit']}"
        prob, rest = self.items[i].split(":")
        cmd = rest.split("#")[0]
        want = expected("cli_bundled").get(prob, {}).get(cmd)
        bad = _check_answer(want, summary["answer"])
        if bad or cmd != "classify":
            return bad
        if prob not in self._refs:
            based, ad, max_k = self.problems[prob][1]
            self._refs[prob] = reference_tower(based, ad, max_k)
        return check_classes(self.discred, self._refs[prob], summary["cocycles"])


def _build_problem(data):
    """(based datum, ad, max_k) of a problem file, from the public API;
    covers the forms the bundled problems use."""
    from discred import autbrd, rootdatum, standard
    from discred.grouptable import cyclic, from_generators
    d = data["datum"]
    based = standard.from_simple(d["rank"], d["simple_roots"], d["simple_coroots"])
    rootdatum.require_valid_based(based)
    g = data["gamma"]
    gamma = (cyclic(g["n"]) if g["type"] == "cyclic"
             else from_generators(g["degree"], g["generators"]))
    a = data.get("ad", {"type": "trivial"})
    if a["type"] == "trivial":
        ad = autbrd.trivial_ad(based, gamma)
    elif a["type"] == "generators":
        ad = autbrd.ad_from_generator_images(based, gamma, a["matrices"])
    else:
        ad = autbrd.ad_from_element_images(based, gamma, a["matrices"])
    autbrd.require_valid_ad(based, ad)
    return based, ad, int(data.get("max_k", 4))


class H2Ladder:
    """cohomology_group(M, p), p = 1, 2, with trivial coefficients."""

    def __init__(self, discred, seed):
        from discred.abgroup import AbHom, FGAbelianGroup
        from discred import cohomology
        self.discred = discred
        self.cohomology = cohomology
        groups = Groups()
        self.modules = {}
        for label, gname, q in LADDER:
            gamma = groups.get(gname)
            A = FGAbelianGroup(0, (q,))
            self.modules[label] = cohomology.gamma_module(
                gamma, A, [AbHom.identity(A)] * gamma.order)
        self.items = [f"{label}_Z{q}:H{p}" for label, _, q in LADDER for p in (1, 2)]
        self._args = [(label, p) for label, _, q in LADDER for p in (1, 2)]
        self._last = {}

    def run(self, i):
        label, p = self._args[i]
        return self.cohomology.cohomology_group(self.modules[label], p)

    def summarize(self, i, H):
        self._last[i] = H
        return {"answer": list(H.group.invariant_factors),
                "cocycles": [_values(g) for g in H.generators]}

    def check(self, i, summary):
        bad = _check_answer(expected("h2_ladder").get(self.items[i]),
                            summary["answer"])
        if bad:
            return bad
        label, p = self._args[i]
        M, H = self.modules[label], self._last[i]
        ngen = len(summary["cocycles"])
        if ngen != len(summary["answer"]):
            return f"{ngen} generators for {len(summary['answer'])} factors"
        for j, values in enumerate(summary["cocycles"]):
            c = self.discred.Cochain.from_map(
                p, {tuple(k): tuple(v) for k, v in values})
            if not c.is_normalized(M.gamma.identity):
                return f"generator {j} is not normalized"
            if not self.cohomology.is_cocycle(M, c):
                return f"generator {j} fails the bar differential"
            unit = tuple(int(k == j) for k in range(ngen))
            if H.coordinates_of(c) != unit:
                return f"generator {j} has coordinates {H.coordinates_of(c)}"
        return None


class ClassifyTower:
    """classify on inputs whose time goes to the tower and its queries."""

    def __init__(self, discred, seed):
        from discred import autbrd, extension, rootdatum, standard
        self.discred = discred
        self.extension = extension
        groups = Groups()
        data = {"SL2": standard.sl2, "GL2": standard.gl2, "SL3": standard.sl3,
                "T2": lambda: standard.torus(2), "T3": lambda: standard.torus(3),
                "T5": lambda: standard.torus(5)}
        self.inputs = {}
        for label, (dname, gname, mats) in TOWER.items():
            based = data[dname]()
            if rootdatum.validate_based(based) is not None:
                raise RuntimeError(f"{label}: invalid based datum")
            gamma = groups.get(gname)
            ad = (autbrd.trivial_ad(based, gamma) if mats is None
                  else autbrd.ad_from_generator_images(based, gamma, mats))
            autbrd.require_valid_ad(based, ad)
            self.inputs[label] = (based, ad)
        self.items = list(TOWER)
        self._refs = {}

    def run(self, i):
        based, ad = self.inputs[self.items[i]]
        return self.extension.classify(based, ad)

    def summarize(self, i, cls):
        classes = [(list(d.coordinates), d.is_split, _values(d.cocycle))
                   for d in cls.descriptors]
        return {"answer": classification_answer(
                    cls.center.torus_rank, cls.center.finite_part.invariant_factors,
                    cls.group.invariant_factors, cls.k_used, cls.torsion_level,
                    cls.tower_orders, cls.module.coeff.invariant_factors, classes),
                "cocycles": [[c, s, v] for c, s, v in classes]}

    def check(self, i, summary):
        label = self.items[i]
        bad = _check_answer(expected("classify_tower").get(label), summary["answer"])
        if bad:
            return bad
        if len(summary["cocycles"]) != prod(summary["answer"]["h2"]):
            return "class count differs from |H^2|"
        if label not in self._refs:
            based, ad = self.inputs[label]
            self._refs[label] = reference_tower(based, ad, 4)
        return check_classes(self.discred, self._refs[label], summary["cocycles"])


class ExtModels:
    """Extension models, cocycle round trips, pushouts and quotients on
    finite stand-ins, with the cocycles given as data."""

    def __init__(self, discred, seed):
        from discred import extension, grouptable
        self.discred = discred
        self.extension = extension
        self.grouptable = grouptable
        self._targets = {}
        data = _load_json("models.json")
        groups = Groups()
        rng = random.Random(seed)

        def module(a, gname, inv):
            M = ext_module(groups, a, gname, inv)
            key = module_key(a, gname, inv)
            classes = []
            for coords, values in data[key]:
                c = _cochain(discred, values)
                if (not c.is_normalized(M.gamma.identity)
                        or extension.cocycle_witness(M, c) is not None):
                    raise RuntimeError(f"{key}: stored cocycle {coords} is invalid")
                classes.append((coords, c))
            return M, classes

        self.items, self._args = [], []
        for label, gname, a, gamma_name, inv in MODELS:
            G = groups.get(gname)
            M, classes = module(a, gamma_name, inv)
            z = _central_embedding(G, a)
            gamma = M.gamma
            act = [tuple(G.inv(x) for x in range(G.order))
                   if inv and _odd(gamma_name, gamma, g) else tuple(range(G.order))
                   for g in range(gamma.order)]
            nonsplit = rng.choice(classes[1:])
            for kind, (coords, c) in (("split", classes[0]), ("nonsplit", nonsplit)):
                self.items.append(f"{label}:{kind}{coords}")
                self._args.append(("pushout", M, c, G, z, act))
        for label, a, gamma_name, inv in STANDALONE:
            M, classes = module(a, gamma_name, inv)
            coords, c = rng.choice(classes)
            self.items.append(f"{label}:model{coords}")
            self._args.append(("model", M, c, None, None, None))

    def run(self, i):
        kind, M, c, G, z, act = self._args[i]
        ext = self.extension
        model = ext.build_extension(M, c)
        if kind == "model":
            return model, None, None, None
        back = ext.extract_cocycle(M, model.group, model.embed, model.project,
                                   model.section)
        push = ext.pushout(G, z, act, model)
        iso = ext.quotient_mod_center(G, z, act, push)
        return model, back, push, iso

    def summarize(self, i, output):
        kind, M, c, G, _, _ = self._args[i]
        model, back, push, iso = output
        if kind == "model":
            back = self.extension.extract_cocycle(
                M, model.group, model.embed, model.project, model.section)
        answer = {"model_order": model.group.order == M.coeff.order() * M.gamma.order,
                  "round_trip": back.as_dict() == c.as_dict()}
        if kind == "pushout":
            chk = push.checks
            n = G.order * M.gamma.order
            answer.update(
                antidiagonal_is_normal=chk.antidiagonal_is_normal,
                kernel_is_antidiagonal=chk.kernel_is_antidiagonal,
                order=chk.order == chk.expected_order == push.group.order == n,
                quotient_iso=iso is not None and _is_isomorphism(
                    iso, self.grouptable.quotient(push.group, frozenset(push.embed_a))[0],
                    self._target(i)))
        return {"answer": answer}

    def _target(self, i):
        """(G/Z) x| gamma of pushout item ``i``, the codomain of its
        ``quotient_mod_center``; built once from the item's inputs."""
        if i not in self._targets:
            _, M, _, G, z, act = self._args[i]
            gt = self.grouptable
            Gq, coset = gt.quotient(G, frozenset(z))
            actq = []
            for g in range(M.gamma.order):
                img = [None] * Gq.order
                for x in range(G.order):
                    img[coset[x]] = coset[act[g][x]]
                actq.append(tuple(img))
            self._targets[i] = gt.semidirect_product(Gq, M.gamma, tuple(actq))
        return self._targets[i]

    def check(self, i, summary):
        bad = [k for k, v in summary["answer"].items() if v is not True]
        return f"failed: {', '.join(bad)}" if bad else None


def _is_isomorphism(f, src, dst):
    """f is a bijection from src onto dst that respects multiplication;
    checked here, independently of discred's own checks."""
    n = src.order
    return (dst.order == n and sorted(f) == list(range(n))
            and all(f[src.mul(x, y)] == dst.mul(f[x], f[y])
                    for x in range(n) for y in range(n)))


def _odd(gamma_name, gamma, g):
    """The sign character of gamma is -1 at g: transpositions of S3, odd
    powers of the generator of an even cyclic group (element i of
    ``cyclic(n)`` is the i-th power)."""
    if gamma_name == "S3":
        return gamma.element_order(g) == 2
    return g % 2 == 1


def module_key(a, gamma_name, inv):
    return f"A{a}_{gamma_name}_{'inv' if inv else 'triv'}"


def ext_module(groups, a, gamma_name, inv):
    """Z/a as a gamma-module: trivial, or inversion through the sign."""
    from discred.abgroup import AbHom, FGAbelianGroup
    from discred.cohomology import gamma_module
    from discred.exactlin import IntMatrix
    gamma = groups.get(gamma_name)
    A = FGAbelianGroup(0, (a,))
    neg = AbHom(A, A, IntMatrix.from_rows([[a - 1]], cols=1))
    return gamma_module(gamma, A, [neg if inv and _odd(gamma_name, gamma, g)
                                   else AbHom.identity(A)
                                   for g in range(gamma.order)])


def _central_embedding(G, a):
    """Positions of Z/a inside the center of G: k -> z^k, z central of
    order a."""
    center = [x for x in range(G.order)
              if all(G.mul(x, y) == G.mul(y, x) for y in range(G.order))]
    z = next(x for x in center if G.element_order(x) == a)
    emb, x = [G.identity], G.identity
    for _ in range(a - 1):
        x = G.mul(x, z)
        emb.append(x)
    return tuple(emb)


WORKLOADS = {"cli_bundled": CliBundled, "h2_ladder": H2Ladder,
             "classify_tower": ClassifyTower, "ext_models": ExtModels}


def setup(name, seed):
    """Import discred and build the named workload's validated inputs."""
    discred = import_discred()
    return WORKLOADS[name](discred, seed)
