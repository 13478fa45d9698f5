"""Span recorder for the traced benchmark run.

Wrappers are installed from here, around the public functions and
methods of each discred module, so no program code changes.  A module
function is replaced in every discred module that holds a reference to
it (``from .x import f`` copies included), which catches calls made
through module globals.  Public methods are patched on their class.

Each wrapped call records a span: id, parent span id, name, start, end,
self time, workload item and pass.  Spans stay in memory and are
written out once, when the run ends.  Three functions run far too often
to keep a span per call (``IntMatrix`` construction, ``IntMatrix.apply``
and ``FGAbelianGroup.reduce``); they only add to per-pass counters, but
their time is still subtracted from the self time of the span around
them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

# (metric prefix, module, attribute or "Class.method", keep spans)
TARGETS = [
    ("exactlin.smith_normal_form", "exactlin", "smith_normal_form", True),
    ("exactlin.congruence_kernel_basis", "exactlin", "congruence_kernel_basis", True),
    ("exactlin.cokernel_presentation", "exactlin", "cokernel_presentation", True),
    ("exactlin.inverse_unimodular", "exactlin", "inverse_unimodular", True),
    ("exactlin.kernel_basis", "exactlin", "kernel_basis", True),
    ("exactlin.solve_integer", "exactlin", "solve_integer", True),
    ("exactlin.column_lattice_basis", "exactlin", "column_lattice_basis", True),
    ("exactlin.IntMatrix.new", "exactlin", "IntMatrix.__init__", False),
    ("exactlin.IntMatrix.apply", "exactlin", "IntMatrix.apply", False),
    ("abgroup.FGAbelianGroup.reduce", "abgroup", "FGAbelianGroup.reduce", False),
    ("abgroup.torsion_at", "abgroup", "torsion_at", True),
    ("abgroup.torsion_inclusion", "abgroup", "torsion_inclusion", True),
    ("grouptable.validate_table", "grouptable", "validate_table", True),
    ("grouptable.from_generators", "grouptable", "from_generators", True),
    ("grouptable.hom_check", "grouptable", "hom_check", True),
    ("grouptable.is_normal", "grouptable", "is_normal", True),
    ("grouptable.quotient", "grouptable", "quotient", True),
    ("grouptable.semidirect_product", "grouptable", "semidirect_product", True),
    ("grouptable.find_isomorphism", "grouptable", "find_isomorphism", True),
    ("rootdatum.validate_based", "rootdatum", "validate_based", True),
    ("rootdatum.center_data", "rootdatum", "center_data", True),
    ("rootdatum.weyl_generate", "rootdatum", "weyl_generate", True),
    ("rootdatum.positive_systems", "rootdatum", "positive_systems", True),
    ("rootdatum.dynkin", "rootdatum", "dynkin", True),
    ("standard.from_simple", "standard", "from_simple", True),
    ("autbrd.require_valid_ad", "autbrd", "require_valid_ad", True),
    ("autbrd.induced_center_action", "autbrd", "induced_center_action", True),
    ("autbrd.brd_automorphism", "autbrd", "brd_automorphism", True),
    ("cohomology.gamma_module", "cohomology", "gamma_module", True),
    ("cohomology.cohomology_group", "cohomology", "cohomology_group", True),
    ("cohomology.differential", "cohomology", "differential", True),
    ("cohomology.is_cocycle", "cohomology", "is_cocycle", True),
    ("cohomology.stabilized_h2", "cohomology", "stabilized_h2", True),
    ("cohomology.coordinates_of", "cohomology", "CohomologyGroup.coordinates_of", True),
    ("cohomology.class_representative", "cohomology",
     "CohomologyGroup.class_representative", True),
    ("cohomology.normalize", "cohomology", "CohomologyGroup.normalize", True),
    ("cohomology.cochain_sum", "cohomology", "cochain_sum", True),
    ("cohomology.push_cochain", "cohomology", "push_cochain", True),
    ("extension.classify", "extension", "classify", True),
    ("extension.build_extension", "extension", "build_extension", True),
    ("extension.extract_cocycle", "extension", "extract_cocycle", True),
    ("extension.pushout", "extension", "pushout", True),
    ("extension.quotient_mod_center", "extension", "quotient_mod_center", True),
    ("cli.main", "cli", "main", True),
    ("cli.load_problem", "cli", "load_problem", True),
]


def _smith_cells(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return {"cells": A.rows * A.cols}


def _h_dim(args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    n, t = M.gamma.order, M.coeff.ncoords
    return {"dim": (n ** p * t) * (n ** (p + 1) * t)}


def _tower(args, kwargs, result):
    return {"levels": len(result.tower_orders), "k_used": result.k_used}


# size counters taken from a call's arguments or result, per metric prefix
SIZES = {
    "exactlin.smith_normal_form": _smith_cells,
    "cohomology.cohomology_group": _h_dim,
    "cohomology.stabilized_h2": _tower,
    "extension.build_extension": lambda a, k, r: {"order": r.group.order},
    "extension.pushout": lambda a, k, r: {"semidirect_order": r.semidirect.order},
    "grouptable.validate_table": lambda a, k, r: {"order": r.order},
}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []        # (id, parent, name, start, end, self_s, item, pass)
        self.counters = {}     # (pass, name) -> [calls, self_s]
        self.sizes = []        # (pass, name, {size: value})
        self.item = None
        self.pass_index = None
        self._stack = []       # open frames: [span id, child time]
        self._open = {}        # name -> open call count, for inclusive time
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn, keep):
        tracer = self
        size_fn = SIZES.get(name)

        def wrapper(*args, **kwargs):
            if tracer.pass_index is None:   # outside a traced pass
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s = dur - frame[1]
                if keep:
                    tracer.spans.append((sid, parent, name, t0, t1, self_s,
                                         tracer.item, tracer.pass_index,
                                         tracer._open[name] == 0))
                else:
                    c = tracer.counters.setdefault((tracer.pass_index, name),
                                                   [0, 0.0])
                    c[0] += 1
                    c[1] += self_s
            if size_fn is not None:
                tracer.sizes.append((tracer.pass_index, name,
                                     size_fn(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Replace every target by its wrapper; ``uninstall`` undoes it."""
        targets = [(name, importlib.import_module("discred." + modname), attr, keep)
                   for name, modname, attr, keep in TARGETS]
        mods = [m for k, m in list(sys.modules.items())
                if k == "discred" or k.startswith("discred.")]
        for name, mod, attr, keep in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, keep))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, keep)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def per_pass(self, passes):
        """{pass: {name: {"calls", "s", "self_s", size...}}} plus the
        top-level span time per pass."""
        stats = {p: {} for p in passes}
        top = {p: 0.0 for p in passes}
        for _sid, parent, name, t0, t1, self_s, _item, p, outer in self.spans:
            d = stats[p].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["self_s"] += self_s
            if outer:
                d["s"] += t1 - t0
            if parent is None:
                top[p] += t1 - t0
        for (p, name), (calls, self_s) in self.counters.items():
            stats[p][name] = {"calls": calls, "s": self_s, "self_s": self_s}
        for p, name, sizes in self.sizes:
            d = stats[p].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, val in sizes.items():
                d["max_" + key] = max(d.get("max_" + key, 0), val)
                d["sum_" + key] = d.get("sum_" + key, 0) + val
        return stats, top

    def write(self, path, item_names):
        """Write the spans as JSON lines: a header naming the fields,
        then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end",
                                            "self_s", "item", "pass"],
                                 "items": list(item_names)}) + "\n")
            for sid, parent, name, t0, t1, self_s, item, p, _ in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0, 7), round(t1, 7),
                                     round(self_s, 7), item, p]) + "\n")


def _median_of(stats, name, field):
    return statistics.median(s.get(name, {}).get(field, 0) for s in stats)


def _max_of(stats, name, field):
    return max(s.get(name, {}).get(field, 0) for s in stats)


def layer_metrics(tracer, passes, traced_times, overhead_ratio, report_bytes):
    """Per-layer metrics, per pass (medians over the traced passes; the
    ``max_*`` sizes and ``k_used`` are maxima)."""
    stats, top = tracer.per_pass(passes)
    per = [stats[p] for p in passes]
    med = lambda n, f: _median_of(per, n, f)
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for name in ("exactlin.smith_normal_form", "exactlin.IntMatrix.new",
                 "exactlin.IntMatrix.apply", "cohomology.cohomology_group",
                 "cohomology.differential", "extension.build_extension",
                 "autbrd.require_valid_ad", "autbrd.induced_center_action",
                 "cohomology.coordinates_of", "cohomology.class_representative",
                 "cohomology.normalize", "abgroup.FGAbelianGroup.reduce"):
        put(name + ".calls", med(name, "calls"), "count")
    for name in ("exactlin.smith_normal_form", "exactlin.IntMatrix.new",
                 "exactlin.IntMatrix.apply", "cohomology.cohomology_group",
                 "cohomology.differential", "extension.classify",
                 "grouptable.validate_table", "grouptable.semidirect_product",
                 "grouptable.quotient", "grouptable.is_normal",
                 "grouptable.hom_check", "grouptable.find_isomorphism",
                 "grouptable.from_generators", "cli.main"):
        put(name + ".self_s", med(name, "self_s"), "s")
    for name in ("exactlin.congruence_kernel_basis",
                 "exactlin.cokernel_presentation", "exactlin.inverse_unimodular",
                 "cohomology.coordinates_of", "cohomology.class_representative",
                 "cohomology.stabilized_h2", "cohomology.gamma_module",
                 "cohomology.normalize", "abgroup.torsion_at",
                 "extension.build_extension", "extension.extract_cocycle",
                 "extension.pushout", "extension.quotient_mod_center",
                 "cli.load_problem", "rootdatum.validate_based",
                 "rootdatum.center_data", "rootdatum.weyl_generate",
                 "rootdatum.positive_systems", "standard.from_simple",
                 "autbrd.require_valid_ad", "autbrd.induced_center_action"):
        put(name + ".s", med(name, "s"), "s")
    put("exactlin.smith_normal_form.max_cells",
        _max_of(per, "exactlin.smith_normal_form", "max_cells"), "count")
    put("exactlin.smith_normal_form.sum_cells",
        med("exactlin.smith_normal_form", "sum_cells"), "count")
    put("cohomology.cohomology_group.max_dim",
        _max_of(per, "cohomology.cohomology_group", "max_dim"), "count")
    put("cohomology.stabilized_h2.levels",
        med("cohomology.stabilized_h2", "sum_levels"), "count")
    put("cohomology.stabilized_h2.k_used",
        _max_of(per, "cohomology.stabilized_h2", "max_k_used"), "count")
    put("extension.build_extension.max_order",
        _max_of(per, "extension.build_extension", "max_order"), "count")
    put("extension.pushout.max_semidirect_order",
        _max_of(per, "extension.pushout", "max_semidirect_order"), "count")
    put("grouptable.validate_table.max_order",
        _max_of(per, "grouptable.validate_table", "max_order"), "count")
    diffs = sum(s.get("cohomology.differential", {}).get("calls", 0) for s in per)
    norms = sum(s.get("cohomology.normalize", {}).get("calls", 0) for s in per)
    put("cohomology.differential_per_normalize", diffs / norms if norms else 0.0,
        "ratio")
    put("cli.report_bytes", statistics.median(report_bytes) if report_bytes else 0,
        "bytes")
    put("trace.coverage", statistics.median(
        top[p] / t for p, t in zip(passes, traced_times)), "ratio")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
