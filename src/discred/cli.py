"""Command-line interface.

Problems are JSON files describing a based root datum, a finite
component group, and its action on the based datum.  Every command is
deterministic: reports are emitted with sorted keys and stable ordering,
so identical inputs give byte-identical output.

Exit codes: 0 success, 1 invalid input (an option error included), 2
budget exceeded, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from operator import add

from .abgroup import DiagonalizableGroup
from .autbrd import (AdHom, ad_from_element_images, ad_from_generator_images,
                     require_valid_ad, trivial_ad)
from .errors import BudgetExceededError, InternalCheckError, ValidationError
from .grouptable import FiniteGroup, cyclic, from_generators, validate_table
from .rootdatum import (BasedRootDatum, RootDatum, center, dynkin,
                        positive_systems, require_valid_based, weyl_generate)
from .standard import from_simple

SCHEMA_VERSION = 1


def load_problem(path):
    """Parse and validate a problem file, read as UTF-8 whatever the
    locale; raises ValidationError on any malformed input, also on text
    that is not UTF-8, nesting deeper than the parser's recursion limit
    and integers longer than Python's int-conversion limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read problem file: {e}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"problem file {path} is not valid JSON: {e}")
    except UnicodeDecodeError as e:
        raise ValidationError(f"problem file {path} is not UTF-8: {e}")
    except (RecursionError, ValueError) as e:
        raise ValidationError(f"problem file {path} cannot be parsed: {e}")
    if not isinstance(data, dict):
        raise ValidationError("problem file must contain a JSON object")
    schema = data.get("schema")
    # the int 1 only: true and 1.0 compare equal to it, but are not it
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema version {schema!r}; "
            f"expected {SCHEMA_VERSION}")
    return data


def _integer(value, field, minimum=None):
    """``value`` when it is an integer (>= ``minimum`` if given); JSON
    bools and floats are rejected, never coerced."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{field} must be an integer{bound}, "
                              f"got {value!r}")
    return value


def _int_array(value, field, depth):
    """``value`` as nested tuples of integers, ``depth`` list levels deep;
    JSON bools, floats and strings are rejected, never coerced."""
    if depth == 0:
        return _integer(value, field)
    if not isinstance(value, list):
        raise ValidationError(f"{field} must be a nested list of integers, "
                              f"got {value!r}")
    return tuple(_int_array(v, field, depth - 1) for v in value)


def _int_option(text, flag, minimum=None):
    """A command-line integer option (>= ``minimum`` if given)."""
    try:
        text = int(text)
    except ValueError:
        pass  # still a string, which ``_integer`` rejects naming the flag
    return _integer(text, flag, minimum)


def _parse_based(data) -> BasedRootDatum:
    try:
        d = data["datum"]
        rank = _integer(d["rank"], "datum.rank", 0)
        if "roots" in d:
            datum = RootDatum(rank, _int_array(d["roots"], "datum.roots", 2),
                              _int_array(d["coroots"], "datum.coroots", 2))
            based = BasedRootDatum(datum, _int_array(
                d["simple_indices"], "datum.simple_indices", 1))
        else:
            based = from_simple(
                rank, _int_array(d["simple_roots"], "datum.simple_roots", 2),
                _int_array(d["simple_coroots"], "datum.simple_coroots", 2))
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed datum section: {e}")
    require_valid_based(based)
    return based


def _parse_gamma(data) -> FiniteGroup:
    try:
        g = data["gamma"]
        kind = g["type"]
        if kind == "cyclic":
            return cyclic(_integer(g["n"], "gamma.n", 1))
        if kind == "permutations":
            return from_generators(
                _integer(g["degree"], "gamma.degree", 0),
                _int_array(g["generators"], "gamma.generators", 2))
        if kind == "table":
            return validate_table(_int_array(g["table"], "gamma.table", 2))
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed gamma section: {e}")
    raise ValidationError(f"unknown gamma type {kind!r}")


def _parse_ad(data, based, gamma) -> AdHom:
    try:
        a = data.get("ad", {"type": "trivial"})
        kind = a["type"]
        if kind == "trivial":
            ad = trivial_ad(based, gamma)
        elif kind == "generators":
            mats = _int_array(a["matrices"], "ad.matrices", 3)
            ngens = gamma.generator_count
            if ngens is None:
                raise ValidationError(
                    "ad.type 'generators' needs a gamma built from "
                    "generators; a 'table' gamma has none, so give "
                    "ad.matrices one matrix per gamma element with ad.type "
                    "'elements'")
            if len(mats) != ngens:
                raise ValidationError(
                    f"ad.matrices must hold one matrix per gamma generator "
                    f"({ngens}), got {len(mats)}")
            ad = ad_from_generator_images(based, gamma, mats)
        elif kind == "elements":
            mats = _int_array(a["matrices"], "ad.matrices", 3)
            if len(mats) != gamma.order:
                raise ValidationError(
                    f"ad.matrices must hold one matrix per gamma element "
                    f"({gamma.order}), got {len(mats)}")
            ad = ad_from_element_images(based, gamma, mats)
        else:
            raise ValidationError(f"unknown ad type {kind!r}")
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed ad section: {e}")
    return ad


def _group_json(G):
    return {"free_rank": G.free_rank,
            "invariant_factors": list(G.invariant_factors),
            "description": G.describe()}


def _diag_json(Z: DiagonalizableGroup):
    return {"torus_rank": Z.torus_rank,
            "finite_invariant_factors": list(Z.finite_part.invariant_factors),
            "description": Z.describe()}


def _cochain_json(c):
    """The pairs of a cochain as lists, for the text format; the JSON
    writer writes a cochain from its entries."""
    return [[list(k), list(v)] for k, v in c.values]


def _classification_json(cls):
    return {
        "center": _diag_json(cls.center),
        "h2": _group_json(cls.group),
        "k_used": cls.k_used,
        "torsion_level": cls.torsion_level,
        "tower_orders": list(cls.tower_orders),
        "coefficient_group": _group_json(cls.module.coeff),
        "classes": [
            {"coordinates": list(d.coordinates),
             "is_split": d.is_split,
             "torsion_level": d.torsion_level,
             "cocycle": d.cocycle}
            for d in cls.descriptors
        ],
    }


_INFINITY = float("inf")


def _float_text(x):
    """A float as ``json.dumps`` writes it."""
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


class _ValueTexts(dict):
    """The JSON text of each coefficient element, a tuple of ints, as a
    list whose brackets stand at ``indent``; made on first use."""

    def __init__(self, indent):
        super().__init__()
        self.open = "[\n" + indent + "  "
        self.sep = ",\n" + indent + "  "
        self.close = "\n" + indent + "]"

    def __missing__(self, v):
        text = self[v] = (self.open + self.sep.join(map(int.__repr__, v))
                          + self.close) if v else "[]"
        return text


def _cochain_blocks(p, n, indent):
    """For a cochain of degree p on a group of order n written as a list
    at ``indent``: the text before each entry's value (the brackets and
    indentation around it and its key), the text after the last value,
    and the value texts."""
    inner, key = indent + "  ", indent + "    "
    sep = ",\n" + key + "  "
    keys = [("[\n" + key + "  " + sep.join(map(str, k)) + "\n" + key + "]")
            if p else "[]" for k in product(range(n), repeat=p)]
    pre = ["[\n" + inner + "[\n" + key + keys[0] + ",\n" + key]
    pre += ["\n" + inner + "],\n" + inner + "[\n" + key + k + ",\n" + key
            for k in keys[1:]]
    return pre, "\n" + inner + "]\n" + indent + "]", _ValueTexts(key)


def report_text(report):
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte,
    where a ``Cochain`` stands for the list of its [key, value] pairs.

    Dicts, lists, str, int, bool, None and floats are written as json
    writes them (a problem's ``name`` is echoed and may be any JSON
    value).  A cochain is written from its entries in product order:
    the text around each value, keys and indentation included, is made
    once per (degree, group order, indent) in a report, and so is each
    distinct value's text."""
    out = []
    write = out.append
    blocks = {}     # (degree, group order, indent) -> _cochain_blocks

    def put(v, indent):
        if isinstance(v, str):
            write(_quote(v))
        elif v is None:
            write("null")
        elif v is True:
            write("true")
        elif v is False:
            write("false")
        elif isinstance(v, int):
            write(int.__repr__(v))
        elif isinstance(v, float):
            write(_float_text(v))
        elif isinstance(v, list):
            if not v:
                write("[]")
                return
            inner = indent + "  "
            sep = "[\n" + inner
            for item in v:
                write(sep)
                put(item, inner)
                sep = ",\n" + inner
            write("\n" + indent + "]")
        elif isinstance(v, dict):
            if not v:
                write("{}")
                return
            inner = indent + "  "
            sep = "{\n" + inner
            for k, item in sorted(v.items()):
                write(sep + _quote(k) + ": ")
                put(item, inner)
                sep = ",\n" + inner
            write("\n" + indent + "}")
        else:
            # only classify reports hold cochains, and it has loaded the
            # engine; the other commands never import it
            from .cohomology import Cochain
            if not isinstance(v, Cochain):
                raise TypeError(f"Object of type {type(v).__name__} "
                                f"is not JSON serializable")
            entries, p = v.entries, v.degree
            if not entries:
                write("[]")
                return
            n = round(len(entries) ** (1 / p)) if p else 0
            key = (p, n, indent)
            if key not in blocks:
                blocks[key] = _cochain_blocks(p, n, indent)
            pre, tail, texts = blocks[key]
            write("".join(map(add, pre, map(texts.__getitem__, entries))))
            write(tail)

    put(report, "")
    return "".join(out)


def emit(report, fmt, text_lines):
    """Print a command's result: ``report`` through ``report_text`` for
    ``--format json``, else the text lines.  The problem's ``name`` is
    echoed as given; a value that the parser accepted but that nests
    deeper than the writer's recursion can go is invalid input."""
    if fmt == "json":
        try:
            text = report_text(report)
        except RecursionError:
            raise ValidationError("the report nests deeper than the "
                                  "recursion limit (the problem's name is "
                                  "echoed as given)") from None
        print(text)
    else:
        for line in text_lines:
            print(line)


def cmd_check(args):
    data = load_problem(args.input)
    based = _parse_based(data)
    gamma = _parse_gamma(data)
    require_valid_ad(based, _parse_ad(data, based, gamma))
    report = {"command": "check", "ok": True,
              "problem": data.get("name"),
              "rank": based.datum.rank,
              "num_roots": based.datum.nroots,
              "gamma_order": gamma.order}
    emit(report, args.format, [
        f"problem: {data.get('name')}",
        f"datum: rank {based.datum.rank}, {based.datum.nroots} roots",
        f"gamma: order {gamma.order}",
        "all validations passed",
    ])
    return 0


def cmd_center(args):
    data = load_problem(args.input)
    based = _parse_based(data)
    Z = center(based.datum)
    report = {"command": "center", "problem": data.get("name"),
              "center": _diag_json(Z)}
    emit(report, args.format, [f"Z(G) = {Z.describe()}"])
    return 0


def cmd_weyl(args):
    data = load_problem(args.input)
    based = _parse_based(data)
    W = weyl_generate(based)
    systems = positive_systems(W, based)
    report = {"command": "weyl", "problem": data.get("name"),
              "order": W.order, "positive_systems": len(systems)}
    emit(report, args.format, [
        f"|W| = {W.order}",
        f"positive systems: {len(systems)}",
    ])
    return 0


def cmd_dynkin(args):
    data = load_problem(args.input)
    based = _parse_based(data)
    diag = dynkin(based)
    report = {"command": "dynkin", "problem": data.get("name"),
              "vertices": list(diag.vertices),
              "edges": [list(e) for e in diag.edges]}
    lines = [f"vertices: {len(diag.vertices)}"]
    for i, j, down, up in diag.edges:
        lines.append(f"edge {i} -- {j}  pairings ({down}, {up})")
    emit(report, args.format, lines)
    return 0


def cmd_classify(args):
    # only classify needs the cohomology engine (extension, cohomology,
    # relations); the other commands never compile it
    from .extension import classify

    budget = _int_option(args.budget, "--budget", 1)
    seed = _int_option(args.seed, "--seed")
    data = load_problem(args.input)
    based = _parse_based(data)
    gamma = _parse_gamma(data)
    ad = _parse_ad(data, based, gamma)
    if args.max_k is not None:
        max_k = _int_option(args.max_k, "--max-k", 1)
    else:
        max_k = _integer(data.get("max_k", 4), "max_k", 1)
    cls = classify(based, ad, max_k=max_k, budget=budget)
    report = {"command": "classify", "problem": data.get("name"),
              "seed": seed}
    report.update(_classification_json(cls))
    lines = [
        f"Z(G) = {cls.center.describe()}",
        f"H^2(Gamma, Z_fin) = {cls.group.describe()}"
        f"  (stable at torsion level {cls.torsion_level})",
        f"classes: {len(cls.descriptors)}",
    ]
    for d in cls.descriptors:
        tag = "split" if d.is_split else "nonsplit"
        lines.append(f"  class {list(d.coordinates)} [{tag}] "
                     f"cocycle {_cochain_json(d.cocycle)}")
    emit(report, args.format, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input, exit 1 through ``main``;
    argparse's own exit 2 would read as "budget exceeded"."""

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    p = _Parser(
        prog="discred",
        description="Disconnected reductive groups over a based root datum: "
                    "centers, Weyl groups, and extension classification.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, desc in [
        ("check", cmd_check, "validate a problem file"),
        ("center", cmd_center, "center of the connected group"),
        ("weyl", cmd_weyl, "Weyl group order and positive systems"),
        ("dynkin", cmd_dynkin, "Dynkin diagram of the based datum"),
        ("classify", cmd_classify,
         "classify disconnected groups with the given component data"),
    ]:
        sp = sub.add_parser(name, description=desc)
        sp.add_argument("--input", required=True, help="problem JSON file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if name == "classify":
            sp.add_argument("--budget", default="2000000",
                            help="cap on intermediate problem size "
                                 "(integer >= 1)")
            sp.add_argument("--seed", default="0",
                            help="recorded in reports (integer); all "
                                 "computations are deterministic")
            sp.add_argument("--max-k", default=None,
                            help="levels listed in tower_orders "
                                 "(at least k_used)")
        sp.set_defaults(fn=fn)
    return p


@cache
def _parser():
    """The parser ``main`` uses, built once per process; parsing leaves
    it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
