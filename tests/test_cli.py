import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred import (autbrd, cohomology, exactlin, extension, rootdatum,
                     standard)
from discred.cli import main
from discred.grouptable import cyclic, from_generators

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "discred", "problems")


def problem(name):
    return os.path.join(PROBLEMS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "check", "--input",
                           problem("sl2_z2_trivial.json"))
        assert code == 0
        assert "all validations passed" in out

    def test_bad_schema(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": 99}')
        code, _, err = run(capsys, "check", "--input", str(p))
        assert code == 1 and "schema" in err

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_schema_equal_to_1_but_not_the_int(self, capsys, tmp_path,
                                               schema):
        """JSON ``true`` and ``1.0`` compare equal to 1 in Python; they
        are rejected, not read as schema 1."""
        with open(problem("sl2_z2_trivial.json")) as fh:
            data = json.load(fh)
        p = tmp_path / "p.json"
        p.write_text(json.dumps({**data, "schema": schema}))
        code, _, err = run(capsys, "check", "--input", str(p))
        assert code == 1
        assert f"unsupported schema version {schema!r}" in err

    def test_not_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        code, _, err = run(capsys, "check", "--input", str(p))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/nonexistent.json")
        assert code == 1

    @pytest.mark.parametrize("content", [
        b'{"schema": 1, "name": "\xff\xfe"}',
        b"[" * 100000 + b"]" * 100000,
        b'{"schema": 1, "name": ' + b"1" * 5000 + b"}",
    ], ids=["not_utf8", "too_deep", "int_too_long"])
    def test_unparsable_file_exits_1(self, tmp_path, content):
        """Bytes that are not UTF-8, nesting past the parser's recursion
        limit and an integer past the int-conversion limit each exit 1
        naming the file, from a fresh interpreter whose stderr would
        show a traceback."""
        p = tmp_path / "unparsable.json"
        p.write_bytes(content)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
        proc = subprocess.run(
            [sys.executable, "-m", "discred.cli", "check", "--input", str(p)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(p) in proc.stderr

    @pytest.mark.parametrize("name", [
        1.5, float("nan"), float("-inf"), -0.0, 2 ** 70,
        {"b": [1, {"a": None}, []], "a": {}, "\u00e9\n": "\u2028"},
    ], ids=["float", "nan", "minus_inf", "minus_zero", "wide_int", "nested"])
    def test_any_json_name_is_echoed(self, capsys, tmp_path, name):
        """The name is echoed as given, written as json writes it."""
        with open(problem("sl2_z2_trivial.json")) as fh:
            data = json.load(fh)
        data["name"] = name
        p = tmp_path / "named.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", "--input", str(p),
                           "--format", "json")
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), "golden", "check",
                               "sl2_z2_trivial.json")) as fh:
            want = json.load(fh)
        want["problem"] = name
        assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_invalid_datum(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "schema": 1,
            "datum": {"rank": 1, "simple_roots": [[2]],
                      "simple_coroots": [[2]]},
            "gamma": {"type": "cyclic", "n": 2},
        }))
        code, _, err = run(capsys, "check", "--input", str(p))
        assert code == 1

    def test_invalid_ad(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "schema": 1,
            "datum": {"rank": 2, "simple_roots": [[2, -1], [-1, 2]],
                      "simple_coroots": [[1, 0], [0, 1]]},
            "gamma": {"type": "cyclic", "n": 3},
            "ad": {"type": "generators", "matrices": [[[0, 1], [1, 0]]]},
        }))
        code, _, err = run(capsys, "check", "--input", str(p))
        assert code == 1 and "homomorphism" in err


class TestQueries:
    def test_center(self, capsys):
        code, out, _ = run(capsys, "center", "--input",
                           problem("sl2_z2_trivial.json"))
        assert code == 0 and "Z/2" in out

    def test_weyl(self, capsys):
        code, out, _ = run(capsys, "weyl", "--input", problem("g2_check.json"))
        assert code == 0 and "|W| = 12" in out
        assert "positive systems: 12" in out

    def test_dynkin_json(self, capsys):
        code, out, _ = run(capsys, "dynkin", "--input",
                           problem("b2_check.json"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["edges"] == [[0, 1, -2, -1]]


class TestClassify:
    @pytest.mark.parametrize("name,nclasses", [
        ("sl2_z2_trivial.json", 2),
        ("pgl2_z2_trivial.json", 1),
        ("gl2_z2_swap.json", 2),
        ("torus_inversion.json", 2),
        ("sl3_z2_flip.json", 1),
    ])
    def test_class_counts(self, capsys, name, nclasses):
        code, out, _ = run(capsys, "classify", "--input", problem(name),
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["classes"]) == nclasses
        splits = [c for c in data["classes"] if c["is_split"]]
        assert len(splits) == 1

    def test_d4_triality(self, capsys):
        code, out, _ = run(capsys, "classify", "--input",
                           problem("d4_adjoint_s3.json"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["classes"]) == 1
        assert data["center"]["description"] == "1"

    def test_byte_identical_reports(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "classify", "--input",
                               problem("sl2_z2_trivial.json"),
                               "--format", "json")
            assert code == 0
            outs.append(out.encode())
        assert outs[0] == outs[1]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--input",
                           problem("sl2_z2_trivial.json"))
        assert code == 0
        assert "classes: 2" in out and "nonsplit" in out

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "classify", "--input",
                           problem("sl2_z2_trivial.json"), "--budget", "1")
        assert code == 2 and "budget" in err.lower()

    def test_max_k_too_small(self, capsys):
        """A max_k below the default only shortens ``tower_orders``; the
        stable level comes from the center, not from max_k."""
        reports = []
        for extra in ([], ["--max-k", "2"]):
            code, out, _ = run(capsys, "classify", "--input",
                               problem("sl2_z2_trivial.json"),
                               "--format", "json", *extra)
            assert code == 0
            reports.append(json.loads(out))
        default, short = reports
        assert short["tower_orders"] == [2, 2]
        assert default["tower_orders"] == [2, 2, 2, 2]
        short["tower_orders"] = default["tower_orders"]
        assert short == default


def _type_a(n, torus=0):
    """SL_n, times GL1^torus: simply connected, the simple coroots the
    first n - 1 standard vectors, the simple roots the Cartan rows."""
    rank = n - 1 + torus
    roots = [[2 if i == j else -1 if abs(i - j) == 1 else 0
              for j in range(n - 1)] + [0] * torus for i in range(n - 1)]
    coroots = [[int(i == j) for j in range(rank)] for i in range(n - 1)]
    return {"rank": rank, "simple_roots": roots, "simple_coroots": coroots}


def _inverting_last(rank):
    return [[(-1 if i == rank - 1 else 1) * (i == j) for j in range(rank)]
            for i in range(rank)]


class TestTowerLevel:
    """Inputs whose stable tower level lies beyond level 2: the level is
    read off the center, so they exit 0 at the default max_k."""

    def _classify(self, capsys, tmp_path, datum, ad):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"schema": 1, "name": "tower", "datum": datum,
                                 "gamma": {"type": "cyclic", "n": 2},
                                 "ad": ad}))
        code, out, err = run(capsys, "classify", "--input", str(p),
                             "--format", "json")
        assert code == 0, err
        data = json.loads(out)
        return data["h2"]["invariant_factors"], data["k_used"]

    def test_sl4(self, capsys, tmp_path):
        """H^2(C2, Z/4) = Z/2, from level 2 in level 3."""
        assert self._classify(capsys, tmp_path, _type_a(4),
                              {"type": "trivial"}) == ([2], 3)

    def test_sl16(self, capsys, tmp_path):
        """H^2(C2, Z/16) = Z/2, from level 4 in level 5; comparing image
        orders over levels 1 to 4 answered 0 here."""
        assert self._classify(capsys, tmp_path, _type_a(16),
                              {"type": "trivial"}) == ([2], 5)

    @pytest.mark.parametrize("invert,h2", [(False, [2]), (True, [2, 2])])
    def test_sl4_times_gl1(self, capsys, tmp_path, invert, h2):
        """Z/4 x C*: H^2(C2, C*) is 0 under the trivial action and Z/2
        under inversion; with a torus and e = 2 the level is e + 2."""
        ad = ({"type": "generators", "matrices": [_inverting_last(4)]}
              if invert else {"type": "trivial"})
        assert self._classify(capsys, tmp_path, _type_a(4, 1), ad) == (h2, 4)

    def test_sl2_times_gl1_inversion(self, capsys, tmp_path):
        """Z/2 x C* with inversion on GL1: Z/2 + Z/2 at level e + 2 = 3."""
        datum = {"rank": 2, "simple_roots": [[2, 0]],
                 "simple_coroots": [[1, 0]]}
        ad = {"type": "generators", "matrices": [_inverting_last(2)]}
        assert self._classify(capsys, tmp_path, datum, ad) == ([2, 2], 3)


class TestRoundTrip:
    def test_report_is_machine_readable(self, capsys):
        code, out, _ = run(capsys, "classify", "--input",
                           problem("gl2_z2_swap.json"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        # cocycle values land back in the reported coefficient group
        factors = data["coefficient_group"]["invariant_factors"]
        for cls in data["classes"]:
            for pair, value in cls["cocycle"]:
                assert len(pair) == 2
                assert all(0 <= v < f for v, f in zip(value, factors))


def _problem_with(tmp_path, **overrides):
    with open(problem("sl2_z2_trivial.json")) as fh:
        data = json.load(fh)
    data.update(overrides)
    p = tmp_path / "p.json"
    p.write_text(json.dumps(data))
    return str(p)


class TestStrictIntegers:
    @pytest.mark.parametrize("value", ["abc", 0, -1, True, 2.5, 4.0, None])
    def test_bad_max_k(self, capsys, tmp_path, value):
        code, _, err = run(capsys, "classify", "--input",
                           _problem_with(tmp_path, max_k=value))
        assert code == 1 and "max_k" in err
        assert "Traceback" not in err

    def test_good_max_k(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", "--input",
                           _problem_with(tmp_path, max_k=5))
        assert code == 0 and "classes: 2" in out

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", ""])
    def test_bad_max_k_option(self, capsys, value):
        code, _, err = run(capsys, "classify", "--input",
                           problem("sl2_z2_trivial.json"), "--max-k", value)
        assert code == 1 and "--max-k" in err

    @pytest.mark.parametrize("flag,value", [
        ("--budget", "abc"), ("--budget", "0"), ("--budget", "-5"),
        ("--budget", "2.5"), ("--budget", ""), ("--seed", "x"),
        ("--seed", "1.5"), ("--format", "xml")])
    def test_bad_option_exits_1(self, capsys, flag, value):
        """Option errors are invalid input: exit 1 naming the flag, never
        argparse's exit 2, which reads as "budget exceeded"."""
        for command in ("check", "classify"):
            code, _, err = run(capsys, command, "--input",
                               problem("sl2_z2_trivial.json"), flag, value)
            assert code == 1 and flag in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "center", "weyl", "dynkin"])
    @pytest.mark.parametrize("flag,value", [("--budget", "5"),
                                            ("--seed", "1")])
    def test_budget_and_seed_are_classify_only(self, capsys, command, flag,
                                               value):
        code, out, err = run(capsys, command, "--input",
                             problem("sl2_z2_trivial.json"), flag, value)
        assert code == 1 and flag in err and out == ""

    @pytest.mark.parametrize("argv,named", [
        (["frob", "--input", "x.json"], "frob"), ([], "command"),
        (["check"], "--input"), (["check", "--input", "x.json", "--bogus"],
                                 "--bogus")])
    def test_usage_error_exits_1(self, capsys, argv, named):
        code, _, err = run(capsys, *argv)
        assert code == 1 and named in err

    def test_negative_seed_is_recorded(self, capsys):
        code, out, _ = run(capsys, "classify", "--input",
                           problem("sl2_z2_trivial.json"), "--seed", "-3",
                           "--format", "json")
        assert code == 0 and json.loads(out)["seed"] == -3

    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: discred")

    @pytest.mark.parametrize("value", [0, -2, 2.5, 2.0, True, "2", None])
    def test_bad_cyclic_order(self, capsys, tmp_path, value):
        path = _problem_with(tmp_path, gamma={"type": "cyclic", "n": value})
        for command in ("check", "classify"):
            code, _, err = run(capsys, command, "--input", path)
            assert code == 1 and "gamma.n" in err


_SL2_ROOTS = {"schema": 1, "name": "sl2_roots",
              "datum": {"rank": 1, "roots": [[2], [-2]],
                        "coroots": [[1], [-1]], "simple_indices": [0]},
              "gamma": {"type": "table", "table": [[0, 1], [1, 0]]}}
_SL2_PERMS = {"schema": 1, "name": "sl2_perms",
              "datum": {"rank": 1, "simple_roots": [[2]],
                        "simple_coroots": [[1]]},
              "gamma": {"type": "permutations", "degree": 2,
                        "generators": [[1, 0]]}}


def _gl2_swap():
    with open(problem("gl2_z2_swap.json")) as fh:
        return json.load(fh)


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


# (field, problem, path to one integer, a value int() would coerce)
_FIELD_CASES = [
    ("datum.rank", lambda: _SL2_PERMS, ("datum", "rank"), True),
    ("datum.rank", _gl2_swap, ("datum", "rank"), 2.0),
    ("datum.simple_roots", _gl2_swap, ("datum", "simple_roots", 0, 0), 1.0),
    ("datum.simple_coroots", _gl2_swap, ("datum", "simple_coroots", 0, 0),
     True),
    ("datum.roots", lambda: _SL2_ROOTS, ("datum", "roots", 0, 0), 2.0),
    ("datum.coroots", lambda: _SL2_ROOTS, ("datum", "coroots", 1, 0), -1.0),
    ("datum.simple_indices", lambda: _SL2_ROOTS,
     ("datum", "simple_indices", 0), False),
    ("gamma.degree", lambda: _SL2_PERMS, ("gamma", "degree"), 2.7),
    ("gamma.generators", lambda: _SL2_PERMS, ("gamma", "generators", 0, 0),
     True),
    ("gamma.table", lambda: _SL2_ROOTS, ("gamma", "table", 1, 1), 0.0),
    ("ad.matrices", _gl2_swap, ("ad", "matrices", 0, 0, 1), -1.0),
]


class TestGeneratorMatrixCount:
    @pytest.mark.parametrize("extra", [1, -1])
    def test_wrong_count_rejected(self, capsys, tmp_path, extra):
        data = _gl2_swap()
        mats = data["ad"]["matrices"]
        data["ad"]["matrices"] = (mats + [[[1, 0], [0, 1]]] if extra > 0
                                  else [])
        p = tmp_path / "p.json"
        p.write_text(json.dumps(data))
        for command in ("check", "classify"):
            code, _, err = run(capsys, command, "--input", str(p))
            assert code == 1 and "ad.matrices" in err
            assert "Traceback" not in err

    def test_permutation_generators_counted(self, capsys, tmp_path):
        data = json.loads(json.dumps(_SL2_PERMS))
        data["gamma"]["generators"] = [[1, 0], [0, 1]]
        data["ad"] = {"type": "generators", "matrices": [[[1]], [[1]]]}
        p = tmp_path / "p.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "classify", "--input", str(p))
        assert code == 0, err
        data["ad"]["matrices"] = [[[1]]]
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "classify", "--input", str(p))
        assert code == 1 and "ad.matrices" in err


    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_table_gamma_rejected(self, capsys, tmp_path, command):
        """A table gamma has no construction generators, so generator
        images cannot be extended; the error names the ad fields and
        points to per-element matrices."""
        data = _gl2_swap()
        data["gamma"] = {"type": "table", "table": [[0, 1], [1, 0]]}
        p = tmp_path / "p.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, command, "--input", str(p))
        assert code == 1
        assert "ad.type" in err and "ad.matrices" in err
        assert "'elements'" in err and "Traceback" not in err


class TestElementMatrixCount:
    def test_wrong_count_rejected(self, capsys, tmp_path):
        data = _gl2_swap()
        data["ad"] = {"type": "elements", "matrices": [[[1, 0], [0, 1]]]}
        p = tmp_path / "p.json"
        p.write_text(json.dumps(data))
        for command in ("check", "classify"):
            code, _, err = run(capsys, command, "--input", str(p))
            assert code == 1 and "ad.matrices" in err and "(2)" in err
            assert "Traceback" not in err

    def test_one_matrix_per_element(self, capsys, tmp_path):
        data = _gl2_swap()
        data["ad"] = {"type": "elements",
                      "matrices": [[[1, 0], [0, 1]], [[0, -1], [-1, 0]]]}
        p = tmp_path / "p.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "classify", "--input", str(p))
        assert code == 0, err


class TestGroupCap:
    def test_cyclic_over_cap_exits_2(self, capsys, tmp_path):
        path = _problem_with(tmp_path, gamma={"type": "cyclic", "n": 100000})
        code, _, err = run(capsys, "classify", "--input", path)
        assert code == 2 and "group closure exceeds cap 10000" in err


def _count(monkeypatch, counts, module, name):
    """Count the calls of ``module.name`` in ``counts[name]``."""
    inner = getattr(module, name)
    counts.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def _d4_roots_problem(tmp_path):
    """d4_adjoint_s3.json with its datum given by explicit roots."""
    with open(problem("d4_adjoint_s3.json")) as fh:
        data = json.load(fh)
    datum = standard.d4_adjoint().datum
    data["datum"] = {"rank": datum.rank, "roots": datum.roots,
                     "coroots": datum.coroots,
                     "simple_indices": [0, 1, 2, 3]}
    path = tmp_path / "d4_roots.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestOnceOnly:
    @staticmethod
    def _classify_checks(capsys, monkeypatch, path):
        counts = {}
        _count(monkeypatch, counts, rootdatum, "close_simple")
        _count(monkeypatch, counts, standard, "close_simple")
        _count(monkeypatch, counts, autbrd, "validate_ad")
        code, out, _ = run(capsys, "classify", "--input", path,
                           "--format", "json")
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), "golden",
                               "d4_adjoint_s3.json")) as fh:
            assert out == fh.read()
        return counts["close_simple"], counts["validate_ad"]

    def test_classify_validates_datum_and_ad_once(self, capsys, monkeypatch):
        """Simple roots: the closure that builds the datum is the check of
        the root-datum axioms, so the check closes nothing again."""
        counts = self._classify_checks(capsys, monkeypatch,
                                       problem("d4_adjoint_s3.json"))
        assert counts == (1, 1)

    def test_classify_validates_explicit_roots_once(
            self, capsys, monkeypatch, tmp_path):
        """Explicit roots: the check closes their simple data once, and
        the report is the same."""
        counts = self._classify_checks(capsys, monkeypatch,
                                       _d4_roots_problem(tmp_path))
        assert counts == (1, 1)

    @staticmethod
    def _weyl_counts(capsys, monkeypatch, path):
        counts = {}
        _count(monkeypatch, counts, exactlin, "smith_normal_form")
        _count(monkeypatch, counts, rootdatum, "smith_normal_form")
        _count(monkeypatch, counts, rootdatum, "close_simple")
        _count(monkeypatch, counts, standard, "close_simple")
        code, out, _ = run(capsys, "weyl", "--input", path)
        assert code == 0 and "|W| = 192" in out
        return counts

    def test_weyl_expresses_roots_once(self, capsys, monkeypatch):
        """A datum given by simple roots keeps the coefficients the
        closure that built it found, so its verdict and R+ close nothing
        again and take one Smith form, whose rank decides independence;
        solving for every root took one more Smith form, a kernel basis
        another and solving again for R+ a third."""
        counts = self._weyl_counts(capsys, monkeypatch,
                                   problem("d4_adjoint_s3.json"))
        assert counts == {"smith_normal_form": 1, "close_simple": 1}

    def test_explicit_roots_solve_once(self, capsys, monkeypatch, tmp_path):
        """Explicit roots: the verdict and R+ share one closure of the
        simple data and the one Smith form, which solves nothing."""
        counts = self._weyl_counts(capsys, monkeypatch,
                                   _d4_roots_problem(tmp_path))
        assert counts == {"smith_normal_form": 1, "close_simple": 1}

    @pytest.mark.parametrize("name,calls", [
        ("sl2_z2_trivial.json", 1), ("gl2_z2_swap.json", 2)])
    def test_tower_computes_each_distinct_module_once(
            self, capsys, monkeypatch, name, calls):
        """SL2 has no torus, so its levels Z(G)[2^k] = Z/2 are one module
        from level max(e, 1) = 1 on and share one H^2, where each of the
        four levels took its own.  GL2's levels C*[2^k] all differ, but
        from level e + 1 = 1 on they have one order, so only levels 1
        and k_used = 2 are computed, where all four were."""
        counts = {}
        _count(monkeypatch, counts, cohomology, "cohomology_group")
        code, out, _ = run(capsys, "classify", "--input", problem(name),
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["tower_orders"]) == 4
        assert counts == {"cohomology_group": calls}

    def test_huge_max_k_lists_levels_without_computing_them(
            self, capsys, monkeypatch):
        """C* under inversion has a torus and e = 0: levels from 1 on have
        one order, so ``--max-k 1000000`` lists a million orders and
        computes H^2 at levels 1 and k_used = 2 only, where it built
        every level."""
        counts = {}
        _count(monkeypatch, counts, cohomology, "cohomology_group")
        code, out, err = run(capsys, "classify", "--input",
                             problem("torus_inversion.json"),
                             "--max-k", "1000000", "--format", "json")
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)
        orders, k_used = report["tower_orders"], report["k_used"]
        assert len(orders) == 10 ** 6
        assert set(orders[k_used - 1:]) == {orders[k_used - 1]}
        assert counts["cohomology_group"] <= k_used

    def test_oversized_max_k_exits_before_ad_and_modules(
            self, capsys, monkeypatch):
        """The report lists max(max_k, k_used) tower orders, and the
        budget counts them: ``--max-k 100000000`` (about 700 MB of
        report) exits 2 before any ``ad`` check or module."""
        counts = {}
        _count(monkeypatch, counts, autbrd, "validate_ad")
        _count(monkeypatch, counts, cohomology, "gamma_module")
        _count(monkeypatch, counts, extension, "gamma_module")
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--input",
                             problem("torus_inversion.json"),
                             "--max-k", "100000000", "--format", "json")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("budget exceeded: tower_orders length 100000000 "
                       "exceeds budget 2000000\n")
        assert counts == {"validate_ad": 0, "gamma_module": 0}

    def test_max_k_at_the_budget_is_listed(self, capsys):
        code, out, _ = run(capsys, "classify", "--input",
                           problem("torus_inversion.json"), "--max-k", "40",
                           "--budget", "40", "--format", "json")
        assert code == 0 and len(json.loads(out)["tower_orders"]) == 40
        code, _, err = run(capsys, "classify", "--input",
                           problem("torus_inversion.json"), "--max-k", "41",
                           "--budget", "40")
        assert code == 2 and "tower_orders length 41 exceeds budget 40" in err

    def test_oversized_gamma_exits_before_ad_and_modules(
            self, capsys, monkeypatch, tmp_path):
        counts = {}
        _count(monkeypatch, counts, autbrd, "validate_ad")
        _count(monkeypatch, counts, cohomology, "gamma_module")
        _count(monkeypatch, counts, extension, "gamma_module")
        path = _problem_with(tmp_path, gamma={"type": "cyclic", "n": 40})
        code, _, err = run(capsys, "classify", "--input", path)
        assert code == 2 and "budget" in err
        # classify's gate on the canonical-form basis, (n - 1)^2 = 1521
        # coordinates: 1521^2 > 2M
        assert "canonical form size 1521x1521 exceeds budget" in err
        assert counts == {"validate_ad": 0, "gamma_module": 0}


class TestParserReuse:
    def test_reports_match_fresh_processes(self, capsys):
        """One parser serves every ``main`` call of a process; no option
        value or default carries over from one call to the next."""
        path = problem("sl2_z2_trivial.json")
        calls = [["check", "--input", path, "--format", "json"],
                 ["classify", "--input", path, "--max-k", "2"],
                 ["classify", "--input", path]]
        in_process = [run(capsys, *argv) for argv in calls]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "discred.cli"] + argv,
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0]


class TestStrictFields:
    @pytest.mark.parametrize("make", [_gl2_swap, lambda: _SL2_ROOTS,
                                      lambda: _SL2_PERMS])
    def test_base_problems_classify(self, capsys, tmp_path, make):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(make()))
        code, _, err = run(capsys, "classify", "--input", str(p))
        assert code == 0, err

    @pytest.mark.parametrize("field,make,path,value", _FIELD_CASES)
    def test_non_integer_rejected(self, capsys, tmp_path, field, make, path,
                                  value):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(_replaced(make(), path, value)))
        for command in ("check", "classify"):
            code, _, err = run(capsys, command, "--input", str(p))
            assert code == 1 and field in err
            assert "Traceback" not in err


# Fuzzing: mutated bundled problem files, run in process.

_COMMANDS = ("check", "center", "weyl", "dynkin", "classify")
_BUNDLED = sorted(f for f in os.listdir(PROBLEMS) if f.endswith(".json"))
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                         st.floats(-3, 6, allow_nan=False),
                         st.text(max_size=3))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)
_FUZZ_GROUPS = [cyclic(n) for n in range(1, 7)] + [
    from_generators(3, [(1, 0, 2), (1, 2, 0)]),                      # S3
    from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)]),                # V4
]


def _paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _gamma_tables(draw):
    """Square tables of three kinds: random entries (some out of range);
    a two-sided identity and inverses but random otherwise, so that only
    associativity can fail; relabeled group tables with up to two
    entries changed."""
    kind = draw(st.sampled_from(["random", "identity", "group"]))
    if kind != "group":
        n = draw(st.integers(1, 5))
        low, high = (-1, n) if kind == "random" else (0, n - 1)
        table = [draw(st.lists(st.integers(low, high), min_size=n,
                               max_size=n)) for _ in range(n)]
        if kind == "identity":
            for x in range(n):
                table[0][x] = table[x][0] = x
                y = draw(st.integers(1, n - 1)) if x else 0
                table[x][y] = table[y][x] = 0
        return table
    G = draw(st.sampled_from(_FUZZ_GROUPS))
    perm = draw(st.permutations(range(G.order)))
    table = [[None] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, G.order - 1))
        b = draw(st.integers(0, G.order - 1))
        table[a][b] = draw(st.integers(0, G.order - 1))
    return table


@st.composite
def _mutated_problems(draw):
    """A bundled problem, with gamma replaced by a table (and ad made
    trivial, or left as it was) and/or values replaced or deleted
    anywhere in the file."""
    with open(problem(draw(st.sampled_from(_BUNDLED)))) as fh:
        data = json.load(fh)
    as_table = draw(st.booleans())
    if as_table:
        data["gamma"] = {"type": "table", "table": draw(_gamma_tables())}
        if draw(st.booleans()):
            data["ad"] = {"type": "trivial"}
    for _ in range(draw(st.integers(0 if as_table else 1, 2))):
        path = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return data


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=_mutated_problems(), command=st.sampled_from(_COMMANDS),
           fmt=st.sampled_from(["text", "json"]))
    def test_exit_code_and_no_traceback(self, data, command, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "problem.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--input", path, "--format", fmt])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
