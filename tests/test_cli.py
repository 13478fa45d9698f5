import json
import os

import pytest

from discred.cli import main

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

    def test_not_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        code, _, err = run(capsys, "check", "--input", str(p))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/nonexistent.json")
        assert code == 1

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
        code, _, err = run(capsys, "classify", "--input",
                           problem("sl2_z2_trivial.json"), "--max-k", "2")
        assert code == 2 and "stabilize" in err


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
