"""Every command's report on every bundled problem, compared byte for
byte with the checked-in report in tests/golden/: ``classify --format
json`` at tests/golden/<problem>.json, and every other report at
tests/golden/<command>/<problem>.<txt|json>.  Each problem rewritten
with explicit roots (``fresh_cli.explicit_problem``) gives the same
reports."""

import json
import os

import pytest

from discred.cli import main
from fresh_cli import explicit_problem, golden_path

HERE = os.path.dirname(__file__)
PROBLEMS = os.path.join(HERE, os.pardir, "src", "discred", "problems")
GOLDEN = os.path.join(HERE, "golden")
NAMES = sorted(f[:-len(".json")] for f in os.listdir(PROBLEMS)
               if f.endswith(".json"))
FORMATS = {"text": "txt", "json": "json"}
# (command, format) of every report kept under tests/golden/<command>/
REPORTS = [(cmd, fmt) for cmd in ("check", "center", "weyl", "dynkin")
           for fmt in FORMATS] + [("classify", "text")]


def _assert_identical(capsys, name, cmd, fmt, path, problems=PROBLEMS):
    code = main([cmd, "--input", os.path.join(problems, name + ".json"),
                 "--format", fmt])
    out = capsys.readouterr().out.encode()
    assert code == 0
    with open(path, "rb") as fh:
        assert out == fh.read()


def test_every_problem_has_a_report():
    assert NAMES == sorted(f[:-len(".json")] for f in os.listdir(GOLDEN)
                           if f.endswith(".json"))
    assert len(NAMES) == 9
    for cmd in sorted({cmd for cmd, _ in REPORTS}):
        want = sorted(os.path.basename(golden_path(name, c, fmt))
                      for name in NAMES for c, fmt in REPORTS if c == cmd)
        assert sorted(os.listdir(os.path.join(GOLDEN, cmd))) == want


@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(capsys, name):
    _assert_identical(capsys, name, "classify", "json",
                      os.path.join(GOLDEN, name + ".json"))


@pytest.mark.parametrize("cmd,fmt", REPORTS)
@pytest.mark.parametrize("name", NAMES)
def test_command_report_is_byte_identical(capsys, name, cmd, fmt):
    _assert_identical(capsys, name, cmd, fmt, golden_path(name, cmd, fmt))


@pytest.mark.parametrize("cmd,fmt", REPORTS + [("classify", "json")])
@pytest.mark.parametrize("name", NAMES)
def test_explicit_roots_report_is_byte_identical(capsys, tmp_path, name,
                                                 cmd, fmt):
    with open(os.path.join(PROBLEMS, name + ".json")) as fh:
        data = explicit_problem(json.load(fh))
    assert "roots" in data["datum"]
    (tmp_path / (name + ".json")).write_text(json.dumps(data))
    _assert_identical(capsys, name, cmd, fmt, golden_path(name, cmd, fmt),
                      str(tmp_path))
