"""The ``classify --format json`` report of every bundled problem,
compared byte for byte with the checked-in report in tests/golden/."""

import os

import pytest

from discred.cli import main

HERE = os.path.dirname(__file__)
PROBLEMS = os.path.join(HERE, os.pardir, "src", "discred", "problems")
GOLDEN = os.path.join(HERE, "golden")
NAMES = sorted(f[:-len(".json")] for f in os.listdir(PROBLEMS)
               if f.endswith(".json"))


def test_every_problem_has_a_report():
    assert NAMES == sorted(f[:-len(".json")] for f in os.listdir(GOLDEN))
    assert len(NAMES) == 9


@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(capsys, name):
    code = main(["classify", "--input", os.path.join(PROBLEMS, name + ".json"),
                 "--format", "json"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert out == fh.read()
