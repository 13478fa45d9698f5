"""The CLI's report writer against ``json.dumps(indent=2, sort_keys=True)``:
byte for byte on arbitrary JSON values, and on reports holding cochains,
which it writes from their entries where the old report path listed
their pairs (``_cochain_json``)."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discred.cli import _cochain_json, emit, report_text
from discred.cohomology import Cochain
from discred.errors import ValidationError


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_matches_json_dumps(value):
    assert report_text(value) == dumps(value)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324,
    2 ** 64, -(2 ** 100), "", "\x00\x1f é\U0001f600\"\\",
    [], {}, [[]], [{}], {"a": []}, {"": {"": None}},
    {"b": 1, "a": [True, False, None], "é": 0.5},
])
def test_matches_json_dumps_on_edges(value):
    assert report_text(value) == dumps(value)


@st.composite
def _cochains(draw):
    """A cochain of degree 0 to 3 on a group of order 1 to 3, with
    values of t = 0 to 3 coordinates."""
    p = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    t = draw(st.integers(0, 3))
    value = st.tuples(*[st.integers(-2, 5)] * t)
    return Cochain(p, tuple(draw(st.lists(value, min_size=n ** p,
                                          max_size=n ** p))))


def _as_pairs(report):
    """The report with each cochain replaced by its listed pairs, as the
    old report path built it."""
    if isinstance(report, Cochain):
        return _cochain_json(report)
    if isinstance(report, dict):
        return {k: _as_pairs(v) for k, v in report.items()}
    if isinstance(report, list):
        return [_as_pairs(v) for v in report]
    return report


@settings(max_examples=200, deadline=None)
@given(st.lists(_cochains(), min_size=1, max_size=4), _VALUES)
def test_cochains_match_their_pairs(cochains, other):
    """Cochains at several depths, some sharing (degree, order, indent)
    and so the writer's key blocks and value texts."""
    report = {"classes": [{"cocycle": c, "n": i}
                          for i, c in enumerate(cochains)],
              "first": cochains[0], "nested": [[cochains[-1]]],
              "other": other}
    assert report_text(report) == dumps(_as_pairs(report))


def test_classify_style_report():
    """Two degree-2 cocycles on C2 with one coordinate, as a classify
    report lists them, and the empty value tuple of a trivial group."""
    c0 = Cochain(2, ((0,),) * 4)
    c1 = Cochain(2, ((0,), (0,), (0,), (1,)))
    empty = Cochain(2, ((),))
    report = {"classes": [{"cocycle": c} for c in (c0, c1, empty)]}
    assert report_text(report) == dumps(_as_pairs(report))


def test_rejects_what_json_rejects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        report_text({"a": object()})


def test_report_past_the_recursion_limit_is_invalid_input(capsys):
    """A name nested deeper than the writer can recurse exits 1 through
    ``main`` as invalid input, not with a traceback."""
    name = []
    for _ in range(sys.getrecursionlimit() + 100):
        name = [name]
    with pytest.raises(ValidationError, match="recursion limit"):
        emit({"problem": name}, "json", [])
    assert capsys.readouterr().out == ""
