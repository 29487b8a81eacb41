"""Category file parsing and canonical serialisation."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    FiniteCategory,
    ParseError,
    UndeclaredName,
    dump_category,
    parse_category,
    validate_category,
)
from invcat.specfile import to_json

MINIMAL = """{
  "invcat-spec": 1,
  "objects": ["X"],
  "morphisms": [{"name": "1", "src": "X", "tgt": "X"}],
  "identities": {"X": "1"},
  "composition": [{"left": "1", "right": "1", "result": "1"}]
}"""


def test_roundtrip_is_canonical(t1, z2, g2, i2):
    for ic in (t1, z2, g2, i2):
        text = dump_category(ic.cat, ic.inverse)
        cat, declared = parse_category(text)
        assert cat.objects == ic.cat.objects
        assert cat.morphisms == ic.cat.morphisms
        assert cat.table == ic.cat.table
        assert declared == ic.inverse
        assert dump_category(cat, declared) == text


def payload_dump(cat, inverse=None) -> str:
    """The spec text as a payload dict written by ``json.dumps``."""
    payload = {
        "invcat-spec": 1,
        "objects": list(cat.objects),
        "morphisms": [{"name": m, "src": cat.src[m], "tgt": cat.tgt[m]} for m in cat.morphisms],
        "identities": {x: cat.identity[x] for x in sorted(cat.identity)},
        "composition": [
            {"left": g, "right": f, "result": h} for (g, f), h in sorted(cat.table.items())
        ],
    }
    if inverse is not None:
        payload["inverse"] = {m: inverse[m] for m in sorted(inverse)}
    return json.dumps(payload, indent=2) + "\n"


def test_templates_match_the_payload_written_by_json_dumps(t1, z2, g2, i2, expansions):
    for ic in (t1, z2, g2, i2, *(sz.ic for sz in expansions.values())):
        assert dump_category(ic.cat, ic.inverse) == payload_dump(ic.cat, ic.inverse)
        assert dump_category(ic.cat) == payload_dump(ic.cat)
    # an unvalidated table: a pair that does not compose, one that is missing
    table = dict(g2.cat.table)
    table[("1X", "1Y")] = "1X"
    del table[min(table)]
    typing = {m: (g2.cat.src[m], g2.cat.tgt[m]) for m in g2.cat.morphisms}
    odd = FiniteCategory.build(g2.cat.objects, typing, g2.cat.identity, table)
    assert dump_category(odd) == payload_dump(odd)
    empty = FiniteCategory.build((), {}, {}, {})
    assert dump_category(empty, {}) == payload_dump(empty, {})


def test_inverse_field_is_optional():
    cat, declared = parse_category(MINIMAL)
    assert declared is None
    assert validate_category(cat).ok
    assert "inverse" not in dump_category(cat)


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_category('{"invcat-spec": 1,\n  "objects": [}', "broken.json")
    assert err.value.line == 2
    assert err.value.column is not None
    assert err.value.details["line"] == 2


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        ('{"invcat-spec": 2, "objects": [], "morphisms": [], "identities": {}, "composition": []}', "schema version"),
        # True == 1.0 == 1 in Python, but neither is the integer version
        ('{"invcat-spec": true, "objects": [], "morphisms": [], "identities": {}, "composition": []}', "schema version"),
        ('{"invcat-spec": 1.0, "objects": [], "morphisms": [], "identities": {}, "composition": []}', "schema version"),
        ('{"objects": [], "morphisms": [], "identities": {}, "composition": []}', "missing required"),
        ('{"invcat-spec": 1, "objects": [], "morphisms": [], "identities": {}, "composition": [], "extra": 1}', "unknown field"),
        ('[1, 2]', "top level"),
        ('{"invcat-spec": 1, "objects": "X", "morphisms": [], "identities": {}, "composition": []}', "objects must be"),
    ],
)
def test_schema_errors(mutation, message_part):
    with pytest.raises(ParseError) as err:
        parse_category(mutation)
    assert message_part in err.value.message


def test_morphism_entry_errors():
    base = '{"invcat-spec": 1, "objects": ["X"], "morphisms": [%s], "identities": {"X": "1"}, "composition": []}'
    with pytest.raises(ParseError, match="lacks"):
        parse_category(base % '{"name": "1", "src": "X"}')
    with pytest.raises(ParseError, match="unknown field"):
        parse_category(base % '{"name": "1", "src": "X", "tgt": "X", "color": "red"}')
    with pytest.raises(ParseError, match="duplicate morphism"):
        parse_category(
            base % '{"name": "1", "src": "X", "tgt": "X"}, {"name": "1", "src": "X", "tgt": "X"}'
        )


def test_composition_entry_errors():
    base = (
        '{"invcat-spec": 1, "objects": ["X"],'
        ' "morphisms": [{"name": "1", "src": "X", "tgt": "X"}],'
        ' "identities": {"X": "1"}, "composition": [%s]}'
    )
    with pytest.raises(ParseError, match="duplicate composition"):
        parse_category(
            base
            % '{"left": "1", "right": "1", "result": "1"}, {"left": "1", "right": "1", "result": "1"}'
        )
    with pytest.raises(UndeclaredName):
        parse_category(base % '{"left": "1", "right": "1", "result": "ghost"}')


def test_undeclared_identity():
    with pytest.raises(UndeclaredName):
        parse_category(
            '{"invcat-spec": 1, "objects": ["X"], "morphisms": [],'
            ' "identities": {"X": "1"}, "composition": []}'
        )


# ---------------------------------------------------------------------------
# the writer: json.dumps(indent=2) byte for byte

# quotes, backslashes, control characters, non-ASCII and astral characters
TEXT = st.text(st.sampled_from(list('ab "\\/\x00\x01\x1f\x7f\n\t\r\u00e9\u2028\ud800') + ["\U0001f600"]))
SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | TEXT
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=25,
)
ODD_KEYS = st.floats() | st.integers() | st.booleans() | st.none() | TEXT
ODD_TREES = st.recursive(
    SCALARS | st.floats(),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(ODD_KEYS, kids, max_size=3),
    max_leaves=15,
)


def outcome(write, value):
    """The text written, or the class and message of the error raised."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps(value):
    assert to_json(value) == dumps(value)


@settings(max_examples=300, deadline=None)
@given(ODD_TREES)
def test_writer_matches_json_dumps_on_floats_and_non_str_keys(value):
    # mixed key types cannot be sorted: both raise the same TypeError then
    assert outcome(to_json, value) == outcome(dumps, value)


EDGE_VALUES = [
    [], {}, (), [[]], {"a": {}}, "", "\ud800", -0.0, math.nan, [math.inf, -math.inf, 1e300, 0.1],
    {3: "int", 2.5: "float", True: "bool", None: "null"},
    {3: "a", -1: "b"}, {2.5: "x", math.inf: "y", -0.0: "z"}, {True: 1, False: 2}, {None: 1},
    {"b": 1, "a": [None, True, False, -(2**70)], "c": {"d": ()}},
    object(), [1, object()], {(1, 2): "tuple key"}, {"x": {1, 2}}, {1: "a", "b": 2},
]
SELF_LIST: list = [1]
SELF_LIST.append(SELF_LIST)
SELF_DICT: dict = {"a": 1}
SELF_DICT["b"] = [SELF_DICT]
EDGE_VALUES += [SELF_LIST, SELF_DICT, [SELF_LIST], {"c": SELF_DICT}]


def test_writer_matches_json_dumps_on_edge_values():
    for value in EDGE_VALUES:
        assert outcome(to_json, value) == outcome(dumps, value), value
