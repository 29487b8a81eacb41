"""Reading and writing category description files, and the one JSON writer.

The format is JSON with a fixed schema::

    {
      "invcat-spec": 1,
      "objects": ["X", "Y"],
      "morphisms": [{"name": "s", "src": "X", "tgt": "Y"}, ...],
      "identities": {"X": "1X", ...},
      "composition": [{"left": "g", "right": "f", "result": "h"}, ...],
      "inverse": {"s": "si", ...}          # optional
    }

A composition entry means left∘right = result, with ``right`` acting first;
pairs absent from the list do not compose.  The optional inverse map is
verified against the computed one, never trusted.  Unknown fields and
repeated keys anywhere are rejected.  ``parse_category`` reads the document
once, section by section in the order above, and states each schema rule
once: a list of names, a map to names, or a list of records.  Each section is
checked at once (the records a column at a time); only when that check
fails are its items walked in document order, so that the error names the
first offender.

Every JSON text that invcat writes comes from this module and matches
``json.dumps(value, indent=2)`` byte for byte: the CLI's reports from
``to_json``, with their keys sorted, and spec files from ``dump_category``,
which writes the payload above from fixed templates.  ``json.dumps`` drops
to its pure-Python encoder whenever ``indent`` is set; ``to_json`` escapes
strings with the C ``encode_basestring_ascii`` and writes each list of
strings and each record with one ``str.join``; ``core`` writes the
composition records (``FiniteCategory.table_lines``), as only it knows how
a category is stored.  Spec files are canonical: fixed key order, sorted
entries, two-space indent, trailing newline.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

from .core import FiniteCategory
from .errors import ParseError

SCHEMA_VERSION = 1
_TOP_KEYS = {"invcat-spec", "objects", "morphisms", "identities", "composition", "inverse"}
_REQUIRED = _TOP_KEYS - {"inverse"}
_MORPHISM_KEYS = ("name", "src", "tgt")
_ENTRY_KEYS = ("left", "right", "result")

# ---------------------------------------------------------------------------
# writing

_quote = json.encoder.encode_basestring_ascii


def to_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    Strings, lists, tuples, dicts with str keys, None, bools and ints are
    written here.  A value holding anything else (a float, another key or
    type), or too deep for this writer, circular or not, is handed to
    ``json.dumps`` itself, which writes it or raises its own error."""
    try:
        return _encode(value, "\n")
    except (TypeError, RecursionError):
        pass
    return json.dumps(value, indent=2, sort_keys=True)


def _encode(o: Any, nl: str) -> str:
    """``o`` written as an item whose line starts with ``nl`` (a newline
    and the current indent); TypeError for what only ``json.dumps`` writes."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        try:  # a list of strings
            body = ("," + inner).join(map(_quote, o))
        except TypeError:
            body = ("," + inner).join(
                [_quote(v) if type(v) is str else _encode(v, inner) for v in o]
            )
        return f"[{inner}{body}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = sorted(o.items())
        body = ("," + inner).join(
            [
                f"{_quote(k)}: {_quote(v) if type(v) is str else _encode(v, inner)}"
                for k, v in items
            ]
        )
        return f"{{{inner}{body}{nl}}}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(o)


class _Quoted(dict):
    """Name -> its JSON string literal, each name quoted once."""

    def __missing__(self, name: str) -> str:
        self[name] = text = _quote(name)
        return text


_MORPHISM = '    {\n      "name": %s,\n      "src": %s,\n      "tgt": %s\n    }'
_ENTRY = '    {\n      "left": %s,\n      "right": %s,\n      "result": %s\n    }'


def _records(rows: list[str]) -> str:
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def dump_category(cat: FiniteCategory, inverse: dict[str, str] | None = None) -> str:
    """Canonical serialisation; re-parsing reproduces the category exactly.
    The text is ``to_json`` of the spec's payload, written from templates."""
    q = _Quoted()
    fields = [
        f'{{\n  "invcat-spec": {SCHEMA_VERSION}',
        '  "objects": ' + _encode(cat.objects, "\n  "),
        '  "morphisms": '
        + _records([_MORPHISM % (q[m], q[cat.src[m]], q[cat.tgt[m]]) for m in cat.morphisms]),
        '  "identities": ' + _encode(cat.identity, "\n  "),
        '  "composition": ' + _records(cat.table_lines(_ENTRY, q)),
    ]
    if inverse is not None:
        fields.append('  "inverse": ' + _encode(inverse, "\n  "))
    return ",\n".join(fields) + "\n}\n"


def save_category(path: str, cat: FiniteCategory, inverse: dict[str, str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_category(cat, inverse))


# ---------------------------------------------------------------------------
# reading


def _reject_extra(mapping: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(mapping) - allowed)
    if extra:
        raise ParseError(f"unknown field(s) {extra} in {where}", fields=extra)


def _want(value: Any, kind: type, where: str) -> Any:
    if not isinstance(value, kind):
        raise ParseError(
            f"{where} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def load_json(text: str, source: str) -> Any:
    """Strict JSON: a repeated key in any object is a PARSE_ERROR, and
    syntax errors carry line and column."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        out = dict(pairs)
        if len(out) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"duplicate key {key!r} in {source}", key=key)
                seen.add(key)
        return out

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {source}: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc


def parse_category(text: str, source: str = "<string>") -> tuple[FiniteCategory, dict[str, str] | None]:
    """Parse a category file; returns the category and the declared inverse
    map, if any.  Syntax errors carry line and column; schema errors name the
    first offending field in document order."""
    data = _want(load_json(text, source), dict, "top level")
    _reject_extra(data, _TOP_KEYS, "top level")
    missing = sorted(_REQUIRED - set(data))
    if missing:
        raise ParseError(f"missing required field(s) {missing}", fields=missing)
    version = data["invcat-spec"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema version {version!r}; expected {SCHEMA_VERSION}"
        )
    objects = _names(data["objects"], "objects", "object name", "duplicate object name {!r}")
    morphisms = _record_map(
        data["morphisms"], "morphisms", "morphism", _MORPHISM_KEYS, 1, "duplicate morphism name {!r}"
    )
    identities = _name_map(data["identities"], "identities", "identity of")
    composition = _record_map(
        data["composition"], "composition", "composition", _ENTRY_KEYS, 2, "duplicate composition entry for {}"
    )
    inverse = None
    if "inverse" in data:
        inverse = _name_map(data["inverse"], "inverse", "inverse of")
    # the table was built here only to be handed over
    return FiniteCategory.build(objects, morphisms, identities, composition), inverse


def _all_str(values: Any) -> bool:
    return set(map(type, values)) <= {str}


def _names(value: Any, where: str, item: str, repeat: str) -> list[str]:
    """A list of distinct names, checked at once; on failure each item in
    order."""
    if type(value) is not list or not _all_str(value) or len(set(value)) != len(value):
        seen = set()
        for x in _want(value, list, where):
            if _want(x, str, item) in seen:
                raise ParseError(repeat.format(x))
            seen.add(x)
    return value


def _name_map(value: Any, where: str, label: str) -> dict[str, str]:
    """A map to names, checked at once; on failure each value in order."""
    if type(value) is not dict or not _all_str(value.values()):
        for k, v in _want(value, dict, where).items():
            _want(v, str, f"{label} {k}")
    return value


def _record_map(
    records: Any, where: str, noun: str, keys: tuple[str, ...], width: int, repeat: str
) -> dict:
    """A list of records with exactly ``keys``, all names, as a dict from
    the first ``width`` values to the rest.  The list is checked a column at
    a time, a repeated key showing as a shorter dict; only when that fails
    are the records walked in order, to name the first offender."""
    columns = _columns(records, keys)
    if columns is not None:
        found = dict(zip(_zipped(columns[:width]), _zipped(columns[width:])))
        if len(found) == len(records):
            return found
    found = {}
    for entry in _want(records, list, where):
        _want(entry, dict, f"{noun} entry")
        _reject_extra(entry, set(keys), f"{noun} entry {entry}")
        for key in keys:
            if key not in entry:
                raise ParseError(f"{noun} entry {entry} lacks {key!r}")
            _want(entry[key], str, f"{noun} {key}")
        row = [entry[key] for key in keys]
        head = _one(row[:width])
        if head in found:
            raise ParseError(repeat.format(head))
        found[head] = _one(row[width:])
    return found


def _columns(records: Any, keys: tuple[str, ...]) -> list[list[str]] | None:
    """The columns ``keys`` of a list of records that each have exactly
    those keys and only string values; None otherwise."""
    if type(records) is not list or not set(map(type, records)) <= {dict}:
        return None
    if not set(map(len, records)) <= {len(keys)}:
        return None
    try:
        columns = [list(map(itemgetter(key), records)) for key in keys]
    except KeyError:
        return None
    return columns if all(map(_all_str, columns)) else None


def _zipped(columns: list[list[str]]) -> Any:
    """One column as it is, or several zipped into tuples."""
    return columns[0] if len(columns) == 1 else zip(*columns)


def _one(values: list[str]) -> Any:
    """One value as it is, or several as a tuple."""
    return values[0] if len(values) == 1 else tuple(values)


def load_category(path: str) -> tuple[FiniteCategory, dict[str, str] | None]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_category(handle.read(), source=path)
