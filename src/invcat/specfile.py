"""Reading and writing category description files.

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
repeated keys anywhere are rejected.  Serialisation is canonical: fixed key
order, sorted entries, two-space indent, trailing newline.
"""

from __future__ import annotations

import json
from typing import Any

from .core import FiniteCategory
from .errors import ParseError

SCHEMA_VERSION = 1
_TOP_KEYS = {"invcat-spec", "objects", "morphisms", "identities", "composition", "inverse"}
_REQUIRED = _TOP_KEYS - {"inverse"}


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


def _load_json(text: str, source: str) -> Any:
    """Strict JSON: a repeated key in any object is a PARSE_ERROR, and
    syntax errors carry line and column."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, value in pairs:
            if key in out:
                raise ParseError(f"duplicate key {key!r} in {source}", key=key)
            out[key] = value
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
    offending field."""
    data = _load_json(text, source)
    _want(data, dict, "top level")
    _reject_extra(data, _TOP_KEYS, "top level")
    missing = sorted(_REQUIRED - set(data))
    if missing:
        raise ParseError(f"missing required field(s) {missing}", fields=missing)
    if data["invcat-spec"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema version {data['invcat-spec']!r}; expected {SCHEMA_VERSION}"
        )

    objects = _want(data["objects"], list, "objects")
    for x in objects:
        _want(x, str, "object name")

    morphisms: dict[str, tuple[str, str]] = {}
    for entry in _want(data["morphisms"], list, "morphisms"):
        _want(entry, dict, "morphism entry")
        _reject_extra(entry, {"name", "src", "tgt"}, f"morphism entry {entry}")
        for key in ("name", "src", "tgt"):
            if key not in entry:
                raise ParseError(f"morphism entry {entry} lacks {key!r}")
            _want(entry[key], str, f"morphism {key}")
        if entry["name"] in morphisms:
            raise ParseError(f"duplicate morphism name {entry['name']!r}")
        morphisms[entry["name"]] = (entry["src"], entry["tgt"])

    identities = _want(data["identities"], dict, "identities")
    for k, v in identities.items():
        _want(v, str, f"identity of {k}")

    composition: dict[tuple[str, str], str] = {}
    for entry in _want(data["composition"], list, "composition"):
        _want(entry, dict, "composition entry")
        _reject_extra(entry, {"left", "right", "result"}, f"composition entry {entry}")
        for key in ("left", "right", "result"):
            if key not in entry:
                raise ParseError(f"composition entry {entry} lacks {key!r}")
            _want(entry[key], str, f"composition {key}")
        pair = (entry["left"], entry["right"])
        if pair in composition:
            raise ParseError(f"duplicate composition entry for {pair}")
        composition[pair] = entry["result"]

    inverse = None
    if "inverse" in data:
        inverse = _want(data["inverse"], dict, "inverse")
        for k, v in inverse.items():
            _want(v, str, f"inverse of {k}")

    # the table was built here only to be handed over
    cat = FiniteCategory._assemble(objects, morphisms, identities, composition)
    return cat, inverse


def load_category(path: str) -> tuple[FiniteCategory, dict[str, str] | None]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_category(handle.read(), source=path)


def dump_category(cat: FiniteCategory, inverse: dict[str, str] | None = None) -> str:
    """Canonical serialisation; re-parsing reproduces the category exactly."""
    payload: dict[str, Any] = {
        "invcat-spec": SCHEMA_VERSION,
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m, "src": cat.src[m], "tgt": cat.tgt[m]} for m in cat.morphisms
        ],
        "identities": {x: cat.identity[x] for x in sorted(cat.identity)},
        "composition": [
            {"left": g, "right": f, "result": h}
            for (g, f), h in sorted(cat.table.items())
        ],
    }
    if inverse is not None:
        payload["inverse"] = {m: inverse[m] for m in sorted(inverse)}
    return json.dumps(payload, indent=2) + "\n"


def save_category(path: str, cat: FiniteCategory, inverse: dict[str, str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_category(cat, inverse))
