"""Wire codec: deltas, changesets and databases as JSON values.

A changeset is a :class:`~repro.materialize.delta.Delta` too; the two
codecs share one side-map helper and differ only in their field names:
``{"inserts", "deletes"}`` for a request's delta, ``{"inserted",
"deleted"}`` for a commit's changeset.

The server speaks newline-delimited JSON; this module is the one place
tuples cross between engine values and wire payloads.  JSON
distinguishes numbers from strings natively, so the engine's value
domain (``int`` and ``str`` — the same convention the CSV layer
persists, see :mod:`repro.db.csvio`) round-trips without any of the
coercion ambiguity the CSV format has to legislate: ``7`` and ``"7"``
are different JSON values and stay different.

Every decoder validates shape and value types and raises
:class:`ProtocolError` with a message naming the offending field, so a
malformed client request becomes a clean error response instead of a
traceback mid-maintenance.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..db.csvio import SortedRows
from ..db.database import Database
from ..db.relation import Relation
from ..materialize.delta import Delta


class ProtocolError(ValueError):
    """A malformed wire value (bad shape or a non int/str tuple field)."""


def encode_value(value: Any) -> Any:
    """An engine value as a JSON scalar (``int`` or ``str`` only)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProtocolError(
            "value %r is %s; the wire format carries int and str values only"
            % (value, type(value).__name__)
        )
    return value


def decode_value(value: Any) -> Any:
    """A JSON scalar as an engine value (rejects bool/float/null/…)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProtocolError(
            "wire value %r is %s; expected an int or str"
            % (value, type(value).__name__)
        )
    return value


def encode_tuple(t: Tuple[Any, ...]) -> List[Any]:
    """A tuple as a JSON array."""
    return [encode_value(v) for v in t]


def decode_tuple(row: Any) -> Tuple[Any, ...]:
    """A JSON array as a tuple."""
    if not isinstance(row, list):
        raise ProtocolError("tuple %r is not a JSON array" % (row,))
    return tuple(decode_value(v) for v in row)


def encode_tuples(tuples: Iterable[Tuple[Any, ...]]) -> List[List[Any]]:
    """A tuple set as a deterministically ordered JSON array of arrays."""
    return [encode_tuple(t) for t in sorted(tuples, key=repr)]


def json_row(t: Tuple[Any, ...]) -> str:
    """One row of :func:`encode_tuples` as compact JSON text."""
    return "[" + ",".join([json.dumps(encode_value(v)) for v in t]) + "]"


def tuple_rows(tuples: Iterable[Tuple[Any, ...]]) -> SortedRows:
    """:func:`encode_tuples` of a tuple set as compact JSON text, kept.

    What a ``query`` response carries as ``"tuples"``, rendered ahead of
    the response so the server can splice it in unparsed and patch it
    with each commit's changeset instead of rendering it again.
    """
    return SortedRows(tuples, json_row, sep=",", head="[", tail="]")


def _decode_tuple_map(obj: Any, field: str) -> Dict[str, List[Tuple[Any, ...]]]:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ProtocolError("field %r must be an object of relation: rows" % field)
    out = {}
    for name, rows in obj.items():
        if not isinstance(name, str) or not name:
            raise ProtocolError("relation name %r in %r is invalid" % (name, field))
        if not isinstance(rows, list):
            raise ProtocolError(
                "rows of relation %r in %r are not a JSON array" % (name, field)
            )
        out[name] = [decode_tuple(row) for row in rows]
    return out


# ----------------------------------------------------------------------
# Delta and changeset
# ----------------------------------------------------------------------


def _encode_sides(delta: Delta, inserted: str, deleted: str) -> Dict[str, Any]:
    """``delta`` as ``{inserted: {rel: rows}, deleted: {rel: rows}}``,
    relations sorted and empty sides left out."""
    out: Dict[str, Dict[str, Any]] = {inserted: {}, deleted: {}}
    for name, (ins, dels) in delta.items():
        if ins:
            out[inserted][name] = encode_tuples(ins)
        if dels:
            out[deleted][name] = encode_tuples(dels)
    return out


def _decode_sides(obj: Any, what: str, inserted: str, deleted: str) -> Delta:
    """The inverse of :func:`_encode_sides` (absent sides are empty)."""
    if not isinstance(obj, Mapping):
        raise ProtocolError("%s %r is not a JSON object" % (what, obj))
    try:
        return Delta(
            inserts=_decode_tuple_map(obj.get(inserted), inserted),
            deletes=_decode_tuple_map(obj.get(deleted), deleted),
        )
    except ValueError as exc:  # overlapping insert/delete of one tuple
        raise ProtocolError(str(exc)) from None


def encode_delta(delta: Delta) -> Dict[str, Any]:
    """A delta as ``{"inserts": {rel: rows}, "deletes": {rel: rows}}``."""
    return _encode_sides(delta, "inserts", "deletes")


def decode_delta(obj: Mapping[str, Any]) -> Delta:
    """The inverse of :func:`encode_delta` (absent sides are empty)."""
    return _decode_sides(obj, "delta", "inserts", "deletes")


def encode_changeset(changeset: Delta) -> Dict[str, Any]:
    """A commit's changeset as ``{"inserted": {...}, "deleted": {...}}``."""
    return _encode_sides(changeset, "inserted", "deleted")


def decode_changeset(obj: Mapping[str, Any]) -> Delta:
    """The inverse of :func:`encode_changeset`."""
    return _decode_sides(obj, "changeset", "inserted", "deleted")


# ----------------------------------------------------------------------
# Introspection payloads
# ----------------------------------------------------------------------


def encode_stats(value: Any) -> Any:
    """An introspection payload (``stats`` verb) as a JSON-safe value.

    Unlike the tuple codecs above this is *lossy by design*: stats
    blocks mix engine values with counters, floats, Nones, tuples and
    sets (planner join keys, recent-changes digests), and a reader wants
    numbers-or-strings, not a type error.  Mappings and sequences recur;
    tuples become arrays; sets become sorted arrays; anything else
    non-JSON is rendered with ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): encode_stats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_stats(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((encode_stats(v) for v in value), key=repr)
    return repr(value)


# ----------------------------------------------------------------------
# Database
# ----------------------------------------------------------------------


def encode_database(db: Database) -> Dict[str, Any]:
    """A database as relations + arities + its full universe.

    The universe is carried explicitly because it can exceed the active
    domain (universes never shrink under deletion) and the completion
    semantics quantifies over all of it.
    """
    return {
        "universe": sorted((encode_value(v) for v in db.universe), key=repr),
        "arities": {name: db[name].arity for name in db.relation_names()},
        "relations": {
            name: encode_tuples(db[name].tuples) for name in db.relation_names()
        },
    }


def decode_database(obj: Mapping[str, Any]) -> Database:
    """The inverse of :func:`encode_database`.

    ``universe`` and ``arities`` may be omitted: the universe then
    defaults to the active domain and arities are inferred from the
    first row of each relation (empty relations need ``arities``).
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("database %r is not a JSON object" % (obj,))
    relations = _decode_tuple_map(obj.get("relations"), "relations")
    arities = obj.get("arities") or {}
    if not isinstance(arities, Mapping):
        raise ProtocolError("field 'arities' must be an object of relation: arity")
    rels = []
    universe = set()
    for name, tuples in relations.items():
        if name in arities:
            arity = arities[name]
            if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
                raise ProtocolError("arity of %r must be a non-negative int" % name)
        elif tuples:
            arity = len(tuples[0])
        else:
            raise ProtocolError(
                "relation %r is empty and has no entry in 'arities'" % name
            )
        try:
            rels.append(Relation(name, arity, tuples))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        for t in tuples:
            universe.update(t)
    declared = obj.get("universe")
    if declared is not None:
        if not isinstance(declared, list):
            raise ProtocolError("field 'universe' must be a JSON array")
        universe.update(decode_value(v) for v in declared)
    try:
        return Database(universe, rels)
    except ValueError as exc:  # tuple value outside the declared universe
        raise ProtocolError(str(exc)) from None
