"""Serialising relations and databases for worker shipping.

Tuple sets cross process boundaries as *packed row codes*: each tuple is
interned through a shared :class:`~repro.db.kernel.SymbolTable` and
packed into one ``int64`` (``SymbolTable.encode_tuple``), and the whole
set ships as a raw ``array('q').tobytes()`` buffer — no per-tuple
pickling.  This only works while both sides hold **identical** symbol
tables, which the pool guarantees by construction: parent and workers
intern the universe (and, later, each delta's unseen values) in the same
canonical order, and nothing else ever interns.  Datalog programs cannot
invent values, so the tables can only grow through those synchronised
points.

Tuples whose width exceeds the 63-bit packing budget — or that mention a
value missing from the table — fall back to a sorted pickled list
(``("p", ...)``); the two forms are distinguished by tag so a mixed
exchange still merges correctly.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple
import zlib

import numpy as np

from ..db.database import Database
from ..db.kernel import RelationCodes, SymbolTable
from ..db.relation import Relation

Tup = Tuple[Any, ...]

#: Encoded tuple-set forms: packed code buffer vs. pickled fallback.
CODES = "b"
PLAIN = "p"


def canonical_order(values: Iterable[Any]) -> List[Any]:
    """Deterministic, process-independent ordering of mixed-type values."""
    return sorted(values, key=lambda v: (type(v).__name__, repr(v)))


def program_constants(program: Any) -> List[Any]:
    """Constants mentioned by a program, in deterministic parse order."""
    seen: Set[Any] = set()
    out: List[Any] = []
    for rule in program.rules:
        for lit in (rule.head, *rule.body):
            atom = getattr(lit, "atom", lit)
            for arg in atom.args:
                value = getattr(arg, "value", None)
                if value is not None and value not in seen:
                    seen.add(value)
                    out.append(value)
    return out


def build_table(universe: Iterable[Any], program: Any = None) -> SymbolTable:
    """Intern ``universe`` (canonically ordered) then program constants.

    Run with the same inputs in every process, this produces identical
    tables — the precondition for exchanging raw code buffers.
    """
    table = SymbolTable()
    ordered = canonical_order(universe)
    table.intern_many(ordered)
    if program is not None:
        table.intern_many(program_constants(program))
    return table


def intern_delta_values(table: SymbolTable, delta: Any) -> None:
    """Intern a delta's unseen values in canonical order.

    Every process (parent and all workers) calls this with the same
    delta before applying it, so the tables stay identical.
    """
    fresh = [
        v
        for v in canonical_order(set(delta.values()))
        if table.id_of(v) is None
    ]
    table.intern_many(fresh)


def table_fingerprint(table: SymbolTable) -> int:
    """Content hash of the intern order — equal iff tables agree."""
    crc = zlib.crc32(b"%d:%d" % (len(table), table.shift))
    for ident in range(len(table)):
        crc = zlib.crc32(repr(table.extern(ident)).encode("utf-8", "backslashreplace"), crc)
    return crc


def encode_tuples(table: SymbolTable, arity: int, tuples: Iterable[Tup]) -> Tuple[str, Any]:
    """Encode a tuple set as a packed code buffer (or pickled fallback)."""
    tuples = list(tuples)
    if arity == 0 or not table.fits(arity):
        return (PLAIN, sorted(tuples, key=repr))
    codes = array("q")
    plain: List[Tup] = []
    for t in tuples:
        if all(table.id_of(v) is not None for v in t):
            codes.append(table.encode_tuple(t))
        else:
            plain.append(t)
    if plain:
        return (PLAIN, sorted(tuples, key=repr))
    return (CODES, codes.tobytes())


def encode_tuple_list(table: SymbolTable, arity: int, tuples: Sequence[Tup]) -> Tuple[str, Any]:
    """Order-preserving encode (for count keys paired with a value list)."""
    if arity == 0 or not table.fits(arity):
        return (PLAIN, list(tuples))
    if any(table.id_of(v) is None for t in tuples for v in t):
        return (PLAIN, list(tuples))
    return (CODES, array("q", [table.encode_tuple(t) for t in tuples]).tobytes())


def _decode_rows(table: SymbolTable, arity: int, payload: bytes) -> List[Tup]:
    """A packed code buffer back to tuples, in buffer order (vectorised)."""
    codes = np.frombuffer(payload, dtype=np.int64)
    return RelationCodes(table, arity, codes).rows()


def decode_tuples(table: SymbolTable, arity: int, enc: Tuple[str, Any]) -> Set[Tup]:
    tag, payload = enc
    return set(payload if tag == PLAIN else _decode_rows(table, arity, payload))


def decode_tuple_list(table: SymbolTable, arity: int, enc: Tuple[str, Any]) -> List[Tup]:
    """Like :func:`decode_tuples` but order-preserving (for count keys)."""
    tag, payload = enc
    return list(payload) if tag == PLAIN else _decode_rows(table, arity, payload)


def merge_encoded(parts: Sequence[Tuple[str, Any]], table: SymbolTable, arity: int) -> Tuple[str, Any]:
    """Union encoded tuple sets (hub side), staying in code space if possible."""
    if all(tag == CODES for tag, _ in parts):
        merged: Set[int] = set()
        for _, payload in parts:
            codes = array("q")
            codes.frombytes(payload)
            merged.update(codes)
        return (CODES, array("q", sorted(merged)).tobytes())
    union: Set[Tup] = set()
    for enc in parts:
        union.update(decode_tuples(table, arity, enc))
    return (PLAIN, sorted(union, key=repr))


def ship_database(table: SymbolTable, db: Database) -> Dict[str, Any]:
    """Encode a database for worker bootstrap (codes where packable)."""
    relations = []
    for rel in sorted(db.relations.values(), key=lambda r: r.name):
        relations.append((rel.name, rel.arity, encode_tuples(table, rel.arity, rel.tuples)))
    return {
        "universe": canonical_order(db.universe),
        "relations": relations,
    }


def load_database(table: SymbolTable, payload: Dict[str, Any]) -> Database:
    relations = [
        Relation(name, arity, decode_tuples(table, arity, enc))
        for name, arity, enc in payload["relations"]
    ]
    return Database(payload["universe"], relations, check=False)
