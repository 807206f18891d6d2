"""CSV import/export for relations, databases and deltas.

The examples load edge lists and CNF encodings from small CSV files, and
the server's write-ahead delta log (:mod:`repro.server.wal`) persists
every committed update in this format — so ``dump → load`` must be the
**identity** on every value the engines can produce, or a restart by log
replay would converge to a different database than the one that crashed.

Value convention (the whole of it):

* Persistable values are ``int`` and ``str`` — the only value types the
  CSV pipeline can ever have introduced.  Anything else (including
  ``bool``, a subclass of ``int`` whose round trip would corrupt) is
  rejected loudly at dump time.
* A field is read back as ``int`` exactly when it is a **canonical**
  integer literal — ``0`` or ``-?[1-9][0-9]*``, i.e. ``repr(i)`` for
  some ``int`` — and as ``str`` otherwise.  Canonical integer *strings*
  (``"7"``) are therefore not representable: they dump like the int and
  load as the int.  Int-lookalikes that Python's ``int()`` would also
  accept — ``"01"``, ``"1_0"``, ``" 7"``, ``"+5"``, ``"-0"`` — are NOT
  canonical and survive as the strings they are (a bare ``int()`` here
  used to silently turn all of them into integers).
* Strings are always quoted on dump (``QUOTE_NONNUMERIC``).  Quoting is
  invisible to the reader (typing is decided by the canonical-integer
  rule above, never by quotes); what it buys is the one-column empty
  string: an unquoted ``("",)`` row would be a blank line, which
  ``csv.reader`` drops.

Dumps are spelled line by line (:func:`csv_line`, byte-identical to
``csv.writer(quoting=QUOTE_NONNUMERIC)``) into a :class:`SortedRows`,
which a long-lived writer can keep and patch with each change instead
of rendering the relation again: the server's snapshots do
(:func:`dump_database`'s ``rows``).
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .database import Database
from .relation import Relation

PathLike = Union[str, Path]

_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")
"""Exactly ``repr(i)`` for ``int`` values: no leading zeros, no ``+``
sign, no whitespace, no underscores, no ``-0``."""


def _coerce(value: str) -> Any:
    """A loaded field: ``int`` for canonical integer literals, else ``str``.

    Deliberately *not* a bare ``int(value)``: Python's parser accepts
    ``"01"``, ``"1_0"``, ``" 7"``, ``"+5"`` — values a dump of the
    resulting int no longer spells the same way, so a dump/load round
    trip would corrupt them (the replay-poisoning bug this fixed).
    """
    if _CANONICAL_INT.fullmatch(value):
        return int(value)
    return value


def _persistable(value: Any, context: str) -> Any:
    """Reject values the CSV value convention cannot round-trip."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(
            "value %r of %s is %s; the CSV format persists int and str "
            "values only (see the repro.db.csvio value convention)"
            % (value, context, type(value).__name__)
        )
    return value


_EMPTY_TUPLE_MARKER = "()"
"""On-disk stand-in for the zero-ary empty tuple.

``csv.writer.writerow(())`` emits a blank line and ``csv.reader`` skips
blank lines, so without a marker a zero-ary relation containing ``()``
(i.e. "true") and one containing nothing round-trip to the same file —
exactly the ambiguity that made empty ``<rel>.insert.csv`` deltas
unreadable.  Arity disambiguates on load: the marker row only means
``()`` for zero-ary relations, while for arity 1 it is an ordinary
one-field value.
"""


def load_relation(path: PathLike, name: str, arity: int) -> Relation:
    """Read a relation from a headerless CSV file, one tuple per row.

    Each distinct field string is coerced once (:func:`_coerce`), then
    the tuples are rebuilt column by column from those values.
    """
    rows = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row:
                continue
            if arity == 0 and row == [_EMPTY_TUPLE_MARKER]:
                rows.append(())
                continue
            if len(row) != arity:
                raise ValueError(
                    "row %r in %s has %d fields, expected %d"
                    % (row, path, len(row), arity)
                )
            rows.append(row)
    if not arity:
        return Relation(name, 0, rows)
    columns = list(zip(*rows))
    value = {field: _coerce(field) for field in set().union(*columns)}.__getitem__
    # Every row was checked to have ``arity`` fields above.
    return Relation._from_frozenset(
        name, arity, frozenset(zip(*[map(value, column) for column in columns]))
    )


class SortedRows:
    """A row set kept rendered: one text fragment per row, in
    ``sorted(key=repr)`` order, patched in place as the set changes.

    ``fragment`` renders one row; :meth:`text` is the fragments joined
    by ``sep`` between ``head`` and ``tail``, memoised until the next
    :meth:`patch`.  A patch costs one ``bisect`` per changed row and
    one ``fragment`` call per inserted one, and leaves exactly the
    fragments a fresh rendering of the new set would have — so patched
    and fresh text are equal by construction.  ``seq`` is free for a
    keeper to record which commit the rows render (:meth:`advance`).
    """

    __slots__ = ("fragment", "sep", "head", "tail", "seq", "_keys", "_parts", "_text")

    def __init__(self, rows, fragment, sep: str = "", head: str = "", tail: str = "") -> None:
        keyed = [(repr(t), t) for t in rows]
        keyed.sort(key=itemgetter(0))
        self._parts = [fragment(t) for _, t in keyed]
        self._keys = [key for key, _ in keyed]
        self.fragment, self.sep, self.head, self.tail = fragment, sep, head, tail
        self.seq: Optional[int] = None
        self._text: Optional[str] = None

    def __len__(self) -> int:
        return len(self._keys)

    def patch(self, inserted=(), deleted=()) -> None:
        """Move the rendering to ``(rows - deleted) | inserted``.

        Every inserted row is rendered before anything moves, so a row
        ``fragment`` refuses leaves the rendering as it was.
        """
        if not (inserted or deleted):
            return
        added = [(repr(t), self.fragment(t)) for t in inserted]
        keys, parts = self._keys, self._parts
        for t in deleted:
            key = repr(t)
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                del keys[i], parts[i]
        for key, part in added:
            i = bisect_left(keys, key)
            if i == len(keys) or keys[i] != key:
                keys.insert(i, key)
                parts.insert(i, part)
        self._text = None

    def advance(self, seq: int, inserted=(), deleted=()) -> None:
        """:meth:`patch` a rendering of commit ``seq - 1`` to commit
        ``seq``; one at any other commit is left behind as it is."""
        if self.seq == seq - 1:
            self.patch(inserted, deleted)
            self.seq = seq

    def text(self) -> str:
        """The whole rendering."""
        if self._text is None:
            self._text = self.head + self.sep.join(self._parts) + self.tail
        return self._text


def csv_line(row, context: str) -> str:
    """One row as the line ``csv.writer(quoting=QUOTE_NONNUMERIC)`` writes.

    Strings are quoted with inner quotes doubled (so a one-column empty
    string is a ``""`` line instead of a blank one the reader would
    skip), ints are bare, and the zero-ary tuple is the explicit marker
    row (:data:`_EMPTY_TUPLE_MARKER`), so a zero-ary relation's truth
    value survives the round trip.
    """
    if not row:
        return '"%s"\r\n' % _EMPTY_TUPLE_MARKER
    fields = []
    for v in row:
        if type(v) is int:
            fields.append(repr(v))
        elif isinstance(v, str):
            fields.append('"' + v.replace('"', '""') + '"')
        else:
            fields.append(str(_persistable(v, context)))
    return ",".join(fields) + "\r\n"


def csv_rows(rows, context: str = "relation") -> SortedRows:
    """``rows`` rendered as headerless CSV, sorted for determinism."""
    return SortedRows(rows, partial(csv_line, context=context))


def write_rows(path: PathLike, rows: SortedRows) -> None:
    """Write a kept CSV rendering to ``path``."""
    with open(path, "w", newline="") as f:
        f.write(rows.text())


def dump_relation(rel: Relation, path: PathLike) -> None:
    """Write a relation as headerless CSV, rows sorted for determinism."""
    write_rows(path, csv_rows(rel, context="relation %s" % rel.name))


def load_database(directory: PathLike, schema: dict) -> Database:
    """Load ``{name: arity}`` relations from ``directory/<name>.csv``.

    The universe is the set of all values seen across all relations.
    """
    directory = Path(directory)
    relations = []
    universe = set()
    for name, arity in schema.items():
        rel = load_relation(directory / ("%s.csv" % name), name, arity)
        relations.append(rel)
        for t in rel:
            universe.update(t)
    return Database(universe, relations)


def dump_database(
    db: Database, directory: PathLike, rows: Optional[Dict[str, SortedRows]] = None
) -> None:
    """Write every relation of ``db`` to ``directory/<name>.csv``.

    ``rows`` keeps renderings across calls: a :class:`SortedRows` found
    under a relation's name is taken to render that relation's current
    value and is written as-is; every relation not found there is
    rendered here and stored into it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if rows is None:
        rows = {}
    for name in db.relation_names():
        kept = rows.get(name)
        if kept is None:
            kept = rows[name] = csv_rows(db[name], context="relation %s" % name)
        write_rows(directory / ("%s.csv" % name), kept)


# ----------------------------------------------------------------------
# Deltas: <relation>.insert.csv / <relation>.delete.csv
# ----------------------------------------------------------------------

_INSERT_SUFFIX = ".insert.csv"
_DELETE_SUFFIX = ".delete.csv"


def load_delta(directory: PathLike, schema: dict) -> "Delta":
    """Load a :class:`~repro.materialize.delta.Delta` from a directory.

    Changes live in headerless ``<relation>.insert.csv`` and
    ``<relation>.delete.csv`` files (either may be absent — an absent
    file is an empty change).  ``schema`` maps relation names to
    arities, normally the program's EDB schema.  The directory is
    treated as dedicated to this one delta: a missing or non-directory
    path, a file matching neither suffix, a file with an empty relation
    name, a file naming a non-schema relation, and a row of the wrong
    arity all fail loudly instead of silently feeding the view nothing.
    """
    from ..materialize.delta import Delta

    directory = Path(directory)
    if not directory.is_dir():
        kind = "is not a directory" if directory.exists() else "does not exist"
        raise ValueError(
            "delta path %s %s; expected a directory of "
            "<relation>.insert.csv / <relation>.delete.csv files"
            % (directory, kind)
        )
    problems = []
    for path in sorted(directory.iterdir()):
        if path.name.endswith(_INSERT_SUFFIX):
            name = path.name[: -len(_INSERT_SUFFIX)]
        elif path.name.endswith(_DELETE_SUFFIX):
            name = path.name[: -len(_DELETE_SUFFIX)]
        else:
            # The directory is dedicated to one delta: a file matching
            # neither suffix is almost certainly a typo (E.inserts.csv,
            # E.Insert.csv) that would otherwise be skipped silently.
            problems.append("unrecognised file %s" % path.name)
            continue
        if not name:
            problems.append(
                "file %s has an empty relation name (nothing before "
                "the %s suffix)" % (path.name, path.name)
            )
        elif name not in schema:
            problems.append("relation %r is outside the schema" % name)
    if problems:
        raise ValueError(
            "delta directory %s: %s" % (directory, "; ".join(problems))
        )
    inserts = {}
    deletes = {}
    for name, arity in schema.items():
        ins_path = directory / (name + _INSERT_SUFFIX)
        del_path = directory / (name + _DELETE_SUFFIX)
        if ins_path.exists():
            inserts[name] = load_relation(ins_path, name, arity).tuples
        if del_path.exists():
            deletes[name] = load_relation(del_path, name, arity).tuples
    return Delta(inserts=inserts, deletes=deletes)


def dump_delta(delta, directory: PathLike) -> None:
    """Write a delta as ``<relation>.insert.csv`` / ``.delete.csv`` files.

    Empty sides are not written, so ``load_delta`` round-trips exactly —
    including zero-ary relations, whose "insert the empty tuple" side is
    a file holding the explicit ``()`` marker row rather than an empty
    (and formerly ambiguous) file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (inserts, deletes) in delta.items():
        for suffix, tuples in ((_INSERT_SUFFIX, inserts), (_DELETE_SUFFIX, deletes)):
            if tuples:
                context = "delta side %s" % (name + suffix)
                write_rows(directory / (name + suffix), csv_rows(tuples, context))
