"""Deltas: per-relation insert/delete sets.

A :class:`Delta` is the one change type of the materialized-view
subsystem: for each named relation, a set of tuples to insert and a set
to delete.  It is what goes into a view — an EDB update — and what comes
out: :meth:`MaterializedView.apply
<repro.materialize.view.MaterializedView.apply>` returns a delta (the
*changeset*) keyed by every relation that moved, EDB and IDB alike, as
the paper's operator maps a sequence of relations to a sequence of
relations.  Deltas are immutable values (hashable, equality by content)
and deliberately know nothing about databases — applying one is
:meth:`repro.db.database.Database.apply_delta`, which returns a *new*
immutable database and carries the old relations' caches forward
patched.

A tuple may not appear on both sides of the same relation's change —
"insert and delete x" has no sequential meaning inside a single delta;
compose two deltas with :meth:`Delta.then` instead.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

Tup = Tuple[Any, ...]
Change = Tuple[FrozenSet[Tup], FrozenSet[Tup]]
"""Per-relation ``(inserts, deletes)``."""


class Delta:
    """An immutable set of per-relation insertions and deletions.

    Parameters
    ----------
    inserts:
        Mapping ``{relation name: iterable of tuples}`` to add.
    deletes:
        Mapping ``{relation name: iterable of tuples}`` to remove.

    A side that is already a ``frozenset`` of tuples is taken as it is,
    not copied.  The content hash is computed on first use.

    Raises
    ------
    ValueError
        If some tuple is both inserted into and deleted from the same
        relation.
    """

    __slots__ = ("_changes", "_hash")

    def __init__(
        self,
        inserts: Mapping[str, Iterable[Tup]] = None,
        deletes: Mapping[str, Iterable[Tup]] = None,
    ) -> None:
        changes: Dict[str, Change] = {}
        for name, tuples in (inserts or {}).items():
            changes[name] = (_frozen(tuples), _NONE)
        for name, tuples in (deletes or {}).items():
            ins = changes.get(name, _UNCHANGED)[0]
            dels = _frozen(tuples)
            if not ins.isdisjoint(dels):
                raise ValueError(
                    "delta inserts and deletes overlap on %s: %r"
                    % (name, sorted(ins & dels, key=repr)[:4])
                )
            changes[name] = (ins, dels)
        # Drop relations with no actual change so value equality is exact.
        self._changes = {
            name: change for name, change in changes.items() if change[0] or change[1]
        }
        self._hash = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "Delta":
        """The delta that changes nothing."""
        return cls()

    @classmethod
    def insert(cls, name: str, *tuples: Tup) -> "Delta":
        """A pure-insertion delta on one relation."""
        return cls(inserts={name: tuples})

    @classmethod
    def delete(cls, name: str, *tuples: Tup) -> "Delta":
        """A pure-deletion delta on one relation."""
        return cls(deletes={name: tuples})

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[str, Change]]:
        """Iterate ``(name, (inserts, deletes))`` pairs, sorted by name."""
        return iter(sorted(self._changes.items()))

    def relations(self) -> Tuple[str, ...]:
        """The names of the relations this delta touches, sorted."""
        return tuple(sorted(self._changes))

    def inserts(self, name: str) -> FrozenSet[Tup]:
        """The tuples inserted into ``name`` (empty when untouched)."""
        return self._changes.get(name, _UNCHANGED)[0]

    def deletes(self, name: str) -> FrozenSet[Tup]:
        """The tuples deleted from ``name`` (empty when untouched)."""
        return self._changes.get(name, _UNCHANGED)[1]

    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return not self._changes

    def values(self) -> FrozenSet[Any]:
        """Every value occurring in some inserted tuple.

        The view diffs these against the universe: a value the database
        has never seen grows it, and the view maintains that growth as
        an insertion into the universe relation ``@U``.
        """
        seen = set()
        for ins, _ in self._changes.values():
            for t in ins:
                seen.update(t)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Value operations
    # ------------------------------------------------------------------

    def normalize(self, db) -> "Delta":
        """The effective delta against ``db``: drop no-op changes.

        Insertions of tuples already present and deletions of tuples
        already absent are removed, so downstream maintenance sees only
        genuine changes.  Relations the database does not contain raise
        ``KeyError`` (same contract as ``apply_delta``).
        """
        inserts: Dict[str, FrozenSet[Tup]] = {}
        deletes: Dict[str, FrozenSet[Tup]] = {}
        for name, (ins, dels) in self._changes.items():
            # Membership, not set algebra on ``.tuples``: a code-only
            # relation answers from its sorted codes without decoding.
            existing = db[name]
            inserts[name] = frozenset(t for t in ins if t not in existing)
            deletes[name] = frozenset(t for t in dels if t in existing)
        return Delta(inserts, deletes)

    def then(self, other: "Delta") -> "Delta":
        """Sequential composition: this delta, then ``other``.

        ``db.apply_delta(a.then(b))`` yields the same relation contents
        as ``db.apply_delta(a).apply_delta(b)`` for any database the
        sequence is applicable to, and composition is associative — the
        delta algebra the batching and undo APIs are built on
        (property-tested in ``tests/test_delta_algebra.py``).  One
        deliberate asymmetry: a tuple that churns *within* the
        composition (inserted by ``a``, deleted by ``b``) cancels out
        entirely, so a fresh universe value it would have introduced
        never appears — whereas sequential application grows the
        universe permanently (universes never shrink).  That is the
        transaction reading: a value no tuple of the committed state
        mentions was never in the database.
        """
        inserts: Dict[str, FrozenSet[Tup]] = {}
        deletes: Dict[str, FrozenSet[Tup]] = {}
        for name in set(self._changes) | set(other._changes):
            ins1, del1 = self._changes.get(name, _UNCHANGED)
            ins2, del2 = other._changes.get(name, _UNCHANGED)
            inserts[name] = (ins1 - del2) | ins2
            deletes[name] = (del1 - ins2) | del2
        return Delta(inserts, deletes)

    def compose(self, other: "Delta") -> "Delta":
        """Alias of :meth:`then` — the delta monoid's operation.

        ``Delta.empty()`` is its identity;
        :meth:`MaterializedView.apply_many
        <repro.materialize.view.MaterializedView.apply_many>` folds a
        batch with it to run one maintenance pass for the whole batch.
        """
        return self.then(other)

    def inverse(self, db=None) -> "Delta":
        """The delta undoing this one (inserts and deletes swapped).

        The plain inverse exactly undoes an *effective* delta (one whose
        inserts were all absent and deletes all present).  Passing the
        pre-change ``db`` normalizes first, so
        ``db.apply_delta(d).apply_delta(d.inverse(db)) == db`` holds for
        arbitrary ``d`` — a non-effective insert must not be deleted on
        undo.  Universes never shrink on either application, so an
        inverse restores *contents*; the undo log of
        :class:`~repro.materialize.view.MaterializedView` is built from
        these.
        """
        changes = (self if db is None else self.normalize(db))._changes
        return Delta(
            {n: d for n, (_, d) in changes.items()}, {n: i for n, (i, _) in changes.items()}
        )

    def restrict(self, names: Iterable[str]) -> "Delta":
        """The sub-delta touching only the given relations."""
        keep = set(names)
        changes = [(n, change) for n, change in self._changes.items() if n in keep]
        return Delta({n: i for n, (i, _) in changes}, {n: d for n, (_, d) in changes})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._changes == other._changes

    def __hash__(self) -> int:
        # On first use: the server's subscription window dedupes
        # changesets by it, and most deltas are never hashed at all.
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._changes.items()))
        return h

    def __bool__(self) -> bool:
        return bool(self._changes)

    def __len__(self) -> int:
        return sum(len(i) + len(d) for i, d in self._changes.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            "%s:+%d/-%d" % (name, len(ins), len(dels))
            for name, (ins, dels) in sorted(self._changes.items())
        )
        return "Delta(%s)" % (parts or "empty")

    def format(self) -> str:
        """A deterministic multi-line rendering (``repro update``'s output)."""
        lines: List[str] = []
        for name, (ins, dels) in self.items():
            lines.append("%s: +%d -%d" % (name, len(ins), len(dels)))
            for t in sorted(ins, key=repr):
                lines.append("  + " + ", ".join(str(v) for v in t))
            for t in sorted(dels, key=repr):
                lines.append("  - " + ", ".join(str(v) for v in t))
        return "\n".join(lines) if lines else "(no change)"


_NONE: FrozenSet[Tup] = frozenset()
_UNCHANGED: Change = (_NONE, _NONE)


def _frozen(tuples: Iterable[Tup]) -> FrozenSet[Tup]:
    """One side as a frozenset of tuples; a frozenset is taken as it is."""
    if type(tuples) is frozenset:
        return tuples
    return frozenset(tuple(t) for t in tuples)
