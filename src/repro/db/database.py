"""Databases: finite structures ``D = (A, R_1, ..., R_l)``.

The paper fixes a finite vocabulary sigma of database relational symbols; a
database supplies a finite universe ``A`` and a relation over ``A`` for every
symbol.  :class:`Database` also carries IDB valuations during evaluation —
an *interpretation* is just a database whose relation map includes values for
the nondatabase symbols.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .kernel import RelationCodes, universe_ids
from .relation import Relation, Tup

UNIVERSE = "@U"
"""The universe ``A`` read as a unary relation.

A rule's completion variables — variables no positive atom binds, which
the paper lets range over ``A`` — are bound by joining ``@U``
(:func:`~repro.core.planning.range_restricted`).  :meth:`Database.get`
resolves the name from the universe itself; it is never stored (a
database refuses a relation of that name), so it is absent from
:meth:`Database.relation_names`, dumps, equality and hashing.
Growth of the universe is an insertion into it.
"""


class Database:
    """A finite structure: a universe plus named relations.

    Parameters
    ----------
    universe:
        The (finite) set of elements ``A``.  Every value appearing in a
        relation tuple must belong to it.
    relations:
        Mapping or iterable of :class:`Relation`; names must be unique,
        and none may be :data:`UNIVERSE`, which the universe itself
        resolves.
    check:
        When true (default) verify that all tuples use universe elements.
    """

    __slots__ = (
        "universe",
        "_relations",
        "_sorted_universe",
        "_symcell",
        "_universe_rel",
    )

    def __init__(
        self,
        universe: Iterable[Any],
        relations: Iterable[Relation] = (),
        check: bool = True,
    ) -> None:
        self.universe = frozenset(universe)
        rel_map: Dict[str, Relation] = {}
        for rel in relations:
            if rel.name in rel_map:
                raise ValueError("duplicate relation name %r" % rel.name)
            if rel.name == UNIVERSE:
                raise ValueError(
                    "relation name %r is reserved for the universe" % UNIVERSE
                )
            rel_map[rel.name] = rel
        self._relations = rel_map
        # Symbol-table cell: a one-slot holder shared by every database
        # derived from this one, so the interning table a fixpoint round
        # creates on a *derived* interpretation is visible to the base
        # database and to every later round.  Holder sharing, not table
        # sharing: the table itself is created lazily by :meth:`symbols`.
        self._symcell = [None]
        self._universe_rel = None
        if check:
            self._check_domains()

    def _check_domains(self) -> None:
        for rel in self._relations.values():
            for t in rel:
                for value in t:
                    if value not in self.universe:
                        raise ValueError(
                            "value %r in relation %s is outside the universe"
                            % (value, rel.name)
                        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        universe: Iterable[Any],
        relations: Mapping[str, Iterable[Tup]],
        arities: Optional[Mapping[str, int]] = None,
    ) -> "Database":
        """Build a database from ``{name: tuples}``.

        Arities are inferred from the first tuple of each relation unless
        given explicitly (required for empty relations).
        """
        rels = []
        for name, tuples in relations.items():
            tuples = [tuple(t) for t in tuples]
            if arities is not None and name in arities:
                arity = arities[name]
            elif tuples:
                arity = len(tuples[0])
            else:
                raise ValueError(
                    "cannot infer arity of empty relation %r; pass arities=" % name
                )
            rels.append(Relation(name, arity, tuples))
        return cls(universe, rels)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def relations(self) -> Mapping[str, Relation]:
        """Read-only view of the relation map."""
        return dict(self._relations)

    def relation_names(self) -> Tuple[str, ...]:
        """All relation names, sorted for determinism."""
        return tuple(sorted(self._relations))

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError("no relation named %r in database" % name) from None

    def get(self, name: str, default: Optional[Relation] = None) -> Optional[Relation]:
        """Return the relation called ``name`` or ``default``.

        :data:`UNIVERSE` resolves to the universe as a code-backed unary
        relation (built once per universe and symbol table).
        """
        rel = self._relations.get(name)
        if rel is not None:
            return rel
        if name == UNIVERSE:
            return self._universe_relation()
        return default

    def _universe_relation(self) -> Relation:
        rel = self._universe_rel
        if rel is None:
            sym = self.symbols()
            rel = Relation._from_codes(
                UNIVERSE, 1, RelationCodes(sym, 1, universe_ids(sym, self.universe))
            )
            self._universe_rel = rel
        return rel

    def arity_of(self, name: str) -> int:
        """Arity of the named relation."""
        return self[name].arity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.universe == other.universe and self._relations == other._relations

    def __hash__(self) -> int:
        # Shape, not contents: equal databases have equal shapes, and a
        # content hash would decode every code-only relation the engines
        # hand back.  ``__eq__`` settles collisions, on code vectors where
        # it can.
        return hash(
            (
                self.universe,
                frozenset(
                    (name, rel.arity, len(rel))
                    for name, rel in self._relations.items()
                ),
            )
        )

    def __repr__(self) -> str:
        rels = ", ".join(
            "%s/%d:%d" % (r.name, r.arity, len(r))
            for r in (self._relations[n] for n in self.relation_names())
        )
        return "Database(|A|=%d, %s)" % (len(self.universe), rels)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def symbols(self):
        """This database's interning :class:`~repro.db.kernel.SymbolTable`.

        Created lazily (interning the sorted universe first, so equal
        databases intern equal universes to identical ids) and *shared*
        by the whole derivation family — functional updates
        (:meth:`with_relation`/:meth:`with_relations`/...) and
        :meth:`apply_delta` propagate the same holder cell, so the table
        a fixpoint round creates on a derived interpretation is the one
        every later round (and the base database) sees; interning is
        monotone, so dense ids survive update streams and WAL replay
        within a process.  The table is identity-level state: never part
        of equality or hashing.
        """
        sym = self._symcell[0]
        if sym is None:
            from .kernel import SymbolTable

            sym = SymbolTable(self.sorted_universe())
            self._symcell[0] = sym
        return sym

    def interned_size(self) -> Optional[int]:
        """How many constants the family's symbol table holds, or ``None``.

        A pure peek for observability (the server's ``stats`` face):
        unlike :meth:`symbols` it never *creates* the table, so asking a
        database that has not touched the columnar kernel reports
        ``None`` instead of paying the interning pass.
        """
        sym = self._symcell[0]
        return None if sym is None else len(sym)

    def derive(self, relations: Iterable[Relation]) -> "Database":
        """A database over this universe holding exactly ``relations``.

        The result belongs to this database's derivation family: it
        shares the symbol-table cell, so code payloads cached on the
        relations stay valid across every working interpretation built
        this way.
        """
        out = Database(self.universe, relations, check=False)
        out._symcell = self._symcell
        out._universe_rel = self._universe_rel
        return out

    def with_relation(self, rel: Relation) -> "Database":
        """Return a copy with ``rel`` added or replaced (same universe)."""
        new = dict(self._relations)
        new[rel.name] = rel
        return self.derive(new.values())

    def with_relations(self, rels: Iterable[Relation]) -> "Database":
        """Return a copy with every relation in ``rels`` added/replaced."""
        new = dict(self._relations)
        for rel in rels:
            new[rel.name] = rel
        return self.derive(new.values())

    def apply_delta(self, delta) -> "Database":
        """Apply per-relation insert/delete sets, returning a new database.

        ``delta`` is a :class:`repro.materialize.delta.Delta` (or any
        mapping-like object with ``.items()`` yielding
        ``(name, (inserts, deletes))``; a side may be a relation, whose
        payload is reused).  Every named relation must exist;
        tuples must match its arity.  The universe is extended with any
        values the inserted tuples introduce — deletions never shrink it
        (the paper's semantics quantifies over the whole universe, so
        dropping elements would silently change the meaning of unsafe
        rules; callers that want a trimmed universe rebuild explicitly).

        Each changed relation is produced with :meth:`Relation.evolve`:
        one that holds a code payload merges the delta into it and stays
        code-only, so no update copies a relation's tuples.

        Returns ``self`` unchanged (all caches intact) when the delta is
        a no-op against the current contents.
        """
        new_rels: Dict[str, Relation] = dict(self._relations)
        new_values = set()
        changed = False
        for name, (inserts, deletes) in delta.items():
            try:
                rel = self._relations[name]
            except KeyError:
                raise KeyError(
                    "delta names relation %r which is not in the database" % name
                ) from None
            evolved = rel.evolve(inserts, deletes)
            if evolved is not rel:
                changed = True
                new_rels[name] = evolved
                for t in inserts:
                    new_values.update(t)
        if not changed:
            return self
        fresh = new_values - self.universe
        universe = self.universe | fresh if fresh else self.universe
        out = Database(universe, new_rels.values(), check=False)
        # The symbol table is monotone: the post-delta database keeps
        # it, so interned ids (and every code vector built under an
        # unwidened generation) survive the update stream.
        out._symcell = self._symcell
        rel = self._universe_rel
        if rel is not None:  # the universe relation grows by the fresh values
            out._universe_rel = rel.evolve([(v,) for v in fresh]) if fresh else rel
        return out

    def sorted_universe(self) -> Tuple[Any, ...]:
        """The universe as a deterministically ordered tuple, cached.

        ``sorted(..., key=repr)`` works for mixed value domains; callers
        that need a stable iteration order (the plan executors, grounding)
        share this one sort instead of re-sorting per call.
        """
        try:
            return self._sorted_universe
        except AttributeError:
            ordered = tuple(sorted(self.universe, key=repr))
            self._sorted_universe = ordered
            return ordered
