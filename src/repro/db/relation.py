"""Finite relations: the values DATALOG¬ programs map between.

A :class:`Relation` is an immutable finite set of equal-length tuples over an
arbitrary hashable value domain, together with a name and an arity.  Relations
are the carriers of both database (EDB) and nondatabase (IDB) predicates in
the paper's Section 2 formalism: the operator Theta of a program maps
sequences of relations to sequences of relations of the same arities.

Relations compare by *value* (name, arity and tuple set), so a fixpoint check
``theta(s) == s`` is a plain equality test.

A relation has two representations it moves between lazily: the
frozenset of Python tuples (the canonical value for hashing and every
consumer that iterates tuples) and a
:class:`~repro.db.kernel.RelationCodes` payload — one sorted int64
row-code vector under a database's
:class:`~repro.db.kernel.SymbolTable`, held in one slot (:meth:`codes_on`:
a relation holds the payload of one table at a time, the one it was
last read under).  The executor derives *code-only* relations
(:meth:`_from_codes`): no frozenset until someone asks for tuples, each
such decode counted in ``repro_relation_decoded_rows_total``.  The row
count is stored at construction: a relation is immutable, and neither a
re-pack nor an encode under another table changes it.

One rule governs the two: **a relation that holds a payload evolves,
unions and differences in codes** — the other operand (or the delta) is
encoded under that payload's table, nothing is decoded, and the result
is code-only (:meth:`_codes_with`, :meth:`evolve`).  Only two
payload-free operands, or rows wider than 63 bits, stay on frozensets.
An update therefore costs ``O(|delta|)`` interning, and a fixpoint that
keeps unioning derived heads never builds a Python tuple per fact.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Any, Callable, Iterable, Iterator, List, Tuple

from .kernel import (
    RelationCodes,
    codes_equal,
    codes_intersection,
    codes_issubset,
)

Tup = Tuple[Any, ...]


class Relation:
    """An immutable named finite relation of fixed arity.

    Parameters
    ----------
    name:
        The relational symbol, e.g. ``"E"``.
    arity:
        Number of columns.  Zero-ary relations are allowed (they behave as
        booleans: either empty or containing the empty tuple).
    tuples:
        Iterable of tuples, each of length ``arity``.

    Raises
    ------
    ValueError
        If some tuple's length differs from ``arity``.
    """

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_hash",
        "_codes",
        "_len",
    )

    def __init__(self, name: str, arity: int, tuples: Iterable[Tup] = ()) -> None:
        if arity < 0:
            raise ValueError("arity must be non-negative, got %d" % arity)
        frozen = frozenset(tuple(t) for t in tuples)
        for t in frozen:
            if len(t) != arity:
                raise ValueError(
                    "tuple %r has length %d, expected arity %d for relation %s"
                    % (t, len(t), arity, name)
                )
        self.name = name
        self.arity = arity
        self._tuples = frozen
        self._hash = None
        self._codes = None
        self._len = len(frozen)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_frozenset(cls, name: str, arity: int, frozen: frozenset) -> "Relation":
        """Internal fast path: adopt an already-validated frozenset.

        Set operations on tuple sets (union/difference/evolve) produce
        frozensets whose members are known-good tuples of the right
        arity; re-freezing and re-validating them through ``__init__``
        is the dominant cost of evolving big relations, so the derived
        constructors skip it.
        """
        self = object.__new__(cls)
        self.name = name
        self.arity = arity
        self._tuples = frozen
        self._hash = None
        self._codes = None
        self._len = len(frozen)
        return self

    @classmethod
    def _from_codes(cls, name: str, arity: int, codes) -> "Relation":
        """Internal fast path: adopt a columnar payload, rows deferred.

        ``codes`` is a :class:`~repro.db.kernel.RelationCodes` whose
        vector *is* the tuple set; the frozenset is only decoded
        (:attr:`tuples`) when a consumer genuinely needs Python tuples.
        Comparisons, sizes and set algebra against other code-backed
        relations under the same symbol table never do.
        """
        self = object.__new__(cls)
        self.name = name
        self.arity = arity
        self._tuples = None
        self._hash = None
        self._codes = codes
        self._len = len(codes.codes)
        return self

    @classmethod
    def empty(cls, name: str, arity: int) -> "Relation":
        """Return the empty relation with the given signature."""
        return cls(name, arity, ())

    @classmethod
    def full(cls, name: str, arity: int, universe: Iterable[Any]) -> "Relation":
        """Return the full relation ``universe ** arity``.

        This is the relation ``A^n`` used by the paper's toggle gadget
        ("Q must be equal to A^n or else T would not be a fixpoint").
        """
        return cls(name, arity, product(tuple(universe), repeat=arity))

    # ------------------------------------------------------------------
    # Columnar form
    # ------------------------------------------------------------------

    def codes_on(self, symbols):
        """This relation as row codes under ``symbols``, held in its slot.

        Returns the held :class:`~repro.db.kernel.RelationCodes` when it
        is under this symbol table at its current field width; a payload
        packed under a width the table has since outgrown is re-packed
        from its own id columns
        (:meth:`~repro.db.kernel.RelationCodes.repacked` — vectorised,
        nothing is decoded).  A payload of another table (or none) is
        replaced: the tuples are encoded once under ``symbols`` (a
        code-only relation decodes first).  Returns ``None`` when the
        arity cannot pack into a 64-bit code under the table's current
        width — callers stay on frozensets.
        """
        rc = self._codes
        if rc is not None and rc.symbols is symbols:
            if rc.shift != symbols.shift:
                rc = rc.repacked()
                if rc is not None:
                    self._codes = rc
            return rc
        if not symbols.fits(self.arity):
            return None
        rc = RelationCodes.encode(symbols, self.arity, self.tuples)
        if not symbols.fits(self.arity):
            return None  # encoding widened the field width past 64 bits
        self._codes = rc
        return rc

    @property
    def code_only(self):
        """The columnar payload while no tuple has been decoded, else ``None``.

        For consumers that can work from id columns instead of tuples
        (the CLI prints from them).  The payload may be of a retired
        field width; its own ``shift`` and :meth:`columns` stay exact.
        """
        return self._codes if self._tuples is None else None

    def _codes_with(self, other: "Relation", held: bool = False):
        """Both operands as codes under one table's current width, or ``None``.

        The table is the one both slots hold payloads of, else the table
        of a code-only side (it must never be decoded), else — for
        ``held``, the union and difference whose result adopts it — that
        of a side holding a payload; the other side is encoded under
        it.  A comparison never encodes a tuple-backed side into a
        foreign table, and two payload-free relations return ``None``.
        Payloads of a retired width are re-packed, so the pair is always
        safe to combine and the result safe to stamp with the table's
        current width.
        """
        mine, theirs = self._codes, other._codes
        if mine is not None and theirs is not None and mine.symbols is theirs.symbols:
            symbols = mine.symbols
        elif self._tuples is None:
            symbols = mine.symbols
        elif other._tuples is None:
            symbols = theirs.symbols
        elif held and (mine is not None or theirs is not None):
            symbols = (theirs if mine is None else mine).symbols
        else:
            return None
        a = self.codes_on(symbols)
        b = other.codes_on(symbols)
        if a is not None and not a.valid():
            a = self.codes_on(symbols)  # encoding ``other`` widened the table
        if a is None or b is None:
            return None
        return a, b

    # ------------------------------------------------------------------
    # Set-like protocol
    # ------------------------------------------------------------------

    @property
    def tuples(self) -> frozenset:
        """The underlying frozenset of tuples (decoded on first use)."""
        frozen = self._tuples
        if frozen is None:
            frozen = self._codes.decode()
            self._tuples = frozen
        return frozen

    def __contains__(self, item: Tup) -> bool:
        if self._tuples is None:
            return self._codes.contains_tuple(tuple(item))
        return tuple(item) in self._tuples

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.name != other.name or self.arity != other.arity:
            return False
        if self._len != other._len:
            return False
        pair = self._codes_with(other)
        if pair is not None:
            return codes_equal(pair[0].codes, pair[1].codes)
        return self.tuples == other.tuples

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.name, self.arity, self.tuples))
        return h

    def __repr__(self) -> str:
        shown = sorted(self.tuples, key=repr)[:8]
        suffix = ", ..." if len(self.tuples) > 8 else ""
        inner = ", ".join(repr(t) for t in shown)
        return "Relation(%s/%d, {%s%s})" % (self.name, self.arity, inner, suffix)

    # ------------------------------------------------------------------
    # Value operations (all return new relations, preserving the name)
    # ------------------------------------------------------------------

    def with_name(self, name: str) -> "Relation":
        """Return the same relation under a different symbol.

        Returns ``self`` when the name already matches, so round-to-round
        renames of unchanged relations keep their payloads.  A
        code-backed relation renames without decoding — the payload is
        shared (codes carry no name).
        """
        if name == self.name:
            return self
        if self._tuples is None:
            return Relation._from_codes(name, self.arity, self._codes)
        out = Relation._from_frozenset(name, self.arity, self._tuples)
        out._codes = self._codes
        return out

    def evolve(self, inserts: Iterable[Tup] = (), deletes: Iterable[Tup] = ()) -> "Relation":
        """Return ``(self - deletes) | inserts``.

        This is the delta-update face of the value operations, under the
        module's one representation rule.  Either side may be an
        iterable of tuples or a :class:`Relation` (whose cached payload
        is then reused, not re-encoded).  A relation that holds a payload
        merges the encoded (small) delta into its sorted vector: it is
        never decoded, and the result is code-only.  A payload-free one
        stays on frozensets.  Tuples on either side that do not match the
        arity raise; no-op deltas return ``self`` with every cache intact.
        """
        ins = self._delta_side(inserts)
        dels = self._delta_side(deletes)
        if self._codes is not None:
            symbols, generation = self._codes.symbols, None
            while generation != symbols.generation:
                # Encoding a side can widen the table: go round again until
                # all three payloads are of the final width.  A side keeps
                # its payload in its slot, so a delta patching several
                # relations is interned once; an empty side is ``None``.
                generation = symbols.generation
                mine = self.codes_on(symbols)
                inserted, deleted = (side.codes_on(symbols) if side else None for side in (ins, dels))
            fits = (inserted is not None or not ins) and (deleted is not None or not dels)
            if mine is not None and fits:
                out = mine.evolved(inserted, deleted)
                return self if out is mine else Relation._from_codes(self.name, self.arity, out)
        added = ins.tuples - self.tuples
        removed = dels.tuples & self.tuples
        if not added and not removed:
            return self
        return Relation._from_frozenset(
            self.name, self.arity, (self.tuples - removed) | added
        )

    def _delta_side(self, tuples) -> "Relation":
        """One side of an :meth:`evolve` delta as an arity-checked relation."""
        if isinstance(tuples, Relation):
            self._check_compatible(tuples, "evolve")
            return tuples
        if not isinstance(tuples, frozenset):
            tuples = frozenset(tuple(t) for t in tuples)
        arity = self.arity
        for t in tuples:
            if type(t) is not tuple or len(t) != arity:
                raise ValueError(
                    "tuple %r does not have arity %d for relation %s"
                    % (t, arity, self.name)
                )
        return Relation._from_frozenset(self.name, arity, tuples)

    def add(self, *tuples: Tup) -> "Relation":
        """Return this relation extended with the given tuples."""
        return Relation(self.name, self.arity, self.tuples.union(tuples))

    def union(self, other: "Relation") -> "Relation":
        """Set union; the operand must have the same arity.

        Returns ``self`` unchanged when the operand adds nothing, so a
        converged IDB relation keeps its payload across the remaining
        fixpoint rounds (and the operand itself, renamed, when this
        relation is empty).  The second half of :meth:`absorb`.
        """
        return self.absorb(other)[1]

    def absorb(self, other: "Relation") -> Tuple["Relation", "Relation"]:
        """``(other - self, self | other)``: what ``other`` adds, and the union.

        A semi-naive round's step (:func:`~repro.core.fixpoint.iterate`).
        In codes, under the rule of :meth:`_codes_with`, one binary
        search of ``other``'s rows in this relation finds both the new
        rows and where they go
        (:meth:`~repro.db.kernel.RelationCodes.absorbed`).  The new rows
        keep ``other``'s name and the union this one's; each is an
        operand itself, payload intact, when nothing moves.
        """
        self._check_compatible(other, "union")
        if not other:
            return other, self
        if not self:
            return other, other.with_name(self.name)
        pair = self._codes_with(other, held=True)
        if pair is not None:
            fresh, merged = pair[0].absorbed(pair[1])
            new = other if fresh is pair[1] else Relation._from_codes(other.name, other.arity, fresh)
            if merged is pair[0]:
                return new, self
            return new, Relation._from_codes(self.name, self.arity, merged)
        added = other.tuples - self.tuples
        new = Relation._from_frozenset(other.name, other.arity, added)
        if not added:
            return new, self
        return new, Relation._from_frozenset(self.name, self.arity, self.tuples | added)

    @classmethod
    def disjoint_union(cls, name: str, arity: int, parts: List["Relation"]) -> "Relation":
        """The union of pairwise disjoint relations, e.g. a fixpoint's
        rounds' new tuples.

        When all are code-only under one table's current width, their
        vectors are sorted once
        (:meth:`~repro.db.kernel.RelationCodes.disjoint_union`); otherwise
        they are unioned one by one.
        """
        payloads = [rel.code_only for rel in parts]
        if len(parts) > 1 and all(
            rc is not None and rc.symbols is payloads[0].symbols and rc.valid() for rc in payloads
        ):
            return cls._from_codes(name, arity, RelationCodes.disjoint_union(payloads))
        return reduce(Relation.union, parts, cls.empty(name, arity))

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; the operand must have the same arity."""
        self._check_compatible(other, "intersection")
        pair = self._codes_with(other)
        if pair is not None:
            mine, theirs = pair
            common = codes_intersection(mine.codes, theirs.codes)
            return Relation._from_codes(
                self.name, self.arity, RelationCodes(mine.symbols, self.arity, common)
            )
        return Relation(self.name, self.arity, self.tuples & other.tuples)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; the operand must have the same arity.

        Returns ``self`` unchanged (cached payload intact) when the
        operand removes nothing.
        """
        self._check_compatible(other, "difference")
        if not other or not self:
            return self
        pair = self._codes_with(other, held=True)
        if pair is not None:
            mine, theirs = pair
            kept = mine.evolved(removed=theirs)
            if kept is mine:
                return self
            return Relation._from_codes(self.name, self.arity, kept)
        if self.tuples.isdisjoint(other.tuples):
            return self
        return Relation._from_frozenset(
            self.name, self.arity, self.tuples - other.tuples
        )

    def complement(self, universe: Iterable[Any]) -> "Relation":
        """Return ``universe**arity`` minus this relation."""
        return Relation.full(self.name, self.arity, universe).difference(self)

    def issubset(self, other: "Relation") -> bool:
        """True when every tuple of this relation is in ``other``."""
        self._check_compatible(other, "issubset")
        if self._len > other._len:
            return False
        pair = self._codes_with(other)
        if pair is not None:
            return codes_issubset(pair[0].codes, pair[1].codes)
        return self.tuples <= other.tuples

    def filter(self, predicate: Callable[[Tup], bool]) -> "Relation":
        """Return the sub-relation of tuples satisfying ``predicate``."""
        return Relation(self.name, self.arity, (t for t in self.tuples if predicate(t)))

    def _check_compatible(self, other: "Relation", op: str) -> None:
        if self.arity != other.arity:
            raise ValueError(
                "%s between arity %d (%s) and arity %d (%s)"
                % (op, self.arity, self.name, other.arity, other.name)
            )
