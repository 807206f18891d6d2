"""Grounding: instantiating a program over a database's universe.

A *ground rule* is a rule instance where every variable has been replaced by
a universe element, the EDB literals and comparisons have been checked (and
dropped), and only IDB literals remain:

    head  <-  p_1, ..., p_a, not n_1, ..., not n_b

with ``head``, ``p_i``, ``n_j`` ground IDB atoms.  The fixpoint condition
``Theta(S) = S`` then becomes, for every ground IDB atom ``h``,

    h in S  <=>  some ground rule for h has all p_i in S and no n_j in S,

which is exactly the Boolean system compiled to CNF by
:mod:`repro.core.satreduction`, and the input to the well-founded and
brute-force-enumeration engines.

Grounding binds variables through positive EDB atoms first (joins) and
completes the remaining variables over the universe, pruning with EDB
negations and comparisons as soon as their variables are bound.  This
is done by compiling the *EDB projection* of each rule (its positive EDB
atoms plus EDB-only filters, range-restricted by joins with the universe
relation ``@U``, under a pseudo-head carrying every rule variable) with
:mod:`repro.core.planning` and reading the plan's binding table — IDB
literals stay symbolic, and the relations' cached codes and sorted runs
are shared with the fixpoint engines.

The ground program stays in codes.  A rule's *shape* is its head
predicate and its positive and negated IDB predicates; within a shape a
ground rule is its *key*, the symbol ids of its atoms' arguments read
off the binding table, so the rules of a shape are deduplicated by one
``np.lexsort`` over their key columns.  An atom is its predicate plus
its argument id columns; one sort per predicate numbers the atoms
densely (:class:`AtomCodes`), and the :class:`GroundProgramIndex` the
engines run on is built from those integer arrays: the well-founded
alternation, the SAT encoding of :mod:`repro.core.satreduction` and the
brute-force enumerator, whose fixpoint test is
:meth:`GroundProgramIndex.is_fixpoint` over atom flags.  No
:class:`GroundRule` and no atom tuple is built on those paths.  The rule
objects (``GroundProgram.rules``) and the atom tuples (``index.atoms`` /
``atom_ids``) are decoded on first read, as the reference form for the
readers that need it: :mod:`repro.parallel` and the tests' oracles.

This module grounds from scratch.  A well-founded view starts from the
same :class:`GroundProgram` and keeps it live under EDB deltas
(:class:`repro.materialize.wellfounded_maint.LiveGroundProgram`): each
shape's keys are counted, seeded with their run lengths in the sorted
binding keys (:meth:`GroundProgram.key_counts`), and the index is
patched in place in atom ids — an atom first seen in a patch is
numbered after the :class:`AtomCodes` blocks.  The repository has this
one representation of a ground program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..db.database import Database
from ..db.kernel import RelationCodes, SymbolTable
from ..db.relation import Relation
from ..obs import RECORDER, TRACER
from .literals import Atom, Eq, Negation, Neq
from .planning import compile_rule, range_restricted, solve_bindings
from .program import Program
from .rules import Rule
from .terms import Variable

GroundAtom = Tuple[str, Tuple[Any, ...]]
"""A ground IDB atom, keyed as ``(predicate, value_tuple)``."""


@dataclass(frozen=True)
class GroundRule:
    """One ground instance: ``head <- pos..., not neg...`` over IDB atoms."""

    head: GroundAtom
    pos: Tuple[GroundAtom, ...]
    neg: Tuple[GroundAtom, ...]

    def fires(
        self,
        true_atoms: Set[GroundAtom],
        negation_reference: Optional[Set[GroundAtom]] = None,
    ) -> bool:
        """Whether the body holds under ``true_atoms``.

        Positive literals are checked against ``true_atoms``.  Negative
        literals ``not n`` hold when ``n`` is absent from
        ``negation_reference`` (default: ``true_atoms`` itself).  Passing a
        separate reference is what the alternating-fixpoint (well-founded)
        computation needs.
        """
        if not all(p in true_atoms for p in self.pos):
            return False
        reference = true_atoms if negation_reference is None else negation_reference
        return all(n not in reference for n in self.neg)

    def __str__(self) -> str:
        def fmt(a: GroundAtom) -> str:
            return "%s(%s)" % (a[0], ", ".join(map(str, a[1])))

        body = [fmt(p) for p in self.pos] + ["!%s" % fmt(n) for n in self.neg]
        if not body:
            return "%s." % fmt(self.head)
        return "%s :- %s." % (fmt(self.head), ", ".join(body))


class AtomCodes:
    """Ground atoms named by codes instead of tuples.

    Each predicate's atoms hold one block of consecutive ids,
    ``blocks[pred] = (start, end, columns)``, ordered lexicographically
    by their argument id columns under ``symbols`` (``columns[j][i]`` is
    argument ``j`` of atom ``start + i``).  The packed row codes of a
    block are therefore sorted and distinct as they stand: a flag
    vector over the ids selects a code-only relation
    (:meth:`relation`) without decoding a value.
    """

    __slots__ = ("symbols", "blocks", "size")

    def __init__(self, symbols: SymbolTable, blocks: Dict[str, tuple], size: int) -> None:
        self.symbols = symbols
        self.blocks = blocks
        self.size = size

    def atoms(self) -> List[GroundAtom]:
        """Every atom as ``(pred, values)``, in id order."""
        out: List[GroundAtom] = []
        for pred, (start, end, cols) in self.blocks.items():
            out += [(pred, row) for row in self.symbols.extern_rows(cols, end - start)]
        return out

    def relation(self, pred: str, arity: int, flags: np.ndarray) -> Relation:
        """``pred``'s atoms whose ``flags`` entry is set, as a relation.

        Code-only under :attr:`symbols`; tuple-backed only when a row no
        longer packs into 63 bits.
        """
        block = self.blocks.get(pred)
        if block is None:
            return Relation(pred, arity)
        start, end, cols = block
        keep = flags[start:end]
        if not arity:
            return Relation(pred, 0, [()] if keep.any() else [])
        cols = [col[keep] for col in cols]
        symbols = self.symbols
        if not symbols.fits(arity):
            return Relation(pred, arity, symbols.extern_rows(cols, len(cols[0])))
        codes = cols[0]
        for col in cols[1:]:
            codes = (codes << symbols.shift) | col
        return Relation._from_codes(pred, arity, RelationCodes(symbols, arity, codes))

    def valuation(self, program: Program, flags: np.ndarray) -> Dict[str, Relation]:
        """Every IDB relation of ``program`` the ``flags`` select."""
        return {p: self.relation(p, program.arity(p), flags) for p in program.idb_predicates}


class GroundProgramIndex:
    """A ground-rule sequence over densely numbered atoms, patchable in place.

    Rule ``r`` has head ``head[r]`` and ``npos[r]`` distinct positive
    body atoms; the bodies are stored atom-side, as the occurrence lists
    ``by_head[a]`` / ``by_pos[a]`` / ``by_neg[a]``: the rules atom ``a``
    heads, reads positively and reads under negation (a rule is listed
    once per *distinct* atom).  The propagation engines
    of :mod:`repro.core.semantics.wellfounded` keep their state in
    ``bytearray``s and counter lists beside it.

    The one constructor takes integer arrays: ``head``, and ``pos`` /
    ``neg`` as ``(rule ids, atom ids)`` of the distinct body
    occurrences, and the :class:`AtomCodes` naming the atoms (kept as
    :attr:`codes`; ``atoms`` / ``atom_ids`` are decoded on first read).
    The atom count is ``len(by_head)``.

    A live grounding patches the index in atom ids: :meth:`number`
    gives an atom's id, numbering an unseen one after every other (ids
    are append-only, so the :class:`AtomCodes` blocks name a prefix);
    :meth:`add` appends a rule under the next rule id, and
    :meth:`retire` takes a rule out of every occurrence list; its id is
    never reused.
    """

    def __init__(
        self,
        head: Sequence[int],
        pos: Tuple[Sequence[int], Sequence[int]],
        neg: Tuple[Sequence[int], Sequence[int]],
        codes: AtomCodes,
    ) -> None:
        natoms = codes.size
        head = np.asarray(head, dtype=np.int64)
        nrules = len(head)
        self.head: List[int] = head.tolist()
        self.npos: List[int] = np.bincount(
            np.asarray(pos[0], dtype=np.int64), minlength=nrules
        ).tolist()
        self.by_head = _occurrences(np.arange(nrules), head, natoms)
        self.by_pos = _occurrences(*pos, natoms)
        self.by_neg = _occurrences(*neg, natoms)
        self.codes = codes

    @cached_property
    def atoms(self) -> List[GroundAtom]:
        return self.codes.atoms()

    @cached_property
    def atom_ids(self) -> Dict[GroundAtom, int]:
        return {atom: a for a, atom in enumerate(self.atoms)}

    def number(self, atom: GroundAtom) -> int:
        """``atom``'s id; an unseen atom is numbered after the last."""
        atom_ids = self.atom_ids
        a = atom_ids.get(atom)
        if a is None:
            a = atom_ids[atom] = len(self.by_head)
            self.atoms.append(atom)
            self.by_head.append(())
            self.by_pos.append(())
            self.by_neg.append(())
        return a

    def add(self, head: int, pos: Sequence[int], neg: Sequence[int]) -> int:
        """Append the rule ``head <- pos, not neg`` over distinct atom ids;
        its id."""
        r = len(self.head)
        self.head.append(head)
        self.npos.append(len(pos))
        _link(self.by_head, (head,), r)
        _link(self.by_pos, pos, r)
        _link(self.by_neg, neg, r)
        return r

    def retire(self, r: int, pos: Sequence[int], neg: Sequence[int]) -> None:
        """Take rule ``r``, with distinct body atoms ``pos`` / ``neg``, out
        of every occurrence list."""
        self.by_head[self.head[r]].remove(r)
        for a in pos:
            self.by_pos[a].remove(r)
        for a in neg:
            self.by_neg[a].remove(r)

    def is_fixpoint(self, flags: np.ndarray) -> bool:
        """Whether the atoms ``flags`` sets are a fixpoint, ``Theta(S) = S``:
        each atom is set iff some rule it heads has every positive body
        atom set and no negated one.

        A rule's count starts at its positives, loses one per positive
        set and gains one per negated atom set: it fires at zero.
        """
        unmet = list(self.npos)
        for a in np.flatnonzero(flags).tolist():
            for r in self.by_pos[a]:
                unmet[r] -= 1
            for r in self.by_neg[a]:
                unmet[r] += 1
        return all(
            on == any(not unmet[r] for r in rules)
            for on, rules in zip(flags.tolist(), self.by_head)
        )


def _occurrences(rules, atoms, natoms: int) -> List[Sequence[int]]:
    """Each atom's rules, in the order given: one stable argsort by atom.

    An atom with no occurrence shares the empty tuple.
    """
    occurrences: List[Sequence[int]] = [()] * natoms
    atoms = np.asarray(atoms, dtype=np.int64)
    if len(atoms):
        flat = np.asarray(rules, dtype=np.int64)[np.argsort(atoms, kind="stable")].tolist()
        counts = np.bincount(atoms, minlength=natoms)
        present = np.flatnonzero(counts)
        ends = np.cumsum(counts[present]).tolist()
        for a, start, end in zip(present.tolist(), [0] + ends[:-1], ends):
            occurrences[a] = flat[start:end]
    return occurrences


def _link(occurrences: List[Sequence[int]], atoms: Iterable[int], r: int) -> None:
    """List rule ``r`` under each atom; a first one replaces an empty entry."""
    for a in atoms:
        listed = occurrences[a]
        if listed:
            listed.append(r)
        else:
            occurrences[a] = [r]


class GroundProgram:
    """The full ground instantiation of ``(program, db)``.

    Held in codes: per shape, the key columns of its distinct ground
    rules, and the :class:`GroundProgramIndex` over them.  ``len`` is
    the number of ground rules and builds nothing.

    Attributes
    ----------
    rules:
        All ground rules (IDB literals only), decoded on first read: the
        reference form, read by :mod:`repro.parallel` and the tests.
    index:
        The rules over dense integer atom ids, with atom -> rules
        occurrence lists (:class:`GroundProgramIndex`).  An atom is
        *derivable* when it heads a rule (``index.by_head[a]`` is not
        empty); any fixpoint is a set of derivable atoms, since
        ``Theta`` never produces another.
    """

    def __init__(
        self,
        program: Program,
        db: Database,
        symbols: SymbolTable,
        shapes: List[Tuple[tuple, List[np.ndarray], int, np.ndarray]],
    ) -> None:
        self.program = program
        self.db = db
        self._symbols = symbols
        self._shapes = shapes
        self._size = sum(n for _, _, n, _ in shapes)
        self.index = GroundProgramIndex(*_index_arrays(symbols, shapes))

    def __len__(self) -> int:
        return self._size

    @cached_property
    def rules(self) -> Tuple[GroundRule, ...]:
        rules: List[GroundRule] = []
        for layout, cols, n, _ in self._shapes:
            rules += _ground_rules(layout, self._symbols.extern_rows(cols, n))
        return tuple(rules)

    def key_counts(self) -> List[Tuple[range, Dict[tuple, int]]]:
        """Per shape (:func:`rule_shapes` order): its rule ids, and each
        key's values mapped to the number of EDB bindings behind it,
        keys in rule-id order."""
        out = []
        r = 0
        for _, cols, n, runs in self._shapes:
            keys = self._symbols.extern_rows(cols, n)
            out.append((range(r, r + n), dict(zip(keys, runs.tolist()))))
            r += n
        return out

    def atom_space_size(self) -> int:
        """Size of the full IDB atom space ``sum_i |A|^{n_i}``."""
        n = len(self.db.universe)
        return sum(n ** self.program.arity(p) for p in self.program.idb_predicates)


def to_idb_map(program: Program, atoms: Iterable[GroundAtom]) -> Dict[str, Relation]:
    """Convert a ground-atom set to a ``{pred: Relation}`` valuation."""
    grouped: Dict[str, Set[Tuple]] = {p: set() for p in program.idb_predicates}
    for pred, values in atoms:
        grouped[pred].add(values)
    return {
        p: Relation(p, program.arity(p), tuples)
        for p, tuples in grouped.items()
    }


@lru_cache(maxsize=4096)
def _edb_projection(rule: Rule, idb: FrozenSet[str]) -> Rule:
    """The EDB projection of ``rule``, as a pseudo-rule.

    It keeps the positive EDB atoms and EDB-only filters, under a
    synthetic head listing *every* rule variable, range-restricted: a
    variable no positive EDB atom binds — one that occurs only in IDB
    literals (which stay symbolic), or a completion variable — joins
    ``@U``.  Growth of the universe is then an ``@U`` delta like any
    other EDB change (the live grounding of
    :mod:`repro.materialize.wellfounded_maint`).  Like every plan, the
    projection's depends on the rule alone, so repeated groundings — the
    well-founded engine, the SAT reduction, enumeration, over any
    database — compile it once.
    """
    edb_body = [
        t
        for t in rule.body
        if (isinstance(t, Atom) and t.pred not in idb)
        or isinstance(t, (Eq, Neq))
        or (isinstance(t, Negation) and t.atom.pred not in idb)
    ]
    all_vars = sorted(rule.variables(), key=lambda v: v.name)
    return range_restricted(Rule(Atom("__grounding__", tuple(all_vars)), edb_body))


def rule_shapes(program: Program) -> List[Tuple[tuple, List[Tuple[Rule, tuple]]]]:
    """The program's rules grouped by shape, shapes in first-seen order.

    A rule's shape is its head predicate and its positive and negated
    IDB predicates, in body order.  Only rules of one shape can yield
    equal ground rules, and within a shape the *key* — the head's
    argument terms, then the positives', then the negated atoms' —
    determines the ground rule.  Each shape comes as ``(layout,
    [(rule, key terms)])`` (:func:`_layout`).
    """
    idb = program.idb_predicates
    shapes: Dict[tuple, Tuple[tuple, list]] = {}
    for rule in program.rules:
        pos = [a for a in rule.positive_atoms() if a.pred in idb]
        neg = [t.atom for t in rule.body if isinstance(t, Negation) and t.atom.pred in idb]
        atoms = [rule.head, *pos, *neg]
        shape = tuple(a.pred for a in atoms), len(pos)
        if shape not in shapes:
            shapes[shape] = (_layout(atoms, len(pos)), [])
        shapes[shape][1].append((rule, sum((a.args for a in atoms), ())))
    return list(shapes.values())


def _layout(atoms: List[Atom], npos: int) -> tuple:
    """Where each atom of a shape sits in its key: ``(pred, start, end)``,
    split as ``(head, positives, negatives)``."""
    spans = []
    start = 0
    for atom in atoms:
        spans.append((atom.pred, start, start + len(atom.args)))
        start += len(atom.args)
    return spans[0], spans[1 : 1 + npos], spans[1 + npos :]


def _ground_rules(layout: tuple, keys: List[tuple]) -> List[GroundRule]:
    """The ground rule behind each key of one shape.

    Equal atoms come back as one object, so the rules share them.
    """
    (head_pred, head_start, head_end), pos, neg = layout
    intern = {}.setdefault

    def atom(key, pred, start, end):
        ground = (pred, key[start:end])
        return intern(ground, ground)

    return [
        GroundRule(
            atom(key, head_pred, head_start, head_end),
            tuple([atom(key, *span) for span in pos]),
            tuple([atom(key, *span) for span in neg]),
        )
        for key in keys
    ]


_NO_IDS = np.empty(0, dtype=np.int64)


def _concat(parts) -> np.ndarray:
    if not parts:
        return _NO_IDS
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sorted_runs(cols: List[np.ndarray], n: int):
    """The lexicographic order of the ``n`` rows of ``cols``, and which
    sorted rows differ from the row before (a zero-width row is one value)."""
    keys = cols or [np.zeros(n, dtype=np.int64)]
    order = np.lexsort(keys[::-1])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return order, new


def _distinct_rows(blocks: List[Tuple[List[np.ndarray], int]]):
    """The distinct rows of the stacked ``(columns, nrows)`` blocks,
    sorted: their columns, their number, and how often each occurs."""
    n = sum(m for _, m in blocks)
    cols = [_concat(parts) for parts in zip(*(cols for cols, _ in blocks))]
    order, new = _sorted_runs(cols, n)
    starts = np.flatnonzero(new)
    return [col[order[starts]] for col in cols], len(starts), np.diff(starts, append=n)


def _index_arrays(symbols: SymbolTable, shapes):
    """The :class:`GroundProgramIndex` arrays of the shapes' keys.

    An atom is its predicate plus its argument id columns: per
    predicate, one lexsort over every key slot naming it gives the
    dense ids (:class:`AtomCodes`).  Rule ``r`` is the ``r``-th key in
    shape order; a body atom repeated in one key is listed once.
    """
    slots: Dict[str, list] = {}
    ids: List[List[np.ndarray]] = []
    for layout, cols, n, _ in shapes:
        spans = (layout[0], *layout[1], *layout[2])
        ids.append([_NO_IDS] * len(spans))
        for k, (pred, start, end) in enumerate(spans):
            slots.setdefault(pred, []).append((ids[-1], k, cols[start:end], n))
    blocks: Dict[str, tuple] = {}
    first = 0
    for pred, members in slots.items():
        n = sum(m for *_, m in members)
        cols = [_concat(parts) for parts in zip(*(c for _, _, c, _ in members))]
        order, new = _sorted_runs(cols, n)
        number = np.empty(n, dtype=np.int64)
        number[order] = np.cumsum(new) + (first - 1)
        count = int(np.count_nonzero(new))
        blocks[pred] = (first, first + count, [col[order[new]] for col in cols])
        first += count
        at = 0
        for slot_ids, k, _, m in members:
            slot_ids[k] = number[at : at + m]
            at += m

    heads, pos, neg = [], ([], []), ([], [])
    r = 0
    for (layout, _, n, _), slot_ids in zip(shapes, ids):
        rules = np.arange(r, r + n)
        heads.append(slot_ids[0])
        npos = 1 + len(layout[1])
        for body, (rule_ids, atom_ids) in ((slot_ids[1:npos], pos), (slot_ids[npos:], neg)):
            for j, atoms in enumerate(body):
                fresh = np.ones(n, dtype=bool)
                for earlier in body[:j]:
                    fresh &= atoms != earlier
                rule_ids.append(rules[fresh])
                atom_ids.append(atoms[fresh])
        r += n
    return (
        _concat(heads),
        tuple(map(_concat, pos)),
        tuple(map(_concat, neg)),
        AtomCodes(symbols, blocks, first),
    )


def ground_program(program: Program, db: Database) -> GroundProgram:
    """Ground every rule of ``program`` over ``db``.

    EDB literals and comparisons are solved away during instantiation;
    the ground rules carry only IDB literals.  Distinct bindings of
    variables occurring only in EDB literals collapse to the same
    instance, and duplicates (same head and body) are kept once.
    """
    started = time.perf_counter()
    idb = program.idb_predicates
    with TRACER.span("ground") as sp:
        symbols = db.symbols()
        shapes = []
        for layout, members in rule_shapes(program):
            blocks = []
            for rule, terms in members:
                plan = compile_rule(_edb_projection(rule, idb))
                _, table = solve_bindings(plan, db)
                column = dict(zip(plan.schema, table.cols))
                blocks.append((
                    [
                        column[t] if isinstance(t, Variable)
                        else np.full(table.nrows, symbols.intern(t.value), dtype=np.int64)
                        for t in terms
                    ],
                    table.nrows,
                ))
            shapes.append((layout, *_distinct_rows(blocks)))
        ground = GroundProgram(program, db, symbols, shapes)
        if sp:
            sp["rows_out"] = len(ground)
    if RECORDER.enabled:
        RECORDER.observe(
            "repro_engine_ground_seconds", time.perf_counter() - started
        )
    return ground
