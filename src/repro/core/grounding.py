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
negations and comparisons as soon as their variables are bound.  Since the
planner refactor this is done by compiling the *EDB projection* of each
rule (its positive EDB atoms plus EDB-only filters, range-restricted by
joins with the universe relation ``@U``, under a pseudo-head carrying
every rule variable) with :mod:`repro.core.planning` and enumerating the
plan's bindings — IDB literals stay symbolic, and the relations' cached
codes and sorted runs are shared with the fixpoint engines.

This module grounds from scratch.  A well-founded view keeps the same
instantiation live under EDB deltas by counting each rule's EDB
projection (:class:`repro.materialize.wellfounded_maint.LiveGroundProgram`),
and patches a :class:`GroundProgramIndex` in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..db.database import Database
from ..db.relation import Relation
from ..obs import RECORDER, TRACER
from .literals import Atom, Eq, Negation, Neq
from .planning import compile_rule, range_restricted, solve_rows
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


class GroundProgramIndex:
    """A ground-rule sequence over densely numbered atoms, patchable in place.

    Every atom occurring in some rule gets an id (``atoms[i]`` /
    ``atom_ids[atom]``); ids are append-only for the index's life.  Rule
    ``r`` has head ``head[r]`` and ``npos[r]`` distinct positive body
    atoms; the bodies are stored atom-side, as the occurrence lists
    ``by_head[a]`` / ``by_pos[a]`` / ``by_neg[a]``: the rules atom ``a``
    heads, reads positively and reads under negation (a rule is listed
    once per *distinct* atom).  :meth:`add` appends a rule under the next
    rule id; :meth:`retire` takes a rule out of every occurrence list,
    and its id is never reused.  The propagation engines of
    :mod:`repro.core.semantics.wellfounded` keep their state in
    ``bytearray``s and counter lists beside it and hash a ground atom
    only to patch.
    """

    __slots__ = ("rules", "atoms", "atom_ids", "head", "npos", "by_head", "by_pos", "by_neg")

    def __init__(self, rules: Iterable[GroundRule]) -> None:
        self.rules: List[Optional[GroundRule]] = list(rules)
        self.atom_ids: Dict[GroundAtom, int] = {}
        self.head: List[int] = []
        self.npos: List[int] = []
        # Number everything first, then size the occurrence lists once.
        # An atom with no occurrence of a kind shares the empty tuple.
        number = self.atom_ids.setdefault
        atom_ids = self.atom_ids
        distinct = self._distinct
        pos_atoms: List[int] = []
        pos_rules: List[int] = []
        neg_atoms: List[int] = []
        neg_rules: List[int] = []
        for r, rule in enumerate(self.rules):
            self.head.append(number(rule.head, len(atom_ids)))
            count = 0
            if rule.pos:
                ids = distinct(rule.pos)
                count = len(ids)
                pos_atoms += ids
                pos_rules += [r] * count
            self.npos.append(count)
            if rule.neg:
                ids = distinct(rule.neg)
                neg_atoms += ids
                neg_rules += [r] * len(ids)
        self.atoms: List[GroundAtom] = list(atom_ids)
        natoms = len(self.atoms)
        self.by_head: List[Sequence[int]] = [()] * natoms
        self.by_pos: List[Sequence[int]] = [()] * natoms
        self.by_neg: List[Sequence[int]] = [()] * natoms
        _link(self.by_head, self.head, range(len(self.head)))
        _link(self.by_pos, pos_atoms, pos_rules)
        _link(self.by_neg, neg_atoms, neg_rules)

    def _distinct(self, body) -> List[int]:
        """The distinct ids of ``body``; an unseen atom gets the next free id."""
        atom_ids = self.atom_ids
        number = atom_ids.setdefault
        ids = [number(a, len(atom_ids)) for a in body]
        return list(dict.fromkeys(ids)) if len(ids) > 1 else ids

    def body(self, r: int) -> Tuple[List[int], List[int]]:
        """Rule ``r``'s distinct positive and negative atom ids."""
        rule = self.rules[r]
        atom_ids = self.atom_ids
        return (
            list(dict.fromkeys([atom_ids[a] for a in rule.pos])),
            list(dict.fromkeys([atom_ids[a] for a in rule.neg])),
        )

    def add(self, rule: GroundRule) -> int:
        """Append ``rule``; its id.  New atoms are numbered after the old."""
        r = len(self.rules)
        self.rules.append(rule)
        atom_ids = self.atom_ids
        self.head.append(atom_ids.setdefault(rule.head, len(atom_ids)))
        pos = self._distinct(rule.pos)
        neg = self._distinct(rule.neg)
        self.npos.append(len(pos))
        atoms = self.atoms
        for atom in (rule.head, *rule.pos, *rule.neg):
            if atom_ids[atom] == len(atoms):
                atoms.append(atom)
                self.by_head.append(())
                self.by_pos.append(())
                self.by_neg.append(())
        _link(self.by_head, (self.head[r],), repeat(r))
        _link(self.by_pos, pos, repeat(r))
        _link(self.by_neg, neg, repeat(r))
        return r

    def retire(self, r: int) -> None:
        """Take rule ``r`` out of every occurrence list."""
        pos, neg = self.body(r)
        self.by_head[self.head[r]].remove(r)
        for a in pos:
            self.by_pos[a].remove(r)
        for a in neg:
            self.by_neg[a].remove(r)
        self.rules[r] = None


def _link(occurrences: List[Sequence[int]], atoms: Iterable[int], rules: Iterable[int]) -> None:
    """List each rule under its atom; a first one replaces the shared ``()``."""
    for a, r in zip(atoms, rules):
        listed = occurrences[a]
        if listed:
            listed.append(r)
        else:
            occurrences[a] = [r]


class GroundProgram:
    """The full ground instantiation of ``(program, db)``.

    Attributes
    ----------
    rules:
        All ground rules (IDB literals only).
    by_head:
        Ground rules grouped by head atom.
    derivable:
        Atoms heading at least one ground rule.  Any fixpoint is a subset
        of this set: ``Theta`` never produces an underivable atom.
    index:
        The rules over dense integer atom ids, with atom -> rules
        occurrence lists (:class:`GroundProgramIndex`).
    """

    def __init__(self, program: Program, db: Database, rules: Iterable[GroundRule]) -> None:
        self.program = program
        self.db = db
        self.rules: Tuple[GroundRule, ...] = tuple(rules)

    def __len__(self) -> int:
        return len(self.rules)

    # Each consumer reads one of the three views below (the SAT reduction
    # and the enumerator ``by_head``/``derivable``, the well-founded
    # engine ``index``), so each is built on first use and kept.

    @cached_property
    def by_head(self) -> Dict[GroundAtom, List[GroundRule]]:
        by_head: Dict[GroundAtom, List[GroundRule]] = {}
        for r in self.rules:
            by_head.setdefault(r.head, []).append(r)
        return by_head

    @cached_property
    def derivable(self) -> FrozenSet[GroundAtom]:
        return frozenset(r.head for r in self.rules)

    @cached_property
    def index(self) -> GroundProgramIndex:
        return GroundProgramIndex(self.rules)

    def atom_space_size(self) -> int:
        """Size of the full IDB atom space ``sum_i |A|^{n_i}``."""
        n = len(self.db.universe)
        return sum(n ** self.program.arity(p) for p in self.program.idb_predicates)

    def is_fixpoint(self, atoms: Set[GroundAtom]) -> bool:
        """Check ``Theta(S) = S`` using the ground system.

        ``atoms`` must contain ground IDB atoms only.
        """
        derived = {
            head
            for head, rules in self.by_head.items()
            if any(r.fires(atoms) for r in rules)
        }
        return derived == set(atoms)

    def to_idb_map(self, atoms: Set[GroundAtom]) -> Dict[str, Relation]:
        """Convert a ground-atom set to a ``{pred: Relation}`` valuation."""
        grouped: Dict[str, Set[Tuple]] = {p: set() for p in self.program.idb_predicates}
        for pred, values in atoms:
            grouped[pred].add(values)
        return {
            p: Relation(p, self.program.arity(p), tuples)
            for p, tuples in grouped.items()
        }

    def from_idb_map(self, idb: Dict[str, Relation]) -> Set[GroundAtom]:
        """Convert a ``{pred: Relation}`` valuation to a ground-atom set."""
        return {
            (pred, tuple(values))
            for pred, rel in idb.items()
            for values in rel
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


def _idb_literals(rule: Rule, idb: FrozenSet[str]):
    """The rule's IDB literals: ``(positive atoms, negated literals)``."""
    idb_positives = [a for a in rule.positive_atoms() if a.pred in idb]
    idb_negatives = [
        t for t in rule.body if isinstance(t, Negation) and t.atom.pred in idb
    ]
    return idb_positives, idb_negatives


def _atom_picker(atom: Atom, column: Mapping[Variable, int], intern):
    """``row -> (pred, values)``: ``atom`` instantiated from a table row.

    Variable arguments read their schema column, constants are inlined;
    both are resolved here, once per atom, not once per row.  ``intern``
    is a ``dict.setdefault``: equal atoms come back as one object, so a
    ground program holds each atom once however many rules mention it.
    """
    pred = atom.pred
    args = [
        (column[a], None) if isinstance(a, Variable) else (-1, a.value)
        for a in atom.args
    ]

    def pick(row):
        ground = (pred, tuple([row[c] if c >= 0 else v for c, v in args]))
        return intern(ground, ground)

    return pick


def _instances(rule, idb_positives, idb_negatives, plan, rows) -> List[GroundRule]:
    """Ground instances of ``rule``, one per binding row of ``plan``.

    ``plan`` is compiled from an EDB projection whose pseudo-head lists
    every rule variable, so each row of :func:`solve_rows` is a total
    binding.
    """
    column = {v: i for i, v in enumerate(plan.schema)}
    intern = {}.setdefault
    head = _atom_picker(rule.head, column, intern)
    pos = [_atom_picker(a, column, intern) for a in idb_positives]
    neg = [_atom_picker(n.atom, column, intern) for n in idb_negatives]
    return [
        GroundRule(
            head(row), tuple([p(row) for p in pos]), tuple([n(row) for n in neg])
        )
        for row in rows
    ]


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
        # A dict keeps first-seen order and drops repeated instances.
        ordered: Dict[GroundRule, None] = {}
        for rule in program.rules:
            plan = compile_rule(_edb_projection(rule, idb))
            instances = _instances(
                rule, *_idb_literals(rule, idb), plan, solve_rows(plan, db)
            )
            ordered.update(dict.fromkeys(instances))
        if sp:
            sp["rows_out"] = len(ordered)
    if RECORDER.enabled:
        RECORDER.observe(
            "repro_engine_ground_seconds", time.perf_counter() - started
        )
    return GroundProgram(program, db, ordered)
