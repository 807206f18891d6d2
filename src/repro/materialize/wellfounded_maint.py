"""Well-founded views: one live ``(true, possible)`` pair under EDB deltas.

The program is grounded **once**, by the batch engine's own
:func:`~repro.core.grounding.ground_program`, and patched per update
(:class:`LiveGroundProgram`, which keeps that
:class:`~repro.core.grounding.GroundProgramIndex` current in place), so
a delta arrives here as the retired rule ids and the bodies, in atom
ids, of the rules appended after the index's old ones.  The live grounding is a set of counted
views: every ground rule is a key of a non-recursive query over the
EDB, maintained by :class:`~repro.materialize.counting.CountingState`
like any counted predicate of a stratified view, its counts seeded from
the batch grounding.  The model is
one :class:`~repro.core.semantics.wellfounded.AlternationPair` on that
index — on a fresh view, the pair, the rounds and the propagation count
of :func:`~repro.core.semantics.wellfounded.well_founded_semantics`
itself — and an update is two calls on
it: :meth:`~repro.core.semantics.wellfounded.AlternationPair.over_delete`
moves every atom whose status lost its support to *undefined*, which
puts the pair below the new model in the precision order, and
:meth:`~repro.core.semantics.wellfounded.AlternationPair.resume` — the
loop :func:`~repro.core.semantics.wellfounded.well_founded_semantics`
runs from ``(∅, A(∅))`` — decides the region again.  The soundness
argument is in that module's docstring.  Work follows the region, not
the alternation's depth.  :meth:`AlternatingState.apply` returns the
change map read off the atoms whose flags moved — ``(inserted,
deleted)`` tuple sets under ``pred`` for the true partition and under
``pred@undef`` for the undefined one — and the view folds that map into
its result's code-only relations: the result never reads the pair's
flags after the build, and never regroups decoded atoms.

Universe growth is patched like any EDB change: the view hands the
fresh values over as insertions into the universe relation ``@U``, which
the grounding's range-restricted EDB projections read wherever a rule
has completion variables.  New ground rules may mention new atoms;
``over_delete`` numbers them false before deciding the region.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from ..core.grounding import (
    GroundProgramIndex,
    _edb_projection,
    ground_program,
    rule_shapes,
)
from ..core.literals import Atom
from ..core.program import Program
from ..core.rules import Rule
from ..core.semantics.wellfounded import alternate
from ..db.database import UNIVERSE, Database
from ..obs import RECORDER, TRACER
from .counting import CountingState
from .delta import Tup
from .deltavariants import AliasSet, del_name, ins_name

ChangePair = Tuple[FrozenSet[Tup], FrozenSet[Tup]]

UNDEF = "@undef"
"""Suffix naming a predicate's *undefined* partition in changesets."""


def undef_name(pred: str) -> str:
    """The changeset key for ``pred``'s undefined-partition changes."""
    return pred + UNDEF


class LiveGroundProgram:
    """The ground program of ``(program, db)``, kept live under EDB deltas.

    Each rule shape (:func:`~repro.core.grounding.rule_shapes`: head
    predicate, positive and negated IDB predicates) is one counted view,
    a :class:`~repro.materialize.counting.CountingState` over the key
    relation

        ``@ground_k(head args ++ positive args ++ negated args) :- B``

    with one such rule per program rule of that shape, ``B`` its
    range-restricted EDB projection
    (:func:`~repro.core.grounding._edb_projection`).  The key determines
    the ground rule, so a key whose count rises from zero is
    one ground rule appended to :attr:`index`, and a key whose count
    returns to zero is one retired from it.  A count is the number of
    EDB bindings behind its ground rule: an update that only changes
    that multiplicity moves nothing.

    The build grounds once, with
    :func:`~repro.core.grounding.ground_program`: the live index *is*
    the batch engine's, and each shape's counts are the run lengths of
    its sorted binding keys there
    (:meth:`~repro.core.grounding.GroundProgram.key_counts`), so every
    EDB projection is solved once.  A shape's rules hold consecutive ids
    in that key order.  A patch maps each gained or lost key to atom ids
    directly (:meth:`~repro.core.grounding.GroundProgramIndex.number`);
    no :class:`~repro.core.grounding.GroundRule` is built.

    The views read the relations the EDB projections read (``@U`` only
    where one joins it: a built universe relation is evolved by every
    fresh value) under one
    :class:`~repro.materialize.deltavariants.AliasSet`, which names the
    database's relations and copies none (a rule with one EDB atom, like
    win–move's, reads no alias: its variants join the change sets alone).
    """

    __slots__ = ("program", "db", "index", "_shapes", "_aliases")

    def __init__(self, program: Program, db: Database) -> None:
        self.program = program
        self.db = db
        idb = program.idb_predicates
        names = db.relation_names() + (UNIVERSE,)
        small = frozenset(alias for n in names for alias in (ins_name(n), del_name(n)))
        ground = ground_program(program, db)
        self.index = ground.index
        self._shapes: List[Tuple[CountingState, tuple, Dict[Tup, int]]] = []
        inputs = set()
        for k, ((layout, members), (ids, counts)) in enumerate(
            zip(rule_shapes(program), ground.key_counts())
        ):
            name = "@ground_%d" % k
            key_rules = [
                Rule(Atom(name, terms), _edb_projection(rule, idb).body)
                for rule, terms in members
            ]
            inputs.update(*(r.body_predicates() for r in key_rules))
            state = CountingState(name, len(key_rules[0].head.args), key_rules, small)
            state.counts = counts
            self._shapes.append((state, layout, dict(zip(counts, ids))))
        self._aliases = AliasSet([db.get(n) for n in names if n in inputs])

    def apply(
        self,
        new_db: Database,
        changes: Mapping[str, Tuple[FrozenSet[Tup], FrozenSet[Tup]]],
    ) -> Tuple[List[Tuple[List[int], List[int]]], List[int]]:
        """Patch the instantiation under an *effective* EDB delta.

        ``changes`` maps each changed relation to its effective
        ``(inserted, deleted)`` tuple sets against the pre-change
        database, and ``@U`` to the universe's fresh values as 1-tuples
        when it grew; ``new_db`` is the post-change database.  Returns
        the distinct ``(positive, negative)`` body atom ids of the rules
        appended to :attr:`index`, in rule-id order (they hold its last
        ids), and the ids of the rules retired there.
        """
        aliases = self._aliases
        changed = frozenset(
            n for n, (ins, dels) in changes.items() if (ins or dels) and n in aliases
        )
        if not changed:
            self.db = new_db
            return [], []

        with TRACER.span("ground.patch") as sp:
            for name in changed:
                aliases.stage(name, *changes[name], new_db.get(name))
            interp = aliases.derive(new_db)
            added: List[Tuple[List[int], List[int]]] = []
            removed: List[int] = []
            index = self.index
            for state, layout, ids in self._shapes:
                gained, lost = state.apply(interp)
                for key in lost:
                    r = ids.pop(key)
                    _, pos, neg = _atom_ids(index, layout, key)
                    index.retire(r, pos, neg)
                    removed.append(r)
                for key in gained:
                    head, pos, neg = _atom_ids(index, layout, key)
                    ids[key] = index.add(head, pos, neg)
                    added.append((pos, neg))
            aliases.catch_up()
            self.db = new_db
            if sp:
                sp["changed"] = len(changed)
                sp["rows_out"] = len(added) + len(removed)
        if RECORDER.enabled:
            RECORDER.inc("repro_ground_patches_total")
        return added, removed


def _atom_ids(index: GroundProgramIndex, layout: tuple, key: Tup) -> Tuple[int, List[int], List[int]]:
    """The head id and the distinct positive and negative body ids of
    the ground rule behind ``key``; unseen atoms are numbered."""
    (pred, start, end), pos, neg = layout
    number = index.number
    return (
        number((pred, key[start:end])),
        list(dict.fromkeys([number((p, key[s:e])) for p, s, e in pos])),
        list(dict.fromkeys([number((p, key[s:e])) for p, s, e in neg])),
    )


class AlternatingState:
    """The well-founded model kept live: a patched grounding and one pair.

    ``rounds`` is the step count of the alternation that produced the
    current pair (the whole alternation at build, the resumed one after
    an update).
    """

    __slots__ = ("live", "pair", "rounds")

    def __init__(self, program: Program, db: Database) -> None:
        self.live = LiveGroundProgram(program, db)
        self.pair, self.rounds = alternate(self.live.index)

    def apply(self, new_db: Database, changes: Mapping[str, ChangePair]) -> Dict[str, ChangePair]:
        """Maintain the three-valued model under an effective EDB delta.

        ``changes`` may carry ``@U`` insertions (see
        :meth:`LiveGroundProgram.apply`).  Returns the atoms whose
        status moved as ``(inserted, deleted)`` tuple sets: a
        true-partition change under the predicate's own name, an
        undefined-partition one under ``pred@undef``.  The false
        partition is the complement of the other two, so its changes
        are implied.
        """
        added, removed = self.live.apply(new_db, changes)
        if not added and not removed:
            return {}
        pair = self.pair
        true_before, possible_before = bytes(pair.true), bytes(pair.possible)
        work = pair.work
        with TRACER.span("wf.apply") as sp:
            fired, seeds, region = pair.over_delete(removed, added)
            self.rounds = pair.resume(fired, seeds)
            work = pair.work - work
            if sp:
                sp["ground_added"] = len(added)
                sp["ground_removed"] = len(removed)
                sp["region"] = region
                sp["propagations"] = work
                sp["rounds"] = self.rounds
        if RECORDER.enabled:
            RECORDER.inc("repro_wf_propagations_total", work)
        return _moves(pair, true_before, possible_before)

    def value(self, key: str) -> None:
        """The pair names no relation: every key folds from its changes."""
        return None


def _moves(pair, true_before: bytes, possible_before: bytes) -> Dict[str, ChangePair]:
    """The status changes between the saved flags and the pair's."""
    grown = bytes(len(pair.true) - len(true_before))  # new atoms were false
    true_before += grown
    possible_before += grown
    if true_before == pair.true and possible_before == pair.possible:
        return {}
    t0, p0, t1, p1 = (
        np.frombuffer(flags, bool)
        for flags in (true_before, possible_before, pair.true, pair.possible)
    )
    moved: Dict[str, Tuple[set, set]] = {}
    for key_of, before, after in ((str, t0, t1), (undef_name, p0 > t0, p1 > t1)):
        for a in np.flatnonzero(before != after).tolist():
            pred, values = pair.index.atoms[a]
            moved.setdefault(key_of(pred), (set(), set()))[int(before[a])].add(values)
    return {key: (frozenset(ins), frozenset(dels)) for key, (ins, dels) in moved.items()}
