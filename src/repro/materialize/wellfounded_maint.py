"""Well-founded views: one live ``(true, possible)`` pair under EDB deltas.

The program is grounded **once** and patched per update
(:class:`LiveGroundProgram`, which keeps its
:class:`~repro.core.grounding.GroundProgramIndex` current in place), so
a delta arrives here as ground rules added and removed.  The live
grounding is a set of counted views: every ground rule is a key of a
non-recursive query over the EDB, maintained by
:class:`~repro.materialize.counting.CountingState` like any counted
predicate of a stratified view.  The model is
one :class:`~repro.core.semantics.wellfounded.AlternationPair` on that
index — the batch engine's own state — and an update is two calls on
it: :meth:`~repro.core.semantics.wellfounded.AlternationPair.over_delete`
moves every atom whose status lost its support to *undefined*, which
puts the pair below the new model in the precision order, and
:meth:`~repro.core.semantics.wellfounded.AlternationPair.resume` — the
loop :func:`~repro.core.semantics.wellfounded.well_founded_semantics`
runs from ``(∅, A(∅))`` — decides the region again.  The soundness
argument is in that module's docstring.  Work follows the region, not
the alternation's depth, and the changeset is read off the atoms whose
flags moved.

Universe growth is patched like any EDB change: the view hands the
fresh values over as insertions into the universe relation ``@U``, which
the grounding's range-restricted EDB projections read wherever a rule
has completion variables.  New ground rules may mention new atoms;
``over_delete`` numbers them false before deciding the region.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from ..core.grounding import (
    GroundAtom,
    GroundProgramIndex,
    GroundRule,
    _distinct,
    _edb_projection,
    _ground_rules,
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

Moves = Tuple[Tuple[List[GroundAtom], List[GroundAtom]], Tuple[List[GroundAtom], List[GroundAtom]]]
"""``((entered true, left true), (entered undefined, left undefined))``."""

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

    The views read their inputs under one
    :class:`~repro.materialize.deltavariants.AliasSet` that keeps only
    the aliases some variant reads (a rule with one EDB atom, like
    win–move's, reads none: its variants join the change sets alone).
    """

    __slots__ = ("program", "db", "index", "_shapes", "_aliases")

    def __init__(self, program: Program, db: Database) -> None:
        self.program = program
        self.db = db
        idb = program.idb_predicates
        names = db.relation_names() + (UNIVERSE,)
        small = frozenset(alias for n in names for alias in (ins_name(n), del_name(n)))
        self._shapes: List[Tuple[CountingState, tuple, Dict[Tup, int]]] = []
        rules: List[GroundRule] = []
        for k, (layout, members) in enumerate(rule_shapes(program)):
            name = "@ground_%d" % k
            key_rules = [
                Rule(Atom(name, terms), _edb_projection(rule, idb).body)
                for rule, terms in members
            ]
            state = CountingState(name, len(key_rules[0].head.args), key_rules, small)
            state.initialise(db)
            keys = list(state.counts)
            self._shapes.append((state, layout, dict(zip(keys, count(len(rules))))))
            rules += _ground_rules(layout, keys)
        self.index = GroundProgramIndex(*_numbered(rules), lambda: rules)

        read = frozenset().union(*(state.reads() for state, _, _ in self._shapes))
        self._aliases = AliasSet([db.get(n) for n in names if ins_name(n) in read], read)

    @property
    def rules(self) -> FrozenSet[GroundRule]:
        """The current ground rules (positive binding count)."""
        return frozenset(g for g in self.index.rules if g is not None)

    def apply(
        self,
        new_db: Database,
        changes: Mapping[str, Tuple[FrozenSet[Tup], FrozenSet[Tup]]],
    ) -> Tuple[Dict[GroundRule, int], Dict[GroundRule, int]]:
        """Patch the instantiation under an *effective* EDB delta.

        ``changes`` maps each changed relation to its effective
        ``(inserted, deleted)`` tuple sets against the pre-change
        database, and ``@U`` to the universe's fresh values as 1-tuples
        when it grew; ``new_db`` is the post-change database.  Returns
        the ``(added, removed)`` ground rules, each mapped to its id in
        :attr:`index` (removed ones are retired there, added ones
        appended).
        """
        aliases = self._aliases
        changed = frozenset(
            n for n, (ins, dels) in changes.items() if (ins or dels) and n in aliases
        )
        if not changed:
            self.db = new_db
            return {}, {}

        with TRACER.span("ground.patch") as sp:
            for name in changed:
                aliases.stage(name, *changes[name])
            interp = aliases.derive(new_db)
            added: Dict[GroundRule, int] = {}
            removed: Dict[GroundRule, int] = {}
            index = self.index
            for state, layout, ids in self._shapes:
                gained, lost = state.apply(interp, changed)
                for key in lost:
                    r = ids.pop(key)
                    removed[index.rules[r]] = r
                    index.retire(r)
                for key, g in zip(gained, _ground_rules(layout, gained)):
                    added[g] = ids[key] = index.add(g)
            aliases.catch_up()
            self.db = new_db
            if sp:
                sp["changed"] = len(changed)
                sp["rows_out"] = len(added) + len(removed)
        if RECORDER.enabled:
            RECORDER.inc("repro_ground_patches_total")
        return added, removed


def _numbered(rules: List[GroundRule]):
    """The index arrays of ``rules``: each atom numbered at first sight,
    head first, then positives, then negatives, rule by rule."""
    atom_ids: Dict[GroundAtom, int] = {}
    head: List[int] = []
    pos: Tuple[List[int], List[int]] = ([], [])
    neg: Tuple[List[int], List[int]] = ([], [])
    for r, rule in enumerate(rules):
        head.append(atom_ids.setdefault(rule.head, len(atom_ids)))
        for body, (rule_ids, ids) in ((rule.pos, pos), (rule.neg, neg)):
            distinct = _distinct(atom_ids, body)
            ids += distinct
            rule_ids += [r] * len(distinct)
    return head, pos, neg, atom_ids


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

    def apply(self, new_db: Database, changes: Mapping[str, ChangePair]) -> Moves:
        """Maintain the three-valued model under an effective EDB delta.

        ``changes`` may carry ``@U`` insertions (see
        :meth:`LiveGroundProgram.apply`).  Returns
        the atoms whose status moved, per partition.
        """
        added, removed = self.live.apply(new_db, changes)
        if not added and not removed:
            return ([], []), ([], [])
        pair = self.pair
        true_before, possible_before = bytes(pair.true), bytes(pair.possible)
        work = pair.work
        with TRACER.span("wf.apply") as sp:
            fired, seeds, region = pair.over_delete(removed.values())
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


def _moves(pair, true_before: bytes, possible_before: bytes) -> Moves:
    """The status changes between the saved flags and the pair's."""
    grown = bytes(len(pair.true) - len(true_before))  # new atoms were false
    true_before += grown
    possible_before += grown
    if true_before == pair.true and possible_before == pair.possible:
        return ([], []), ([], [])
    t0 = np.frombuffer(true_before, np.uint8)
    p0 = np.frombuffer(possible_before, np.uint8)
    t1 = np.frombuffer(pair.true, np.uint8)
    p1 = np.frombuffer(pair.possible, np.uint8)
    atoms = pair.index.atoms
    t_in: List[GroundAtom] = []
    t_out: List[GroundAtom] = []
    u_in: List[GroundAtom] = []
    u_out: List[GroundAtom] = []
    for a in np.flatnonzero((t0 != t1) | (p0 != p1)).tolist():
        was_true, is_true = true_before[a], pair.true[a]
        if was_true != is_true:
            (t_in if is_true else t_out).append(atoms[a])
        was_undef = bool(possible_before[a] and not was_true)
        is_undef = bool(pair.possible[a] and not is_true)
        if was_undef != is_undef:
            (u_in if is_undef else u_out).append(atoms[a])
    return (t_in, t_out), (u_in, u_out)
