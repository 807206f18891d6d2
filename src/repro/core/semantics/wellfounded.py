"""Well-founded semantics via Van Gelder's alternating fixpoint.

The paper cites Van Gelder's tight-derivation work [VG86] among the
responses to negation; the well-founded model is the now-standard
three-valued semantics that assigns *every* DATALOG¬ program a partial
model.  We include it as an extension for comparison with the paper's
proposals: on the paper's program ``pi_1`` (the win–move game) the
well-founded model is total exactly on databases where the fixpoint
semantics is unproblematic (e.g. paths), and leaves the odd-cycle atoms
undefined — precisely the instances where ``(pi_1, D)`` has no fixpoint.

Implementation: ground the program (the grounder evaluates each rule's
EDB part through a memoised compiled plan executed set-at-a-time by
the columnar executor, and numbers atoms and rules from the binding
columns without a Python object per instance — see
:mod:`repro.core.planning` and :mod:`repro.core.grounding`), then
iterate the anti-monotone *stability operator* ``A``:

    A(I) = least model of the positive program obtained by evaluating
           every negative literal against I  (``not n`` holds iff n not in I)

``A`` is anti-monotone, so ``A o A`` is monotone; the well-founded model is

    true      = lfp(A o A)
    possible  = A(true)          (= gfp(A o A))
    undefined = possible - true
    false     = everything else.

**The pair.**  Everything below runs over the ground program's
:class:`~repro.core.grounding.GroundProgramIndex` (atoms and rules as
dense integers, atom -> rules occurrence lists; on the batch path the
atoms are named by codes, :class:`~repro.core.grounding.AtomCodes`, and
the :class:`WellFoundedResult` reads its partitions off the pair's flags
as code-only relations, so only what a caller reads is decoded).  An
:class:`AlternationPair` holds ``true`` and ``possible`` as ``bytearray``
flags, a clock stamp per atom and three Dowling–Gallier counters per
rule, all exact at rest:

* ``missing[r]`` — distinct positives outside ``possible``;
* ``waiting[r]`` — positives outside ``true`` plus negatives inside
  ``possible`` (``r`` fires for ``A(possible)`` at zero);
* ``blocked[r]`` — negatives inside ``true`` (``r`` is dead for
  ``A(true)`` while it is positive).

**The resume loop** (:meth:`AlternationPair.resume`) iterates the
stable-revision operator ``(T, P) -> (A(P), A(T))`` on the pair in
place, handing each side only the other's *delta*:

* ``possible`` side — ``P := A(T)``, downwards from ``P``: the heads of
  rules a newly true atom blocked are *over-deleted*, the deletion
  follows rules that had fired on them, and over-deleted heads are then
  *rederived* from unblocked rules whose positives survived
  (ground-level Delete/Rederive), so a positive loop stays exactly while
  something outside it founds it;
* ``true`` side — ``T := A(P)``, upwards from ``T``: atoms that left
  ``possible`` decrement ``waiting``, and a head fires at zero.

:func:`well_founded_semantics` resumes from ``(∅, A(∅))``; total work is
linear in the ground program plus the over-deletions.  The known worst
case is a large positive SCC re-entered every round, over-deleted and
rederived each time; evaluating component by component (ROADMAP item
5) is what would remove it.

**Resuming after a change** (:meth:`AlternationPair.over_delete`).  A
live view patches the index with a ground-rule diff and must move the
old model ``(T, P)`` to the new one ``(T*, P*)``.  Every decided atom
carries the clock value of the step that decided it, and its status is
justified by atoms stamped no later (a true atom by a fired rule whose
positives were true and negatives false by then; a false atom by a
*certain killer* in every rule: a negative true before it or a
positive false with it).  The over-delete step follows only such
status-supporting edges from the changed rules, one O(1) counter patch
and one stamp comparison per edge:

* a ``true`` atom that lost a fired supporting instance — a removed
  rule, or a literal stamped no later than the atom that left its
  status — leaves ``true``.  This is DRed's over-estimate: positive
  cycles make support counts unsound, so one lost support suffices;
* a false atom that is left with a rule no certain blocker kills — an
  added rule with no certain killer, or a rule that lost a certain
  killer — enters ``possible``.  Again one lost killer suffices: the
  other blockers of the rule may be true *because* the atom is false.

Both moves go to *undefined*, so the step only descends in the
precision order.  By induction on the stamps, every atom it leaves
decided keeps an intact justification by atoms decided before it, so
the result ``(T', P')`` lies below the new model: ``T' ⊆ T*`` and
``P' ⊇ P*``.  It also meets the loop's invariants: ``T' ⊆ A(P')`` (the
justifying rules of the survivors are intact) and ``A(T') ⊆ P'`` (a
rule ``T'`` leaves unblocked with all positives possible has no killer,
so its head cannot have stayed false).  From any such pair the loop's
``T`` sequence rises inside ``[T', T*]`` and its ``P`` sequence falls
inside ``[P*, P']``, since ``A`` is antitone; the limit satisfies
``T∞ = A(A(T∞)) ⊆ T*``, and ``T* = lfp(A∘A)`` is the least such set, so
``T∞ = T*`` and ``P∞ = A(T*) = P*`` — the least-prefixpoint argument on
``A∘A``.  The loop's first ``possible`` step is exact because ``P'``
exceeds ``A(T')`` only through atoms that entered ``possible`` here or
were derived by a removed rule, and those are its over-deletion seeds.
(This is DRed on Lozes' doubled ``P``/``P̄`` program, done at ground
level; the pair is the approximation-fixpoint setting of Kettmann et
al. — PAPERS.md.)  Work is proportional to the region moved to
undefined plus what the loop then decides, not to the alternation's
depth.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ...db.database import Database
from ...db.relation import Relation
from ...obs import RECORDER, TRACER
from ..grounding import GroundAtom, GroundProgram, GroundProgramIndex, ground_program
from ..operator import IDBMap
from ..program import Program


class WellFoundedResult:
    """The three-valued well-founded model of ``(program, db)``.

    ``true``/``undefined`` are ground-atom sets; everything not in their
    union is false.  ``rounds`` counts the outer steps of the alternation
    that produced this model: from ``(∅, A(∅))`` for
    :func:`well_founded_semantics`, from the over-deleted pair of the
    last update for a maintained view.

    An engine may hand over its ``pair`` instead of atom sets: the
    result keeps a copy of the pair's flags, and the atom sets are
    decoded on first read.  Over an index whose atoms are named by codes
    (the batch engine's), :meth:`true_idb` / :meth:`undefined_idb` /
    :attr:`is_total` read the flags as code-only relations.
    """

    engine = "wellfounded"
    """Engine tag, mirroring :class:`~repro.core.semantics.base.EvaluationResult`."""

    def __init__(
        self,
        program: Program,
        db: Database,
        true: Optional[FrozenSet[GroundAtom]] = None,
        undefined: Optional[FrozenSet[GroundAtom]] = None,
        rounds: int = 0,
        pair: Optional[AlternationPair] = None,
    ) -> None:
        self.program = program
        self.db = db
        self.rounds = rounds
        self._flags = None
        if pair is None:
            self.true, self.undefined = true, undefined
        else:
            true = np.frombuffer(bytes(pair.true), dtype=bool)
            undefined = np.frombuffer(pair.possible, dtype=bool) > true
            self._flags = (pair.index, (true, undefined))

    @cached_property
    def true(self) -> FrozenSet[GroundAtom]:
        index, (true, _) = self._flags
        return frozenset(compress(index.atoms, true.tolist()))

    @cached_property
    def undefined(self) -> FrozenSet[GroundAtom]:
        index, (_, undefined) = self._flags
        return frozenset(compress(index.atoms, undefined.tolist()))

    @property
    def is_total(self) -> bool:
        """True when no atom is undefined (two-valued well-founded model)."""
        if self._flags is not None:
            return not self._flags[1][1].any()
        return not self.undefined

    def true_idb(self) -> IDBMap:
        """The true atoms as a ``{pred: Relation}`` valuation."""
        return self._idb(0)

    def undefined_idb(self) -> IDBMap:
        """The undefined atoms as a ``{pred: Relation}`` valuation."""
        return self._idb(1)

    def _idb(self, side: int) -> IDBMap:
        program = self.program
        if self._flags is None or self._flags[0].codes is None:
            return _group(program, (self.true, self.undefined)[side])
        index, flags = self._flags
        return {
            p: index.codes.relation(p, program.arity(p), flags[side])
            for p in program.idb_predicates
        }


def _group(program: Program, atoms: FrozenSet[GroundAtom]) -> IDBMap:
    grouped: Dict[str, Set] = {p: set() for p in program.idb_predicates}
    for pred, values in atoms:
        grouped[pred].add(values)
    return {
        p: Relation(p, program.arity(p), tuples) for p, tuples in grouped.items()
    }


def _reduct_model(
    index: GroundProgramIndex, reference: bytearray
) -> Tuple[bytearray, List[int], int]:
    """One application of ``A`` from scratch, by counter propagation.

    Returns the least model as atom flags, the per-rule count of
    positives missing from it (negative for rules a reference atom
    blocks) and the number of counter updates made.
    """
    head = index.head
    by_pos = index.by_pos
    by_neg = index.by_neg
    missing = list(index.npos)
    work = 0
    for a in compress(range(len(reference)), reference):
        rules = by_neg[a]
        work += len(rules)
        for r in rules:
            missing[r] = -1  # decrements only move it away from zero
    model = bytearray(len(reference))
    stack: List[int] = []
    for r, count in enumerate(missing):
        if not count and not model[head[r]]:
            model[head[r]] = 1
            stack.append(head[r])
    while stack:
        rules = by_pos[stack.pop()]
        work += len(rules)
        for r in rules:
            count = missing[r] - 1
            missing[r] = count
            if not count and not model[head[r]]:
                model[head[r]] = 1
                stack.append(head[r])
    return model, missing, work


def _least_model_of_reduct(
    ground: GroundProgram, reference: Iterable[GroundAtom]
) -> Set[GroundAtom]:
    """``A(reference)``: least model with negation evaluated against
    ``reference`` (``not n`` holds iff ``n not in reference``).

    The one-shot, from-scratch application — the *definition* the
    resuming engine is tested against — computed in time linear in the
    ground program over its cached index.
    """
    index = ground.index
    flags = bytearray(len(index.atoms))
    for atom in reference:
        ident = index.atom_ids.get(atom)
        if ident is not None:  # atoms no rule mentions block nothing
            flags[ident] = 1
    model, _, _ = _reduct_model(index, flags)
    return set(compress(index.atoms, model))


class AlternationPair:
    """A live ``(true, possible)`` pair over a ground-program index.

    ``true`` / ``possible`` are atom flags; ``missing`` / ``waiting`` /
    ``blocked`` the per-rule counters of the module docstring, exact
    whenever no method is running.  ``stamp[a]`` is the clock value at
    which a decided atom got its status (true or false); an atom is only
    ever justified by atoms stamped no later, which is what tells a
    *certain* supporter or blocker from one that might itself lean on
    the atom.  ``clock`` only grows, across resumes; ``work`` counts
    counter updates, over-deletions and rederivation checks.
    """

    __slots__ = (
        "index", "true", "possible", "stamp", "missing", "waiting", "blocked",
        "clock", "work",
    )

    def __init__(self, index: GroundProgramIndex) -> None:
        """The pair ``(∅, A(∅))`` every alternation starts from.

        Atoms outside ``A(∅)`` are decided false at clock 0.
        """
        self.index = index
        natoms = len(index.by_head)
        self.possible, self.missing, self.work = _reduct_model(index, bytearray(natoms))
        self.true = bytearray(natoms)
        self.stamp = [0] * natoms
        self.blocked = [0] * len(index.head)
        waiting = list(index.npos)
        by_neg = index.by_neg
        for a in compress(range(natoms), self.possible):
            for r in by_neg[a]:
                waiting[r] += 1
        self.waiting = waiting
        self.clock = 0

    def resume(self, fired: List[int], seeds: List[int]) -> int:
        """Iterate ``(T, P) -> (A(P), A(T))`` until ``T`` stops growing.

        The pair must satisfy ``T ⊆ A(P)`` and ``A(T) ⊆ P``.  ``fired``
        lists (at least) the heads of every rule whose ``waiting``
        counter is zero and whose head is not true; ``seeds`` the atoms
        of ``possible`` whose derivations may be gone — ``P`` may exceed
        ``A(T)`` only through derivations that pass through a seed.
        Returns the number of ``true``-side steps (the last one derives
        nothing).
        """
        index = self.index
        head = index.head
        by_head, by_pos, by_neg = index.by_head, index.by_pos, index.by_neg
        true, possible, stamp = self.true, self.possible, self.stamp
        missing, waiting, blocked = self.missing, self.waiting, self.blocked
        clock = self.clock
        work = 0
        rounds = 0
        while True:
            rounds += 1
            with TRACER.span("alternation.step") as sp:
                # -- possible side: P := A(T), continuing downwards from P.
                # Over-delete the seeds, then on through unblocked rules
                # that had fired on a deleted atom.
                clock += 1
                deleted: List[int] = []
                for a in seeds:
                    if possible[a]:
                        possible[a] = 0
                        deleted.append(a)
                for a in deleted:  # grows while we walk it
                    rules = by_pos[a]
                    work += len(rules)
                    for r in rules:
                        count = missing[r]
                        missing[r] = count + 1
                        if not count and not blocked[r] and possible[head[r]]:
                            possible[head[r]] = 0
                            deleted.append(head[r])
                # Rederive: a deleted head returns when an unblocked rule
                # for it has every positive in what survived or returned.
                restored: List[int] = []
                for a in deleted:
                    if not possible[a]:
                        rules = by_head[a]
                        work += len(rules)
                        for r in rules:
                            if not blocked[r] and not missing[r]:
                                possible[a] = 1
                                restored.append(a)
                                break
                for a in restored:  # grows while we walk it
                    rules = by_pos[a]
                    work += len(rules)
                    for r in rules:
                        count = missing[r] - 1
                        missing[r] = count
                        if not count and not blocked[r] and not possible[head[r]]:
                            possible[head[r]] = 1
                            restored.append(head[r])
                # Atoms that really left ``possible`` are now false; each
                # unblocks the rules reading it under negation.
                for a in deleted:
                    if not possible[a]:
                        stamp[a] = clock
                        rules = by_neg[a]
                        work += len(rules)
                        for r in rules:
                            count = waiting[r] - 1
                            waiting[r] = count
                            if not count:
                                fired.append(head[r])

                # -- true side: T := A(P), continuing upwards from T.
                clock += 1
                gained: List[int] = []
                for a in fired:
                    if not true[a]:
                        true[a] = 1
                        stamp[a] = clock
                        gained.append(a)
                for a in gained:  # grows while we walk it
                    rules = by_pos[a]
                    work += len(rules)
                    for r in rules:
                        count = waiting[r] - 1
                        waiting[r] = count
                        if not count and not true[head[r]]:
                            true[head[r]] = 1
                            stamp[head[r]] = clock
                            gained.append(head[r])
                if sp:
                    sp["step"] = rounds
                    sp["dropped"] = len(deleted) - len(restored)
                    sp["rows_out"] = len(gained)
                if not gained:
                    break
                # Newly true atoms block the rules reading them negated;
                # the heads such rules had derived seed the next step.
                seeds = []
                for a in gained:
                    rules = by_neg[a]
                    work += len(rules)
                    for r in rules:
                        count = blocked[r]
                        blocked[r] = count + 1
                        if not count and not missing[r] and possible[head[r]]:
                            seeds.append(head[r])
                fired = []
        self.clock = clock
        self.work += work
        return rounds

    def over_delete(self, removed: Iterable[int]) -> Tuple[List[int], List[int], int]:
        """Move the pair below the model of the patched index.

        The index has been patched already: the ``removed`` rule ids are
        retired, rules beyond the counters' length are new.  Returns the
        :meth:`resume` arguments ``(fired, seeds)`` and the number of
        atoms moved to undefined.
        """
        index = self.index
        head = index.head
        by_head, by_pos, by_neg = index.by_head, index.by_pos, index.by_neg
        true, possible, stamp = self.true, self.possible, self.stamp
        missing, waiting, blocked = self.missing, self.waiting, self.blocked
        grown = len(index.atoms) - len(true)
        if grown:  # new atoms head no old rule: false from the start
            true.extend(bytes(grown))
            possible.extend(bytes(grown))
            stamp.extend([0] * grown)
        work = 0
        leave: List[int] = []  # true -> undefined
        enter: List[int] = []  # false -> undefined
        seeds: List[int] = []

        # Counters of the new rules, against the pair as it stands.  A
        # false head enters ``possible`` unless a certain killer — a
        # true negative or a false positive decided no later than the
        # head — kills the new rule.
        new = range(len(waiting), len(head))
        uncertain: List[int] = []
        for r in new:
            pos, neg = index.body(r)
            work += len(pos) + len(neg)
            h = head[r]
            killed = False
            w = m = b = 0
            for a in pos:
                if not true[a]:
                    w += 1
                if not possible[a]:
                    m += 1
                    killed = killed or stamp[a] <= stamp[h]
            for a in neg:
                if possible[a]:
                    w += 1
                if true[a]:
                    b += 1
                    killed = killed or stamp[a] < stamp[h]
            waiting.append(w)
            missing.append(m)
            blocked.append(b)
            if not possible[h] and not killed:
                uncertain.append(h)
        for h in uncertain:
            if not possible[h]:
                possible[h] = 1
                enter.append(h)
        # A removed rule that had fired takes its head out of ``true``;
        # whatever it had derived in ``possible`` must be rederived.
        for r in removed:
            work += 1
            h = head[r]
            if not missing[r] and not blocked[r] and possible[h]:
                seeds.append(h)
            if not waiting[r] and true[h]:
                true[h] = 0
                leave.append(h)

        # Follow status-supporting edges only.  A true atom leaves when a
        # fired rule for it loses a literal stamped no later than it; a
        # false atom enters ``possible`` when a rule for it loses a killer
        # stamped before (negative) or with (positive) it.
        i = j = 0
        while i < len(leave) or j < len(enter):
            while i < len(leave):
                a = leave[i]
                i += 1
                s = stamp[a]
                rules = by_pos[a]
                work += len(rules)
                for r in rules:
                    count = waiting[r]
                    waiting[r] = count + 1
                    h = head[r]
                    if not count and true[h] and s <= stamp[h]:
                        true[h] = 0
                        leave.append(h)
                rules = by_neg[a]
                work += len(rules)
                for r in rules:
                    blocked[r] -= 1
                    h = head[r]
                    if not possible[h] and s < stamp[h]:
                        possible[h] = 1
                        enter.append(h)
            while j < len(enter):
                a = enter[j]
                j += 1
                s = stamp[a]
                rules = by_neg[a]
                work += len(rules)
                for r in rules:
                    count = waiting[r]
                    waiting[r] = count + 1
                    h = head[r]
                    if not count and true[h] and s < stamp[h]:
                        true[h] = 0
                        leave.append(h)
                rules = by_pos[a]
                work += len(rules)
                for r in rules:
                    missing[r] -= 1
                    h = head[r]
                    if not possible[h] and s <= stamp[h]:
                        possible[h] = 1
                        enter.append(h)

        # What ``resume`` starts from: rules still fired for a head that
        # is not true, and every atom that entered ``possible`` unproven.
        fired = [head[r] for r in new if not waiting[r]]
        for a in leave:
            rules = by_head[a]
            work += len(rules)
            for r in rules:
                if not waiting[r]:
                    fired.append(a)
                    break
        seeds += enter
        self.work += work
        return fired, seeds, len(leave) + len(enter)


def alternate(index: GroundProgramIndex) -> Tuple[AlternationPair, int]:
    """The alternation from ``(∅, A(∅))``: the pair and its step count."""
    pair = AlternationPair(index)
    head = index.head
    fired = [head[r] for r, count in enumerate(pair.waiting) if not count]
    return pair, pair.resume(fired, [])


def well_founded_semantics(
    program: Program,
    db: Database,
    ground: Optional[GroundProgram] = None,
    parallel: int = 0,
) -> WellFoundedResult:
    """Compute the well-founded model by alternating fixpoint.

    A pre-computed :class:`GroundProgram` may be supplied to share grounding
    work across analyses.  ``parallel=N`` ships the computation to a pool
    of ``N`` sharded worker processes (``ground`` is then recomputed by
    the workers rather than shared).
    """
    if parallel:
        from ...parallel.executor import parallel_well_founded

        return parallel_well_founded(program, db, nshards=parallel)
    with TRACER.span("wellfounded") as root:
        gp = ground if ground is not None else ground_program(program, db)
        pair, rounds = alternate(gp.index)
        if root:
            root["rounds"] = rounds
            root["ground_rules"] = len(gp)
        if RECORDER.enabled:
            RECORDER.inc("repro_wf_alternation_steps_total", 2 * rounds + 1)
            RECORDER.inc("repro_wf_propagations_total", pair.work)
    return WellFoundedResult(program=program, db=db, rounds=rounds, pair=pair)
