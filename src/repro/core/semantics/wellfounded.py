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
EDB part through a plan fetched from the shared
:data:`~repro.core.planning.PLAN_STORE` and executed set-at-a-time by
the batch executor with cached indexes — see :mod:`repro.core.planning`
and :mod:`repro.core.grounding`), then iterate the anti-monotone
*stability operator* ``A``:

    A(I) = least model of the positive program obtained by evaluating
           every negative literal against I  (``not n`` holds iff n not in I)

``A`` is anti-monotone, so ``A o A`` is monotone; the well-founded model is

    true      = lfp(A o A)
    possible  = A(true)          (= gfp(A o A))
    undefined = possible - true
    false     = everything else.

**What is indexed.**  Everything below runs over the ground program's
:class:`~repro.core.grounding.GroundProgramIndex` (atoms and rules as
dense integers, atom -> rules occurrence lists), built once per
:class:`~repro.core.grounding.GroundProgram` and cached on it.  Sets of
atoms are ``bytearray`` flags, and a rule fires when a per-rule counter
of unsatisfied body literals reaches zero (Dowling–Gallier), so one
application of ``A`` costs the size of the ground program, not the
number of sweeps times it.

**What resumes.**  The alternation ``T_0 = {}, P_k = A(T_{k-1}),
T_k = A(P_k)`` moves one way on each side: the ``T_k`` only grow and
the ``P_k`` only shrink.  :func:`_alternate` therefore keeps both sets
live and hands each side only the other's *delta*:

* ``true`` side — a rule's counter holds its positives not yet true plus
  its negatives still possible; atoms that left ``possible`` decrement
  it, and a head fires at zero.  Nothing is ever retracted.
* ``possible`` side — a rule with a negative atom newly true is dead for
  good.  The heads such rules had derived are *over-deleted*, the
  deletion follows the rules that had fired on them, and over-deleted
  heads are then *rederived* from live rules whose positives survived
  (ground-level Delete/Rederive), so a positive loop stays in
  ``possible`` exactly while something outside it still founds it.

Total work is linear in the ground program plus the size of the
over-deletions.  The known worst case is a large positive SCC that is
re-entered every round: each round over-deletes and rederives the whole
component, so the cost is rounds x component size — evaluating SCC by
SCC (ROADMAP item 1) is what would remove it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ...db.database import Database
from ...db.relation import Relation
from ...obs import RECORDER, TRACER
from ..grounding import GroundAtom, GroundProgram, GroundProgramIndex, ground_program
from ..operator import IDBMap
from ..program import Program


@dataclass
class WellFoundedResult:
    """The three-valued well-founded model of ``(program, db)``.

    ``true``/``undefined`` are ground-atom sets; everything not in their
    union is false.  ``rounds`` counts outer alternating-fixpoint steps.
    """

    program: Program
    db: Database
    true: FrozenSet[GroundAtom]
    undefined: FrozenSet[GroundAtom]
    rounds: int

    engine = "wellfounded"
    """Engine tag, mirroring :class:`~repro.core.semantics.base.EvaluationResult`."""

    @property
    def is_total(self) -> bool:
        """True when no atom is undefined (two-valued well-founded model)."""
        return not self.undefined

    def true_idb(self) -> IDBMap:
        """The true atoms as a ``{pred: Relation}`` valuation."""
        return _group(self.program, self.true)

    def undefined_idb(self) -> IDBMap:
        """The undefined atoms as a ``{pred: Relation}`` valuation."""
        return _group(self.program, self.undefined)


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
    pos_start, pos_rules = index.by_pos
    neg_start, neg_rules = index.by_neg
    missing = list(index.npos)
    work = 0
    for a, blocking in enumerate(reference):
        if blocking:
            rules = neg_rules[neg_start[a] : neg_start[a + 1]]
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
        a = stack.pop()
        rules = pos_rules[pos_start[a] : pos_start[a + 1]]
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


def _alternate(index: GroundProgramIndex) -> Tuple[bytearray, bytearray, int, int]:
    """The alternating fixpoint, resumed rather than restarted.

    Returns ``(true flags, possible flags, rounds, propagations)`` where
    ``rounds`` counts outer steps exactly as the restart-from-scratch
    loop would (the last one changes nothing) and ``propagations``
    counts counter updates, over-deletions and rederivation checks.
    """
    head = index.head
    head_start, head_rules = index.by_head
    pos_start, pos_rules = index.by_pos
    neg_start, neg_rules = index.by_neg
    natoms = len(index.atoms)

    # P_1 = A({}): no rule is blocked.  ``missing[r]`` is from here on
    # the number of r's positives outside ``possible`` (live rules only).
    possible, missing, work = _reduct_model(index, bytearray(natoms))
    dead = bytearray(len(head))
    true = bytearray(natoms)
    # ``waiting[r]``: positives not yet true + negatives still possible.
    waiting = list(index.npos)
    for a, present in enumerate(possible):
        if present:
            for r in neg_rules[neg_start[a] : neg_start[a + 1]]:
                waiting[r] += 1
    n_true = 0
    n_possible = sum(possible)
    fired = [head[r] for r, count in enumerate(waiting) if not count]
    rounds = 0
    while True:
        rounds += 1
        with TRACER.span("alternation.step") as sp:
            # -- true side: T_k = A(P_k), continuing from T_{k-1}.
            gained: List[int] = []
            for a in fired:
                if not true[a]:
                    true[a] = 1
                    gained.append(a)
            for a in gained:  # grows while we walk it
                rules = pos_rules[pos_start[a] : pos_start[a + 1]]
                work += len(rules)
                for r in rules:
                    count = waiting[r] - 1
                    waiting[r] = count
                    if not count and not true[head[r]]:
                        true[head[r]] = 1
                        gained.append(head[r])
            n_true += len(gained)
            if sp:
                sp["step"] = rounds
                sp["possible"] = n_possible
                sp["rows_out"] = n_true
            if not gained:
                break

            # -- possible side: P_{k+1} = A(T_k), continuing from P_k.
            # Over-delete: heads of fired rules that just died, then on
            # through live rules that had fired on a deleted atom.
            deleted: List[int] = []
            for a in gained:
                rules = neg_rules[neg_start[a] : neg_start[a + 1]]
                work += len(rules)
                for r in rules:
                    if not dead[r]:
                        dead[r] = 1
                        if not missing[r] and possible[head[r]]:
                            possible[head[r]] = 0
                            deleted.append(head[r])
            for a in deleted:  # grows while we walk it
                rules = pos_rules[pos_start[a] : pos_start[a + 1]]
                work += len(rules)
                for r in rules:
                    if not dead[r]:
                        count = missing[r]
                        missing[r] = count + 1
                        if not count and possible[head[r]]:
                            possible[head[r]] = 0
                            deleted.append(head[r])
            # Rederive: a deleted head returns when a live rule for it
            # has every positive in what survived or already returned.
            restored: List[int] = []
            for a in deleted:
                if not possible[a]:
                    rules = head_rules[head_start[a] : head_start[a + 1]]
                    work += len(rules)
                    for r in rules:
                        if not dead[r] and not missing[r]:
                            possible[a] = 1
                            restored.append(a)
                            break
            for a in restored:  # grows while we walk it
                rules = pos_rules[pos_start[a] : pos_start[a + 1]]
                work += len(rules)
                for r in rules:
                    if not dead[r]:
                        count = missing[r] - 1
                        missing[r] = count
                        if not count and not possible[head[r]]:
                            possible[head[r]] = 1
                            restored.append(head[r])
            n_possible -= len(deleted) - len(restored)

            # Hand the atoms that really left ``possible`` to the true
            # side: each unblocks the rules reading it under negation.
            fired = []
            for a in deleted:
                if not possible[a]:
                    rules = neg_rules[neg_start[a] : neg_start[a + 1]]
                    work += len(rules)
                    for r in rules:
                        count = waiting[r] - 1
                        waiting[r] = count
                        if not count:
                            fired.append(head[r])
    return true, possible, rounds, work


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
        index = gp.index
        true, possible, rounds, work = _alternate(index)
        if root:
            root["rounds"] = rounds
            root["ground_rules"] = len(gp)
        if RECORDER.enabled:
            RECORDER.inc("repro_wf_alternation_steps_total", 2 * rounds + 1)
            RECORDER.inc("repro_wf_propagations_total", work)
    true_atoms = frozenset(compress(index.atoms, true))
    return WellFoundedResult(
        program=program,
        db=db,
        true=true_atoms,
        undefined=frozenset(compress(index.atoms, possible)) - true_atoms,
        rounds=rounds,
    )
