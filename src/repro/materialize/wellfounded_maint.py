"""Incremental alternating-fixpoint maintenance for well-founded views.

Van Gelder's alternating fixpoint evaluates the well-founded model of a
DATALOG¬ program as iterated applications of the anti-monotone
*stability operator* ``A``::

    A(I) = least model of the positive reduct where ``not n`` holds
           iff ``n`` is not in I

producing the layer sequence ``P_1 = A(∅), T_1 = A(P_1), P_2 = A(T_1),
...`` whose even sublayers increase to ``true = lfp(A∘A)`` and odd
sublayers decrease to ``possible = gfp(A∘A)``.  Each layer is a *least
fixpoint of a positive program* — the reduct of the ground program by
the previous layer — which is exactly the shape Delete/Rederive
maintains (approximation-fixpoint-theory reading: the paper's
non-monotone operator decomposes into monotone-per-layer applications).
This module exploits that structure to keep the three-valued model live
under EDB deltas:

* the program is grounded **once** and patched per update
  (:class:`~repro.core.grounding.LiveGroundProgram`): the delta arrives
  here as a set of ground rules added and removed;
* every layer of the converged alternation is kept as a live sub-view
  (:class:`LayerState`): its least model is maintained by a ground-level
  DRed — over-delete through rules a removed instance or a reference
  insertion deactivated, then restart the least fixpoint from the
  survivors — with the *reference* deltas cascading from the previous
  layer's own change;
* when the walk leaves the alternation unconverged (an update changed
  the undefined region's support structure, lengthening the
  alternation), only the missing tail layers are computed — the
  fallback is *localised to the new layers* instead of discarding the
  whole fixpoint; a shortened alternation is detected by the
  convergence scan and the stale tail dropped;
* appended layers — at view construction and in that tail — are not
  computed from the empty set either: each resumes from the layer of
  the same parity before it (see
  :meth:`AlternatingState._extend_until_converged`).

Universe growth cannot be patched (every completion variable of the
grounding quantifies over the universe), so
:class:`repro.materialize.view.MaterializedView` rebuilds the whole
state then — the same honest-recompute contract as the counting/DRed
semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from ..core.grounding import GroundAtom, GroundRule, LiveGroundProgram
from ..core.program import Program
from ..db.database import Database
from ..obs import RECORDER, TRACER
from .delta import Tup

ChangePair = Tuple[FrozenSet[Tup], FrozenSet[Tup]]

UNDEF = "@undef"
"""Suffix naming a predicate's *undefined* partition in changesets."""


def undef_name(pred: str) -> str:
    """The changeset key for ``pred``'s undefined-partition changes."""
    return pred + UNDEF


class GroundIndex:
    """Adjacency indexes over the live ground-rule set.

    Shared by every layer: maps each ground atom to the rules reading it
    positively (``by_pos``), reading it under negation (``by_neg``) and
    heading it (``by_head``).  Positive occurrences are indexed per
    *distinct* atom, so a rule repeating an atom is visited once per
    trigger.
    """

    __slots__ = ("rules", "by_head", "by_pos", "by_neg")

    def __init__(self, rules: Iterable[GroundRule]) -> None:
        self.rules: Set[GroundRule] = set()
        self.by_head: Dict[GroundAtom, Set[GroundRule]] = {}
        self.by_pos: Dict[GroundAtom, Set[GroundRule]] = {}
        self.by_neg: Dict[GroundAtom, Set[GroundRule]] = {}
        self.update(rules, ())

    def update(
        self, added: Iterable[GroundRule], removed: Iterable[GroundRule]
    ) -> None:
        """Apply a ground-rule diff to every index."""
        for rule in removed:
            self.rules.discard(rule)
            self.by_head[rule.head].discard(rule)
            for atom in set(rule.pos):
                self.by_pos[atom].discard(rule)
            for atom in set(rule.neg):
                self.by_neg[atom].discard(rule)
        for rule in added:
            self.rules.add(rule)
            self.by_head.setdefault(rule.head, set()).add(rule)
            for atom in set(rule.pos):
                self.by_pos.setdefault(atom, set()).add(rule)
            for atom in set(rule.neg):
                self.by_neg.setdefault(atom, set()).add(rule)


class LayerState:
    """One ``A``-application kept live: the least model of a reduct.

    ``reference`` is the previous layer's value (the set negation is
    evaluated against: a rule is *active* iff no negated atom is in the
    reference); ``true`` is the least model of the active rules'
    positive remainder.  Both sets are owned by this layer and patched
    in place by :meth:`update`.
    """

    __slots__ = ("reference", "true")

    def __init__(self, reference: Iterable[GroundAtom]) -> None:
        self.reference: Set[GroundAtom] = set(reference)
        self.true: Set[GroundAtom] = set()

    # ------------------------------------------------------------------
    # Full computation — the first two layers of a build
    # ------------------------------------------------------------------

    def init_full(self, index: GroundIndex) -> None:
        """Compute the reduct's least model from scratch (worklist)."""
        reference = self.reference
        true: Set[GroundAtom] = set()
        waiting: Dict[GroundRule, Set[GroundAtom]] = {}
        queue: deque = deque()
        for rule in index.rules:
            if any(n in reference for n in rule.neg):
                continue
            missing = set(rule.pos)
            if missing:
                waiting[rule] = missing
            else:
                queue.append(rule.head)
        while queue:
            atom = queue.popleft()
            if atom in true:
                continue
            true.add(atom)
            for rule in index.by_pos.get(atom, ()):
                missing = waiting.get(rule)
                if missing is None:
                    continue
                missing.discard(atom)
                if not missing and rule.head not in true:
                    queue.append(rule.head)
        self.true = true

    # ------------------------------------------------------------------
    # Incremental maintenance — ground-level Delete/Rederive
    # ------------------------------------------------------------------

    def update(
        self,
        index: GroundIndex,
        added: FrozenSet[GroundRule],
        removed: FrozenSet[GroundRule],
        ref_ins: FrozenSet[GroundAtom],
        ref_dels: FrozenSet[GroundAtom],
    ) -> Tuple[FrozenSet[GroundAtom], FrozenSet[GroundAtom]]:
        """Maintain the least model under a rule diff + reference delta.

        ``index`` must already reflect the diff (``added`` present,
        ``removed`` absent); ``ref_ins``/``ref_dels`` are the previous
        layer's change.  Returns this layer's ``(inserted, deleted)``
        atoms, which cascade as the next layer's reference delta.
        """
        old_true = self.true
        old_ref_has = self.reference.__contains__

        def old_active(rule: GroundRule) -> bool:
            return not any(old_ref_has(n) for n in rule.neg)

        def old_fired(rule: GroundRule) -> bool:
            return old_active(rule) and all(p in old_true for p in rule.pos)

        # -- Phase 1: over-delete.  Seeds are the heads of old
        # derivations a removed instance or a reference insertion
        # invalidated; deletions then propagate through rules that fired
        # in the old state (classic DRed: a superset of the truly dead).
        stack: List[GroundAtom] = []
        for rule in removed:
            if rule.head in old_true and old_fired(rule):
                stack.append(rule.head)
        for atom in ref_ins:
            for rule in index.by_neg.get(atom, ()):
                if rule in added:
                    continue  # no old derivation to invalidate
                if rule.head in old_true and old_fired(rule):
                    stack.append(rule.head)
        overdeleted: Set[GroundAtom] = set()
        while stack:
            atom = stack.pop()
            if atom in overdeleted or atom not in old_true:
                continue
            overdeleted.add(atom)
            for rule in index.by_pos.get(atom, ()):
                if rule in added or rule.head in overdeleted:
                    continue
                if old_fired(rule):
                    stack.append(rule.head)

        # The reference moves to the new previous-layer value before
        # rederivation: survivors must be closed under the *new* reduct.
        self.reference -= ref_dels
        self.reference |= ref_ins
        new_ref_has = self.reference.__contains__

        def active(rule: GroundRule) -> bool:
            return not any(new_ref_has(n) for n in rule.neg)

        # -- Phase 2: rederive.  The survivors under-approximate the new
        # least model (every old derivation they retain is intact and
        # still active), so restarting the fixpoint from them is exact.
        # Candidate rules — the only ones whose firing status can have
        # changed without a positive-body trigger — are the added rules,
        # the rules a reference deletion re-activated, and the rules
        # heading an over-deleted atom.
        #
        # Copy-on-write: the serving common case is a delta that changes
        # *nothing* in this layer (a rule entered and left the reduct
        # without firing differently); copying the — possibly huge —
        # model set per layer would make every update O(model), so the
        # working set aliases ``old_true`` until a mutation is needed.
        if overdeleted:
            current = old_true - overdeleted
            mutated = True
        else:
            current = old_true
            mutated = False
        queue: deque = deque()

        def try_fire(rule: GroundRule) -> None:
            if (
                rule.head not in current
                and active(rule)
                and all(p in current for p in rule.pos)
            ):
                queue.append(rule.head)

        for rule in added:
            try_fire(rule)
        for atom in ref_dels:
            for rule in index.by_neg.get(atom, ()):
                try_fire(rule)
        for atom in overdeleted:
            for rule in index.by_head.get(atom, ()):
                try_fire(rule)
        while queue:
            atom = queue.popleft()
            if atom in current:
                continue
            if not mutated:
                current = set(current)
                mutated = True
            current.add(atom)
            for rule in index.by_pos.get(atom, ()):
                try_fire(rule)

        if not mutated:
            return frozenset(), frozenset()  # self.true untouched
        inserted = frozenset(current - old_true)
        deleted = frozenset(old_true - current)
        self.true = current
        return inserted, deleted


class AlternatingState:
    """The full alternation kept live: layers, convergence, patching.

    Owns the :class:`~repro.core.grounding.LiveGroundProgram`, the
    shared :class:`GroundIndex` and the converged layer list
    ``[P_1, T_1, ..., P_k, T_k]`` (``T_k = true``, ``P_k = possible``).
    ``apply`` patches the grounding, walks the layers cascading per-layer
    deltas, then restores the convergence invariant by trimming a
    shortened alternation or appending the missing tail layers.
    """

    __slots__ = ("program", "live", "index", "layers", "extensions")

    def __init__(self, program: Program, db: Database) -> None:
        self.program = program
        self.live = LiveGroundProgram(program, db)
        self.index = GroundIndex(self.live.rules)
        self.layers: List[LayerState] = []
        self.extensions = 0
        self._extend_until_converged()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def db(self) -> Database:
        return self.live.db

    @property
    def true(self) -> Set[GroundAtom]:
        """``lfp(A∘A)`` — the well-founded model's true atoms."""
        return self.layers[-1].true

    @property
    def possible(self) -> Set[GroundAtom]:
        """``gfp(A∘A)`` — true and undefined atoms together."""
        return self.layers[-2].true

    @property
    def rounds(self) -> int:
        """Outer alternating-fixpoint steps the current state encodes."""
        return len(self.layers) // 2

    # ------------------------------------------------------------------
    # Convergence bookkeeping
    # ------------------------------------------------------------------

    def _converged_at(self, count: int) -> bool:
        """Whether the first ``count`` layers witness convergence.

        Convergence of the alternation is ``T_j == T_{j-1}`` with
        ``T_0 = ∅`` — layer ``count`` must be an even (T-) layer equal
        to the previous T-layer.
        """
        if count < 2 or count % 2:
            return False
        current = self.layers[count - 1].true
        previous = self.layers[count - 3].true if count >= 4 else set()
        return current == previous

    def _extend_until_converged(self) -> None:
        """Append layers until the alternation closes.

        Only ``P_1`` and ``T_1`` are computed from scratch.  Every later
        layer starts as its same-parity neighbour two layers back — the
        ``T``-layers only grow and the ``P``-layers only shrink, so the
        two are close — and is brought to its own reference by
        :meth:`LayerState.update` with an empty rule diff: building a
        view costs the sum of the layer-to-layer changes, not the
        alternation depth times the ground program.
        """
        layers = self.layers
        nothing: FrozenSet = frozenset()
        while not self._converged_at(len(layers)):
            reference = layers[-1].true if layers else set()
            if len(layers) < 2:
                layer = LayerState(reference)
                layer.init_full(self.index)
            else:
                twin = layers[-2]
                layer = LayerState(twin.reference)
                # Shared, not copied: ``update`` never mutates a model
                # set in place (it rebinds ``true`` to a patched copy).
                layer.true = twin.true
                layer.update(
                    self.index,
                    nothing,
                    nothing,
                    frozenset(reference - twin.reference),
                    frozenset(twin.reference - reference),
                )
            layers.append(layer)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def apply(
        self, new_db: Database, changes: Mapping[str, ChangePair]
    ) -> bool:
        """Maintain the three-valued model under an effective EDB delta.

        Returns whether the model *moved* — ``False`` when no layer's
        value changed (the common serving case: a ground rule entered
        and left every reduct without firing differently), letting the
        caller skip rebuilding and diffing the result partitions.

        Raises
        ------
        repro.core.grounding.GroundingPatchError
            On universe growth — the caller rebuilds the whole state.
        """
        added, removed = self.live.apply(new_db, changes)
        if not added and not removed:
            return False
        with TRACER.span("wf.apply") as root:
            if root:
                root["ground_added"] = len(added)
                root["ground_removed"] = len(removed)
            self.index.update(added, removed)
            prev_ins: FrozenSet[GroundAtom] = frozenset()
            prev_dels: FrozenSet[GroundAtom] = frozenset()
            moved = False
            tracing = TRACER.enabled
            for position, layer in enumerate(self.layers):
                if tracing:
                    with TRACER.span("wf.layer") as sp:
                        prev_ins, prev_dels = layer.update(
                            self.index, added, removed, prev_ins, prev_dels
                        )
                        if sp:
                            sp["layer"] = position
                            sp["rows_out"] = len(prev_ins) + len(prev_dels)
                else:
                    prev_ins, prev_dels = layer.update(
                        self.index, added, removed, prev_ins, prev_dels
                    )
                moved = moved or bool(prev_ins or prev_dels)
            if RECORDER.enabled:
                RECORDER.inc("repro_wf_layer_updates_total", len(self.layers))
            if not moved:
                # The layers were minimal (first convergence witness at the
                # end) and none of their values changed, so they still are:
                # no trim or extension can apply.
                return False
            # Restore the convergence invariant.  The maintained layers are
            # exactly the alternation sequence of the *new* input, so the
            # T-sublayers are monotone and the first convergence witness is
            # the canonical length; anything beyond it is a stale tail.
            for count in range(2, len(self.layers) + 1, 2):
                if self._converged_at(count):
                    del self.layers[count:]
                    return True
            # The alternation got longer: append the missing tail layers —
            # the localised fallback.
            self.extensions += 1
            if RECORDER.enabled:
                RECORDER.inc("repro_wf_extensions_total")
            with TRACER.span("wf.extend") as sp:
                self._extend_until_converged()
                if sp:
                    sp["layers"] = len(self.layers)
        return True
