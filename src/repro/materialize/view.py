"""Materialized views: fixpoints kept live under EDB deltas.

:class:`MaterializedView` wraps a program, a database and one of the
repo's three semantics and keeps the corresponding result continuously
up to date as :class:`~repro.materialize.delta.Delta`\\ s stream in —
without recomputing the fixpoint from scratch on every base-fact change.

Every view holds **one** maintenance state.  Its ``apply(new_db,
changes)`` moves the state under an effective EDB delta and returns
what moved as ``{key: (inserted, deleted)}``:

* :class:`ComponentWalk` — stratified views, and inflationary views of
  semipositive programs (whose operator is monotone, so ``Theta^infinity``
  is the least fixpoint: a one-layer stratified program);
* :class:`~repro.materialize.wellfounded_maint.AlternatingState` —
  well-founded views; a key is ``pred`` for the true partition and
  ``pred@undef`` for the undefined one;
* :class:`RecomputeState` — inflationary views of non-semipositive
  programs.  ``Theta^infinity`` is defined by its iteration history, not
  by any fixpoint equation (Section 4's warning: the limit need not be a
  fixpoint at all), so there is nothing stratum-shaped to maintain: it
  re-evaluates honestly, still producing a changeset.

``apply`` returns those changes in its changeset — a
:class:`~repro.materialize.delta.Delta` keyed by every relation that
moved — at once and only queues them for the result:
:attr:`MaterializedView.result` folds the pending changes on read.
Where the state holds a key's value (the value the walk's aliases name,
a recompute's relation), the queue keeps that immutable relation as it
stood after the last apply; otherwise it keeps the composed change sets,
and the fold evolves the last result's value by them.  An exception
inside ``apply`` drops the state, leaves the view as it was, and the
next update rebuilds the state from it.

The walk goes stratum by stratum over the condensation of the predicate
dependency graph, in topological order:

* a **non-recursive** component (a singleton SCC without a self-loop)
  is maintained by exact derivation counting
  (:mod:`repro.materialize.counting`);
* a **recursive** component is maintained by Delete/Rederive
  (:mod:`repro.materialize.dred`): two runs of the engines' own
  semi-naive loop, :func:`~repro.core.fixpoint.iterate` — the
  over-deleted set's least fixpoint, then the component's, resumed from
  the survivors.  Which change sets an update staged (the ``P@ins`` /
  ``P@del`` aliases) is all it reads of the update.

This component structure is the algorithmic counterpart of the
fixed-point theory the paper leans on: the program's operator is
non-monotone as a whole (a retracted EDB tuple can *grow* a negated
stratum), but freezing the layers below a component makes its operator
monotone again — which is exactly what lets DRed restart a least
fixpoint from the over-deletion survivors and get the right answer.

A view owns **one** symbol table for its whole life: every working
interpretation of a maintenance pass is *derived* from the view's
current database (:meth:`~repro.db.database.Database.derive`), never
built around a bare universe, so the code payloads cached on the
relations — and the sorted runs cached on those — stay valid from
update to update.  Maintenance state (each input's value and its
``@old`` alias — names for the values updates computed, never copies —
change sets, DRed's working sets) is held as relations under that table
and combined on codes; only the changed tuples are decoded, once, for
the returned changeset.  An update's own delta is interned once: each
effective side is one relation, which the database evolves by and the
state stages as ``P@ins`` / ``P@del``, sharing its payload.

Growth of the universe is a delta too.  Every maintained rule is
range-restricted (:func:`~repro.core.planning.range_restricted`): a
completion variable joins the universe relation ``@U``.  An inserted
tuple that mentions a never-seen value is therefore also an insertion
into ``@U``, handed to the state beside the EDB changes and
differentiated like any of them; it never appears in a changeset.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from ..analysis.dependency import DependencyGraph
from ..core.operator import as_interpretation
from ..core.planning import range_restricted
from ..core.program import Program
from ..core.semantics.base import EvaluationResult, is_semipositive
from ..core.semantics.inflationary import inflationary_semantics
from ..core.semantics.stratified import stratified_semantics
from ..core.semantics.wellfounded import WellFoundedResult, pair_result
from ..db.database import UNIVERSE, Database
from ..db.relation import Relation
from ..obs import RECORDER, TRACER
from .counting import CountingState
from .delta import Delta, Tup
from .deltavariants import AliasSet, del_name, ins_name
from .dred import RecursiveState
from .wellfounded_maint import UNDEF, AlternatingState

ChangePair = Tuple[FrozenSet[Tup], FrozenSet[Tup]]
Changes = Dict[str, ChangePair]
Staged = Dict[str, Tuple[Relation, Relation]]
"""An update's effective sides (and ``@U`` growth), one relation each."""

SEMANTICS = ("stratified", "inflationary", "wellfounded")


class ComponentWalk:
    """Counting and DRed over the condensation, dependencies first.

    Built from the evaluated ``result`` of ``(program, db)``; ``rounds``
    stays that result's.  Every predicate some rule body reads has its
    current value and a ``P@old`` alias in an
    :class:`~repro.materialize.deltavariants.AliasSet`, which names the
    values each update computes and copies none.  Head-only predicates
    (the top of the dependency order, often the largest relations) feed
    nothing, so they get no aliases: the counting state is their
    authority.
    """

    __slots__ = ("rounds", "_components", "_aliases")

    def __init__(self, program: Program, db: Database, result: EvaluationResult) -> None:
        self.rounds = result.rounds
        rules = [range_restricted(r) for r in program.rules]
        small = frozenset(
            name(pred)
            for pred in program.predicates | {UNIVERSE}
            for name in (ins_name, del_name)
        )
        graph = DependencyGraph(program)
        # (state, the predicates its rules read from below): one per
        # condensation component.
        self._components: List[Tuple[object, FrozenSet[str]]] = []
        interp = as_interpretation(program, db, result.idb)
        for comp in reversed(graph.sccs()):  # topological: dependencies first
            preds = {p: program.arity(p) for p in comp}
            comp_rules = [r for r in rules if r.head.pred in comp]
            base_preds = frozenset(
                pred for r in comp_rules for pred in r.body_predicates()
            ) - frozenset(comp)
            recursive = len(comp) > 1 or any(
                e.target in comp for p in comp for e in graph.successors(p)
            )
            if recursive:
                state = RecursiveState(preds, comp_rules, small)
            else:
                (pred,) = comp
                state = CountingState(pred, preds[pred], comp_rules, small)
                state.initialise(interp)
                if state.counts.keys() != result.idb[pred].tuples:
                    raise AssertionError(
                        "counting initialisation of %s disagrees with the "
                        "evaluated fixpoint" % pred
                    )
            self._components.append((state, base_preds))

        read = set()
        for rule in rules:
            read |= rule.body_predicates()
        values = []
        for pred in sorted(read & (program.predicates | {UNIVERSE})):
            if pred in program.idb_predicates:
                value = result.idb[pred]
            else:
                value = db.get(pred)
                if value is None:
                    value = Relation.empty(pred, program.arity(pred))
            values.append(value)
        self._aliases = AliasSet(values)

    def value(self, key: str) -> "Relation | None":
        """``key``'s current value where an alias holds it."""
        return self._aliases.relations.get(key)

    def apply(self, new_db: Database, changes: Staged) -> Changes:
        """Propagate the changes through every component they reach.

        Every change is carried as an ``(inserted, deleted)`` pair of
        relations and every working interpretation is derived from
        ``new_db`` — one symbol table for the view's whole life, so the
        code payloads cached on its relations stay valid.
        """
        aliases = self._aliases
        changed = set()
        for name, (ins, dels) in changes.items():
            if ins or dels:
                if name in aliases:
                    aliases.stage(name, ins, dels, new_db.get(name))
                changed.add(name)
        moved: Changes = {}
        for state, base_preds in self._components:
            if not base_preds & changed:
                continue
            recursive = isinstance(state, RecursiveState)
            with TRACER.span("maint.component") as sp:
                row_traffic = RECORDER.row_traffic() if sp else None
                if recursive:
                    comp_changes, values = state.apply(aliases.working(), new_db)
                else:
                    ins, dels = state.apply(aliases.derive(new_db))
                    comp_changes = {
                        state.pred: tuple(
                            Relation._from_frozenset(state.pred, state.arity, frozenset(side))
                            for side in (ins, dels)
                        )
                    }
                rows = 0
                for pred, (ins, dels) in comp_changes.items():
                    if ins or dels:
                        # Decoded here, once: the @ins/@del aliases renamed
                        # by ``stage`` share the decoded sets.
                        moved[pred] = (ins.tuples, dels.tuples)
                        rows += len(ins) + len(dels)
                        if pred in aliases:
                            value = (
                                values[pred] if recursive
                                else aliases.relations[pred].evolve(ins, dels)
                            )
                            aliases.stage(pred, ins, dels, value)
                        changed.add(pred)
                if sp:
                    sp["preds"] = ", ".join(sorted(state.preds)) if recursive else state.pred
                    sp["backend"] = "dred" if recursive else "counting"
                    sp["rows_out"] = rows
                    RECORDER.note_row_traffic(sp, row_traffic)
        aliases.catch_up()
        return moved


class RecomputeState:
    """``Theta^infinity`` from scratch per update, diffed against the last.

    Holds the latest evaluation's relations, so every key's value is
    held; ``rounds`` is that evaluation's.
    """

    __slots__ = ("program", "rounds", "_idb")

    def __init__(self, program: Program, db: Database, result: EvaluationResult) -> None:
        self.program = program
        self.rounds = result.rounds
        self._idb = result.idb

    def value(self, key: str) -> Relation:
        return self._idb[key]

    def apply(self, new_db: Database, changes: Staged) -> Changes:
        result = inflationary_semantics(self.program, new_db)
        moved: Changes = {}
        for pred, after in result.idb.items():
            before = self._idb[pred]
            ins, dels = after.difference(before).tuples, before.difference(after).tuples
            if ins or dels:
                moved[pred] = (ins, dels)
        self._idb, self.rounds = result.idb, result.rounds
        return moved


class MaterializedView:
    """A live fixpoint: apply EDB deltas, read the maintained result.

    Parameters
    ----------
    program:
        The DATALOG¬ program.
    db:
        The initial database.  Must contain every EDB relation a delta
        will later touch.
    semantics:
        ``"stratified"`` (raises
        :class:`~repro.core.semantics.stratified.NotStratifiableError`
        for programs with recursion through negation),
        ``"inflationary"`` (total; maintained incrementally when the
        program is semipositive, recomputed per delta otherwise), or
        ``"wellfounded"`` (accepts *every* DATALOG¬ program — the
        non-stratifiable workload class included; ``result`` is the
        three-valued
        :class:`~repro.core.semantics.wellfounded.WellFoundedResult`,
        maintained as one over-deleted and resumed alternation pair —
        see :mod:`repro.materialize.wellfounded_maint`).
    undo_limit:
        How many applied updates the undo log retains for
        :meth:`rollback` (oldest entries are dropped beyond it, so a
        long-lived serving view's memory stays bounded under endless
        update streams).  ``None`` retains everything.
    """

    UNDO_LIMIT = 1024
    """Default undo-log depth: plenty for interactive sessions, bounded
    for serving streams."""

    def __init__(
        self,
        program: Program,
        db: Database,
        semantics: str = "stratified",
        undo_limit: "int | None" = UNDO_LIMIT,
    ) -> None:
        if semantics not in SEMANTICS:
            raise ValueError(
                "unknown semantics %r; expected one of %s" % (semantics, SEMANTICS)
            )
        self.program = program
        self.semantics = semantics
        self._db = db
        self._pending: Dict[str, Union[Relation, Tuple[set, set]]] = {}
        self._undo: List[Delta] = []
        self._undo_limit = undo_limit
        self.applied = 0
        self.recomputes = 0
        if semantics == "wellfounded":
            self._state = AlternatingState(program, db)
            self._result: Union[EvaluationResult, WellFoundedResult] = pair_result(
                program, db, self._state.pair, self._state.rounds
            )
        else:
            engine = stratified_semantics if semantics == "stratified" else inflationary_semantics
            self._result = engine(program, db)
            self._state = self._new_state()
        self._rounds = self._result.rounds

    def _new_state(self):
        """A maintenance state for the current database and result."""
        if self.semantics == "wellfounded":
            return AlternatingState(self.program, self._db)
        if self.semantics == "stratified" or is_semipositive(self.program):
            return ComponentWalk(self.program, self._db, self.result)
        return RecomputeState(self.program, self._db, self.result)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def db(self) -> Database:
        """The current (post-delta) database."""
        return self._db

    @property
    def result(self) -> Union[EvaluationResult, WellFoundedResult]:
        """The maintained evaluation result over the current database.

        For ``wellfounded`` views this is the three-valued
        :class:`~repro.core.semantics.wellfounded.WellFoundedResult`
        (``true``/``undefined`` atom sets); the two-valued semantics
        return an :class:`~repro.core.semantics.base.EvaluationResult`.

        ``apply`` returns its changes in the changeset at once and
        defers rebuilding the (possibly huge) relation values until
        something reads them: the pending changes are folded here.
        """
        if self._result.db is not self._db:
            self._result = _fold(self._result, self._db, self._rounds, self._pending)
            self._pending = {}
        return self._result

    def relation(self, pred: str) -> Relation:
        """The maintained value of an IDB predicate.

        For ``wellfounded`` views this is the *true* partition;
        ``result.undefined_idb()`` exposes the undefined one.
        """
        if self.semantics == "wellfounded":
            return self.result.true_idb()[pred]
        return self.result.idb[pred]

    @property
    def undo_depth(self) -> int:
        """How many applied updates :meth:`rollback` can still undo.

        The undo log records *effective* updates only: an apply whose
        delta normalized to nothing changed no state, pushed no entry,
        and is not a rollback step.  Callers pairing applies with
        rollbacks should count this property, not their ``apply`` calls.
        """
        return len(self._undo)

    def __repr__(self) -> str:
        return "MaterializedView(%s, %d updates, %d recomputes, %r)" % (
            self.semantics,
            self.applied,
            self.recomputes,
            self._db,
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def apply(self, delta: Delta) -> Delta:
        """Apply an EDB delta; return everything that changed.

        The changeset is a :class:`Delta` keyed by every relation that
        moved: the EDB relations the delta itself moved, every IDB
        predicate whose value moved in response, and — for
        ``wellfounded`` views — ``pred@undef`` for the undefined
        partition.

        The delta may only touch the program's EDB relations; tuple
        arities are validated against the database schema before any
        state is modified.  The effective inverse is pushed onto the
        undo log (see :meth:`rollback`); a no-op delta (nothing
        effective against the current contents) changes nothing and
        pushes nothing.
        """
        return self._apply(delta, record_undo=True)

    def apply_many(self, deltas: Iterable[Delta]) -> Delta:
        """Apply a batch of deltas in one maintenance pass.

        The deltas are folded with :meth:`Delta.then
        <repro.materialize.delta.Delta.then>` — sequentially
        equivalent by the composition law — so maintenance runs *once*
        for the whole batch instead of once per delta, and tuples that
        churn within the batch (inserted then deleted, or vice versa)
        cost nothing.  The returned changeset is the batch's *net*
        effect; the undo log gains a single entry — none when the batch
        composes to a no-op — so ``rollback(1)`` undoes the whole batch
        (the transaction reading).  That reading
        extends to the universe: a fresh value mentioned only by tuples
        that churn away inside the batch never enters the database —
        sequential applies would have grown the universe permanently,
        which under active-domain completion can even change unsafe
        rules' answers.  Batches are the committed state's semantics.
        """
        composed = Delta.empty()
        for delta in deltas:
            composed = composed.then(delta)
        return self._apply(composed, record_undo=True)

    def rollback(self, n: int = 1) -> Delta:
        """Undo the last ``n`` applied updates (deltas or batches).

        The undo log stores the effective inverse of every *effective*
        applied update (no-op applies record nothing — see
        :attr:`undo_depth`); rolling back composes the last ``n`` in
        reverse order and applies the result through the ordinary
        maintenance path — one pass, however many updates unwind.
        Rolled-back entries are consumed (no redo).  Universes never
        shrink, so a rollback restores relation *contents*.
        """
        if n <= 0:
            return Delta.empty()
        if n > len(self._undo):
            raise ValueError(
                "cannot roll back %d updates; undo log holds %d"
                % (n, len(self._undo))
            )
        composed = Delta.empty()
        for inverse in reversed(self._undo[-n:]):
            composed = composed.then(inverse)
        changeset = self._apply(composed, record_undo=False)
        # Entries are consumed only once the rollback landed — same
        # exception contract as _apply's own bookkeeping.
        del self._undo[-n:]
        return changeset

    def _apply(self, delta: Delta, record_undo: bool) -> Delta:
        if not (RECORDER.enabled or TRACER.enabled):
            return self._apply_inner(delta, record_undo)
        started = time.perf_counter()
        recomputed_before = self.recomputes
        with TRACER.span("view.apply") as sp:
            row_traffic = RECORDER.row_traffic() if sp else None
            changeset = self._apply_inner(delta, record_undo)
            if sp:
                RECORDER.note_row_traffic(sp, row_traffic)
                sp["semantics"] = self.semantics
                sp["delta"] = len(delta)
                sp["rows_out"] = len(changeset)
                sp["recomputed"] = self.recomputes > recomputed_before
        if RECORDER.enabled:
            RECORDER.inc("repro_view_applies_total")
            if self.recomputes > recomputed_before:
                RECORDER.inc("repro_view_recomputes_total")
            RECORDER.observe(
                "repro_view_apply_seconds", time.perf_counter() - started
            )
            RECORDER.observe("repro_maint_delta_size", len(delta))
        return changeset

    def _apply_inner(self, delta: Delta, record_undo: bool) -> Delta:
        self._validate(delta)
        db = self._db
        effective = delta.normalize(db)
        if effective.is_empty():
            return effective
        # Each side is one relation: the database evolves by it and the
        # state stages it, so its rows are interned once.
        changes: Staged = {
            name: tuple(
                Relation._from_frozenset(name, db[name].arity, side) for side in (ins, dels)
            )
            for name, (ins, dels) in effective.items()
        }
        new_db = db.apply_delta(changes)
        fresh = effective.values() - db.universe
        if fresh:
            changes[UNIVERSE] = (
                Relation._from_frozenset(UNIVERSE, 1, frozenset((v,) for v in fresh)),
                Relation.empty(UNIVERSE, 1),
            )
        if self._state is None:
            # Dropped below by a failed apply: rebuilt here, on the next
            # update, rather than inside the handler — an interrupt must
            # surface at once, and a rebuild that itself dies leaves
            # ``None`` behind, never a half-built state.
            self._state = self._new_state()
        state = self._state
        try:
            moved = state.apply(new_db, changes)
        except BaseException:
            # Every state mutates in place (aliases, counts, the pair's
            # flags and counters); an exception mid-apply — even an
            # interrupt — must not leave a half-patched state serving
            # wrong answers behind an unchanged view façade.  Drop it and
            # let the error surface.
            self._state = None
            raise
        # Book-keeping only after maintenance landed: if maintenance
        # raises, the view's db/result/pending changes/undo log stay
        # pre-update, so the log never records an update that did not
        # happen.
        for key, (ins, dels) in moved.items():
            self._defer(key, ins, dels, state.value(key))
        self._db = new_db
        self._rounds = state.rounds
        if isinstance(state, RecomputeState):
            self.recomputes += 1
        self.applied += 1
        if record_undo:
            self._undo.append(effective.inverse())
            if self._undo_limit is not None and len(self._undo) > self._undo_limit:
                del self._undo[: len(self._undo) - self._undo_limit]
        moved.update(effective.items())  # @U, the engine's own relation, is never echoed
        return Delta(
            {k: i for k, (i, _) in moved.items()}, {k: d for k, (_, d) in moved.items()}
        )

    def validate_delta(self, delta: Delta) -> None:
        """Check a delta against the view's schema without applying it.

        Raises exactly what :meth:`apply` would raise before touching any
        state — the server uses this to reject a bad delta at submit
        time, before it is folded into a batch whose other writers would
        otherwise share the failure.
        """
        self._validate(delta)

    def _validate(self, delta: Delta) -> None:
        idb = self.program.idb_predicates
        for name in delta.relations():
            if "@" in name:
                raise ValueError(
                    "delta names %r; names containing '@' are reserved for "
                    "the engine's own relations" % name
                )
            if name in idb:
                raise ValueError(
                    "delta touches %r, an IDB predicate of the program — "
                    "IDB relations are maintained, not written" % name
                )
            rel = self._db.get(name)
            if rel is None:
                raise KeyError(
                    "delta names relation %r which is not in the database" % name
                )
            for t in delta.inserts(name) | delta.deletes(name):
                if len(t) != rel.arity:
                    raise ValueError(
                        "delta tuple %r has length %d, expected arity %d for %s"
                        % (t, len(t), rel.arity, name)
                    )

    def _defer(self, key: str, ins: FrozenSet[Tup], dels: FrozenSet[Tup], held) -> None:
        """Queue one key's change for :attr:`result` to fold.

        Where the state holds the key's value (``held``: the value the
        walk's aliases name, a recompute's relation), the pending entry is
        that relation — immutable, so it stays right even after a later
        failed apply drops the state.  Otherwise it is an ``(inserted,
        deleted)`` pair of sets: changes compose sequentially
        (``Delta.then`` algebra), so the last result's value plus the
        pair always equals the current value, and the pair is patched in
        place — an update costs its own change, not the backlog's.
        """
        if held is not None:
            self._pending[key] = held
            return
        pending_ins, pending_dels = self._pending.setdefault(key, (set(), set()))
        pending_ins -= dels
        pending_ins |= ins
        pending_dels -= ins
        pending_dels |= dels


def _fold(result, db: Database, rounds: int, pending):
    """``result`` carried over to ``db``, every pending key folded in."""
    wellfounded = isinstance(result, WellFoundedResult)
    true = result.true_idb() if wellfounded else dict(result.idb)
    undefined = result.undefined_idb() if wellfounded else {}
    for key, value in pending.items():
        part, pred = (undefined, key[: -len(UNDEF)]) if key.endswith(UNDEF) else (true, key)
        part[pred] = value if isinstance(value, Relation) else part[pred].evolve(*value)
    if wellfounded:
        return WellFoundedResult(result.program, db, true, undefined, rounds)
    return replace(result, db=db, idb=true, rounds=rounds, trace=None, added=None)
