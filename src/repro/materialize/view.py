"""Materialized views: fixpoints kept live under EDB deltas.

:class:`MaterializedView` wraps a program, a database and one of the
repo's two total-order semantics and keeps the corresponding
:class:`~repro.core.semantics.base.EvaluationResult` continuously up to
date as :class:`~repro.materialize.delta.Delta`\\ s stream in — without
recomputing the fixpoint from scratch on every base-fact change.

Maintenance is organised stratum-by-stratum over the condensation of
the predicate dependency graph, processed in topological order:

* a **non-recursive** component (a singleton SCC without a self-loop)
  is maintained by exact derivation counting
  (:mod:`repro.materialize.counting`);
* a **recursive** component is maintained by Delete/Rederive
  (:mod:`repro.materialize.dred`).

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
update to update.  Maintenance state (the ``@old``/``@new`` aliases,
change sets, DRed's working sets) is held as relations under that
table and combined on codes; only the changed tuples are decoded, once,
for the returned :class:`ChangeSet`.

Two cases fall back to honest recomputation (still through the view
API, still producing a changeset):

* **universe growth** — an inserted tuple mentioning a never-seen value
  enlarges the domain every completion variable quantifies over, behind
  the backs of all maintained counts;
* **inflationary views of non-semipositive programs** — ``Theta^infinity``
  is defined by its iteration history, not by any fixpoint equation
  (Section 4's warning: the limit need not be a fixpoint at all), so
  there is nothing stratum-shaped to maintain.  Semipositive programs
  induce a monotone operator, for which the inflationary semantics *is*
  the least fixpoint, and those are maintained exactly like a one-layer
  stratified program.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from ..analysis.dependency import DependencyGraph
from ..core.operator import as_interpretation
from ..core.program import Program
from ..core.semantics.base import EvaluationResult, is_semipositive
from ..core.semantics.inflationary import inflationary_semantics
from ..core.semantics.stratified import StratifiedResult, stratified_semantics
from ..core.semantics.wellfounded import WellFoundedResult
from ..db.database import Database
from ..db.relation import Relation
from ..obs import RECORDER, TRACER
from .counting import CountingState
from .delta import Delta, Tup
from .dred import DELETE_FRONTIER, INSERT_FRONTIER, OVER_DELETED, RecursiveState
from .variants import PlanCache, del_name, ins_name, new_name, old_name
from .wellfounded_maint import AlternatingState, Moves, undef_name

ChangePair = Tuple[FrozenSet[Tup], FrozenSet[Tup]]

SEMANTICS = ("stratified", "inflationary", "wellfounded")


class ChangeSet:
    """What one :meth:`MaterializedView.apply` call changed.

    Maps every touched predicate — the EDB relations the delta itself
    moved and every IDB predicate whose value moved in response — to its
    inserted and deleted tuple sets.  Empty per-relation sets are not
    recorded.
    """

    __slots__ = ("inserted", "deleted")

    def __init__(
        self,
        inserted: Dict[str, FrozenSet[Tup]] = None,
        deleted: Dict[str, FrozenSet[Tup]] = None,
    ) -> None:
        self.inserted = {k: frozenset(v) for k, v in (inserted or {}).items() if v}
        self.deleted = {k: frozenset(v) for k, v in (deleted or {}).items() if v}

    @classmethod
    def from_changes(cls, changes: Dict[str, ChangePair]) -> "ChangeSet":
        return cls(
            inserted={n: ins for n, (ins, _) in changes.items()},
            deleted={n: dels for n, (_, dels) in changes.items()},
        )

    def relations(self) -> Tuple[str, ...]:
        """Every relation this changeset touches, sorted."""
        return tuple(sorted(set(self.inserted) | set(self.deleted)))

    def is_empty(self) -> bool:
        """True when nothing changed."""
        return not self.inserted and not self.deleted

    def __len__(self) -> int:
        return sum(len(v) for v in self.inserted.values()) + sum(
            len(v) for v in self.deleted.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChangeSet):
            return NotImplemented
        return self.inserted == other.inserted and self.deleted == other.deleted

    def __hash__(self) -> int:
        # Content hash consistent with __eq__ (defining __eq__ alone had
        # silently made instances unhashable); the server's subscription
        # fan-out dedupes changesets by it.
        return hash(
            (
                frozenset(self.inserted.items()),
                frozenset(self.deleted.items()),
            )
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            "%s:+%d/-%d"
            % (name, len(self.inserted.get(name, ())), len(self.deleted.get(name, ())))
            for name in self.relations()
        )
        return "ChangeSet(%s)" % (parts or "empty")

    def format(self) -> str:
        """A deterministic multi-line rendering (the CLI's output)."""
        lines: List[str] = []
        for name in self.relations():
            ins = self.inserted.get(name, frozenset())
            dels = self.deleted.get(name, frozenset())
            lines.append("%s: +%d -%d" % (name, len(ins), len(dels)))
            for t in sorted(ins, key=repr):
                lines.append("  + " + ", ".join(str(v) for v in t))
            for t in sorted(dels, key=repr):
                lines.append("  - " + ", ".join(str(v) for v in t))
        return "\n".join(lines) if lines else "(no change)"


class _Component:
    """One maintained condensation component, with its reading set."""

    __slots__ = ("state", "preds", "base_preds", "recursive")

    def __init__(self, state, preds, base_preds, recursive) -> None:
        self.state = state
        self.preds = preds
        self.base_preds = base_preds
        self.recursive = recursive


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
        self._pending: Dict[str, ChangePair] = {}
        self._undo: List[Delta] = []
        self._undo_limit = undo_limit
        self._wf: AlternatingState = None
        if semantics == "stratified":
            self._maintainable = True
            self._result: Union[EvaluationResult, WellFoundedResult] = (
                stratified_semantics(program, db)
            )
        elif semantics == "wellfounded":
            self._maintainable = True
            self._wf = AlternatingState(program, db)
            self._result = self._wf_result(db)
        else:
            self._maintainable = is_semipositive(program)
            self._result = inflationary_semantics(program, db)
        self.applied = 0
        self.recomputes = 0
        if self._maintainable and semantics != "wellfounded":
            self._build_maintenance()

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

        Head-only predicates — the top of the dependency order, often
        the largest relations — are materialised lazily here: ``apply``
        returns their changes in the changeset immediately and defers
        rebuilding the (possibly huge) relation value until something
        actually reads it.
        """
        if self._pending:
            idb = dict(self._result.idb)
            for pred, (ins, dels) in self._pending.items():
                idb[pred] = idb[pred].evolve(ins, dels)
            self._pending = {}
            self._result = self._with_idb(self._db, idb)
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
    # Maintenance state
    # ------------------------------------------------------------------

    def _build_maintenance(self) -> None:
        program = self.program
        small = set()
        for pred in program.predicates:
            small.add(ins_name(pred))
            small.add(del_name(pred))
            small.add(pred + DELETE_FRONTIER)
            small.add(pred + INSERT_FRONTIER)
            small.add(pred + OVER_DELETED)
        self._plans = PlanCache(frozenset(small))

        graph = DependencyGraph(program)
        self._components: List[_Component] = []
        interp = as_interpretation(program, self._db, self._result.idb)
        for comp in reversed(graph.sccs()):  # topological: dependencies first
            preds = {p: program.arity(p) for p in comp}
            rules = [r for r in program.rules if r.head.pred in comp]
            base_preds = frozenset(
                pred for r in rules for pred in r.body_predicates()
            ) - frozenset(comp)
            recursive = len(comp) > 1 or any(
                e.target in comp for p in comp for e in graph.successors(p)
            )
            if recursive:
                state = RecursiveState(preds, rules, self._plans)
            else:
                (pred,) = comp
                state = CountingState(pred, preds[pred], rules, self._plans)
                derived = state.initialise(interp)
                if derived != self._result.idb[pred].tuples:
                    raise AssertionError(
                        "counting initialisation of %s disagrees with the "
                        "evaluated fixpoint" % pred
                    )
            self._components.append(
                _Component(state, frozenset(comp), base_preds, recursive)
            )

        # Persistent @old/@new alias relations for every predicate some
        # rule body reads: the objects *evolve* across updates (rather
        # than being rebuilt), so their cached indexes and (keyed)
        # complements are patched with each delta — negation-heavy
        # maintenance reuses them wholesale.  Head-only predicates (the
        # top of the dependency order, often the largest relations) feed
        # nothing, so they get no aliases and their changes are only
        # echoed into the changeset.
        read = set()
        for rule in program.rules:
            read |= rule.body_predicates()
        self._aliases: Dict[str, Relation] = {}
        for pred in sorted(read & program.predicates):
            if pred in program.idb_predicates:
                value = self._result.idb[pred]
            else:
                value = self._db.get(pred) or Relation.empty(pred, program.arity(pred))
            self._aliases[old_name(pred)] = value.with_name(old_name(pred))
            self._aliases[new_name(pred)] = value.with_name(new_name(pred))

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def apply(self, delta: Delta) -> ChangeSet:
        """Apply an EDB delta; return everything that changed.

        The delta may only touch the program's EDB relations; tuple
        arities are validated against the database schema before any
        state is modified.  The effective inverse is pushed onto the
        undo log (see :meth:`rollback`); a no-op delta (nothing
        effective against the current contents) changes nothing and
        pushes nothing.
        """
        return self._apply(delta, record_undo=True)

    def apply_many(self, deltas: Iterable[Delta]) -> ChangeSet:
        """Apply a batch of deltas in one maintenance pass.

        The deltas are folded with :meth:`Delta.compose
        <repro.materialize.delta.Delta.compose>` — sequentially
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
            composed = composed.compose(delta)
        return self._apply(composed, record_undo=True)

    def rollback(self, n: int = 1) -> ChangeSet:
        """Undo the last ``n`` applied updates (deltas or batches).

        The undo log stores the effective inverse of every *effective*
        applied update (no-op applies record nothing — see
        :attr:`undo_depth`); rolling back composes the last ``n`` in
        reverse order and applies the result through the ordinary
        maintenance path — one pass, however many updates unwind.
        Rolled-back entries are consumed (no redo).  Universes never
        shrink, so a rollback restores relation *contents*; it cannot
        trigger the universe-growth recompute.
        """
        if n <= 0:
            return ChangeSet()
        if n > len(self._undo):
            raise ValueError(
                "cannot roll back %d updates; undo log holds %d"
                % (n, len(self._undo))
            )
        composed = Delta.empty()
        for inverse in reversed(self._undo[-n:]):
            composed = composed.compose(inverse)
        changeset = self._apply(composed, record_undo=False)
        # Entries are consumed only once the rollback landed — same
        # exception contract as _apply's own bookkeeping.
        del self._undo[-n:]
        return changeset

    def _apply(self, delta: Delta, record_undo: bool) -> ChangeSet:
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

    def _apply_inner(self, delta: Delta, record_undo: bool) -> ChangeSet:
        self._validate(delta)
        effective = delta.normalize(self._db)
        if effective.is_empty():
            return ChangeSet()
        new_db = self._db.apply_delta(effective)
        growth = not (effective.values() <= self._db.universe)
        if self.semantics == "wellfounded":
            if growth:
                changeset = self._recompute_wellfounded(new_db, effective)
            else:
                changeset = self._maintain_wellfounded(new_db, effective)
        elif not self._maintainable or growth:
            changeset = self._recompute(new_db, effective)
        else:
            changeset = self._maintain(new_db, effective)
        # Book-keeping only after maintenance landed: if maintenance
        # raises, the view's db/result/undo log stay pre-update (the
        # wellfounded path additionally rebuilds its in-place-mutated
        # alternation state), so the log never records an update that
        # did not happen.
        self.applied += 1
        if record_undo:
            self._undo.append(effective.inverse())
            if self._undo_limit is not None and len(self._undo) > self._undo_limit:
                del self._undo[: len(self._undo) - self._undo_limit]
        return changeset

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

    # -- recomputation fallback ----------------------------------------

    def _recompute(self, new_db: Database, effective: Delta) -> ChangeSet:
        self.recomputes += 1
        old_idb = self.result.idb  # materialises any deferred changes first
        if self.semantics == "stratified":
            result: EvaluationResult = stratified_semantics(self.program, new_db)
        else:
            result = inflationary_semantics(self.program, new_db)
        changes: Dict[str, ChangePair] = {
            name: (effective.inserts(name), effective.deletes(name))
            for name in effective.relations()
        }
        for pred in self.program.idb_predicates:
            before, after = old_idb[pred], result.idb[pred]
            changes[pred] = (
                after.difference(before).tuples,
                before.difference(after).tuples,
            )
        self._db = new_db
        self._result = result
        if self._maintainable:
            self._build_maintenance()  # counts and aliases over the new state
        return ChangeSet.from_changes(changes)

    # -- the well-founded (three-valued) paths -------------------------

    def _wf_result(self, db: Database) -> WellFoundedResult:
        true, undefined = self._wf.pair.model()
        return WellFoundedResult(
            program=self.program,
            db=db,
            true=true,
            undefined=undefined,
            rounds=self._wf.rounds,
        )

    def _wf_publish(self, new_db: Database, moves: Moves, effective: Delta) -> ChangeSet:
        """Move the result by ``moves``; the EDB echo plus partition changes.

        True-partition changes are recorded under the predicate's own
        name; undefined-partition changes under ``pred@undef`` (the
        ``@`` marker keeps them out of any parseable predicate's way).
        The false partition is the complement of the other two over an
        unchanged atom space, so its changes are implied.
        """
        old = self._result
        parts = []
        changes: Dict[str, ChangePair] = dict(effective.items())
        for key_of, before, (entered, left) in (
            (str, old.true, moves[0]),
            (undef_name, old.undefined, moves[1]),
        ):
            moved: Dict[str, Tuple[set, set]] = {}
            for pred, values in entered:
                moved.setdefault(key_of(pred), (set(), set()))[0].add(values)
            for pred, values in left:
                moved.setdefault(key_of(pred), (set(), set()))[1].add(values)
            for key, (ins, dels) in moved.items():
                changes[key] = (frozenset(ins), frozenset(dels))
            parts.append(before.difference(left).union(entered) if moved else before)
        self._db = new_db
        self._result = WellFoundedResult(
            program=self.program,
            db=new_db,
            true=parts[0],
            undefined=parts[1],
            rounds=self._wf.rounds,
        )
        return ChangeSet.from_changes(changes)

    def _ensure_wf(self) -> AlternatingState:
        """The alternating state, rebuilt lazily after an invalidation.

        ``_wf`` is set to ``None`` when an exception escaped mid-patch;
        the rebuild happens here, on the next update, rather than inside
        the exception handler — an interrupt must surface immediately,
        and a rebuild that itself dies must not leave the half-patched
        state behind (``None`` stays ``None`` until a rebuild finishes).
        """
        if self._wf is None:
            self._wf = AlternatingState(self.program, self._db)
        return self._wf

    def _maintain_wellfounded(self, new_db: Database, effective: Delta) -> ChangeSet:
        wf = self._ensure_wf()
        try:
            moves = wf.apply(new_db, dict(effective.items()))
        except BaseException:
            # The pair and the grounding mutate in place (aliases,
            # instance counts, index, flags, counters); an exception
            # mid-patch — even an interrupt — must not leave a
            # half-patched state serving wrong models behind an
            # unchanged view façade.  Invalidate it (lazy rebuild on next
            # use) and let the error surface.
            self._wf = None
            raise
        return self._wf_publish(new_db, moves, effective)

    def _recompute_wellfounded(self, new_db: Database, effective: Delta) -> ChangeSet:
        self.recomputes += 1
        old = self._result
        self._wf = AlternatingState(self.program, new_db)
        true, undefined = self._wf.pair.model()
        moves = (
            (true - old.true, old.true - true),
            (undefined - old.undefined, old.undefined - undefined),
        )
        return self._wf_publish(new_db, moves, effective)

    # -- the incremental path ------------------------------------------

    def _maintain(self, new_db: Database, effective: Delta) -> ChangeSet:
        # Every change is carried as an ``(inserted, deleted)`` pair of
        # relations and every working interpretation is derived from
        # ``new_db`` — one symbol table for the view's whole life, so the
        # code payloads cached on its relations stay valid.
        inserted: Dict[str, FrozenSet[Tup]] = {}
        deleted: Dict[str, FrozenSet[Tup]] = {}
        change_rels: Dict[str, Relation] = {}

        def publish(name: str, ins: Relation, dels: Relation) -> None:
            """Record a change and refresh the @new/@ins/@del aliases.

            The changeset is where changed tuples are decoded — once:
            the @ins/@del aliases renamed afterwards share the decoded
            set with it (row-form variants read it).  Relations the
            program never reads (deltas on them are legal) have no
            aliases and need none — the change is echoed only.
            """
            inserted[name] = ins.tuples
            deleted[name] = dels.tuples
            key = new_name(name)
            if key not in self._aliases:
                return
            self._aliases[key] = self._aliases[key].evolve(ins, dels)
            change_rels[ins_name(name)] = ins.with_name(ins_name(name))
            change_rels[del_name(name)] = dels.with_name(del_name(name))

        for name in effective.relations():
            arity = new_db[name].arity
            publish(
                name,
                Relation._from_frozenset(name, arity, effective.inserts(name)),
                Relation._from_frozenset(name, arity, effective.deletes(name)),
            )

        idb = dict(self._result.idb)
        for component in self._components:
            changed_below = frozenset(
                n for n in inserted if inserted[n] or deleted[n]
            )
            if not (component.base_preds & changed_below):
                continue
            with TRACER.span("maint.component") as sp:
                row_traffic = RECORDER.row_traffic() if sp else None
                if sp:
                    sp["preds"] = ", ".join(sorted(component.preds))
                    sp["backend"] = (
                        "dred" if component.recursive else "counting"
                    )
                if component.recursive:
                    current = {p: idb[p] for p in component.preds}
                    base_changes = {
                        n: (inserted[n], deleted[n])
                        for n in component.base_preds & changed_below
                    }
                    aliases = dict(self._aliases)
                    aliases.update(change_rels)
                    final, comp_changes = component.state.apply(
                        current, aliases, base_changes, new_db
                    )
                    moved = 0
                    for pred, (ins, dels) in comp_changes.items():
                        idb[pred] = final[pred]
                        if ins or dels:
                            moved += len(ins) + len(dels)
                            publish(pred, ins, dels)
                else:
                    interp = new_db.derive(
                        list(self._aliases.values()) + list(change_rels.values())
                    )
                    ins, dels = component.state.apply(interp, changed_below)
                    moved = len(ins) + len(dels)
                    if moved:
                        pred = component.state.pred
                        if new_name(pred) in self._aliases:
                            idb[pred] = idb[pred].evolve(ins, dels)
                        else:
                            # Head-only predicate: nothing reads its relation
                            # during maintenance (the counting state is the
                            # authority), so defer the — possibly huge —
                            # relation rebuild until ``result`` is read.
                            self._defer(pred, ins.tuples, dels.tuples)
                        publish(pred, ins, dels)
                if sp:
                    sp["rows_out"] = moved
                    RECORDER.note_row_traffic(sp, row_traffic)

        # The next update's pre-change state is this update's post-change
        # state: catch the @old aliases up by the same deltas.
        for name in inserted:
            key = old_name(name)
            if key in self._aliases:
                self._aliases[key] = self._aliases[key].evolve(
                    change_rels[ins_name(name)], change_rels[del_name(name)]
                )

        self._db = new_db
        self._result = self._with_idb(new_db, idb)
        return ChangeSet(inserted, deleted)

    def _defer(self, pred: str, ins: FrozenSet[Tup], dels: FrozenSet[Tup]) -> None:
        """Queue a head-only predicate's change for lazy materialisation.

        Changes compose sequentially (``Delta.then`` algebra), so the
        stored relation plus the pending pair always equals the true
        current value the counting state maintains.
        """
        old_ins, old_dels = self._pending.get(pred, (frozenset(), frozenset()))
        self._pending[pred] = (
            (old_ins - dels) | ins,
            (old_dels - ins) | dels,
        )

    def _with_idb(self, db: Database, idb) -> EvaluationResult:
        """The previous result object carried over to the new state."""
        old = self._result
        if isinstance(old, StratifiedResult):
            return StratifiedResult(
                program=old.program,
                db=db,
                idb=idb,
                rounds=old.rounds,
                engine=old.engine,
                trace=None,
                strata=old.strata,
            )
        return EvaluationResult(
            program=old.program,
            db=db,
            idb=idb,
            rounds=old.rounds,
            engine=old.engine,
            trace=None,
        )
