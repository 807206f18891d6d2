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

Growth of the universe is a delta too.  Every maintained rule is
range-restricted (:func:`~repro.core.planning.range_restricted`): a
completion variable joins the universe relation ``@U``.  An inserted
tuple that mentions a never-seen value is therefore also an insertion
into ``@U``, handed to the counting, DRed and grounding maintainers
beside the EDB changes and differentiated like any of them; it never
appears in a :class:`ChangeSet`.

One case falls back to honest recomputation (still through the view
API, still producing a changeset): **inflationary views of
non-semipositive programs**.  ``Theta^infinity`` is defined by its
iteration history, not by any fixpoint equation (Section 4's warning:
the limit need not be a fixpoint at all), so there is nothing
stratum-shaped to maintain.  Semipositive programs induce a monotone
operator, for which the inflationary semantics *is* the least fixpoint,
and those are maintained exactly like a one-layer stratified program.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from ..analysis.dependency import DependencyGraph
from ..core.operator import as_interpretation
from ..core.planning import range_restricted
from ..core.program import Program
from ..core.semantics.base import EvaluationResult, is_semipositive
from ..core.semantics.inflationary import inflationary_semantics
from ..core.semantics.stratified import StratifiedResult, stratified_semantics
from ..core.semantics.wellfounded import WellFoundedResult
from ..db.database import UNIVERSE, Database
from ..db.relation import Relation
from ..obs import RECORDER, TRACER
from .counting import CountingState
from .delta import Delta, Tup
from .deltavariants import AliasSet, del_name, ins_name
from .dred import DELETE_FRONTIER, INSERT_FRONTIER, OVER_DELETED, RecursiveState
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
            self._result = WellFoundedResult(
                program=program, db=db, rounds=self._wf.rounds, pair=self._wf.pair
            )
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
        rules = [range_restricted(r) for r in program.rules]
        small = set()
        for pred in program.predicates | {UNIVERSE}:
            small.add(ins_name(pred))
            small.add(del_name(pred))
            small.add(pred + DELETE_FRONTIER)
            small.add(pred + INSERT_FRONTIER)
            small.add(pred + OVER_DELETED)
        small = frozenset(small)

        graph = DependencyGraph(program)
        self._components: List[_Component] = []
        interp = as_interpretation(program, self._db, self._result.idb)
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
                if state.counts.keys() != self._result.idb[pred].tuples:
                    raise AssertionError(
                        "counting initialisation of %s disagrees with the "
                        "evaluated fixpoint" % pred
                    )
            self._components.append(
                _Component(state, frozenset(comp), base_preds, recursive)
            )

        # Persistent @old/@new alias relations for every predicate some
        # rule body reads (an AliasSet evolves them, so their cached code
        # payloads are patched with each delta).  Head-only predicates
        # (the top of the dependency order, often the largest relations)
        # feed nothing, so they get no aliases and their changes are only
        # echoed into the changeset.
        read = set()
        for rule in rules:
            read |= rule.body_predicates()
        values = []
        for pred in sorted(read & (program.predicates | {UNIVERSE})):
            if pred in program.idb_predicates:
                value = self._result.idb[pred]
            else:
                value = self._db.get(pred)
                if value is None:
                    value = Relation.empty(pred, program.arity(pred))
            values.append(value)
        self._aliases = AliasSet(values)

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
        shrink, so a rollback restores relation *contents*.
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
        changes: Dict[str, ChangePair] = dict(effective.items())
        fresh = effective.values() - self._db.universe
        if fresh:
            changes[UNIVERSE] = (frozenset((v,) for v in fresh), frozenset())
        if self.semantics == "wellfounded":
            changeset = self._maintain_wellfounded(new_db, effective, changes)
        elif not self._maintainable:
            changeset = self._recompute(new_db, effective)
        else:
            changeset = self._maintain(new_db, changes)
        # Book-keeping only after maintenance landed: if maintenance
        # raises, the view's db/result/undo log stay pre-update (and the
        # in-place-mutated maintenance state is rebuilt on the next
        # update), so the log never records an update that did not
        # happen.
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

    # -- recomputation fallback ----------------------------------------

    def _recompute(self, new_db: Database, effective: Delta) -> ChangeSet:
        """Re-evaluate from scratch: only inflationary views of
        non-semipositive programs get here."""
        self.recomputes += 1
        old_idb = self.result.idb  # materialises any deferred changes first
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
        return ChangeSet.from_changes(changes)

    # -- the well-founded (three-valued) paths -------------------------

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

    def _maintain_wellfounded(
        self, new_db: Database, effective: Delta, changes: Dict[str, ChangePair]
    ) -> ChangeSet:
        wf = self._ensure_wf()
        try:
            moves = wf.apply(new_db, changes)
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

    # -- the incremental path ------------------------------------------

    def _maintain(self, new_db: Database, changes: Dict[str, ChangePair]) -> ChangeSet:
        if self._components is None:
            self.result  # the rebuild reads ``_result``: fold deferred changes in
            self._build_maintenance()
        try:
            return self._propagate(new_db, changes)
        except BaseException:
            # The counting / DRed states and the aliases mutate in place;
            # as on the well-founded path, an exception mid-propagation
            # drops them (rebuilt from the unchanged db and result on the
            # next update) and surfaces.
            self._components = None
            raise

    def _propagate(self, new_db: Database, changes: Dict[str, ChangePair]) -> ChangeSet:
        # Every change is carried as an ``(inserted, deleted)`` pair of
        # relations and every working interpretation is derived from
        # ``new_db`` — one symbol table for the view's whole life, so the
        # code payloads cached on its relations stay valid.
        inserted: Dict[str, FrozenSet[Tup]] = {}
        deleted: Dict[str, FrozenSet[Tup]] = {}
        deferred: List[Tuple[str, Relation, Relation]] = []
        aliases = self._aliases

        def publish(name: str, ins: Relation, dels: Relation) -> None:
            """Record a change in the changeset and stage it on the aliases.

            The changeset is where changed tuples are decoded — once:
            the @ins/@del aliases renamed afterwards share the decoded
            set with it.
            """
            inserted[name] = ins.tuples
            deleted[name] = dels.tuples
            aliases.stage(name, ins, dels)

        for name, (ins, dels) in changes.items():
            inserted[name], deleted[name] = ins, dels
            aliases.stage(name, ins, dels)

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
                    final, comp_changes = component.state.apply(
                        current, aliases.working(), base_changes, new_db
                    )
                    moved = 0
                    for pred, (ins, dels) in comp_changes.items():
                        idb[pred] = final[pred]
                        if ins or dels:
                            moved += len(ins) + len(dels)
                            publish(pred, ins, dels)
                else:
                    state = component.state
                    ins, dels = state.apply(aliases.derive(new_db), changed_below)
                    moved = len(ins) + len(dels)
                    if moved:
                        pred = state.pred
                        ins = Relation._from_frozenset(pred, state.arity, frozenset(ins))
                        dels = Relation._from_frozenset(pred, state.arity, frozenset(dels))
                        if pred in aliases:
                            idb[pred] = idb[pred].evolve(ins, dels)
                        else:
                            # Head-only predicate: nothing reads its relation
                            # during maintenance (the counting state is the
                            # authority), so defer the — possibly huge —
                            # relation rebuild until ``result`` is read.
                            deferred.append((pred, ins, dels))
                        publish(pred, ins, dels)
                if sp:
                    sp["rows_out"] = moved
                    RECORDER.note_row_traffic(sp, row_traffic)

        aliases.catch_up()
        for pred, ins, dels in deferred:
            self._defer(pred, ins.tuples, dels.tuples)
        self._db = new_db
        self._result = self._with_idb(new_db, idb)
        inserted.pop(UNIVERSE, None)  # the engine's own relation: never echoed
        deleted.pop(UNIVERSE, None)
        return ChangeSet(inserted, deleted)

    def _defer(self, pred: str, ins: FrozenSet[Tup], dels: FrozenSet[Tup]) -> None:
        """Queue a head-only predicate's change for lazy materialisation.

        Changes compose sequentially (``Delta.then`` algebra), so the
        stored relation plus the pending pair always equals the true
        current value the counting state maintains.  The pair is patched
        in place: an update costs its own change, not the backlog's.
        """
        pending_ins, pending_dels = self._pending.setdefault(pred, (set(), set()))
        pending_ins -= dels
        pending_ins |= ins
        pending_dels -= ins
        pending_dels |= dels

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
