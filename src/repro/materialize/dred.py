"""Delete/Rederive (DRed) maintenance for recursive components.

Counting does not extend to recursion (a recursive tuple can support
itself through a cycle of derivations), so recursive strongly connected
components are maintained with Gupta–Mumick–Subrahmanian's DRed:

1. **Over-delete** — transitively delete every tuple with *some*
   derivation that used a retracted input: seeds come from the delta
   variants of the base changes (a positive lower literal that lost
   tuples, or a negated lower literal whose predicate *gained* tuples —
   the non-monotone flip the paper's semantics forces us to respect),
   then deletions propagate through the component's own positive
   recursion semi-naively.  Every over-deletion variant reads the *old*
   state away from the differentiated position: the derivations being
   invalidated existed before the change.
2. **Rederive** — over-deletion removes a superset of the truly dead
   tuples, so the survivors are a *sound under-approximation* of the new
   fixpoint; restarting the semi-naive least-fixpoint iteration from
   them (against the post-change inputs) converges to exactly the new
   fixpoint.  Round 1 is the textbook step: every rule with its head
   restricted to the over-deleted set (one extra small atom
   ``P@dred_over(head args)`` the planner leads with), unioned with the
   insertion delta variants of the base changes.  That is all round 1
   can derive: an instance over the survivors that uses no gained base
   fact was already an instance in the old state, so its head was in the
   old fixpoint — outside the survivors it is over-deleted.  A delete
   therefore costs ``O(|over-deleted| * fan-out)``, not a full
   consequence application; on a pure-insertion update nothing is
   over-deleted and only the insertion variants run.

All working state — the over-deleted set, both frontiers, the survivors
and the per-round deltas — is held as :class:`~repro.db.relation
.Relation` values combined with ``intersection``/``difference``/
``union``, so on a view whose relations are code-backed a maintenance
pass never builds a Python tuple (see :mod:`repro.db.relation` for the
one mixed-representation rule).  Every working interpretation is
*derived* from the view's current database
(:meth:`~repro.db.database.Database.derive`) and so shares its one
symbol table: code payloads cached on the relations stay valid from
update to update.

Within a component, negation only ever reads *lower* predicates — for
stratified views by stratification, for inflationary views because the
maintainable (semipositive) fragment negates EDB only.  That is the
algorithmic face of the stratum-by-stratum fixed-point structure the
paper's non-monotone operators demand: each component's operator is
monotone once the layers below it are frozen, so a least-fixpoint
restart from a sound under-approximation is exact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..core.literals import Atom, Negation
from ..core.planning import RulePlan, compile_rule
from ..core.planning.batch import execute_plan
from ..core.rules import Rule
from ..db.database import Database
from ..db.relation import Relation
from ..obs import TRACER
from .deltavariants import NEW, OLD, del_name, ins_name

IDBValues = Dict[str, Relation]
ChangePair = Tuple[Relation, Relation]

DELETE_FRONTIER = "@dred_del"
INSERT_FRONTIER = "@dred_new"
OVER_DELETED = "@dred_over"
"""Alias suffixes for the component's own predicates: the two semi-naive
frontiers and the over-deleted set rederivation is restricted to."""


class RecursiveState:
    """DRed maintenance for one recursive component.

    Parameters
    ----------
    preds:
        The component's predicates with their arities.
    rules:
        Every rule whose head is in the component.  Positive body atoms
        may read the component itself; negated atoms never do
        (stratification / semipositivity).
    small:
        The view's small predicates (change sets and frontiers), the
        planner's hint.
    """

    __slots__ = ("preds", "rules", "small", "_variant_plans", "_nothing")

    def __init__(
        self, preds: Dict[str, int], rules: List[Rule], small: FrozenSet[str]
    ) -> None:
        self.preds = dict(preds)
        self.rules = rules
        self.small = small
        self._variant_plans: Dict[tuple, RulePlan] = {}
        self._nothing = {p: Relation.empty(p, arity) for p, arity in preds.items()}

    # ------------------------------------------------------------------
    # Variant construction
    # ------------------------------------------------------------------

    def _read(self, literal, suffix: str):
        """A literal reading base predicates under ``@old``/``@new``.

        Component predicates keep their plain names — they are bound to
        the evolving working values by the caller.
        """
        if isinstance(literal, Atom):
            if literal.pred in self.preds:
                return literal
            return Atom(literal.pred + suffix, literal.args)
        if isinstance(literal, Negation):
            atom = literal.atom
            assert atom.pred not in self.preds, (
                "negation inside a recursive component: !%s" % atom.pred
            )
            return Negation(Atom(atom.pred + suffix, atom.args))
        return literal

    def _variant(self, rule: Rule, position, pred_alias: str, suffix: str) -> Rule:
        """``rule`` with ``position`` reading ``pred_alias`` and the rest
        reading base predicates under ``suffix``.

        ``position=None`` differentiates nothing: it is the rederivation
        variant, the whole body under ``suffix`` plus a leading
        ``pred_alias(head args)`` atom restricting the head.
        """
        if position is None:
            body = [Atom(pred_alias, rule.head.args)]
            body += [self._read(lit, suffix) for lit in rule.body]
            return Rule(rule.head, body)
        lit = rule.body[position]
        atom = lit if isinstance(lit, Atom) else lit.atom
        body = [
            Atom(pred_alias, atom.args) if j == position else self._read(other, suffix)
            for j, other in enumerate(rule.body)
        ]
        return Rule(rule.head, body)

    def _comp_positions(self, rule: Rule) -> List[int]:
        """Positive body positions reading a component predicate."""
        return [
            i
            for i, lit in enumerate(rule.body)
            if isinstance(lit, Atom) and lit.pred in self.preds
        ]

    def _base_flips(self, rule: Rule, base_changes, killing: bool):
        """``(position, flip alias)`` pairs for base-level changes.

        ``killing=True`` yields the flips that can invalidate a
        derivation (positive literal lost tuples / negated literal's
        predicate gained them); ``killing=False`` the flips that can
        create one.
        """
        out = []
        for i, lit in enumerate(rule.body):
            if isinstance(lit, Atom) and lit.pred not in self.preds:
                change = base_changes.get(lit.pred)
                if change is None:
                    continue
                ins, dels = change
                if killing and dels:
                    out.append((i, del_name(lit.pred)))
                elif not killing and ins:
                    out.append((i, ins_name(lit.pred)))
            elif isinstance(lit, Negation):
                change = base_changes.get(lit.atom.pred)
                if change is None:
                    continue
                ins, dels = change
                if killing and ins:
                    out.append((i, ins_name(lit.atom.pred)))
                elif not killing and dels:
                    out.append((i, del_name(lit.atom.pred)))
        return out

    def _derive(
        self, interp: Database, rule: Rule, position, pred_alias: str, suffix: str
    ) -> Relation:
        """What the :meth:`_variant` of ``rule`` derives from ``interp``.

        A component's variants are a fixed finite family; their plans are
        memoised per ``(rule, position, alias, suffix)`` so an update
        neither rebuilds nor re-hashes a rule to find its plan.
        """
        key = (id(rule), position, pred_alias, suffix)
        plan = self._variant_plans.get(key)
        if plan is None:
            plan = self._variant_plans[key] = compile_rule(
                self._variant(rule, position, pred_alias, suffix), self.small
            )
        return execute_plan(plan, interp)

    def _empty(self) -> IDBValues:
        """A fresh all-empty valuation (the immutable empties are shared)."""
        return dict(self._nothing)

    # ------------------------------------------------------------------
    # Phase 1: over-delete
    # ------------------------------------------------------------------

    def _over_delete(
        self,
        current: IDBValues,
        aliases: IDBValues,
        base_changes,
        db: Database,
        limit: int,
    ) -> IDBValues:
        """Tuples with some old derivation through a retracted input."""
        deleted = self._empty()
        relations: Dict[str, Relation] = dict(aliases)
        relations.update(current)

        # Seeds: base-level killing flips, evaluated in the old state.
        interp = db.derive(relations.values())
        frontier = self._empty()
        for rule in self.rules:
            head = rule.head.pred
            for position, flip in self._base_flips(rule, base_changes, killing=True):
                hits = self._derive(interp, rule, position, flip, OLD).intersection(
                    current[head]
                )
                frontier[head] = frontier[head].union(hits)

        # Propagate deletions through the component's positive recursion:
        # each round differentiates one component position with the
        # newly deleted tuples, everything else still reading old values.
        rounds = 0
        while any(frontier.values()):
            deleted = {p: deleted[p].union(frontier[p]) for p in self.preds}
            rounds += 1
            if rounds > limit:
                raise AssertionError("DRed over-deletion exceeded its bound %d" % limit)
            for pred in self.preds:
                name = pred + DELETE_FRONTIER
                relations[name] = frontier[pred].with_name(name)
            interp = db.derive(relations.values())
            next_frontier = self._empty()
            for rule in self.rules:
                head = rule.head.pred
                for i in self._comp_positions(rule):
                    if not frontier[rule.body[i].pred]:
                        continue
                    moved = rule.body[i].pred + DELETE_FRONTIER
                    hits = (
                        self._derive(interp, rule, i, moved, OLD)
                        .intersection(current[head])
                        .difference(deleted[head])
                    )
                    next_frontier[head] = next_frontier[head].union(hits)
            frontier = next_frontier
        return deleted

    # ------------------------------------------------------------------
    # Phase 2 + 3: rederive from the survivors, semi-naively
    # ------------------------------------------------------------------

    def _refixpoint(
        self,
        surviving: IDBValues,
        over: IDBValues,
        aliases: IDBValues,
        base_changes,
        db: Database,
        limit: int,
    ) -> Tuple[IDBValues, IDBValues]:
        """The least fixpoint containing ``surviving`` over the new inputs.

        Returns ``(fixpoint, gained)`` — ``gained`` is what the iteration
        added to ``surviving``.
        """
        current = dict(surviving)
        gained = self._empty()

        def interp_with(extra: List[Relation]) -> Database:
            merged = dict(aliases)
            merged.update(current)
            merged.update({r.name: r for r in extra})
            return db.derive(merged.values())

        # Round 1 (see the module docstring): over-deleted heads with a
        # derivation from the survivors, plus the gained delta variants,
        # prefix and suffix both reading the new state (sound for set
        # semantics; anything already known is subtracted).
        interp = interp_with(
            [over[p].with_name(p + OVER_DELETED) for p in self.preds]
        )
        derived = self._empty()
        for rule in self.rules:
            head = rule.head.pred
            if over[head]:
                derived[head] = derived[head].union(
                    self._derive(interp, rule, None, head + OVER_DELETED, NEW)
                )
        for rule in self.rules:
            head = rule.head.pred
            for position, flip in self._base_flips(rule, base_changes, killing=False):
                derived[head] = derived[head].union(
                    self._derive(interp, rule, position, flip, NEW)
                )
        delta = {p: derived[p].difference(current[p]) for p in self.preds}

        rounds = 0
        while any(delta.values()):
            rounds += 1
            if rounds > limit:
                raise AssertionError("DRed rederivation exceeded its bound %d" % limit)
            current = {p: current[p].union(delta[p]) for p in self.preds}
            gained = {p: gained[p].union(delta[p]) for p in self.preds}
            interp = interp_with(
                [delta[p].with_name(p + INSERT_FRONTIER) for p in self.preds]
            )
            derived = self._empty()
            for rule in self.rules:
                head = rule.head.pred
                for i in self._comp_positions(rule):
                    if not delta[rule.body[i].pred]:
                        continue
                    moved = rule.body[i].pred + INSERT_FRONTIER
                    derived[head] = derived[head].union(
                        self._derive(interp, rule, i, moved, NEW)
                    )
            delta = {p: derived[p].difference(current[p]) for p in self.preds}
        return current, gained

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def apply(
        self,
        current: IDBValues,
        aliases: IDBValues,
        base_changes,
        db: Database,
    ) -> Tuple[IDBValues, Dict[str, ChangePair]]:
        """Maintain the component; return ``(new values, per-pred changes)``.

        ``current`` maps the component's predicates (plain names) to
        their pre-change values; ``aliases`` supplies ``P@old``,
        ``P@new``, ``P@ins`` and ``P@del`` relations for every base
        predicate the rules read; ``base_changes`` the effective
        ``(inserts, deletes)`` per changed base predicate (only their
        emptiness is read); ``db`` is the view's post-change database,
        which every working interpretation is derived from.  The
        returned changes are ``(inserted, deleted)`` relations.
        """
        n = len(db.universe)
        limit = sum(n ** a for a in self.preds.values()) + 1

        killing = any(
            self._base_flips(rule, base_changes, killing=True)
            for rule in self.rules
        )
        if killing:
            with TRACER.span("dred.overdelete") as sp:
                over = self._over_delete(current, aliases, base_changes, db, limit)
                if sp:
                    sp["rows_out"] = sum(len(r) for r in over.values())
        else:
            over = self._empty()
        surviving = {p: current[p].difference(over[p]) for p in self.preds}
        with TRACER.span("dred.rederive") as sp:
            final, gained = self._refixpoint(
                surviving, over, aliases, base_changes, db, limit
            )
            if sp:
                sp["rows_out"] = sum(len(r) for r in final.values())
        # final = (current - over) | gained with gained disjoint from the
        # survivors, so the net change is two delta-sized differences.
        changes = {
            p: (gained[p].difference(over[p]), over[p].difference(gained[p]))
            for p in self.preds
        }
        return final, changes
