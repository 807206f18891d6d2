"""Delete/Rederive (DRed) maintenance for recursive components.

Counting does not extend to recursion (a recursive tuple can support
itself through a cycle of derivations), so recursive strongly connected
components are maintained with Gupta–Mumick–Subrahmanian's DRed.  Both
of its phases are least fixpoints of positive programs over alias
predicates (:mod:`repro.materialize.deltavariants`), built once per
component and run by the engines' own loop,
:func:`~repro.core.fixpoint.iterate`:

1. **Over-delete** — the program over ``P@dred_over``: every tuple with
   *some* old derivation through a retracted input.  Its seed rules are
   the component's rules with one base literal reading its *killing*
   change set (a positive literal's ``P@del``, a negated literal's
   ``P@ins`` — the non-monotone flip the paper's semantics forces us to
   respect); its propagation rules read one component atom as
   ``Q@dred_over``, which :func:`~repro.core.fixpoint.differential_plans`
   differentiates.  Everything else reads the old state: the
   derivations being invalidated existed before the change, so every
   head is already in the view.
2. **Rederive** — over-deletion removes a superset of the truly dead
   tuples, so the survivors are a *sound under-approximation* of the new
   fixpoint, and the least fixpoint of a monotone operator is reached
   from any such start (Section 2): the component's own rules, over its
   inputs' post-change values, are iterated from the survivors; the
   final stage is the component's new value, and the view's aliases name
   it rather than copying it.  Round 1 runs every rule with its
   head restricted to the over-deleted set (a leading ``P@dred_over(head
   args)`` atom), plus the *gaining* flips.  That is all round 1 can
   derive: an instance over the survivors that uses no gained base fact
   was an old instance, so its head was in the old fixpoint — outside
   the survivors it is over-deleted.  A delete therefore costs
   ``O(|over-deleted| * fan-out)``; a pure insertion runs only the
   gaining flips.

A flip reads every other base literal under *one* state
(:func:`~repro.materialize.deltavariants.flip_variant`).  The telescoping
:func:`~repro.materialize.deltavariants.delta_variant` mixes the two and
is exact only for signed counts: a killing variant reading a gained
tuple would over-delete a head the old fixpoint never held.  A flip
runs only when the update staged its change set non-empty, and the net
change comes from what the rederivation *added*, never from diffing
whole relations.  Every working interpretation is derived from the
view's database and shares its symbol table, so the over-deleted set,
the survivors and each round's delta stay code-backed relations.

Within a component, negation only ever reads *lower* predicates — for
stratified views by stratification, for inflationary views because the
maintainable (semipositive) fragment negates EDB only.  That is the
algorithmic face of the stratum-by-stratum fixed-point structure the
paper's non-monotone operators demand: each component's operator is
monotone once the layers below it are frozen, so a least-fixpoint
restart from a sound under-approximation is exact.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, List, Tuple

from ..core.fixpoint import differential_plans, iterate
from ..core.literals import Atom, Negation
from ..core.operator import empty_idb
from ..core.planning import compile_rule
from ..core.program import Program
from ..core.rules import Rule
from ..db.database import Database
from ..db.relation import Relation
from ..obs import TRACER
from .deltavariants import flip_variant, read_old

IDBValues = Dict[str, Relation]
ChangePair = Tuple[Relation, Relation]

OVER_DELETED = "@dred_over"
"""Alias suffix of a component predicate's over-deleted set."""


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
        The view's change-set aliases (``P@ins`` / ``P@del``), the
        planner's hint; the over-deleted sets are added to it.
    """

    __slots__ = (
        "preds", "_kill", "_gain", "_over", "_over_plans", "_no_over",
        "_rederive", "_rederive_plans", "_restricted",
    )

    def __init__(
        self, preds: Dict[str, int], rules: List[Rule], small: FrozenSet[str]
    ) -> None:
        self.preds = comp = frozenset(preds)
        small = small | {p + OVER_DELETED for p in comp}
        kill, gain, propagate = [], [], []
        for rule in rules:
            over_head = Atom(rule.head.pred + OVER_DELETED, rule.head.args)
            for i, lit in enumerate(rule.body):
                if isinstance(lit, Atom) and lit.pred in comp:
                    body = [read_old(other, comp) for other in rule.body]
                    body[i] = Atom(lit.pred + OVER_DELETED, lit.args)
                    propagate.append(Rule(over_head, body))
                elif isinstance(lit, (Atom, Negation)):
                    assert isinstance(lit, Atom) or lit.atom.pred not in comp, (
                        "negation inside a recursive component: %s" % lit
                    )
                    dead = flip_variant(rule, i, False, comp)
                    born = flip_variant(rule, i, True, comp)
                    kill.append((dead.body[i].pred, Rule(over_head, dead.body)))
                    gain.append((born.body[i].pred, born))
        # (change-set alias, plan): a flip runs only when its alias is staged.
        self._kill = [(a, compile_rule(r, small)) for a, r in kill]
        self._gain = [(a, compile_rule(r, small)) for a, r in gain]
        self._over = Program(propagate)
        _, self._over_plans = differential_plans(self._over)
        self._no_over = empty_idb(self._over)
        self._rederive = Program(rules)
        _, self._rederive_plans = differential_plans(self._rederive)
        self._restricted = []
        for r in rules:
            name = r.head.pred + OVER_DELETED
            restricted = Rule(r.head, (Atom(name, r.head.args),) + tuple(r.body))
            self._restricted.append((name, compile_rule(restricted, small)))

    def apply(
        self, aliases: IDBValues, db: Database
    ) -> Tuple[Dict[str, ChangePair], IDBValues]:
        """Maintain the component; return its ``(inserted, deleted)`` per
        pred and its new value.

        ``aliases`` supplies, for every predicate the rules read, its
        current value under its plain name — post-change for the inputs
        below, pre-change for the component itself — and ``P@old``, and
        the ``P@ins`` / ``P@del`` change sets this update staged: a flip
        runs only where its change set is non-empty.  ``db`` is the
        view's post-change database, which every working interpretation
        is derived from.  The changes and values are relations.
        """
        current = {p: aliases[p] for p in self.preds}
        kill = [plan for alias, plan in self._kill if aliases.get(alias)]
        over = self._no_over
        if kill:
            with TRACER.span("dred.overdelete") as sp:
                old = db.derive(aliases.values())
                over = iterate(
                    self._over, old, self._over_plans, kill, engine="dred.overdelete"
                ).idb
                if sp:
                    sp["rows_out"] = sum(len(r) for r in over.values())
        survivors = {p: current[p].difference(over[p + OVER_DELETED]) for p in current}
        seed = [plan for name, plan in self._restricted if over[name]]
        seed += [plan for alias, plan in self._gain if aliases.get(alias)]
        with TRACER.span("dred.rederive") as sp:
            new = db.derive(chain(aliases.values(), over.values()))
            final = iterate(
                self._rederive, new, self._rederive_plans, seed,
                engine="dred.rederive", start=survivors,
            )
            added = final.added
            if sp:
                sp["rows_out"] = sum(len(r) for r in added.values())
        # new = survivors | added with added disjoint from the survivors,
        # so the net change is two delta-sized differences.
        changes = {}
        for p in current:
            gone = over[p + OVER_DELETED]
            changes[p] = (added[p].difference(gone), gone.difference(added[p]))
        return changes, final.idb
