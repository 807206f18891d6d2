"""Counting-based maintenance for non-recursive predicates.

The classical counting algorithm (Gupta–Mumick–Subrahmanian): for a
predicate defined without recursion, keep for every derivable tuple the
*number of derivations* — pairs of a rule and a total assignment of the
rule's variables satisfying its body.  A change to the inputs then
maintains the counts exactly:

* derivations gained/lost are enumerated by the telescoping delta
  variants of :mod:`repro.materialize.variants`, each evaluated under a
  *total-binding* pseudo-head so the batch executor cannot collapse
  multiplicities with an existence-only projection;
* a tuple enters the view when its count rises from zero and leaves it
  when its count returns to zero — no over-deletion, no rederivation.

Counts are exact for negation too (through lower strata): a negated
literal is differentiated via the complement, so ``!P`` contributes a
gained derivation where ``P`` lost a tuple and vice versa.  What
counting cannot absorb is a change of the *universe* — every completion
variable quantifies over it, so universe growth multiplies derivation
spaces behind the literals' backs; the view layer detects that and
recomputes instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Tuple

from ..core.planning.batch import solve_plan_table
from ..core.rules import Rule
from ..db.database import Database
from ..db.relation import Relation
from ..obs import TRACER
from .delta import Tup
from .variants import (
    PlanCache,
    changeable_positions,
    delta_variant,
    head_projector,
    with_bindings_head,
)

Counts = Dict[Tup, int]


class CountingState:
    """Derivation counts for one non-recursively defined predicate.

    Parameters
    ----------
    pred, arity:
        The maintained predicate.
    rules:
        Its rules (every body predicate is EDB or strictly earlier in
        the maintenance order — never ``pred`` itself).
    plans:
        The shared :class:`~repro.materialize.variants.PlanCache`.
    """

    __slots__ = ("pred", "arity", "rules", "plans", "counts", "_variants", "_compiled_variants")

    def __init__(self, pred: str, arity: int, rules: List[Rule], plans: PlanCache) -> None:
        self.pred = pred
        self.arity = arity
        self.rules = rules
        self.plans = plans
        self.counts: Counts = {}
        # The telescoping variants are a fixed family per state: built
        # (and, on first use, compiled) once, not per update.
        self._variants: List[Tuple[str, Rule, Rule]] = [
            (
                pred,
                delta_variant(rule, position, gained=True),
                delta_variant(rule, position, gained=False),
            )
            for rule in rules
            for pred in sorted(rule.body_predicates())
            for position in changeable_positions(rule, frozenset((pred,)))
        ]
        self._compiled_variants: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Shared: count one plan's derivations into an accumulator
    # ------------------------------------------------------------------

    def _accumulate(self, variant: Rule, interp: Database, into: Counts, sign: int) -> None:
        plan, project = self._compiled(variant)
        table = solve_plan_table(plan, interp)
        if not table.rows:
            return
        # Counter(map(...)) runs the whole derivation enumeration at C
        # speed; this is the innermost loop of every maintenance step.
        counted = Counter(map(project, table.rows))
        if sign > 0:
            into.update(counted)
        else:
            into.subtract(counted)

    def _compiled(self, variant: Rule):
        """``(total-binding plan, head projector)`` of a variant, memoised."""
        compiled = self._compiled_variants.get(id(variant))
        if compiled is None:
            plan = self.plans.plan(with_bindings_head(variant))
            compiled = self._compiled_variants[id(variant)] = (
                plan,
                head_projector(variant, plan),
            )
        return compiled

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    def initialise(self, interp: Database) -> FrozenSet[Tup]:
        """Count every derivation from scratch; return the tuple set.

        ``interp`` holds the *actual* predicate names (the converged
        database plus lower predicates' values) — initialisation needs no
        old/new aliasing.
        """
        counts = Counter()
        for rule in self.rules:
            self._accumulate(rule, interp, counts, +1)
        self.counts = dict(counts)
        return frozenset(counts)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def apply(
        self,
        interp: Database,
        changed: FrozenSet[str],
    ) -> Tuple[Relation, Relation]:
        """Maintain the counts under the changes baked into ``interp``.

        ``interp`` supplies the alias relations (``P@old``/``P@new``/
        ``P@ins``/``P@del``) for every body predicate; ``changed`` names
        the predicates whose change sets are non-empty.  Returns the
        ``(inserted, deleted)`` relations of the maintained predicate.
        """
        diff = Counter()
        with TRACER.span("counting.variants") as sp:
            for pred, gained, lost in self._variants:
                if pred in changed:
                    self._accumulate(gained, interp, diff, +1)
                    self._accumulate(lost, interp, diff, -1)
            if sp:
                sp["pred"] = self.pred
                sp["rows_out"] = len(diff)
        counts = self.counts
        inserted = set()
        deleted = set()
        for head, change in diff.items():
            if not change:
                continue
            old = counts.get(head, 0)
            new = old + change
            if new < 0:
                raise AssertionError(
                    "derivation count of %s%r fell below zero (%d)"
                    % (self.pred, head, new)
                )
            if new == 0:
                counts.pop(head, None)
                if old:
                    deleted.add(head)
            else:
                counts[head] = new
                if not old:
                    inserted.add(head)
        return (
            Relation._from_frozenset(self.pred, self.arity, frozenset(inserted)),
            Relation._from_frozenset(self.pred, self.arity, frozenset(deleted)),
        )

    def tuples(self) -> FrozenSet[Tup]:
        """The currently derivable tuples (count > 0)."""
        return frozenset(self.counts)

    def __repr__(self) -> str:
        return "CountingState(%s/%d, %d tuples, %d derivations)" % (
            self.pred,
            self.arity,
            len(self.counts),
            sum(self.counts.values()),
        )
