"""Counting-based maintenance for non-recursive predicates.

The classical counting algorithm (Gupta–Mumick–Subrahmanian): for a
predicate defined without recursion, keep for every derivable tuple the
*number of derivations* — pairs of a rule and a total assignment of the
rule's variables satisfying its body.  A change to the inputs then
maintains the counts exactly:

* derivations gained/lost are enumerated by the telescoping delta
  variants of :mod:`repro.materialize.deltavariants` (post-change values
  under their own names, pre-change ones as ``P@old``, the change sets
  as ``P@ins`` / ``P@del``), each solved under a
  *total-binding* pseudo-head so the executor cannot collapse
  multiplicities by projecting a column away; the bindings stay
  id columns, the head projection is packed to one code per binding
  and counted with ``np.unique``, and only distinct heads are decoded
  (a head wider than 63 bits is counted over its decoded rows, from
  the same id columns);
* a tuple enters the view when its count rises from zero and leaves it
  when its count returns to zero — no over-deletion, no rederivation.

A variant runs only when the change set its differentiated literal
reads (``P@ins``, ``P@del``, a negation's flipped side, ``@U@ins``) is
staged non-empty in the interpretation: an empty one joins to nothing.
A single-edge update stages one side of each change, so it runs one
variant per differentiated literal instead of two.

Counts are exact for negation too (through lower strata): a negated
literal is differentiated via the complement, so ``!P`` contributes a
gained derivation where ``P`` lost a tuple and vice versa.  Completion
variables are counted the same way: the rules are range-restricted
(:func:`~repro.core.planning.range_restricted`), so a completion
variable is bound by the universe relation ``@U``, and universe growth
is an ``@U`` insertion whose delta variants count exactly the
derivations the fresh values add.

Two maintainers count: a stratified or semipositive view, per
non-recursive predicate, and a well-founded view's live grounding, per
rule shape (its keys are ground rules;
:class:`~repro.materialize.wellfounded_maint.LiveGroundProgram`).  Where
a later variant reads a counted predicate, the view evolves its value
once by the returned heads, and its aliases name that value.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Tuple

from ..core.literals import Atom
from ..core.planning import compile_rule, solve_bindings
from ..core.planning.batch import BINDINGS_HEAD
from ..core.rules import Rule
from ..core.terms import Variable
from ..db.database import Database
from ..obs import TRACER
from .delta import Tup
from .deltavariants import change_atom, changeable_positions, delta_variant

Counts = Dict[Tup, int]


# ----------------------------------------------------------------------
# Counting needs total bindings: give the rule a pseudo-head over all
# its variables (the grounder's trick), so the executor never
# projects a column away and deduplicates the rows that differed there.
# ----------------------------------------------------------------------


def _compiled(rule: Rule, small: FrozenSet[str]) -> tuple:
    """``(plan, head getters)`` for counting ``rule``'s derivations.

    The plan is ``rule``'s body under a pseudo-head carrying every
    variable (sorted), so its schema binds them all and the original
    head is a pure column/constant projection of each binding: the
    getters are ``(False, column)`` per variable, ``(True, value)`` per
    constant.
    """
    variables = sorted(rule.variables(), key=lambda v: v.name)
    plan = compile_rule(Rule(Atom(BINDINGS_HEAD, variables), rule.body), small)
    column: Dict[Variable, int] = {v: i for i, v in enumerate(plan.schema)}
    return plan, tuple(
        (False, column[arg]) if isinstance(arg, Variable) else (True, arg.value)
        for arg in rule.head.args
    )


class CountingState:
    """Derivation counts for one non-recursively defined predicate.

    Parameters
    ----------
    pred, arity:
        The maintained predicate.
    rules:
        Its rules (every body predicate is EDB or strictly earlier in
        the maintenance order — never ``pred`` itself).
    small:
        The view's small predicates (change sets), the planner's hint.
    """

    __slots__ = ("pred", "arity", "rules", "small", "counts", "_variants")

    def __init__(self, pred: str, arity: int, rules: List[Rule], small: FrozenSet[str]) -> None:
        self.pred = pred
        self.arity = arity
        self.rules = rules
        self.small = small
        self.counts: Counts = {}
        # The telescoping variants are a fixed family per state, compiled
        # once: ``(change-set alias, (plan, head getters), sign)``.
        self._variants: List[Tuple[str, tuple, int]] = [
            (
                change_atom(rule.body[position], gained).pred,
                _compiled(delta_variant(rule, position, gained), small),
                1 if gained else -1,
            )
            for rule in rules
            for position in changeable_positions(rule, rule.body_predicates())
            for gained in (True, False)
        ]

    # ------------------------------------------------------------------
    # Shared: count one plan's derivations into an accumulator
    # ------------------------------------------------------------------

    def _accumulate(self, compiled: tuple, interp: Database, into: Counts, sign: int) -> None:
        plan, getters = compiled
        symbols, table = solve_bindings(plan, interp)
        counted = table.count(symbols, getters)
        if sign > 0:
            into.update(counted)
        else:
            into.subtract(counted)

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    def initialise(self, interp: Database) -> None:
        """Count every derivation from scratch.

        ``interp`` holds the *actual* predicate names (the converged
        database plus lower predicates' values) — initialisation needs no
        old/new aliasing.
        """
        counts = Counter()
        for rule in self.rules:
            self._accumulate(_compiled(rule, self.small), interp, counts, +1)
        self.counts = dict(counts)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def apply(self, interp: Database) -> Tuple[List[Tup], List[Tup]]:
        """Maintain the counts under the changes baked into ``interp``.

        ``interp`` supplies the relations the variants read: every input's
        post-change value under its own name, its ``P@old`` alias, and the
        ``P@ins`` / ``P@del`` change sets this update staged; a variant
        whose change set is absent or empty is not run.  Returns the
        tuples whose count rose from zero and those whose count returned
        to it.
        """
        diff = Counter()
        with TRACER.span("counting.variants") as sp:
            for alias, compiled, sign in self._variants:
                if interp.get(alias):
                    self._accumulate(compiled, interp, diff, sign)
            if sp:
                sp["pred"] = self.pred
                sp["rows_out"] = len(diff)
        counts = self.counts
        inserted: List[Tup] = []
        deleted: List[Tup] = []
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
                    deleted.append(head)
            else:
                counts[head] = new
                if not old:
                    inserted.append(head)
        return inserted, deleted

    def __repr__(self) -> str:
        return "CountingState(%s/%d, %d tuples, %d derivations)" % (
            self.pred,
            self.arity,
            len(self.counts),
            sum(self.counts.values()),
        )
