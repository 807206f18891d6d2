"""Rule compilation and set-at-a-time execution: plan once, run columnar.

The reference evaluator (:func:`repro.core.operator.evaluate_rule_legacy`,
the paper's Θ read off the page) re-plans the join order on *every*
call.  This package is the production path beside it:

* :func:`compile_rule` runs once per ``(rule, small_preds)`` — it is
  memoised — and produces an immutable :class:`RulePlan`, which is its
  op list: one :class:`BatchJoin` per positive atom in the join order,
  anti-join negation (:class:`AntiJoin`), comparisons (:class:`CmpOp`),
  projections before cross products (:class:`Project`), and completion
  as a join with the universe relation ``@U`` (:func:`range_restricted`);
* :func:`execute_plan` runs a plan in the columnar executor
  (:mod:`~repro.core.planning.colexec`: int64 id vectors under the
  interpretation's symbol table; the head stays code-only), and
  :func:`solve_bindings` returns its bindings (id columns) for the
  grounder and the counting views.  Rows wider than 63 bits go to the
  Θ spec.

Plans are static: a plan is a pure function of ``(rule, small_preds)``
and never reads a database, so every engine — and the grounder feeding
the well-founded/SAT pipelines — shares one compilation per rule, run
unchanged every round over whatever database comes.
"""

from .batch import execute_plan, solve_bindings
from .compiler import compile_rule, range_restricted
from .plan import (
    AntiJoin,
    BatchJoin,
    CmpOp,
    Project,
    RulePlan,
)

__all__ = [
    "AntiJoin",
    "BatchJoin",
    "CmpOp",
    "Project",
    "RulePlan",
    "compile_rule",
    "execute_plan",
    "range_restricted",
    "solve_bindings",
]
