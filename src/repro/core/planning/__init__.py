"""Rule compilation and set-at-a-time execution: plan once, batch every round.

The reference evaluator (:func:`repro.core.operator.evaluate_rule_legacy`,
the paper's Θ read off the page) re-plans the join order and rebuilds a
hash index per body atom on *every* fixpoint round.  This package is the
production path beside it — one batch program per rule, run one of two
ways:

* :func:`compile_rule` / :func:`compile_program` run once per
  (program, database) and produce immutable :class:`RulePlan` /
  :class:`ProgramPlan` objects: join order, batch ops (anti-join
  negation, complement-scheduled completion), hoisted sorted universe;
* :func:`execute_plan` derives a plan's head relation, choosing from
  the input size between the columnar interpreter
  (:mod:`~repro.core.planning.colexec`: int64 id vectors under the
  interpretation's symbol table; the head stays code-only) and the row
  interpreter
  (:func:`solve_plan_table` over a :class:`BindingTable`, which is also
  what the grounder and the counting views call for the satisfying
  rows);
* :class:`PlanStore` / :data:`PLAN_STORE` cache compiled plans under
  (program, db) keys so all engines — and the grounder feeding the
  well-founded/SAT pipelines — share one compilation per input instead
  of compiling privately.

Plans are static: a plan is a pure function of ``(rule, db,
small_preds)``, compiled once and run unchanged every round.  Each
carries a Yannakakis **semi-join reduction** schedule
(:class:`SemiJoinStep`): before rows materialise, scanned relations are
reduced to the tuples that can participate in some join, off cached
index key sets.
"""

from .batch import BindingTable, execute_plan, solve_plan_table
from .compiler import ProgramPlan, compile_program, compile_rule
from .plan import (
    AntiJoin,
    AtomStep,
    BatchJoin,
    CmpOp,
    ComplementJoin,
    ExtendDomain,
    RulePlan,
    SemiJoinStep,
)
from .store import PLAN_STORE, PlanStore

__all__ = [
    "AntiJoin",
    "AtomStep",
    "BatchJoin",
    "BindingTable",
    "CmpOp",
    "ComplementJoin",
    "ExtendDomain",
    "PLAN_STORE",
    "PlanStore",
    "ProgramPlan",
    "RulePlan",
    "SemiJoinStep",
    "compile_program",
    "compile_rule",
    "execute_plan",
    "solve_plan_table",
]
