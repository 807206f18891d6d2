"""Rule compilation and set-at-a-time execution: plan once, run columnar.

The reference evaluator (:func:`repro.core.operator.evaluate_rule_legacy`,
the paper's Θ read off the page) re-plans the join order on *every*
call.  This package is the production path beside it:

* :func:`compile_rule` / :func:`compile_program` run once per
  (program, database) and produce immutable :class:`RulePlan` /
  :class:`ProgramPlan` objects: join order, batch ops (anti-join
  negation, completion as a join with the universe relation ``@U`` —
  :func:`range_restricted`) and a Yannakakis semi-join schedule
  (:class:`SemiJoinStep`);
* :func:`execute_plan` runs a plan in the columnar executor
  (:mod:`~repro.core.planning.colexec`: int64 id vectors under the
  interpretation's symbol table; the head stays code-only), and
  :func:`solve_rows` returns its bindings for the grounder.  Rows wider
  than 63 bits go to the Θ spec;
* :class:`PlanStore` / :data:`PLAN_STORE` cache compiled plans under
  (program, db) keys so all engines — and the grounder feeding the
  well-founded/SAT pipelines — share one compilation per input.

Plans are static: a plan is a pure function of ``(rule, db,
small_preds)``, compiled once and run unchanged every round.
"""

from .batch import execute_plan, solve_rows
from .compiler import ProgramPlan, compile_program, compile_rule, range_restricted
from .plan import (
    AntiJoin,
    AtomStep,
    BatchJoin,
    CmpOp,
    Project,
    RulePlan,
    SemiJoinStep,
)
from .store import PLAN_STORE, PlanStore

__all__ = [
    "AntiJoin",
    "AtomStep",
    "BatchJoin",
    "CmpOp",
    "PLAN_STORE",
    "PlanStore",
    "ProgramPlan",
    "Project",
    "RulePlan",
    "SemiJoinStep",
    "compile_program",
    "compile_rule",
    "execute_plan",
    "range_restricted",
    "solve_rows",
]
