"""Rule execution: every plan runs columnar, the Θ spec takes what cannot.

This is the per-round hot path of every fixpoint engine.
:func:`execute_plan` runs a plan's batch program in the columnar
executor (:mod:`~repro.core.planning.colexec`) and wraps the head-code
vector as a code-only relation; :func:`solve_bindings` returns the
plan's bindings as id columns, for the grounder.

The one case the executor cannot represent is a row wider than 63 bits
(a relation or head whose fields no longer pack into one int64 code).
Such a plan is evaluated by the paper's Θ read off the page,
:func:`~repro.core.operator.evaluate_rule_legacy` — the oracle every
test checks the executor against — and counted in
``repro_kernel_declined_total``.
"""

from __future__ import annotations

from typing import Set, Tuple

import numpy as np

from ...db.database import Database
from ...db.kernel import RelationCodes, SymbolTable
from ...db.relation import Relation
from ...obs import RECORDER, TRACER
from ..literals import Atom
from ..rules import Rule
from . import colexec
from .colexec import ColumnTable
from .plan import RulePlan


def _spec(rule: Rule, interp: Database) -> Set[Tuple]:
    """``rule``'s head tuples by the Θ spec, counted as a declined execution."""
    from ..operator import evaluate_rule_legacy  # operator imports this package

    if RECORDER.enabled:
        RECORDER.inc("repro_kernel_declined_total")
    return evaluate_rule_legacy(rule, interp)


BINDINGS_HEAD = "@bindings"
"""Pseudo-head predicate of total-binding rules (the counting views')."""


def spec_bindings(plan: RulePlan, interp: Database) -> Set[Tuple]:
    """The plan's bindings of ``plan.schema``, evaluated by the Θ spec."""
    return _spec(Rule(Atom(BINDINGS_HEAD, plan.schema), plan.rule.body), interp)


def solve_bindings(plan: RulePlan, interp: Database) -> Tuple[SymbolTable, ColumnTable]:
    """The plan's satisfying rows over ``plan.schema``, as id columns.

    The ids are under the interpretation's symbol table.  Rows wider
    than 63 bits come from the Θ spec as values, interned here.
    """
    out = colexec.solve_plan(plan, interp)
    if out is not None:
        return out
    rows = list(spec_bindings(plan, interp))
    symbols = interp.symbols()
    cols = [np.array(list(map(symbols.intern, col)), dtype=np.int64) for col in zip(*rows)]
    if not rows:
        cols = [np.empty(0, dtype=np.int64) for _ in plan.schema]
    return symbols, ColumnTable(cols, len(rows))


def execute_plan(plan: RulePlan, interp: Database) -> Relation:
    """The head relation the plan derives from ``interp``.

    The result is a *code-only* relation over the head-code vector:
    nothing is externed here, and a fixpoint that keeps unioning such
    heads never builds their tuples.  A plan whose rows are wider than
    63 bits derives the identical set through the Θ spec, tuple-backed.
    Callers that need a Python set take ``.tuples``.
    """
    arity = len(plan.head_cols)
    with TRACER.span("rule") as sp:
        result = colexec.execute_plan_codes(plan, interp)
        if result is not None:
            backend = "kernel"
            sym, head_codes = result
            out = Relation._from_codes(
                plan.head_pred, arity, RelationCodes(sym, arity, head_codes)
            )
        else:
            backend = "spec"
            out = Relation._from_frozenset(
                plan.head_pred, arity, frozenset(_spec(plan.rule, interp))
            )
        if sp:
            sp["pred"] = plan.head_pred
            sp["rows_out"] = len(out)
            sp["backend"] = backend
    if RECORDER.enabled:
        RECORDER.inc("repro_engine_rule_executions_total")
        if backend == "kernel":
            RECORDER.inc("repro_engine_kernel_executions_total")
    return out
