"""Compiled rule plans: the data the executor interprets.

A :class:`RulePlan` freezes every decision the reference evaluator
(:func:`repro.core.operator.evaluate_rule_legacy`) re-makes on each
fixpoint round.  Plans are compiled from the *range-restricted* rule
(:func:`~repro.core.planning.compiler.range_restricted`): a completion
variable is bound by joining the universe relation ``@U``, so every op
below is an ordinary relational one.  A plan is its **batch program**
(``schema`` / ``ops`` / ``head_cols``): the whole frontier is one table
with a column per bound variable, and the ops run in order —

* one :class:`BatchJoin` per positive body atom, in the join order,
  probing the relation on its index key columns (constants and
  already-bound variables) and appending the variables it binds;
  positions that repeat a fresh variable, like ``E(X, X)``, must agree;
* each negation/comparison attached at the earliest point where all of
  its variables are bound — every negation is an **anti-join**;
* before a cross product, a :class:`Project` onto the columns something
  downstream reads.

The columnar executor (:mod:`~repro.core.planning.colexec`) is the one
interpreter of the program.

Key and head accessors are pre-lowered to *getters*: ``(is_const,
payload)`` pairs whose payload is a constant value or a 0-based *column
index* into the frontier as it stands at that op; ``schema`` names the
final frontier's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple, Union

from ..rules import Rule
from ..terms import Variable

ColGetter = Tuple[bool, Any]
"""``(True, value)`` for a constant, ``(False, column_index)`` for a row column."""


# ----------------------------------------------------------------------
# Batch (set-at-a-time) operations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchJoin:
    """Batch join: extend every row with the relation's matching tuples.

    ``key_columns``/``key`` address the relation columns that are keyed by
    constants or already-bound schema columns; ``out_positions`` are the
    relation positions appended to each row (one per newly bound
    variable, in schema order); ``dup_checks`` are ``(pos, pos')`` pairs
    that must agree within the matched tuple (repeated fresh variables).
    """

    pred: str
    arity: int
    key_columns: Tuple[int, ...]
    key: Tuple[ColGetter, ...]
    out_positions: Tuple[int, ...]
    dup_checks: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class AntiJoin:
    """Negated atom over bound columns: drop rows with a match in ``pred``.

    The relational face of a ``!pred(...)`` literal whose variables are
    all bound — the whole row set is filtered against the relation at
    once instead of one membership test per binding dict.
    """

    pred: str
    arity: int
    getters: Tuple[ColGetter, ...]


@dataclass(frozen=True)
class CmpOp:
    """Batch (in)equality filter over two getters."""

    equal: bool
    left: ColGetter
    right: ColGetter


@dataclass(frozen=True)
class Project:
    """Keep only ``columns`` of the frontier, dropping duplicate rows.

    Emitted before a cross product whose frontier carries columns that
    no later op and no head reads; with no columns kept, the frontier
    collapses to at most one row — an existential component becomes a
    test instead of a multiplier.
    """

    columns: Tuple[int, ...]


BatchOp = Union[BatchJoin, AntiJoin, CmpOp, Project]


@dataclass(frozen=True)
class RulePlan:
    """A fully compiled rule, ready for repeated execution.

    ``rule`` is the rule as given (the Θ spec evaluates it when a row is
    too wide for the executor); ``ops`` are compiled from its
    range-restricted form.
    """

    rule: Rule
    head_pred: str
    schema: Tuple[Variable, ...]
    ops: Tuple[BatchOp, ...]
    head_cols: Tuple[ColGetter, ...]

    def describe(self) -> str:
        """A human-readable sketch of the plan (for debugging/benchmarks)."""
        parts = ["plan for %s" % self.rule]
        for op in self.ops:
            if isinstance(op, BatchJoin):
                parts.append(
                    "  join %s/%d on columns %s"
                    % (op.pred, op.arity, list(op.key_columns))
                )
            elif isinstance(op, AntiJoin):
                parts.append("  anti-join %s/%d" % (op.pred, op.arity))
            elif isinstance(op, CmpOp):
                parts.append("  filter %s" % ("=" if op.equal else "!="))
            else:
                parts.append("  project onto columns %s" % list(op.columns))
        return "\n".join(parts)
