"""Compiled rule plans: the data the executors interpret.

A :class:`RulePlan` freezes every decision the reference evaluator
(:func:`repro.core.operator.evaluate_rule_legacy`) re-makes on each
fixpoint round.  Plans are compiled from the *range-restricted* rule
(:func:`~repro.core.planning.compiler.range_restricted`): a completion
variable is bound by joining the universe relation ``@U``, so every op
below is an ordinary relational one:

* the join order over the positive body atoms (``steps``) with, per
  atom, the index key columns (constants and already-bound variables)
  and the *binding spec* for the remaining columns — which new variables
  get bound where, and which tuple positions must agree because of
  repeated variables like ``E(X, X)``;
* the **batch program** (``schema`` / ``ops`` / ``head_cols``) lowered
  from that order: the whole frontier is one table with a column per
  bound variable and every operation is relational — joins probe sorted runs,
  each negation/comparison is attached at the earliest point where all
  of its variables are bound, every negation is an **anti-join**, and
  a column that nothing downstream reads is projected away before a
  cross product (:class:`Project`);
* the Yannakakis semi-join schedule over the join order.

The columnar executor (:mod:`~repro.core.planning.colexec`) is the one
interpreter of the program.

Key and head accessors are pre-lowered to *getters*: ``(is_const,
payload)`` pairs whose payload is a constant value or, for the batch
ops, a 0-based *column index* into the frontier as it stands at that op;
``schema`` names the final frontier's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple, Union

from ..rules import Rule
from ..terms import Variable

Getter = Tuple[bool, Any]
"""``(True, value)`` for a constant, ``(False, Variable)`` for a lookup."""

ColGetter = Tuple[bool, Any]
"""``(True, value)`` for a constant, ``(False, column_index)`` for a row column."""


@dataclass(frozen=True)
class AtomStep:
    """One step of the join schedule: probe ``pred`` keyed on ``key_columns``.

    ``new_vars`` entries are ``(var, first_position, duplicate_positions)``;
    duplicate positions must carry the same value as the first (repeated
    variables within the atom).
    """

    pred: str
    arity: int
    key_columns: Tuple[int, ...]
    key: Tuple[Getter, ...]
    new_vars: Tuple[Tuple[Variable, int, Tuple[int, ...]], ...]


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


@dataclass(frozen=True)
class SemiJoinStep:
    """One semi-join of the Yannakakis reduction prologue.

    Before any frontier row is materialised, the executor
    can reduce each positive atom's relation to the tuples that agree
    with *some* tuple of another positive atom on their shared
    variables — tuples that fail this can participate in no satisfying
    assignment, so dropping them is always sound (negations and
    comparisons only ever remove further rows).  ``target``/``source``
    index the plan's join order (:attr:`RulePlan.steps`);
    ``target_columns``/``source_columns`` are the matching shared-variable
    positions (first occurrence for repeated variables).

    The full pass is one forward sweep over the join order followed by
    one backward sweep (the classic two-pass reducer); both sweeps are
    compiled into :attr:`RulePlan.semijoin_steps` in execution order.
    Atoms in different connected components of the body's variable
    graph share no step — pure cross products pass through unreduced.
    """

    target: int
    target_columns: Tuple[int, ...]
    source: int
    source_columns: Tuple[int, ...]


BatchOp = Union[BatchJoin, AntiJoin, CmpOp, Project]


@dataclass(frozen=True)
class RulePlan:
    """A fully compiled rule, ready for repeated execution.

    ``rule`` is the rule as given (the Θ spec evaluates it when a row is
    too wide for the executor); ``steps`` and ``ops`` are compiled from
    its range-restricted form.
    """

    rule: Rule
    head_pred: str
    steps: Tuple[AtomStep, ...]
    schema: Tuple[Variable, ...] = ()
    ops: Tuple[BatchOp, ...] = ()
    head_cols: Tuple[ColGetter, ...] = ()
    # Yannakakis semi-join reduction prologue over the join order
    # (forward + backward sweep); empty when the body has fewer than two
    # connected positive atoms.  Executed by the executor unless
    # the per-call ``semijoin`` flag disables it.
    semijoin_steps: Tuple[SemiJoinStep, ...] = ()

    def describe(self) -> str:
        """A human-readable sketch of the plan (for debugging/benchmarks)."""
        parts = ["plan for %s" % self.rule]
        for sj in self.semijoin_steps:
            parts.append(
                "  semi-join reduce %s/%d[%s] by %s/%d[%s]"
                % (
                    self.steps[sj.target].pred,
                    self.steps[sj.target].arity,
                    list(sj.target_columns),
                    self.steps[sj.source].pred,
                    self.steps[sj.source].arity,
                    list(sj.source_columns),
                )
            )
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
