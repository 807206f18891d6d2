"""Compiled rule plans: the data the executors interpret.

A :class:`RulePlan` freezes every decision the reference evaluator
(:func:`repro.core.operator.evaluate_rule_legacy`) re-makes on each
fixpoint round:

* the join order over the positive body atoms (``steps``) with, per
  atom, the index key columns (constants and already-bound variables)
  and the *binding spec* for the remaining columns — which new variables
  get bound where, and which tuple positions must agree because of
  repeated variables like ``E(X, X)``;
* the **batch program** (``schema`` / ``ops`` / ``head_cols``) lowered
  from that order: the whole frontier is one table over a fixed variable
  schema and every operation is relational — joins are index-backed
  batch joins, each negation/comparison is attached at the earliest
  point where all of its variables are bound, negations over bound
  variables are **anti-joins**, and negations over completed variables
  (the paper's unsafe rules) become joins against a lazily-materialised
  **complement relation** instead of enumerate-then-filter;
* the Yannakakis semi-join schedule over the join order.

One program, two interpreters of it: the row form
(:func:`~repro.core.planning.batch.solve_plan_table`, Python value
tuples) and the columnar form
(:func:`~repro.core.planning.colexec.execute_plan_codes`, int64 id
vectors); :func:`~repro.core.planning.batch.execute_plan` picks between
them from the input size.

Key and head accessors are pre-lowered to *getters*: ``(is_const,
payload)`` pairs whose payload is a constant value or, for the batch
ops, a 0-based *column index* into the schema, so the inner loops do
tuple indexing only — no dicts, no AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

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
    """Index-backed batch join: extend every row with matching tuples.

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
    all bound — the whole row set is filtered against the relation's
    tuple set at once instead of one membership test per binding dict.
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
class ExtendDomain:
    """Cross every row with the universe, appending one column."""

    var: Variable


@dataclass(frozen=True)
class SemiJoinStep:
    """One semi-join of the Yannakakis reduction prologue.

    Before any :class:`BindingTable` row is materialised, the executor
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


@dataclass(frozen=True)
class ComplementJoin:
    """Complete variables *through* a negated atom, complement-first.

    For a literal ``!pred(args)`` whose unbound variables are all
    completion variables (each occurring exactly once in the atom), the
    enumerate-then-filter pipeline — cross the rows with ``|A|^k``
    candidate assignments, then drop the ones present in ``pred`` — is
    replaced by a join against the *complement*:

    * with no bound positions, rows are crossed with the lazily
      materialised, relation-cached complement
      ``A^arity - pred`` (:meth:`repro.db.relation.Relation.complement_on`);
    * with bound positions, rows are grouped by their key and each group
      is extended with ``A^k`` minus the key's matched projections
      (one index probe per distinct key, not per row).

    When ``exists_only`` is true the completed variables feed nothing
    downstream (not in the head, in no later filter), so the rows are
    merely *kept or dropped* on complement non-emptiness — no columns are
    appended and the ``|A|^k`` blowup disappears entirely.
    """

    pred: str
    arity: int
    bound_columns: Tuple[int, ...]
    bound_key: Tuple[ColGetter, ...]
    free_positions: Tuple[int, ...]
    vars: Tuple[Variable, ...]
    exists_only: bool


BatchOp = Union[BatchJoin, AntiJoin, CmpOp, ExtendDomain, ComplementJoin]


@dataclass(frozen=True)
class RulePlan:
    """A fully compiled rule, ready for repeated execution."""

    rule: Rule
    head_pred: str
    steps: Tuple[AtomStep, ...]
    schema: Tuple[Variable, ...] = ()
    ops: Tuple[BatchOp, ...] = ()
    head_cols: Tuple[ColGetter, ...] = ()
    # Universe snapshot hoisted from the compile-time database (if any):
    # executors use it instead of re-sorting ``interp.universe`` per call.
    domain: Optional[Tuple[Any, ...]] = None
    domain_universe: Optional[frozenset] = None
    # Yannakakis semi-join reduction prologue over the join order
    # (forward + backward sweep); empty when the body has fewer than two
    # connected positive atoms.  Executed by the batch executor unless
    # the per-call ``semijoin`` flag disables it.
    semijoin_steps: Tuple[SemiJoinStep, ...] = ()

    def completion_domain(self, interp) -> Tuple[Any, ...]:
        """The ordered completion domain for ``interp``.

        The sorted universe hoisted at compile time when it still matches
        the interpretation (the identity check is the common case: derived
        databases share their parent's universe object), else the
        interpretation's own cached sort.
        """
        if self.domain is not None and (
            interp.universe is self.domain_universe
            or interp.universe == self.domain_universe
        ):
            return self.domain
        return interp.sorted_universe()

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
            elif isinstance(op, ExtendDomain):
                parts.append("  complete %s over universe" % op.var)
            elif isinstance(op, ComplementJoin):
                parts.append(
                    "  complement-%s %s via !%s/%d (keyed on %s)"
                    % (
                        "check" if op.exists_only else "join",
                        ", ".join(str(v) for v in op.vars),
                        op.pred,
                        op.arity,
                        list(op.bound_columns) or "nothing",
                    )
                )
        return "\n".join(parts)
