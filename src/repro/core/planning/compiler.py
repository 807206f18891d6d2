"""Compile rules into :class:`~repro.core.planning.plan.RulePlan` objects.

A plan is a pure function of ``(rule, db, small_preds)``: it is compiled
once and run unchanged every fixpoint round.  The join order is chosen
greedily:

1. prefer atoms sharing the most variables with the already-bound set
   (index keys get longer, lookups more selective);
2. break ties by estimated relation size — the actual EDB size when a
   database is supplied, 0 for predicates the caller declares *small*
   (semi-naive delta relations), and "large" for unknown IDB relations;
3. break remaining ties by the atom's position in the rule body, so
   compilation is deterministic.

The join order is lowered to the set-at-a-time batch program, where
negations over bound variables become
:class:`~repro.core.planning.plan.AntiJoin` operations and negations
over completion variables are scheduled as
:class:`~repro.core.planning.plan.ComplementJoin` operations — the
complement representation of the paper's unsafe rules, replacing the
``|A|^k`` enumerate-then-filter completion.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ...db.database import Database
from ..literals import Atom, Eq, Literal, Negation, Neq
from ..program import Program
from ..rules import Rule
from ..terms import Constant, Variable
from .plan import (
    AntiJoin,
    AtomStep,
    BatchJoin,
    BatchOp,
    CmpOp,
    ColGetter,
    ComplementJoin,
    ExtendDomain,
    Getter,
    RulePlan,
    SemiJoinStep,
)

_LARGE = float("inf")
"""Size estimate for relations we know nothing about (unseen IDB)."""


def _getter(term) -> Getter:
    if isinstance(term, Constant):
        return (True, term.value)
    return (False, term)


def _join_order(rule: Rule, estimate) -> List[Atom]:
    """The greedy join order over the positive body atoms."""
    bound: Set[Variable] = set()
    order: List[Atom] = []
    remaining = list(enumerate(rule.positive_atoms()))
    while remaining:
        remaining.sort(
            key=lambda pair: (
                -len(pair[1].variables() & bound),
                estimate(pair[1].pred),
                pair[0],
            )
        )
        _, atom = remaining.pop(0)
        order.append(atom)
        bound |= atom.variables()
    return order


def _lower_semijoin(
    order: Sequence[Atom], steps: Sequence[AtomStep]
) -> Tuple[SemiJoinStep, ...]:
    """The Yannakakis reduction schedule over the join order.

    For every ordered pair of atoms sharing at least one variable, the
    forward sweep reduces the later atom by the earlier one and the
    backward sweep (in reverse pair order) the earlier by the later —
    the classic two-pass reducer, exact on acyclic (alpha-acyclic) join
    shapes and a sound, effective approximation on cyclic ones.  Pairs
    in different connected components of the variable graph share no
    variables and get no step, so cross products pass through intact.

    A step is dropped when the target's matched columns all sit inside
    the target join's own index key (``AtomStep.key_columns``): the
    executor probes those columns with already-bound values, so tuples
    the semi-join would drop are never visited anyway — the reduction
    would be pure overhead.  What survives is exactly where Yannakakis
    pays: the scan-side first atom, and reductions *against later atoms*
    whose pruning the keyed probes cannot anticipate.
    """
    if len(order) < 2:
        return ()
    var_pos: List[Dict[Variable, int]] = []
    for atom in order:
        first: Dict[Variable, int] = {}
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Variable) and arg not in first:
                first[arg] = i
        var_pos.append(first)
    pairs: List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]] = []
    for j in range(len(order)):
        for i in range(j):
            shared = sorted(
                set(var_pos[i]) & set(var_pos[j]), key=lambda v: v.name
            )
            if shared:
                pairs.append(
                    (
                        i,
                        j,
                        tuple(var_pos[i][v] for v in shared),
                        tuple(var_pos[j][v] for v in shared),
                    )
                )
    def useful(target: int, target_columns: Tuple[int, ...]) -> bool:
        return not set(target_columns) <= set(steps[target].key_columns)

    forward = [
        SemiJoinStep(target=j, target_columns=cj, source=i, source_columns=ci)
        for i, j, ci, cj in pairs
        if useful(j, cj)
    ]
    backward = [
        SemiJoinStep(target=i, target_columns=ci, source=j, source_columns=cj)
        for i, j, ci, cj in reversed(pairs)
        if useful(i, ci)
    ]
    return tuple(forward + backward)


def _lower_steps(order: Sequence[Atom]) -> Tuple[AtomStep, ...]:
    """The join schedule: per atom, its index key and the variables it binds."""
    bound: Set[Variable] = set()
    steps: List[AtomStep] = []
    for atom in order:
        key_columns = tuple(
            i
            for i, arg in enumerate(atom.args)
            if isinstance(arg, Constant) or arg in bound
        )
        new_positions: Dict[Variable, List[int]] = {}
        for i, arg in enumerate(atom.args):
            if i not in key_columns:
                new_positions.setdefault(arg, []).append(i)
        steps.append(
            AtomStep(
                pred=atom.pred,
                arity=atom.arity,
                key_columns=key_columns,
                key=tuple(_getter(atom.args[i]) for i in key_columns),
                new_vars=tuple(
                    (var, positions[0], tuple(positions[1:]))
                    for var, positions in new_positions.items()
                ),
            )
        )
        bound |= atom.variables()
    return tuple(steps)


# ----------------------------------------------------------------------
# Batch-program lowering (set-at-a-time executor)
# ----------------------------------------------------------------------


def _lower_batch(rule: Rule, steps: Sequence[AtomStep]):
    col: Dict[Variable, int] = {}
    schema: List[Variable] = []
    ops: List[BatchOp] = []
    bound: Set[Variable] = set()
    pending: List[Literal] = [
        t for t in rule.body if isinstance(t, (Negation, Eq, Neq))
    ]
    head_vars = rule.head.variables()

    def col_getter(term) -> ColGetter:
        if isinstance(term, Constant):
            return (True, term.value)
        return (False, col[term])

    def lower(lit: Literal) -> BatchOp:
        if isinstance(lit, Negation):
            atom = lit.atom
            return AntiJoin(
                pred=atom.pred,
                arity=atom.arity,
                getters=tuple(col_getter(a) for a in atom.args),
            )
        return CmpOp(
            equal=isinstance(lit, Eq),
            left=col_getter(lit.left),
            right=col_getter(lit.right),
        )

    def attach_ready() -> None:
        ready = [f for f in pending if f.variables() <= bound]
        pending[:] = [f for f in pending if f.variables() - bound]
        for f in ready:
            ops.append(lower(f))

    attach_ready()  # filters with no variables run before any join

    for step in steps:
        out_positions: List[int] = []
        dup_checks: List[Tuple[int, int]] = []
        for var, first, duplicates in step.new_vars:
            col[var] = len(schema)
            schema.append(var)
            out_positions.append(first)
            for d in duplicates:
                dup_checks.append((d, first))
        ops.append(
            BatchJoin(
                pred=step.pred,
                arity=step.arity,
                key_columns=step.key_columns,
                key=tuple(
                    (True, payload) if is_const else (False, col[payload])
                    for is_const, payload in step.key
                ),
                out_positions=tuple(out_positions),
                dup_checks=tuple(dup_checks),
            )
        )
        for var, _, _ in step.new_vars:
            bound.add(var)
        attach_ready()

    # Completion: negated atoms whose unbound variables are completion
    # variables (each occurring exactly once) are scheduled complement-first.
    unbound: Set[Variable] = set(rule.variables()) - bound

    def complement_fresh(f: Literal) -> Optional[FrozenSet[Variable]]:
        """The fresh variables of ``f`` if it is complement-eligible."""
        if not isinstance(f, Negation):
            return None
        fresh = f.variables() - bound
        if not fresh:
            return None
        for v in fresh:
            if sum(1 for a in f.atom.args if a == v) != 1:
                return None  # repeated fresh variable: fall back to extend
        return fresh

    def emit_complement(f: Negation, fresh: FrozenSet[Variable], exists_only: bool) -> None:
        atom = f.atom
        bound_columns = tuple(
            i
            for i, a in enumerate(atom.args)
            if isinstance(a, Constant) or (a in bound and a not in fresh)
        )
        bound_key = tuple(col_getter(atom.args[i]) for i in bound_columns)
        free_positions = tuple(
            i for i in range(atom.arity) if i not in bound_columns
        )
        free_vars = tuple(atom.args[i] for i in free_positions)
        if not exists_only:
            for v in free_vars:
                col[v] = len(schema)
                schema.append(v)
        ops.append(
            ComplementJoin(
                pred=atom.pred,
                arity=atom.arity,
                bound_columns=bound_columns,
                bound_key=bound_key,
                free_positions=free_positions,
                vars=free_vars,
                exists_only=exists_only,
            )
        )
        pending.remove(f)
        bound.update(fresh)
        unbound.difference_update(fresh)
        attach_ready()

    # Pass 1: existence-only complement checks first — they can only
    # shrink the row set, so they run before any row multiplication.
    changed = True
    while changed:
        changed = False
        for f in list(pending):
            fresh = complement_fresh(f)
            if fresh is None:
                continue
            if any(v in head_vars for v in fresh):
                continue
            if any(
                v in g.variables() for v in fresh for g in pending if g is not f
            ):
                continue
            emit_complement(f, fresh, exists_only=True)
            changed = True

    # Pass 2: remaining completion variables — complement joins where
    # eligible, universe extension otherwise.
    while unbound:
        pick = None
        for f in pending:
            fresh = complement_fresh(f)
            if fresh is not None:
                pick = (f, fresh)
                break
        if pick is not None:
            emit_complement(pick[0], pick[1], exists_only=False)
            continue

        def readiness(v: Variable) -> int:
            would_bind = bound | {v}
            return sum(1 for f in pending if f.variables() <= would_bind)

        var = min(unbound, key=lambda v: (-readiness(v), v.name))
        col[var] = len(schema)
        schema.append(var)
        ops.append(ExtendDomain(var=var))
        bound.add(var)
        unbound.discard(var)
        attach_ready()

    assert not pending, "unschedulable filters (vars outside rule): %r" % pending
    head_cols = tuple(col_getter(a) for a in rule.head.args)
    return tuple(schema), tuple(ops), head_cols


def compile_rule(
    rule: Rule,
    db: Optional[Database] = None,
    small_preds: FrozenSet[str] = frozenset(),
) -> RulePlan:
    """Compile one rule into an executable plan.

    Parameters
    ----------
    rule:
        The rule to compile.
    db:
        Optional database supplying EDB cardinalities for join ordering.
        Plans are correct without it; ordering just falls back to the
        connectivity heuristic alone.  When given, the database's sorted
        universe is hoisted into the plan so executors never re-sort it.
    small_preds:
        Predicates the caller knows to be small (semi-naive deltas); the
        planner joins through them first.
    """

    def estimate(pred: str) -> float:
        if pred in small_preds:
            return 0.0
        if db is not None:
            rel = db.get(pred)
            if rel is not None:
                return float(len(rel))
        return _LARGE

    order = _join_order(rule, estimate)
    steps = _lower_steps(order)
    schema, ops, head_cols = _lower_batch(rule, steps)
    return RulePlan(
        rule=rule,
        head_pred=rule.head.pred,
        steps=steps,
        schema=schema,
        ops=ops,
        head_cols=head_cols,
        domain=db.sorted_universe() if db is not None else None,
        domain_universe=db.universe if db is not None else None,
        semijoin_steps=_lower_semijoin(order, steps),
    )


class ProgramPlan:
    """All of a program's rules compiled."""

    __slots__ = ("program", "plans")

    def __init__(self, program: Program, plans: Sequence[RulePlan]) -> None:
        self.program = program
        self.plans: Tuple[RulePlan, ...] = tuple(plans)

    def __len__(self) -> int:
        return len(self.plans)

    def __repr__(self) -> str:
        return "ProgramPlan(%d rules, %d joins)" % (
            len(self.plans),
            sum(len(p.steps) for p in self.plans),
        )


def compile_program(program: Program, db: Optional[Database] = None) -> ProgramPlan:
    """Compile every rule of ``program``, sizing relations from ``db``."""
    return ProgramPlan(program, [compile_rule(r, db=db) for r in program.rules])

