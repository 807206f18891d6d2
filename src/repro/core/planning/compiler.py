"""Compile rules into :class:`~repro.core.planning.plan.RulePlan` objects.

A plan is a pure function of ``(rule, small_preds)`` — like the paper's
Θ, fixed by the program and applied to whatever database comes — so
:func:`compile_rule` is memoised and every plan is compiled once per
process and run unchanged every fixpoint round.  Compilation starts from
the rule's :func:`range_restricted` form, where every completion
variable (the paper's unsafe rules quantify it over the universe ``A``)
is bound by a join with the universe relation ``@U``.  The join order
is chosen greedily, one body component at a time — variables are
connected when some literal mentions both:

1. variable-free atoms (tests) first, then the components no head
   variable occurs in (each is an existence test once projected away),
   then the components an ordinary atom reads, and last those of
   completion variables alone (a ``@U`` cross product multiplies
   everything joined after it);
2. within a component, prefer atoms sharing the most variables with the
   already-bound set (index keys get longer, lookups more selective),
   and ordinary atoms over ``@U``;
3. break ties by putting predicates the caller declares *small*
   (semi-naive deltas, maintenance change sets) first;
4. break remaining ties by the atom's position in the rule body, so
   compilation is deterministic.

The join order is lowered to the set-at-a-time batch program: every
negation is an :class:`~repro.core.planning.plan.AntiJoin` attached as
soon as its variables are bound, and before a cross product the
frontier drops the columns nothing downstream reads
(:class:`~repro.core.planning.plan.Project`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ...db.database import UNIVERSE
from ..literals import Atom, Eq, Literal, Negation, Neq
from ..rules import Rule
from ..terms import Constant, Variable
from .plan import (
    AntiJoin,
    AtomStep,
    BatchJoin,
    BatchOp,
    CmpOp,
    ColGetter,
    Getter,
    Project,
    RulePlan,
    SemiJoinStep,
)


def _getter(term) -> Getter:
    if isinstance(term, Constant):
        return (True, term.value)
    return (False, term)


def range_restricted(rule: Rule) -> Rule:
    """``rule`` with ``@U(V)`` appended for each variable no positive atom binds.

    Those are the rule's completion variables: the paper's Θ ranges them
    over the universe, which is exactly a join with ``@U``.  The result
    is range-restricted (every variable occurs in a positive atom) and
    equivalent to ``rule`` over any database; a rule already
    range-restricted comes back unchanged.
    """
    free = rule.variables() - rule.positive_variables()
    if not free:
        return rule
    completions = [Atom(UNIVERSE, (v,)) for v in sorted(free, key=lambda v: v.name)]
    return Rule(rule.head, rule.body + tuple(completions), span=rule.span)


def _components(rule: Rule) -> Dict[Variable, int]:
    """Each variable's body component: variables some literal mentions together."""
    groups: List[Set[Variable]] = []
    for literal in rule.body:
        joined = set(literal.variables())
        if not joined:
            continue
        rest = []
        for group in groups:
            if group & joined:
                joined |= group
            else:
                rest.append(group)
        groups = rest + [joined]
    return {v: i for i, group in enumerate(groups) for v in group}


def _join_order(rule: Rule, small_preds: FrozenSet[str]) -> List[Atom]:
    """The greedy join order over the positive body atoms."""
    component = _components(rule)
    in_head = {component[v] for v in rule.head.variables()}
    grounded = {  # components some atom other than @U reads
        component[v]
        for atom in rule.positive_atoms()
        if atom.pred != UNIVERSE
        for v in atom.variables()
    }

    def comp(atom: Atom) -> Optional[int]:
        for v in atom.variables():
            return component[v]
        return None

    def phase(atom: Atom) -> int:
        c = comp(atom)
        if c is None:
            return 0
        if c not in in_head:
            return 1
        return 2 if c in grounded else 3

    bound: Set[Variable] = set()
    order: List[Atom] = []
    current: Optional[int] = None
    remaining = list(enumerate(rule.positive_atoms()))
    while remaining:
        remaining.sort(
            key=lambda pair: (
                phase(pair[1]),
                comp(pair[1]) != current,
                -len(pair[1].variables() & bound),
                pair[1].pred == UNIVERSE,
                pair[1].pred not in small_preds,
                pair[0],
            )
        )
        _, atom = remaining.pop(0)
        order.append(atom)
        current = comp(atom)
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

    for k, step in enumerate(steps):
        if schema and not step.key_columns:
            # A cross product multiplies every row: first drop the
            # columns no later op and no head reads, and the duplicates
            # that leaves behind.
            read = set(head_vars)
            for later in steps[k:]:
                read.update(p for is_const, p in later.key if not is_const)
            for f in pending:
                read |= f.variables()
            live = [v for v in schema if v in read]
            if len(live) < len(schema):
                ops.append(Project(columns=tuple(col[v] for v in live)))
                schema = live
                col = {v: i for i, v in enumerate(live)}
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

    assert not pending, "unschedulable filters (vars outside rule): %r" % pending
    head_cols = tuple(col_getter(a) for a in rule.head.args)
    return tuple(schema), tuple(ops), head_cols


@lru_cache(maxsize=2048)
def compile_rule(
    rule: Rule, small_preds: FrozenSet[str] = frozenset(), /
) -> RulePlan:
    """Compile one rule into an executable plan (memoised).

    Parameters
    ----------
    rule:
        The rule to compile.
    small_preds:
        Predicates the caller knows to be small (semi-naive deltas); the
        planner joins through them first.

    The arguments are positional-only so that equal calls share one
    entry of the bounded memo; ``compile_rule.cache_info()`` reports
    its hits and misses.
    """
    restricted = range_restricted(rule)
    order = _join_order(restricted, small_preds)
    steps = _lower_steps(order)
    schema, ops, head_cols = _lower_batch(restricted, steps)
    return RulePlan(
        rule=rule,
        head_pred=rule.head.pred,
        steps=steps,
        schema=schema,
        ops=ops,
        head_cols=head_cols,
        semijoin_steps=_lower_semijoin(order, steps),
    )
