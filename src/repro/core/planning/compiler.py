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

1. variable-free atoms (tests) first, then, in this phase order:

   a. the components no head variable occurs in (each is an existence
      test once projected away);
   b. the components that read a predicate the caller declares *small*
      (a semi-naive delta, a maintenance change set): the variant joins
      through its delta first;
   c. the head components of completion variables alone (only ``@U``
      joins) that a negation or comparison reads — their filters run on
      at most |U|^k rows, before anything is crossed with them;
   d. the other components an ordinary atom reads;
   e. the unfiltered completion-only components last (a bare ``@U``
      cross product multiplies everything joined after it);

2. within a component, prefer atoms sharing the most variables with the
   already-bound set (index keys get longer, lookups more selective),
   and ordinary atoms over ``@U``;
3. break ties by putting predicates the caller declares *small*
   (semi-naive deltas, maintenance change sets) first;
4. break remaining ties by the atom's position in the rule body, so
   compilation is deterministic.

Phase (c) trades one cost for another: the ordinary components are
then joined once per surviving completion row, *unprojected*.  On a
sparse graph that is far cheaper than filtering the crossed product
(stratified distance's ``S3`` sends |U|² rows into its ``!S2``
anti-join instead of |TC| · |U|²), but on a dense one, where a join
such as ``E ⋈ S1`` is much wider than its projection onto the head, the
multiplied join is the bigger term.  A delta component stays ahead of
it (b): a probe per completion row costs more than anti-joining the
few delta rows crossed with |U|^k.  The order is a function of the
rule and ``small_preds`` alone.

The join order is lowered straight to the set-at-a-time batch program:
one :class:`~repro.core.planning.plan.BatchJoin` per atom, every
negation an :class:`~repro.core.planning.plan.AntiJoin` attached as
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
    BatchJoin,
    BatchOp,
    CmpOp,
    ColGetter,
    Project,
    RulePlan,
)


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

    def read_by(accept) -> Set[int]:
        """The components of the body literals ``accept`` selects."""
        return {component[v] for t in rule.body if accept(t) for v in t.variables()}

    grounded = read_by(lambda t: isinstance(t, Atom) and t.pred != UNIVERSE)
    filtered = read_by(lambda t: not isinstance(t, Atom))  # negations, tests
    small = read_by(lambda t: isinstance(t, Atom) and t.pred in small_preds)

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
        if c in grounded:
            return 2 if c in small else 4
        return 3 if c in filtered else 5

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


# ----------------------------------------------------------------------
# Batch-program lowering (set-at-a-time executor)
# ----------------------------------------------------------------------


def _lower_batch(rule: Rule, order: Sequence[Atom]):
    """``(schema, ops, head_cols)``: the join order as one batch program."""
    col: Dict[Variable, int] = {}
    schema: List[Variable] = []
    ops: List[BatchOp] = []
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

    def attach_ready() -> None:  # a projected-away variable is read no more
        ready = [f for f in pending if f.variables() <= col.keys()]
        pending[:] = [f for f in pending if f.variables() - col.keys()]
        for f in ready:
            ops.append(lower(f))

    attach_ready()  # filters with no variables run before any join

    for k, atom in enumerate(order):
        key_columns = tuple(
            i
            for i, arg in enumerate(atom.args)
            if isinstance(arg, Constant) or arg in col
        )
        if schema and not key_columns:
            # A cross product multiplies every row: first drop the
            # columns no later op and no head reads, and the duplicates
            # that leaves behind.
            read = set(head_vars)
            for later in order[k:]:
                read |= later.variables()
            for f in pending:
                read |= f.variables()
            live = [v for v in schema if v in read]
            if len(live) < len(schema):
                ops.append(Project(columns=tuple(col[v] for v in live)))
                schema = live
                col = {v: i for i, v in enumerate(live)}
        key = tuple(col_getter(atom.args[i]) for i in key_columns)
        first: Dict[Variable, int] = {}
        dup_checks: List[Tuple[int, int]] = []
        for i, arg in enumerate(atom.args):
            if i in key_columns:
                continue
            if arg in first:
                dup_checks.append((i, first[arg]))
            else:
                first[arg] = i
                col[arg] = len(schema)
                schema.append(arg)
        ops.append(
            BatchJoin(
                pred=atom.pred,
                arity=atom.arity,
                key_columns=key_columns,
                key=key,
                out_positions=tuple(first.values()),
                dup_checks=tuple(dup_checks),
            )
        )
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
    schema, ops, head_cols = _lower_batch(
        restricted, _join_order(restricted, small_preds)
    )
    return RulePlan(
        rule=rule,
        head_pred=rule.head.pred,
        schema=schema,
        ops=ops,
        head_cols=head_cols,
    )
