"""The immediate consequence operator Theta of Section 2.

For a program pi with nondatabase relations ``S_1, ..., S_m`` and a database
``D`` with universe ``A``, the operator maps a sequence of IDB relation
values to the sequence

    Theta(S)_i = { a in A^{n_i} : D, S |= theta_1(a) or ... or theta_k(a) }

where ``theta_j`` is the existential formula of the ``j``-th rule for
``S_i`` (body variables not in the head are existentially quantified over
``A``).  Note that Theta *replaces* relation values — it is not cumulative —
so ``S`` is a fixpoint exactly when ``Theta(S) = S``.

Variables range over the whole universe (active-domain semantics), which is
what makes the paper's unsafe rules such as ``T(z) :- !Q(u), !T(w)``
meaningful.  Evaluation binds variables through positive literals first
(index-backed joins), interleaves comparison/negation filters as soon as
their variables are bound, and completes any remaining variables over the
universe one variable at a time so that filters prune early.

Since the planner refactor, rule evaluation is split in two:
:mod:`repro.core.planning` compiles each rule once into a
:class:`~repro.core.planning.RulePlan` (fixed join order, key columns,
filter schedule, batch program) which is then executed every round by
the set-at-a-time batch executor — negation as anti-join, completion
through negated atoms as a complement join — with indexes cached on the
immutable relations.  Compiled plans come from the process-wide
:data:`repro.core.planning.PLAN_STORE`, shared with every engine and the
grounder.  ``evaluate_rule``/``theta`` below compile transparently;
``evaluate_rule_legacy``/``theta_legacy`` keep the original
re-plan-every-call path as the tested-equivalent baseline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..db.database import Database
from ..db.index import HashIndex
from ..db.relation import Relation
from .literals import Atom, Eq, Literal, Negation, Neq
from .planning import PLAN_STORE, ProgramPlan, RulePlan, execute_plan
from .program import Program
from .rules import Rule
from .terms import Constant, Variable

Binding = Dict[Variable, Any]
IDBMap = Dict[str, Relation]


def empty_idb(program: Program) -> IDBMap:
    """The all-empty IDB valuation (the iteration's starting point)."""
    return {
        p: Relation.empty(p, program.arity(p)) for p in program.idb_predicates
    }


def full_idb(program: Program, db: Database) -> IDBMap:
    """The all-full IDB valuation ``S_i = A^{n_i}``."""
    return {
        p: Relation.full(p, program.arity(p), db.universe)
        for p in program.idb_predicates
    }


def as_interpretation(program: Program, db: Database, idb: Optional[IDBMap] = None) -> Database:
    """Combine EDB database and an IDB valuation into one structure.

    Missing IDB relations default to empty.  IDB values already present in
    ``db`` are kept unless overridden by ``idb``.
    """
    merged: Dict[str, Relation] = {}
    for pred in program.idb_predicates:
        if idb is not None and pred in idb:
            merged[pred] = idb[pred].with_name(pred)
        elif pred in db:
            merged[pred] = db[pred]
        else:
            merged[pred] = Relation.empty(pred, program.arity(pred))
    return db.with_relations(merged.values())


def idb_of(program: Program, interp: Database) -> IDBMap:
    """Extract the IDB valuation out of an interpretation."""
    return {p: interp[p] for p in program.idb_predicates}


# ----------------------------------------------------------------------
# Rule evaluation
# ----------------------------------------------------------------------


def _relation_for(interp: Database, pred: str, arity: int) -> Relation:
    rel = interp.get(pred)
    if rel is None:
        return Relation.empty(pred, arity)
    return rel


def _match_tuple(atom: Atom, t: Tuple, sub: Binding) -> Optional[Binding]:
    """Try to extend ``sub`` so that ``atom`` matches tuple ``t``.

    Handles repeated variables within the atom (``E(X, X)``) and constants
    in argument positions.  Returns the extended binding, or ``None`` when
    the tuple is incompatible with ``sub``.
    """
    merged = dict(sub)
    for arg, value in zip(atom.args, t):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        elif arg in merged:
            if merged[arg] != value:
                return None
        else:
            merged[arg] = value
    return merged


def _filter_ready(
    subs: List[Binding],
    filters: List[Literal],
    bound: Set[Variable],
    interp: Database,
    arities: Dict[str, int],
) -> Tuple[List[Binding], List[Literal]]:
    """Apply every filter whose variables are all bound; return the rest."""
    ready = [f for f in filters if f.variables() <= bound]
    rest = [f for f in filters if f.variables() - bound]
    for f in ready:
        subs = [s for s in subs if _filter_holds(f, s, interp, arities)]
        if not subs:
            break
    return subs, rest


def _term_value(t, sub: Binding) -> Any:
    return t.value if isinstance(t, Constant) else sub[t]


def _filter_holds(lit: Literal, sub: Binding, interp: Database, arities: Dict[str, int]) -> bool:
    if isinstance(lit, Negation):
        atom = lit.atom
        rel = _relation_for(interp, atom.pred, arities.get(atom.pred, atom.arity))
        return atom.ground_tuple(sub) not in rel
    if isinstance(lit, (Eq, Neq)):
        return lit.holds(_term_value(lit.left, sub), _term_value(lit.right, sub))
    raise TypeError("not a filter literal: %r" % (lit,))


def evaluate_rule(rule: Rule, interp: Database, arities: Optional[Dict[str, int]] = None) -> Set[Tuple]:
    """One-step consequences of a single rule on an interpretation.

    Returns the set of ground head tuples derivable from ``interp`` (which
    must contain values for every predicate the body mentions; missing
    relations are treated as empty).

    This is a thin compile-and-run wrapper over
    :mod:`repro.core.planning`: the rule is compiled to a
    :class:`~repro.core.planning.RulePlan` once (through the shared
    :data:`~repro.core.planning.PLAN_STORE`) and executed set-at-a-time
    by the batch executor with relation-cached indexes.  ``arities`` is
    kept for API compatibility; plans read arities off the atoms
    themselves.  The pre-planner evaluator survives as
    :func:`evaluate_rule_legacy` and is property-tested equivalent.
    """
    return execute_plan(PLAN_STORE.rule_plan(rule), interp).tuples


def evaluate_rule_legacy(rule: Rule, interp: Database, arities: Optional[Dict[str, int]] = None) -> Set[Tuple]:
    """The original per-round evaluator: re-plans and re-indexes each call.

    Kept as the reference implementation for the planner's property tests
    and as the baseline of ``benchmarks/bench_planner.py``.
    """
    arities = arities or {}
    universe = tuple(sorted(interp.universe, key=repr))

    positives = list(rule.positive_atoms())
    filters: List[Literal] = [
        t for t in rule.body if isinstance(t, (Negation, Eq, Neq))
    ]
    bound: Set[Variable] = set()
    subs: List[Binding] = [{}]

    # Phase 0: variable-free filters (zero-ary negations, constant
    # comparisons) gate the rule before any atom is matched.
    subs, filters = _filter_ready(subs, filters, bound, interp, arities)

    # Phase 1: bind through positive atoms, most-connected first.
    remaining = positives[:]
    while remaining and subs:
        remaining.sort(
            key=lambda a: (
                -len(a.variables() & bound),
                len(_relation_for(interp, a.pred, arities.get(a.pred, a.arity))),
            )
        )
        atom = remaining.pop(0)
        rel = _relation_for(interp, atom.pred, arities.get(atom.pred, atom.arity))
        key_positions = [
            i
            for i, arg in enumerate(atom.args)
            if isinstance(arg, Constant) or arg in bound
        ]
        index = HashIndex(rel, key_positions)
        new_subs: List[Binding] = []
        for sub in subs:
            key = tuple(
                atom.args[i].value
                if isinstance(atom.args[i], Constant)
                else sub[atom.args[i]]
                for i in key_positions
            )
            for t in index.lookup(key):
                extended = _match_tuple(atom, t, sub)
                if extended is not None:
                    new_subs.append(extended)
        subs = new_subs
        bound |= atom.variables()
        subs, filters = _filter_ready(subs, filters, bound, interp, arities)

    # Phase 2: active-domain completion for the remaining variables,
    # one variable at a time so filters prune as early as possible.
    unbound = sorted(rule.variables() - bound, key=lambda v: v.name)
    while unbound and subs:
        # Prefer the variable that readies the most filters.
        def readiness(v: Variable) -> int:
            would_bind = bound | {v}
            return sum(1 for f in filters if f.variables() <= would_bind)

        unbound.sort(key=lambda v: (-readiness(v), v.name))
        var = unbound.pop(0)
        extended: List[Binding] = []
        for s in subs:
            for value in universe:
                ns = dict(s)
                ns[var] = value
                extended.append(ns)
        subs = extended
        bound.add(var)
        subs, filters = _filter_ready(subs, filters, bound, interp, arities)

    if not subs:
        return set()
    assert not filters, "filters left with unbound variables: %r" % filters
    return {rule.head.ground_tuple(sub) for sub in subs}


# ----------------------------------------------------------------------
# The operator Theta
# ----------------------------------------------------------------------


def consequences(
    plans: Iterable[RulePlan], interp: Database, arities: Mapping[str, int]
) -> IDBMap:
    """Theta restricted to a plan list: head relations unioned per predicate.

    The one place rule outputs are folded into an IDB valuation —
    :func:`theta` and the fixpoint driver
    (:func:`repro.core.fixpoint.iterate`) both go through it.
    ``arities`` names every predicate of the result (one no plan derives
    for maps to the empty relation).  Heads the columnar
    executor derived stay code-only through the union.
    """
    derived = {p: Relation.empty(p, n) for p, n in arities.items()}
    for plan in plans:
        head = plan.head_pred
        derived[head] = derived[head].union(execute_plan(plan, interp))
    return derived


def theta(
    program: Program,
    db: Database,
    idb: Optional[IDBMap] = None,
    plan: Optional[ProgramPlan] = None,
) -> IDBMap:
    """Apply the consequence operator once: ``Theta(idb)``.

    ``db`` supplies the EDB relations (and, alternatively, current IDB
    values); ``idb`` overrides IDB values when given.  The result maps every
    IDB predicate to its *new* value — the paper's non-cumulative operator.

    ``plan`` is a compiled :class:`~repro.core.planning.ProgramPlan`;
    without one, the shared :data:`~repro.core.planning.PLAN_STORE` is
    consulted per call, so even ad-hoc callers avoid re-planning.
    """
    interp = as_interpretation(program, db, idb)
    if plan is None:
        plan = PLAN_STORE.program_plan(program)
    arities = {p: program.arity(p) for p in program.idb_predicates}
    return consequences(plan.plans, interp, arities)


def theta_legacy(program: Program, db: Database, idb: Optional[IDBMap] = None) -> IDBMap:
    """``theta`` via the pre-planner evaluator (reference/baseline path)."""
    interp = as_interpretation(program, db, idb)
    arities = program.arities
    derived: Dict[str, Set[Tuple]] = {p: set() for p in program.idb_predicates}
    for rule in program.rules:
        derived[rule.head.pred] |= evaluate_rule_legacy(rule, interp, arities)
    return {
        p: Relation(p, program.arity(p), tuples) for p, tuples in derived.items()
    }


def is_fixpoint(program: Program, db: Database, idb: Optional[IDBMap] = None) -> bool:
    """Check ``Theta(S) = S`` for the IDB valuation in ``idb``/``db``."""
    current = idb if idb is not None else idb_of(program, as_interpretation(program, db))
    return theta(program, db, current) == {
        p: r.with_name(p) for p, r in current.items()
    }
