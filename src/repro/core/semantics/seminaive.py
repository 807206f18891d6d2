"""Semi-naive least-fixpoint evaluation for (semi)positive programs.

Classical differential evaluation: a rule instance can only derive a *new*
tuple if at least one of its IDB body atoms is matched against a tuple
discovered in the previous round.  For each rule and each IDB body-atom
occurrence we build a *delta variant* in which that occurrence reads the
delta relation; per round we evaluate all variants, subtract what is already
known, and stop when the delta is empty.

The result is identical to :func:`repro.core.semantics.naive.naive_least_fixpoint`
(property-tested); only the work per round differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...db.database import Database
from ...db.relation import Relation
from ...obs import RECORDER, TRACER
from ...parallel.shard import SHARD
from ..literals import Atom
from ..operator import empty_idb
from ..planning import PLAN_STORE, execute_plan
from ..program import Program
from ..rules import Rule
from .base import (
    EvaluationResult,
    SemanticsError,
    is_semipositive,
    round_limit,
    round_limit_exceeded,
)

_DELTA_SUFFIX = "__delta"


def _delta_name(pred: str) -> str:
    return pred + _DELTA_SUFFIX


def _delta_variants(rule: Rule, idb: frozenset) -> List[Rule]:
    """One variant per positive IDB body occurrence, reading the delta there.

    Shared with the delta-driven inflationary engine
    (:mod:`~repro.core.semantics.incremental`).
    """
    variants: List[Rule] = []
    for position, lit in enumerate(rule.body):
        if isinstance(lit, Atom) and lit.pred in idb:
            body = list(rule.body)
            body[position] = Atom(_delta_name(lit.pred), lit.args)
            variants.append(Rule(rule.head, body))
    return variants


def seminaive_least_fixpoint(
    program: Program,
    db: Database,
    keep_trace: bool = False,
    max_rounds: Optional[int] = None,
    known_sizes: Optional[Dict[str, int]] = None,
    parallel: int = 0,
) -> EvaluationResult:
    """Compute the least fixpoint by differential (semi-naive) iteration.

    Accepts the same class of programs as the naive engine: positive and
    semipositive (negation over EDB only).

    ``known_sizes`` passes cardinalities the caller holds as facts —
    the stratified engine supplies the final sizes of already-evaluated
    lower strata.  The planner treats them as exact whether or not the
    working database carries the relations (db-absent facts are baked
    into the compile, db-present ones are already sized there), and the
    adaptive wrapper never burns a divergence re-plan on re-discovering
    a frozen relation's size.

    Raises
    ------
    SemanticsError
        If some IDB predicate occurs negated, or if the fixpoint needs
        more than ``max_rounds`` rounds.
    """
    if parallel and not SHARD.active:
        from ...parallel.executor import parallel_evaluate

        return parallel_evaluate("seminaive", program, db, nshards=parallel)
    if not is_semipositive(program):
        raise SemanticsError(
            "semi-naive evaluation requires a (semi)positive program"
        )
    idb_preds = program.idb_predicates

    base_rules = [r for r in program.rules if not _delta_variants(r, idb_preds)]
    recursive_variants: List[Rule] = []
    for r in program.rules:
        recursive_variants.extend(_delta_variants(r, idb_preds))

    # Plans come from the shared store — the delta variants included —
    # rather than compiling per run; the planner joins through the
    # (small) deltas first.  The variants are wrapped adaptively: a
    # variant's non-delta IDB atoms start as "unknown, assume large"
    # guesses, so the wrapper re-plans them once the observed sizes
    # diverge (bucketed store keys keep the variants shared).
    delta_preds = frozenset(_delta_name(p) for p in idb_preds)
    base_plans = PLAN_STORE.rule_plans(base_rules, db=db)
    adaptive_variants = PLAN_STORE.adaptive_rule_plans(
        recursive_variants,
        db=db,
        small_preds=delta_preds,
        known_sizes=known_sizes,
    )

    limit = round_limit(program, db, max_rounds)

    current = empty_idb(program)
    trace = [dict(current)] if keep_trace else None

    # Round 1: rules without IDB body atoms seed the iteration.
    arities = {p: program.arity(p) for p in idb_preds}
    with TRACER.span("seminaive.seed") as sp:
        interp = db.with_relations(current.values())
        derived: Dict[str, set] = {p: set() for p in idb_preds}
        # Under a shard context each worker evaluates its round-robin
        # slice of the base plans (deterministic order) and the seeds are
        # unioned at the first barrier.
        for plan in SHARD.plan_slice(base_plans):
            derived[plan.head_pred] |= execute_plan(
                plan, interp, stats=PLAN_STORE.statistics
            )
        derived = SHARD.merge_tuple_map(derived, arities)
        delta = {
            p: Relation(p, program.arity(p), derived[p] - current[p].tuples)
            for p in idb_preds
        }
        if sp:
            sp["rows_out"] = sum(len(delta[p]) for p in idb_preds)
    rounds = 0
    while any(delta[p] for p in idb_preds):
        rounds += 1
        if rounds > limit:
            raise round_limit_exceeded("seminaive", limit, max_rounds)
        with TRACER.span("seminaive.round") as sp:
            current = {p: current[p].union(delta[p]) for p in idb_preds}
            if keep_trace:
                trace.append(dict(current))
            # Sharded runs read only this worker's slice of the frontier
            # (partitioned by the shard plan's key columns); the per-round
            # derivations are re-unioned at the barrier below, so the
            # convergence test sees the same delta on every replica.
            interp = db.with_relations(
                list(current.values())
                + [
                    SHARD.frontier(p, delta[p]).with_name(_delta_name(p))
                    for p in idb_preds
                ]
            )
            derived = {p: set() for p in idb_preds}
            for plan in adaptive_variants.refresh(interp):
                derived[plan.head_pred] |= execute_plan(
                    plan, interp, stats=PLAN_STORE.statistics
                )
            derived = SHARD.merge_tuple_map(derived, arities)
            delta = {
                p: Relation(p, program.arity(p), derived[p] - current[p].tuples)
                for p in idb_preds
            }
            if sp:
                sp["round"] = rounds
                sp["rows_out"] = sum(len(delta[p]) for p in idb_preds)
    if RECORDER.enabled:
        RECORDER.inc("repro_engine_rounds_total", rounds)
    return EvaluationResult(
        program=program,
        db=db,
        idb=current,
        rounds=rounds,
        engine="seminaive",
        trace=trace,
    )
