"""Set-at-a-time execution of compiled rule plans (the row form).

This is the per-round hot path of every fixpoint engine:
:func:`execute_plan` runs a plan's batch program either columnar
(:mod:`~repro.core.planning.colexec`, chosen from the input size) or
here, over a :class:`BindingTable` — a fixed variable schema plus plain
value tuples — where every operation is a relational pass over the
whole frontier:

* :class:`~repro.core.planning.plan.BatchJoin` probes the relation's
  cached index (:meth:`repro.db.relation.Relation.index_on`) and appends
  columns with tuple concatenation;
* :class:`~repro.core.planning.plan.AntiJoin` filters the row set
  against the relation's tuple set in one pass — negation as an
  anti-join rather than a per-binding membership test (a frontier
  smaller than a code-only relation is packed to codes and probes its
  sorted vector instead of decoding it);
* :class:`~repro.core.planning.plan.ComplementJoin` completes variables
  *through* a negated atom by joining against the (lazily materialised,
  relation-cached) complement — or, for existence-only variables, by a
  complement non-emptiness check that appends nothing at all — instead
  of enumerating ``|A|^k`` candidates and filtering;
* :class:`~repro.core.planning.plan.ExtendDomain` is the residual
  active-domain cross product for variables no negation can complete.

:func:`solve_plan_table` is also what the grounder and the counting
views call directly: they need the satisfying rows, not just the heads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ...db.database import Database
from ...db.kernel import RelationCodes
from ...db.relation import Relation, universe_product
from ...obs import RECORDER, TRACER
from ..terms import Variable
from . import colexec
from .plan import (
    AntiJoin,
    BatchJoin,
    CmpOp,
    ComplementJoin,
    ExtendDomain,
    RulePlan,
)

Row = Tuple[Any, ...]

_MIN_REDUCE_SIZE = 32
"""Semi-join floor: relations smaller than this are cheaper to join
outright than to reduce — the pass skips them (the reduction is an
optimisation; results are identical either way)."""


class BindingTable:
    """A fixed variable schema plus a set of value rows.

    The batch executor's frontier: ``schema[i]`` names the variable bound
    by column ``i`` of every row.  Rows are plain tuples — extension is
    tuple concatenation, filtering is a list comprehension — and stay
    duplicate-free because every operation extends distinct rows with
    distinct suffixes or only removes rows.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Tuple[Variable, ...], rows: List[Row]) -> None:
        self.schema = schema
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:
        return "BindingTable(%s, %d rows)" % (
            "/".join(v.name for v in self.schema),
            len(self.rows),
        )


def _semijoin_reduce(
    plan: RulePlan, interp: Database
) -> Optional[Dict[int, Set[Row]]]:
    """Run the plan's Yannakakis prologue; reduced tuple sets by join index.

    Returns ``None`` when some joined relation is absent or empty (the
    join pipeline derives nothing; the executor's own early exit
    handles it), otherwise a map from join-step index to the reduced
    tuple set — only for steps the reduction actually shrank.  The
    sweeps work off cached structures: a source's key set is its
    relation's cached index bucket keys (:meth:`Relation.index_on`),
    and a target is only rescanned when its key set is not already
    covered — so a pass over already-reduced inputs (the common
    steady-state of a converged fixpoint round) costs per *distinct
    key*, not per tuple.
    """
    steps = plan.steps
    rels = [interp.get(step.pred) for step in steps]
    if any(rel is None or not rel for rel in rels):
        return None
    reduced: Dict[int, Set[Row]] = {}
    for sj in plan.semijoin_steps:
        target = reduced.get(sj.target)
        target_size = len(target) if target is not None else len(rels[sj.target])
        if target_size < _MIN_REDUCE_SIZE:
            continue  # cheaper to join outright than to reduce
        source = reduced.get(sj.source)
        if source is not None:
            source_keys: Any = {
                tuple(t[c] for c in sj.source_columns) for t in source
            }
        else:
            source_keys = rels[sj.source].index_on(sj.source_columns).keys()
        if target is not None:
            kept = {
                t
                for t in target
                if tuple(t[c] for c in sj.target_columns) in source_keys
            }
            if len(kept) != len(target):
                reduced[sj.target] = kept
                if not kept:
                    break
        else:
            index = rels[sj.target].index_on(sj.target_columns)
            if all(key in source_keys for key in index.keys()):
                continue  # fully covered: the semi-join would drop nothing
            kept = set()
            for key in index.keys():
                if key in source_keys:
                    kept.update(index.lookup(key))
            reduced[sj.target] = kept
            if not kept:
                break
    return reduced


def solve_plan_table(
    plan: RulePlan, interp: Database, semijoin: bool = True
) -> BindingTable:
    """Run the plan's batch program; the table binds ``plan.schema``.

    Existence-only completion variables (bound by an ``exists_only``
    complement check) carry no column — the table is the projection of
    the satisfying assignments onto the variables something downstream
    actually reads (head, filters), which is all ``execute_plan`` and the
    grounder ever consume.

    ``semijoin=False`` skips the plan's Yannakakis reduction prologue;
    results are identical either way (property-tested), only the work
    differs.
    """
    reduced: Optional[Dict[int, Set[Row]]] = None
    if semijoin and plan.semijoin_steps:
        reduced = _semijoin_reduce(plan, interp)
        if reduced:
            for join_idx, kept in reduced.items():
                if not kept:
                    return BindingTable(plan.schema, [])
    rows: List[Row] = [()]
    domain = None
    join_idx = -1
    for op in plan.ops:
        if not rows:
            break
        t = type(op)
        if t is BatchJoin:
            join_idx += 1
            rel = interp.get(op.pred)
            if rel is None or not rel:
                rows = []
                break
            kept = reduced.get(join_idx) if reduced else None
            if kept is not None:
                buckets: Dict[Tuple, List[Row]] = {}
                key_columns = op.key_columns
                for tup in kept:
                    buckets.setdefault(
                        tuple(tup[c] for c in key_columns), []
                    ).append(tup)
                lookup = lambda key, _b=buckets: _b.get(key, [])  # noqa: E731
            else:
                lookup = rel.index_on(op.key_columns).lookup
            key_spec = op.key
            out_positions = op.out_positions
            dup_checks = op.dup_checks
            all_const = all(is_const for is_const, _ in key_spec)
            out: List[Row] = []
            append = out.append
            if all_const:
                # Constant (or empty) key: one probe serves every row.
                matches = lookup(tuple(payload for _, payload in key_spec))
                matches = _dedup_check(matches, dup_checks)
                if out_positions == tuple(range(op.arity)):
                    # A fresh atom binding every position in order (delta
                    # atoms, typically) appends matched tuples wholesale.
                    for row in rows:
                        for m in matches:
                            append(row + m)
                else:
                    for row in rows:
                        for m in matches:
                            append(row + tuple(m[p] for p in out_positions))
            elif dup_checks:
                for row in rows:
                    key = tuple(
                        payload if is_const else row[payload]
                        for is_const, payload in key_spec
                    )
                    for m in lookup(key):
                        ok = True
                        for a, b in dup_checks:
                            if m[a] != m[b]:
                                ok = False
                                break
                        if ok:
                            append(row + tuple(m[p] for p in out_positions))
            else:
                for row in rows:
                    key = tuple(
                        payload if is_const else row[payload]
                        for is_const, payload in key_spec
                    )
                    for m in lookup(key):
                        append(row + tuple(m[p] for p in out_positions))
            rows = out
        elif t is AntiJoin:
            rel = interp.get(op.pred)
            if rel is None or not rel:
                continue  # nothing to exclude: the negation holds everywhere
            getters = op.getters
            codes = rel.code_only
            if codes is not None and len(rows) < len(rel):
                # The relation's rule for mixed representations: the
                # frontier is the small side, so *it* is packed to codes
                # and the code-only relation is never decoded.
                hit = codes.contains_rows(
                    [
                        tuple(
                            payload if is_const else row[payload]
                            for is_const, payload in getters
                        )
                        for row in rows
                    ]
                )
                rows = [row for row, out in zip(rows, hit.tolist()) if not out]
            else:
                tuples = rel.tuples
                rows = [
                    row
                    for row in rows
                    if tuple(
                        payload if is_const else row[payload]
                        for is_const, payload in getters
                    )
                    not in tuples
                ]
        elif t is CmpOp:
            lc, lp = op.left
            rc, rp = op.right
            if op.equal:
                rows = [
                    row
                    for row in rows
                    if (lp if lc else row[lp]) == (rp if rc else row[rp])
                ]
            else:
                rows = [
                    row
                    for row in rows
                    if (lp if lc else row[lp]) != (rp if rc else row[rp])
                ]
        elif t is ComplementJoin:
            rows = _complement_join(op, rows, interp, plan)
        elif t is ExtendDomain:
            if domain is None:
                domain = plan.completion_domain(interp)
            rows = [row + (v,) for row in rows for v in domain]
        else:  # pragma: no cover - compiler emits only the types above
            raise TypeError("unknown batch op: %r" % (op,))
    return BindingTable(plan.schema, rows)


def _dedup_check(matches, dup_checks):
    if not dup_checks:
        return matches
    out = []
    for m in matches:
        if all(m[a] == m[b] for a, b in dup_checks):
            out.append(m)
    return out


def _covers_universe(tuples, universe: frozenset, k: int) -> bool:
    """Whether ``tuples`` contains all of ``universe**k``.

    Exact even when ``tuples`` holds values outside the universe (rules
    can derive head constants the database never mentions): the cheap
    cardinality test only ever *rejects* coverage, and the rare
    len >= |A|^k case falls back to a subset check against the cached
    product.
    """
    total = len(universe) ** k
    if len(tuples) < total:
        return False
    return universe_product(universe, k) <= tuples


def _complement_join(
    op: ComplementJoin, rows: List[Row], interp: Database, plan: RulePlan
) -> List[Row]:
    k = len(op.free_positions)
    n = len(interp.universe)
    rel = interp.get(op.pred)
    if rel is None or not rel:
        # Absent/empty relation: the negation holds for every assignment,
        # so this is a plain universe completion (or a universe check).
        if op.exists_only:
            return rows if n > 0 else []
        full = universe_product(interp.universe, k)
        return [row + values for row in rows for values in full]

    if not op.bound_columns:
        if op.exists_only:
            # Only non-emptiness matters — no materialisation at all.
            return rows if not _covers_universe(rel.tuples, interp.universe, op.arity) else []
        # Pure case: every atom position is a fresh completion variable,
        # so the allowed assignments are exactly the complement relation —
        # materialised lazily, once per relation value per universe.
        values = rel.complement_on(interp.universe).tuples
        return [row + v for row in rows for v in values]

    # Keyed case: group rows by the bound part of the atom and extend each
    # group with A^k minus the matched projections — one probe per
    # *distinct key*, not per row.  The non-existence-check path goes
    # through the relation-cached KeyedComplement, so allowed-sets
    # survive across rounds and are *patched* (via eager cache
    # inheritance on the evolving relations) when
    # the relation gains or loses tuples, instead of being recomputed.
    bound_key = op.bound_key
    exists_only = op.exists_only
    out: List[Row] = []
    append = out.append
    if exists_only:
        index = rel.index_on(op.bound_columns)
        free_positions = op.free_positions
        cache: Dict[Tuple, Any] = {}
        for row in rows:
            key = tuple(
                payload if is_const else row[payload]
                for is_const, payload in bound_key
            )
            allowed = cache.get(key)
            if allowed is None:
                excluded = index.project(key, free_positions)
                allowed = cache[key] = not _covers_universe(
                    excluded, interp.universe, k
                )
            if allowed:
                append(row)
        return out
    keyed = rel.keyed_complement_on(
        interp.universe, op.bound_columns, op.free_positions
    )
    get_allowed = keyed.get
    for row in rows:
        key = tuple(
            payload if is_const else row[payload]
            for is_const, payload in bound_key
        )
        for values in get_allowed(key):
            append(row + values)
    return out


def execute_plan(
    plan: RulePlan, interp: Database, semijoin: bool = True
) -> Relation:
    """The head relation the plan derives from ``interp``.

    When the interned columnar kernel should lower the plan (codes fit
    64 bits, sizeable inputs — see
    :func:`~repro.core.planning.colexec.wants_plan`), the whole pipeline
    runs as vector arithmetic over the interpretation's symbol table and
    the result is a *code-only* relation over the head-code vector:
    nothing is externed here, and a fixpoint that keeps unioning such
    heads never builds their tuples.  Otherwise — and for any plan the
    columnar path declines mid-flight — the row executor produces the
    identical set as a tuple-backed relation.  Callers that need a
    Python set take ``.tuples``.
    """
    arity = len(plan.head_cols)
    with TRACER.span("rule") as sp:
        backend = "row"
        out: Optional[Relation] = None
        if colexec.wants_plan(plan, interp):
            result = colexec.execute_plan_codes(plan, interp, semijoin=semijoin)
            if result is not None:
                backend = "kernel"
                sym, head_codes = result
                out = Relation._from_codes(
                    plan.head_pred, arity, RelationCodes(sym, arity, head_codes)
                )
        if out is None:
            table = solve_plan_table(plan, interp, semijoin=semijoin)
            head = plan.head_cols
            out = Relation._from_frozenset(
                plan.head_pred,
                arity,
                frozenset(
                    tuple(
                        payload if is_const else row[payload]
                        for is_const, payload in head
                    )
                    for row in table.rows
                ),
            )
        if sp:
            sp["pred"] = plan.head_pred
            sp["rows_out"] = len(out)
            sp["backend"] = backend
    if RECORDER.enabled:
        RECORDER.inc("repro_engine_rule_executions_total")
        RECORDER.inc(
            "repro_engine_kernel_executions_total"
            if backend == "kernel"
            else "repro_engine_row_executions_total"
        )
    return out
