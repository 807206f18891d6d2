"""The rule executor: a plan's batch program run over int64 id columns.

Every compiled :class:`~repro.core.planning.plan.RulePlan` runs here.
The frontier is a :class:`ColumnTable` — one int64 id vector per live
variable, under the interpretation's
:class:`~repro.db.kernel.SymbolTable` — and every op is vector
arithmetic over the relations' cached code vectors
(:meth:`~repro.db.relation.Relation.codes_on`):

* :class:`~repro.core.planning.plan.BatchJoin` probes a cached
  :class:`~repro.db.kernel.SortedRun` with two binary searches per
  probe vector, expands matches by position arithmetic and decodes the
  matched run rows' fields (:meth:`~repro.db.kernel.SortedRun.take`);
* :class:`~repro.core.planning.plan.AntiJoin` packs each frontier row's
  atom fields into one row code and drops rows whose code occurs in the
  relation's sorted vector;
* a completion variable is an ordinary keyless join with the universe
  relation ``@U``, and :class:`~repro.core.planning.plan.Project` keeps
  the columns later ops read, deduplicating rows by their packed code;
* zero-ary atoms are tests: a join keeps the frontier iff its relation
  is non-empty, an anti-join drops it iff the relation is non-empty.

Two entries: :func:`execute_plan_codes` packs the head and returns the
sorted unique head-code vector (a zero-ary head derives ``{()}`` iff a
row survives), and :func:`solve_plan` returns the frontier itself — the
total bindings the grounder and the counting views read, whatever the
pseudo-head's width.  Every relation a plan reads is resolved to codes
before the first op, so no generation bump can happen mid-plan.  Both
return ``None`` only when a relation (or the packed head) is wider than
63 bits; :mod:`~repro.core.planning.batch` then runs the Θ spec.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

import numpy as np

from ...db import kernel
from ...db.database import Database
from ...db.kernel import RelationCodes
from ...obs import RECORDER
from .plan import AntiJoin, BatchJoin, CmpOp, Project, RulePlan

class ColumnTable:
    """The columnar frontier: one int64 id vector per bound variable.

    ``cols[i]`` holds the dense ids of the plan schema's ``i``-th
    variable, all vectors of length ``nrows``.  Columns may be views of
    a relation's cached columns: readers must not write through them.
    """

    __slots__ = ("cols", "nrows")

    def __init__(self, cols: List[Any], nrows: int) -> None:
        self.cols = cols
        self.nrows = nrows

    def count(self, symbols, getters) -> Dict[tuple, int]:
        """How many rows project to each distinct ``getters`` tuple.

        The projection is packed into one code per row and counted with
        ``np.unique``; only the distinct tuples are decoded.  A single
        row is decoded directly, and a projection wider than 63 bits row
        by row from the id columns; both count as decoded all the same.
        """
        for is_const, payload in getters:
            if is_const:
                symbols.intern(payload)
        nrows = self.nrows
        if not nrows:
            return {}
        if not getters:
            return {(): nrows}
        if not symbols.fits(len(getters)):
            if RECORDER.enabled:
                RECORDER.inc("repro_relation_decoded_rows_total", nrows)
            cols = [
                np.full(nrows, symbols.intern(payload), dtype=np.int64)
                if is_const
                else self.cols[payload]
                for is_const, payload in getters
            ]
            return Counter(symbols.extern_rows(cols, nrows))
        if nrows == 1:
            if RECORDER.enabled:
                RECORDER.inc("repro_relation_decoded_rows_total", 1)
            ids = [
                symbols.intern(payload) if is_const else int(self.cols[payload][0])
                for is_const, payload in getters
            ]
            return {tuple([symbols.extern(i) for i in ids]): 1}
        codes = _key_fold(getters, self.cols, nrows, symbols.shift, symbols)
        distinct, counts = np.unique(codes, return_counts=True)
        heads = RelationCodes(symbols, len(getters), distinct).rows()
        return dict(zip(heads, counts.tolist()))


# ----------------------------------------------------------------------
# Per-plan compiled state
# ----------------------------------------------------------------------

def _plan_state(plan: RulePlan):
    """(width, constants, preds, copy_scan).

    ``width`` is the widest code any op must pack (the head's is checked
    separately, only where the head is packed); ``constants`` is every
    constant the plan mentions and ``preds`` every relation it reads —
    all interned or resolved before the op loop.

    Cached directly on the plan instance (``RulePlan`` is a frozen
    dataclass without slots): lookup is one ``__dict__`` read, where a
    hash-keyed side table would re-hash the plan's nested op tuples on
    every execution.
    """
    state = plan.__dict__.get("_colexec_state")
    if state is not None:
        return state
    widths = [0]
    consts: List[Any] = [v for is_const, v in plan.head_cols if is_const]
    preds: Dict[str, None] = {}
    for op in plan.ops:
        t = type(op)
        if t is BatchJoin:
            widths.append(op.arity)
            consts.extend(v for is_const, v in op.key if is_const)
            preds[op.pred] = None
        elif t is AntiJoin:
            widths.append(op.arity)
            consts.extend(v for is_const, v in op.getters if is_const)
            preds[op.pred] = None
        elif t is CmpOp:
            widths.append(1)
            for is_const, payload in (op.left, op.right):
                if is_const:
                    consts.append(payload)
        elif t is Project:
            widths.append(len(op.columns))
        else:  # pragma: no cover - compiler emits only the types above
            raise TypeError("unknown batch op: %r" % (op,))
    # Copy-scan detection: a single keyless scan whose head re-packs the
    # atom's columns verbatim (the ubiquitous base-case rule ``P(X,Y) :-
    # E(X,Y)``) derives exactly the relation's own row codes — already
    # sorted unique, no fold, no dedup.
    copy_scan = False
    if len(plan.ops) == 1:
        op = plan.ops[0]
        if (
            type(op) is BatchJoin
            and not op.key_columns
            and not op.dup_checks
            and op.out_positions == tuple(range(op.arity))
            and plan.head_cols == tuple((False, i) for i in range(op.arity))
        ):
            copy_scan = True
    state = (max(widths), tuple(consts), tuple(preds), copy_scan)
    object.__setattr__(plan, "_colexec_state", state)
    return state


def _resolve(plan: RulePlan, interp: Database, width: int):
    """``(symbols, codes by predicate)`` for one execution, or ``None``.

    Interns the plan's constants, then resolves every relation the plan
    reads to codes under the interpretation's table — ``None`` for an
    absent or empty one.
    Encoding a relation can widen the table's field width, retiring
    payloads resolved before it; the pass repeats until the generation
    is stable (the loop of ``Relation.evolve``), so every code
    the op loop sees is of one width.  ``None`` when a row of ``width``
    fields no longer fits 63 bits.
    """
    _, consts, preds, _ = _plan_state(plan)
    sym = interp.symbols()
    for v in consts:
        sym.intern(v)
    while True:
        generation = sym.generation
        if not sym.fits(width):
            return None
        rcs: Dict[str, Optional[RelationCodes]] = {}
        for pred in preds:
            rel = interp.get(pred)
            if rel is None or not rel:
                rcs[pred] = None
                continue
            rc = rel.codes_on(sym)
            if rc is None:
                return None
            rcs[pred] = rc
        if sym.generation == generation:
            return sym, rcs


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_plan_codes(plan: RulePlan, interp: Database):
    """Run the plan; ``(symbols, head_codes)`` or ``None``.

    ``head_codes`` is the sorted unique int64 vector of derived head
    tuples packed under ``symbols`` (the interpretation's table); the
    empty derivation is an empty *vector*.  ``None`` means a relation
    or the head is wider than 63 bits.
    """
    width, _, _, copy_scan = _plan_state(plan)
    resolved = _resolve(plan, interp, max(width, len(plan.head_cols)))
    if resolved is None:
        return None
    sym, rcs = resolved
    if copy_scan:
        rc = rcs[plan.ops[0].pred]
        head = _EMPTY if rc is None else rc.codes
    else:
        cols, nrows = _run(plan, sym, rcs)
        if nrows == 0:
            head = _EMPTY
        elif not plan.head_cols:
            head = np.zeros(1, dtype=np.int64)
        else:
            head = kernel.sorted_unique(
                _key_fold(plan.head_cols, cols, nrows, sym.shift, sym)
            )
    if RECORDER.enabled:
        RECORDER.inc("repro_kernel_lowered_total")
    return sym, head


def solve_plan(plan: RulePlan, interp: Database):
    """Run the plan without packing its head: ``(symbols, ColumnTable)``.

    The table binds ``plan.schema`` — under a pseudo-head naming every
    rule variable, the total bindings.  ``None`` means a relation the
    plan reads is wider than 63 bits.
    """
    resolved = _resolve(plan, interp, _plan_state(plan)[0])
    if resolved is None:
        return None
    sym, rcs = resolved
    cols, nrows = _run(plan, sym, rcs)
    if RECORDER.enabled:
        RECORDER.inc("repro_kernel_lowered_total")
    return sym, ColumnTable(cols, nrows)


_EMPTY = np.empty(0, dtype=np.int64)
_ARANGE = None


def _arange(n: int):
    """A read-only ``0..n-1`` view over one cached, growing buffer.

    Join expansion needs an iota vector on every probe; reslicing one
    shared buffer replaces two allocations per join.  Callers never
    write through the view.
    """
    global _ARANGE
    if _ARANGE is None or len(_ARANGE) < n:
        size = 1024
        if _ARANGE is not None:
            size = max(n, 2 * len(_ARANGE))
        elif n > size:
            size = n
        _ARANGE = np.arange(size, dtype=np.int64)
    return _ARANGE[:n]


def _key_fold(entries, cols, nrows: int, shift: int, sym):
    """Pack getter entries into one code per frontier row (vectorised).

    Single-column keys return the frontier column itself (callers only
    read the result); wider keys start from a copy of the first field
    instead of a zero vector, saving one shift/or pass.
    """
    is_const, payload = entries[0]
    if len(entries) == 1:
        if is_const:
            return np.full(nrows, sym.intern(payload), dtype=np.int64)
        return cols[payload]
    if is_const:
        probe = np.full(nrows, sym.intern(payload), dtype=np.int64)
    else:
        probe = cols[payload].copy()
    for is_const, payload in entries[1:]:
        probe <<= shift
        probe |= sym.intern(payload) if is_const else cols[payload]
    return probe


def _run(plan: RulePlan, sym, rcs):
    """The op loop: ``(cols, nrows)``, one column per ``plan.schema`` variable."""
    if any(rcs[op.pred] is None for op in plan.ops if type(op) is BatchJoin):
        return _no_rows(plan)  # an empty positive atom: nothing satisfies the body

    b = sym.shift
    cols: List[Any] = []
    nrows = 1
    for op in plan.ops:
        if nrows == 0:
            break
        t = type(op)
        if t is BatchJoin:
            if op.arity == 0:
                continue  # non-empty (checked above): the test holds
            src = rcs[op.pred]
            if op.dup_checks:  # repeated fresh variables must agree
                c = src.columns()
                keep = np.logical_and.reduce([c[x] == c[y] for x, y in op.dup_checks])
                src = RelationCodes(sym, src.arity, src.codes[keep])
            if op.key_columns:
                run = src.sorted_run(op.key_columns)
                probe = _key_fold(op.key, cols, nrows, b, sym)
                lefts, rights = run.bounds(probe)
                counts = rights - lefts
                cum = counts.cumsum()
                total = int(cum[-1])
                if total == 0:
                    nrows = 0
                    break
                rowidx = _arange(nrows).repeat(counts)
                # Match index of expanded row t is ``lefts[r] + (t -
                # start[r])`` for its source row r; folding the two
                # per-row terms before the repeat leaves one repeat and
                # one shared iota instead of three repeats.
                match = (lefts + counts - cum).repeat(counts) + _arange(total)
                fresh = run.take(match, op.out_positions)
            else:
                # No key: cross every row with every tuple.
                m = len(src)
                if m == 0:
                    nrows = 0
                    break
                if not cols:
                    # Leading scan: the frontier IS the relation —
                    # borrow its cached column views, no copies.
                    src_cols = src.columns()
                    cols = [src_cols[p] for p in op.out_positions]
                    nrows = m
                    continue
                total = nrows * m
                rowidx = _arange(nrows).repeat(m)
                match = np.tile(_arange(m), nrows)
                src_cols = src.columns()
                fresh = [src_cols[p][match] for p in op.out_positions]
            cols = [c[rowidx] for c in cols]
            cols.extend(fresh)
            nrows = total
        elif t is AntiJoin:
            rc = rcs[op.pred]
            if rc is None:
                continue  # nothing to exclude: the negation holds everywhere
            if op.arity == 0:
                nrows = 0
                break
            row_codes = _key_fold(op.getters, cols, nrows, b, sym)
            keep = ~kernel._sorted_isin(row_codes, rc.codes)
            cols = [c[keep] for c in cols]
            nrows = int(keep.sum())
        elif t is CmpOp:
            lc, lp = op.left
            rc_, rp = op.right
            left = sym.intern(lp) if lc else cols[lp]
            right = sym.intern(rp) if rc_ else cols[rp]
            if lc and rc_:
                if (left == right) != op.equal:
                    nrows = 0
                continue
            keep = (left == right) if op.equal else (left != right)
            cols = [c[keep] for c in cols]
            nrows = int(keep.sum())
        else:  # Project
            if not op.columns:
                cols, nrows = [], 1  # every row agreed on nothing: one is left
                continue
            codes = _key_fold(
                tuple((False, c) for c in op.columns), cols, nrows, b, sym
            )
            first = np.unique(codes, return_index=True)[1]
            cols = [cols[c][first] for c in op.columns]
            nrows = len(first)
    if nrows == 0:
        return _no_rows(plan)
    return cols, nrows


def _no_rows(plan: RulePlan):
    """The empty frontier: one empty column per schema variable."""
    return [_EMPTY] * len(plan.schema), 0
