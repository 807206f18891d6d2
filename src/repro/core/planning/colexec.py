"""Columnar plan execution: the kernel-backed lowering of the batch ops.

This is the interned fast path of :func:`~repro.core.planning.batch
.execute_plan`.  Where the row executor threads a
:class:`~repro.core.planning.batch.BindingTable` of Python value tuples
through the plan, this executor threads a :class:`ColumnTable` — one
int64 id vector per bound schema column, under the interpretation's
:class:`~repro.db.kernel.SymbolTable` — and every op is vector
arithmetic over the relations' cached code vectors
(:meth:`~repro.db.relation.Relation.codes_on`):

* :class:`~repro.core.planning.plan.BatchJoin` probes a cached
  :class:`~repro.db.kernel.SortedRun` with two binary searches per
  probe vector and expands matches by position arithmetic — no per-row
  Python loop, no hashing;
* :class:`~repro.core.planning.plan.AntiJoin` packs each frontier row's
  atom fields into one row code and drops rows whose code occurs in the
  relation's sorted vector — negation as one membership sweep;
* :class:`~repro.core.planning.plan.ComplementJoin` completes variables
  by range arithmetic over the interned universe
  (:func:`~repro.db.kernel.universe_product_codes` minus the relation's
  codes), grouped per distinct bound key;
* the Yannakakis prologue reduces relations by sorted-key membership
  before any frontier column is built;
* the head projection packs head fields into one code per row and
  dedups with a single sort — the derived set *stays interned*:
  :func:`execute_plan_codes` returns the sorted unique head-code
  vector, and :func:`~repro.core.planning.batch.execute_plan` externs
  it back to tuples.

The executor returns ``None`` for any plan or interpretation it cannot
lower faithfully (zero-ary atoms, codes wider than 63 bits); callers
fall back to the row path, whose results are identical
(``tests/test_planner.py`` forces this path on every generated rule and
checks it against the reference evaluator and the row form).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ...db import kernel
from ...db.database import Database
from ...db.kernel import (
    RelationCodes,
    SortedRun,
    universe_ids,
    universe_product_codes,
)
from ...obs import RECORDER
from .plan import (
    AntiJoin,
    BatchJoin,
    CmpOp,
    ComplementJoin,
    ExtendDomain,
    RulePlan,
)

_MIN_REDUCE_SIZE = 256
"""Columnar semi-join floor — deliberately higher than the row
executor's 32.  A sorted-run probe never materialises non-matching
rows, so reducing a small scanned relation spends a membership sweep
(plus a fresh code subset and its column decode) to save expansion work
the probe would have skipped anyway; only targets big enough that the
scan itself is the cost are worth shrinking.  Results are identical
either way — the reduction is a pure optimisation."""

_AUTO_MIN_REL = 64
"""Plans with neither completion work nor a joined relation at least
this big stay on the row path — vector dispatch overhead beats the win
on tiny inputs."""


class ColumnTable:
    """The columnar frontier: one int64 id vector per bound variable.

    The interned twin of :class:`~repro.core.planning.batch.BindingTable`
    — ``schema`` is positional (column ``i`` binds the plan schema's
    ``i``-th variable); ``cols[i]`` holds the dense ids of that
    variable's values, all vectors of length ``nrows``.
    """

    __slots__ = ("cols", "nrows")

    def __init__(self, cols: List[Any], nrows: int) -> None:
        self.cols = cols
        self.nrows = nrows


# ----------------------------------------------------------------------
# Per-plan compiled state
# ----------------------------------------------------------------------

def _plan_state(plan: RulePlan):
    """(supported, max_width, constants, needs_universe) — static per plan.

    ``max_width`` is the widest code any op or the head must pack
    (checked against the symbol table's field width per call);
    ``constants`` is every constant the plan mentions, interned up
    front — together with the universe when any op completes over it —
    so encoding work inside the op loop is the only thing that can
    widen the field width mid-execution (and that is guarded by a
    generation check).

    Cached directly on the plan instance (``RulePlan`` is a frozen
    dataclass without slots): lookup is one ``__dict__`` read, where a
    hash-keyed side table would re-hash the plan's nested op tuples on
    every execution.
    """
    state = plan.__dict__.get("_colexec_state")
    if state is not None:
        return state
    widths = [len(plan.head_cols)]
    consts: List[Any] = [v for is_const, v in plan.head_cols if is_const]
    # Zero-ary heads are boolean derivations; the row path handles them.
    supported = bool(plan.head_cols)
    needs_universe = False
    for op in plan.ops:
        t = type(op)
        if t is BatchJoin:
            if op.arity == 0:
                supported = False
            widths.append(op.arity)
            consts.extend(v for is_const, v in op.key if is_const)
        elif t is AntiJoin:
            if op.arity == 0:
                supported = False
            widths.append(op.arity)
            consts.extend(v for is_const, v in op.getters if is_const)
        elif t is CmpOp:
            widths.append(1)
            for is_const, payload in (op.left, op.right):
                if is_const:
                    consts.append(payload)
        elif t is ComplementJoin:
            if op.arity == 0:
                supported = False
            widths.append(op.arity)
            consts.extend(v for is_const, v in op.bound_key if is_const)
            needs_universe = True
        elif t is ExtendDomain:
            widths.append(1)
            needs_universe = True
        else:  # pragma: no cover - compiler emits only the types above
            supported = False
    # Copy-scan detection: a single keyless scan whose head re-packs the
    # atom's columns verbatim (the ubiquitous base-case rule ``P(X,Y) :-
    # E(X,Y)``) derives exactly the relation's own row codes — already
    # sorted unique, no fold, no dedup.
    copy_scan = False
    if supported and len(plan.ops) == 1:
        op = plan.ops[0]
        if (
            type(op) is BatchJoin
            and not op.key_columns
            and not op.dup_checks
            and op.out_positions == tuple(range(op.arity))
            and plan.head_cols == tuple((False, i) for i in range(op.arity))
        ):
            copy_scan = True
    # Join steps consumed by a keyless scan (vs a sorted-run probe).
    # The columnar reducer only shrinks these: a probe never touches
    # rows outside the probed keys anyway, so reducing a probed relation
    # would spend a membership sweep to save nothing.
    scan_joins = frozenset(
        i
        for i, op in enumerate(o for o in plan.ops if type(o) is BatchJoin)
        if not op.key_columns
    )
    state = (
        supported,
        max(widths),
        tuple(consts),
        needs_universe,
        copy_scan,
        scan_joins,
    )
    object.__setattr__(plan, "_colexec_state", state)
    return state


def wants_plan(plan: RulePlan, interp: Database) -> bool:
    """Whether the columnar path should run this plan on this input.

    It takes supported plans with completion work (complement joins /
    domain extension — where range arithmetic wins regardless of size)
    or at least one joined relation big enough that vectorisation beats
    dispatch overhead.
    """
    if not _plan_state(plan)[0]:
        return False
    for op in plan.ops:
        t = type(op)
        if t is ComplementJoin or t is ExtendDomain:
            return True
        if t is BatchJoin:
            rel = interp.get(op.pred)
            if rel is not None and len(rel) >= _AUTO_MIN_REL:
                return True
    return False


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


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


def _expand(cols, rowidx):
    return [c[rowidx] for c in cols]


def _rel_codes(rel, sym, gen: int) -> Optional[RelationCodes]:
    """The relation's codes, or ``None`` if unusable for this execution.

    Encoding a relation whose values were never interned can widen the
    table's field width; every packed code built earlier in the same
    execution (probe keys, reduced subsets, product caches) would then
    disagree with the fresh encoding, so a generation change bails the
    whole plan out to the row path instead.
    """
    rc = rel.codes_on(sym)
    if rc is None or sym.generation != gen:
        return None
    return rc


def _subset_run(rc: RelationCodes, codes, key_columns) -> SortedRun:
    """A sorted run over a row subset of ``rc`` (reduced/dup-filtered)."""
    sub = RelationCodes(rc.symbols, rc.arity, codes)
    return sub.sorted_run(key_columns)


def _semijoin_reduce_codes(
    plan: RulePlan, interp: Database, sym, gen: int, scan_joins=None
):
    """The Yannakakis prologue on code vectors.

    Mirrors the row executor's ``_semijoin_reduce``: returns ``(map,
    rcs)`` where the map sends join-step index to the reduced code
    vector, only for steps the reduction actually shrank (it contains
    an empty vector when some step reduced to nothing — callers
    early-exit), and ``rcs`` is every join step's already-fetched
    :class:`RelationCodes` (the op loop reuses them instead of
    re-resolving each relation).  Returns the string ``"bail"`` when
    some relation cannot encode (caller falls to the row path) and
    ``None`` when some joined relation is absent or empty (the join
    derives nothing; the op loop's early exit handles it).
    """
    steps = plan.steps
    rcs: List[RelationCodes] = []
    for step in steps:
        rel = interp.get(step.pred)
        if rel is None or not rel:
            return None
        rc = _rel_codes(rel, sym, gen)
        if rc is None:
            return "bail"
        rcs.append(rc)
    reduced: Dict[int, Any] = {}
    for sj in plan.semijoin_steps:
        if scan_joins is not None and sj.target not in scan_joins:
            continue
        target = reduced.get(sj.target)
        target_codes = target if target is not None else rcs[sj.target].codes
        if len(target_codes) < _MIN_REDUCE_SIZE:
            continue
        source = reduced.get(sj.source)
        if source is not None:
            src_keys = kernel.dedup_sorted(
                _subset_run(rcs[sj.source], source, sj.source_columns).sorted_keys
            )
        else:
            src_keys = rcs[sj.source].sorted_run(sj.source_columns).distinct_keys()
        if target is None:
            # Unreduced target: its RelationCodes caches the column
            # views, so the key fold reuses them across rounds.
            tkeys = rcs[sj.target].key_codes(sj.target_columns)
        else:
            tsub = RelationCodes(sym, rcs[sj.target].arity, target_codes)
            tkeys = tsub.key_codes(sj.target_columns)
        mask = kernel._sorted_isin(tkeys, src_keys)
        if mask.all():
            continue  # fully covered: the semi-join would drop nothing
        kept = target_codes[mask]
        reduced[sj.target] = kept
        if len(kept) == 0:
            break
    return reduced, rcs


def execute_plan_codes(plan: RulePlan, interp: Database, semijoin: bool = True):
    """Run the plan columnar; counts lowered/declined when observed.

    Thin metrics facade over :func:`_execute_plan_codes` — see there for
    the contract.  Kept separate so the recorder guard stays out of the
    (long) lowering body.
    """
    out = _execute_plan_codes(plan, interp, semijoin)
    if RECORDER.enabled:
        RECORDER.inc(
            "repro_kernel_lowered_total"
            if out is not None
            else "repro_kernel_declined_total"
        )
    return out


def _execute_plan_codes(plan: RulePlan, interp: Database, semijoin: bool):
    """Run the plan columnar; ``(symbols, head_codes)`` or ``None``.

    ``head_codes`` is the sorted unique int64 vector of derived head
    tuples packed under ``symbols`` (the interpretation's table) — the
    interned twin of ``execute_plan``'s tuple set.  ``None`` means the
    plan or input cannot be lowered (caller falls back to the row
    executor); the empty derivation is an empty *vector*, not ``None``.
    """
    supported, max_width, consts, needs_universe, copy_scan, scan_joins = _plan_state(
        plan
    )
    if not supported:
        return None
    sym = interp.symbols()
    for v in consts:
        sym.intern(v)
    universe = interp.universe
    if needs_universe:
        universe_ids(sym, universe)
    if not sym.fits(max_width):
        return None
    gen = sym.generation
    b = sym.shift
    empty = np.empty(0, dtype=np.int64)

    if copy_scan:
        op = plan.ops[0]
        rel = interp.get(op.pred)
        if rel is None or not rel:
            return sym, empty
        rc = _rel_codes(rel, sym, gen)
        if rc is None:
            return None
        return sym, rc.codes

    reduced: Optional[Dict[int, Any]] = None
    step_rcs = None
    if semijoin and plan.semijoin_steps:
        out = _semijoin_reduce_codes(plan, interp, sym, gen, scan_joins)
        if out == "bail":
            return None
        if out is not None:
            reduced, step_rcs = out
            for kept in reduced.values():
                if len(kept) == 0:
                    return sym, empty

    cols: List[Any] = []
    nrows = 1
    join_idx = -1
    for op in plan.ops:
        if nrows == 0:
            break
        t = type(op)
        if t is BatchJoin:
            join_idx += 1
            if step_rcs is not None:
                # The reducer already resolved every join step's codes.
                rc = step_rcs[join_idx]
            else:
                rel = interp.get(op.pred)
                if rel is None or not rel:
                    nrows = 0
                    break
                rc = _rel_codes(rel, sym, gen)
                if rc is None:
                    return None
            kept = reduced.get(join_idx) if reduced else None
            if op.dup_checks:
                if kept is None:
                    kept = rc.codes[_dup_mask(rc, rc.codes, op.dup_checks)]
                else:
                    kept = kept[_dup_mask(rc, kept, op.dup_checks)]
            src = rc if kept is None else RelationCodes(sym, rc.arity, kept)
            if op.key_columns:
                run = src.sorted_run(op.key_columns)
                probe = _key_fold(op.key, cols, nrows, b, sym)
                sk = run.sorted_keys
                lefts = sk.searchsorted(probe, side="left")
                rights = sk.searchsorted(probe, side="right")
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
                match = run.order[
                    (lefts + counts - cum).repeat(counts) + _arange(total)
                ]
            else:
                # No key: cross every row with every (kept) tuple.
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
            cols = _expand(cols, rowidx)
            for p in op.out_positions:
                cols.append(src_cols[p][match])
            nrows = total
        elif t is AntiJoin:
            rel = interp.get(op.pred)
            if rel is None or not rel:
                continue
            rc = _rel_codes(rel, sym, gen)
            if rc is None:
                return None
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
        elif t is ExtendDomain:
            ids = universe_ids(sym, universe)
            m = len(ids)
            if m == 0:
                nrows = 0
                break
            rowidx = _arange(nrows).repeat(m)
            cols = _expand(cols, rowidx)
            cols.append(np.tile(ids, nrows))
            nrows *= m
        elif t is ComplementJoin:
            out = _complement_join_codes(op, cols, nrows, interp, sym, gen)
            if out is None:
                return None
            cols, nrows = out
        else:  # pragma: no cover - compiler emits only the types above
            return None
    if nrows == 0:
        return sym, empty
    head = _key_fold(plan.head_cols, cols, nrows, b, sym)
    return sym, kernel.sorted_unique(head)


def _dup_mask(rc: RelationCodes, codes, dup_checks):
    """Repeated-variable agreement mask over an explicit code subset."""
    sub = RelationCodes(rc.symbols, rc.arity, codes)
    sub_cols = sub.columns()
    mask = None
    for a, c2 in dup_checks:
        m = sub_cols[a] == sub_cols[c2]
        mask = m if mask is None else (mask & m)
    return mask


def _complement_join_codes(
    op: ComplementJoin, cols, nrows: int, interp: Database, sym, gen: int
):
    """Lower one complement join; ``(cols, nrows)`` or ``None`` (bail).

    Completion is range arithmetic: the allowed assignments per bound
    key are the universe product's code range minus the key's matched
    projections, computed on sorted vectors — ``|A|^k`` tuples are never
    materialised (the existence-only case touches no value columns at
    all).
    """
    k = len(op.free_positions)
    universe = interp.universe
    n = len(universe)
    b = sym.shift
    rel = interp.get(op.pred)

    if rel is None or not rel:
        if op.exists_only:
            return (cols, nrows) if n > 0 else (cols, 0)
        full = universe_product_codes(sym, universe, k)
        return _cross_free(cols, nrows, full, k, b)

    rc = _rel_codes(rel, sym, gen)
    if rc is None:
        return None

    if not op.bound_columns:
        product = universe_product_codes(sym, universe, op.arity if op.exists_only else k)
        if op.exists_only:
            covered = len(rc) >= len(product) and bool(
                kernel._sorted_isin(product, rc.codes).all()
            )
            return (cols, nrows) if not covered else (cols, 0)
        allowed = product[~kernel._sorted_isin(product, rc.codes)]
        return _cross_free(cols, nrows, allowed, k, b)

    # Keyed case: group relation rows by bound key, frontier rows by
    # probe key, and work per *distinct* key — the vector twin of the
    # row path's one-probe-per-distinct-key contract.
    if nrows == 0:
        return cols, 0
    product = universe_product_codes(sym, universe, k)
    total = len(product)
    bk = _key_fold(op.bound_key, cols, nrows, b, sym)
    combined = rc.key_codes(tuple(op.bound_columns) + tuple(op.free_positions))
    uniq = kernel.sorted_unique(combined)
    free_mask = (np.int64(1) << np.int64(b * k)) - np.int64(1)
    ukeys = uniq >> np.int64(b * k)
    ufree = uniq & free_mask
    # ``uniq`` is sorted, so its high (key) bits are non-decreasing:
    # distinct keys and their run extents fall out of one boundary scan.
    bnd = np.empty(len(ukeys), dtype=bool)
    bnd[0] = True
    np.not_equal(ukeys[1:], ukeys[:-1], out=bnd[1:])
    dstart = np.flatnonzero(bnd)
    dk = ukeys[dstart]
    dcount = np.diff(np.append(dstart, len(ukeys)))

    # Group frontier rows by probe key with a single stable sort; the
    # sort order doubles as the per-group row index (rows of group j
    # occupy one contiguous slice), so no second argsort is needed.
    order = np.argsort(bk, kind="stable")
    sb = bk[order]
    flag = np.empty(nrows, dtype=bool)
    flag[0] = True
    np.not_equal(sb[1:], sb[:-1], out=flag[1:])
    pdk = sb[flag]
    pinv = np.empty(nrows, dtype=np.int64)
    pinv[order] = np.cumsum(flag) - 1
    grp_counts = np.diff(np.append(np.flatnonzero(flag), nrows))
    slot = np.searchsorted(dk, pdk)

    if op.exists_only:
        keep = np.ones(nrows, dtype=bool)
        for j in range(len(pdk)):
            if slot[j] < len(dk) and dk[slot[j]] == pdk[j]:
                s, c = dstart[slot[j]], dcount[slot[j]]
                covered = c >= total and bool(
                    kernel._sorted_isin(product, ufree[s : s + c]).all()
                )
            else:
                covered = total == 0
            if covered:
                keep[pinv == j] = False
        cols = [c[keep] for c in cols]
        return cols, int(keep.sum())

    blocks_rows = []
    blocks_free = []
    pos = 0
    for j in range(len(pdk)):
        c = int(grp_counts[j])
        rows_j = order[pos : pos + c]
        pos += c
        if slot[j] < len(dk) and dk[slot[j]] == pdk[j]:
            s, cnt = dstart[slot[j]], dcount[slot[j]]
            excl = ufree[s : s + cnt]
            allowed = product[~kernel._sorted_isin(product, excl)]
        else:
            allowed = product
        m = len(allowed)
        if m == 0 or c == 0:
            continue
        blocks_rows.append(np.repeat(rows_j, m))
        blocks_free.append(np.tile(allowed, c))
    if not blocks_rows:
        return cols, 0
    rowidx = np.concatenate(blocks_rows)
    free_codes = np.concatenate(blocks_free)
    cols = _expand(cols, rowidx)
    _append_decoded(cols, free_codes, k, b)
    return cols, len(rowidx)


def _cross_free(cols, nrows: int, allowed, k: int, shift: int):
    """Cross every frontier row with every allowed free-value code."""
    m = len(allowed)
    if m == 0 or nrows == 0:
        return cols, 0
    rowidx = _arange(nrows).repeat(m)
    cols = _expand(cols, rowidx)
    tiled = np.tile(allowed, nrows)
    _append_decoded(cols, tiled, k, shift)
    return cols, nrows * m


def _append_decoded(cols, codes, k: int, shift: int) -> None:
    """Unpack mixed k-field codes into k id columns, appended in order."""
    mask = (np.int64(1) << np.int64(shift)) - np.int64(1)
    for j in range(k):
        cols.append((codes >> np.int64(shift * (k - 1 - j))) & mask)
