"""KERNEL: interned columnar primitives vs. per-tuple evaluation.

The PR 7 kernel claims the core relational operations — equi-join,
anti-join, complement, and the Yannakakis semi-join filter — get a
step-change from running over dense int codes instead of Python tuples.
This experiment measures exactly those four primitives head to head:

* **legacy**: per-tuple shapes — a hash-dict probe for joins, key-set
  membership for anti/semi-joins, a set difference over the
  materialised universe product for complements — over ordinary Python
  tuples of strings.
* **kernel**: the same operations over :class:`~repro.db.kernel
  .RelationCodes` under a shared :class:`~repro.db.kernel.SymbolTable`.

Every row cross-checks the two answers tuple-for-tuple (the ``ok``
column), so the speedup figures can't come from computing a different
relation.  Encoding happens once outside the timed region — mirroring
the engine, where relations live in code space across fixpoint rounds
and interning cost amortises over the whole run.

The ``kernel s`` column is a gated timing column: the regression check
(``python -m repro.bench check``) compares it against the committed
``BENCH_*.json`` baseline, so a kernel-algebra regression trips CI
even before it shows up in the end-to-end tables.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Tuple

from ..db import kernel
from ..db.kernel import KeyMembership, RelationCodes, SymbolTable, as_codes
from .harness import PROTOCOL, Table, register, timed

# Workload shape: R and S share their join key in column 1, over few
# enough distinct keys that joins fan out (~2 matches per probe on average).
_N_R = 20_000
_N_S = 2_000
_N_KEYS = 1_000
# The complement runs over its own small universe — the product grows
# quadratically, and the point is range arithmetic vs. materialising it.
_N_COMPL_UNIVERSE = 140
_N_COMPL_ROWS = 5_000
_REPEATS = 3


def _dataset():
    """Deterministic relations: R(a, k) with 20k rows, S(c, k) with 2k."""
    rng = random.Random(20260808)
    keys = ["k%04d" % i for i in range(_N_KEYS)]
    r_rows = [
        ("a%05d" % i, keys[rng.randrange(_N_KEYS)]) for i in range(_N_R)
    ]
    s_rows = [
        ("c%05d" % i, keys[rng.randrange(_N_KEYS)]) for i in range(_N_S)
    ]
    universe = ["u%03d" % i for i in range(_N_COMPL_UNIVERSE)]
    compl_rows = set()
    while len(compl_rows) < _N_COMPL_ROWS:
        compl_rows.add(
            (universe[rng.randrange(len(universe))],
             universe[rng.randrange(len(universe))])
        )
    return r_rows, s_rows, universe, sorted(compl_rows)


# ----------------------------------------------------------------------
# Legacy: per-tuple operations over Python tuples
# ----------------------------------------------------------------------


def _legacy_join(r_rows, s_rows):
    index: Dict[str, List[Tuple[str, str]]] = {}
    for s in s_rows:
        index.setdefault(s[1], []).append(s)
    out = []
    for r in r_rows:
        for s in index.get(r[1], ()):
            out.append((r, s))
    return out


def _legacy_antijoin(r_rows, s_rows):
    keys = {s[1] for s in s_rows}
    return [r for r in r_rows if r[1] not in keys]


def _legacy_semijoin(r_rows, s_rows):
    keys = {s[1] for s in s_rows}
    return [r for r in r_rows if r[1] in keys]


def _legacy_complement(universe, rows):
    return set(product(universe, repeat=2)) - set(rows)


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------


@register(
    "kernel",
    "KERNEL: interned columnar primitives vs. per-tuple evaluation",
    "join, anti-join, complement, and semi-join filtering over dense int "
    "codes match the per-tuple answers exactly while running on flat "
    "int64 columns (PR 7 kernel claim)",
)
def run_kernel() -> List[Table]:
    r_rows, s_rows, universe, compl_rows = _dataset()

    legacy: Dict[str, Tuple[object, float]] = {
        "join": timed(lambda: _legacy_join(r_rows, s_rows), _REPEATS),
        "anti-join": timed(lambda: _legacy_antijoin(r_rows, s_rows), _REPEATS),
        "semi-join filter": timed(lambda: _legacy_semijoin(r_rows, s_rows), _REPEATS),
        "complement": timed(lambda: _legacy_complement(universe, compl_rows), _REPEATS),
    }

    table = Table(
        title="columnar kernel primitives (|R|=%d, |S|=%d, keys=%d)"
        % (_N_R, _N_S, _N_KEYS),
        columns=["op", "rows out", "legacy s", "kernel s", "speedup", "ok"],
    )

    # One symbol table spans both relations, as in a Database.
    sym = SymbolTable()
    rc = RelationCodes.encode(sym, 2, r_rows)
    sc = RelationCodes.encode(sym, 2, s_rows)
    csym = SymbolTable()
    cc = RelationCodes.encode(csym, 2, compl_rows)
    cuni = frozenset(universe)

    (li, ri), t = timed(lambda: kernel.join_codes(rc, sc, [(1, 1)]), _REPEATS)
    got = {(r_rows[i], s_rows[j]) for i, j in zip(li.tolist(), ri.tolist())}
    _row(table, "join", legacy["join"], t, len(li), got == set(legacy["join"][0]))

    codes, t = timed(lambda: kernel.antijoin_codes(rc, (1,), sc), _REPEATS)
    got = RelationCodes(sym, 2, codes).decode()
    _row(table, "anti-join", legacy["anti-join"], t, len(got),
         got == frozenset(legacy["anti-join"][0]))

    allowed = KeyMembership(as_codes(sc.key_codes((1,))))
    codes, t = timed(lambda: kernel.semijoin_filter(rc, (1,), allowed), _REPEATS)
    got = RelationCodes(sym, 2, codes).decode()
    _row(table, "semi-join filter", legacy["semi-join filter"], t, len(got),
         got == frozenset(legacy["semi-join filter"][0]))

    codes, t = timed(lambda: kernel.complement_codes(csym, cuni, cc), _REPEATS)
    got = RelationCodes(csym, 2, codes).decode()
    _row(table, "complement", legacy["complement"], t, len(got),
         got == frozenset(legacy["complement"][0]))

    table.note(
        "legacy = per-tuple hash index / key set / universe-product set "
        "over Python string tuples; best of %d runs per cell, %s; encoding "
        "is outside the timed region (relations live in code space across "
        "fixpoint rounds)." % (_REPEATS, PROTOCOL)
    )
    return [table]


def _row(table, op, legacy_entry, kernel_s, n_out, ok):
    legacy_s = legacy_entry[1]
    table.add(
        op,
        n_out,
        legacy_s,
        kernel_s,
        (legacy_s / kernel_s) if kernel_s > 0 else float("inf"),
        bool(ok),
    )
