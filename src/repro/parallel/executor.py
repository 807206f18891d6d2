"""The sharded well-founded entry point and its worker-side handler.

``parallel_well_founded`` ships ``(program, db)`` to a pool of workers —
the database as packed code buffers over a canonically-built symbol
table, the program pickled once — and every worker runs
:func:`~repro.parallel.wellfounded.sharded_well_founded` on its slice.
Worker 0 returns the model (again as code buffers); every other worker
returns only its symbol-table fingerprint, which the parent checks
against its own table to enforce the code-comparability invariant the
whole exchange scheme rests on.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.program import Program
from ..db.database import Database
from ..db.relation import Relation
from . import ship
from .pool import HANDLERS, ParallelError, fork_available, get_pool
from .wellfounded import sharded_well_founded


def _encode_idb(table, idb) -> Dict[str, Tuple[int, Any]]:
    return {
        pred: (rel.arity, ship.encode_tuples(table, rel.arity, rel.tuples))
        for pred, rel in idb.items()
    }


def _decode_idb(table, payload: Dict[str, Tuple[int, Any]]):
    return {
        pred: Relation(pred, arity, ship.decode_tuples(table, arity, enc))
        for pred, (arity, enc) in payload.items()
    }


def _handle_evaluate(wid: int, nshards: int, payload: Dict[str, Any], exchange):
    program: Program = payload["program"]
    table = ship.build_table(payload["db"]["universe"], program)
    db = ship.load_database(table, payload["db"])
    result = sharded_well_founded(program, db, wid, nshards, table, exchange)
    fingerprint = ship.table_fingerprint(table)
    if wid != 0:
        return {"fingerprint": fingerprint}
    return {
        "fingerprint": fingerprint,
        "true": _encode_idb(table, result.true_idb()),
        "undefined": _encode_idb(table, result.undefined_idb()),
        "rounds": result.rounds,
    }


HANDLERS["evaluate"] = _handle_evaluate


def parallel_well_founded(program: Program, db: Database, nshards: int):
    """Well-founded model across ``nshards`` sharded worker processes.

    Falls back to the sequential engine when process forking is
    unavailable (the result is identical either way — sharding is an
    execution strategy, not a semantics).
    """
    if nshards < 1:
        raise ValueError("nshards must be >= 1")
    from ..core.semantics.wellfounded import WellFoundedResult, well_founded_semantics

    if not fork_available():
        return well_founded_semantics(program, db)

    table = ship.build_table(db.universe, program)
    payload = {"program": program, "db": ship.ship_database(table, db)}
    results = get_pool(nshards).run_job("evaluate", payload, table)
    expected = ship.table_fingerprint(table)
    for wid, res in enumerate(results):
        if res["fingerprint"] != expected:
            raise ParallelError(
                "shard %d symbol table diverged from the parent" % wid
            )
    res = results[0]
    return WellFoundedResult(
        program,
        db,
        _decode_idb(table, res["true"]),
        _decode_idb(table, res["undefined"]),
        res["rounds"],
    )
