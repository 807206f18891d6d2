"""Parallel engine entry points and their worker-side handlers.

``parallel_evaluate``/``parallel_well_founded`` ship ``(program, db)``
to a pool of replica workers — the database as packed code buffers over
a canonically-built symbol table, the program pickled once — and run the
*unchanged* sequential engine in every worker with the shard context
active.  Worker 0 returns the result (again as code buffers); every
other worker returns only its symbol-table fingerprint, which the
parent checks against its own table to enforce the code-comparability
invariant the whole exchange scheme rests on.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..db.database import Database
from ..db.relation import Relation
from ..core.program import Program
from . import ship
from .planner import build_shard_plan
from .pool import HANDLERS, ParallelError, fork_available, get_pool
from .shard import SHARD

_ENGINES = ("stratified", "inflationary", "seminaive", "wellfounded")


def _run_engine(semantics: str, program: Program, db: Database) -> Any:
    # Imported here: the semantics modules import repro.parallel.shard.
    if semantics == "stratified":
        from ..core.semantics.stratified import stratified_semantics

        return stratified_semantics(program, db)
    if semantics == "inflationary":
        from ..core.semantics.inflationary import inflationary_semantics

        return inflationary_semantics(program, db)
    if semantics == "seminaive":
        from ..core.semantics.seminaive import seminaive_least_fixpoint

        return seminaive_least_fixpoint(program, db)
    if semantics == "wellfounded":
        from .wellfounded import sharded_well_founded

        return sharded_well_founded(program, db)
    raise ParallelError("unknown parallel semantics %r" % semantics)


def _encode_idb(table, idb: Dict[str, Relation]) -> Dict[str, Tuple[int, Any]]:
    return {
        pred: (rel.arity, ship.encode_tuples(table, rel.arity, rel.tuples))
        for pred, rel in idb.items()
    }


def _decode_idb(table, payload: Dict[str, Tuple[int, Any]]) -> Dict[str, Relation]:
    return {
        pred: Relation(pred, arity, ship.decode_tuples(table, arity, enc))
        for pred, (arity, enc) in payload.items()
    }


def _encode_atoms(table, program: Program, atoms) -> Dict[str, Tuple[int, Any]]:
    grouped: Dict[str, set] = {p: set() for p in program.idb_predicates}
    for pred, values in atoms:
        grouped[pred].add(values)
    return {
        pred: (program.arity(pred), ship.encode_tuples(table, program.arity(pred), tuples))
        for pred, tuples in grouped.items()
    }


def _decode_atoms(table, payload: Dict[str, Tuple[int, Any]]) -> frozenset:
    out = set()
    for pred, (arity, enc) in payload.items():
        for t in ship.decode_tuples(table, arity, enc):
            out.add((pred, t))
    return frozenset(out)


def _handle_evaluate(wid: int, nshards: int, payload: Dict[str, Any], state, exchange):
    program: Program = payload["program"]
    table = ship.build_table(payload["db"]["universe"], program)
    db = ship.load_database(table, payload["db"])
    SHARD.activate(wid, nshards, table, payload["columns"], exchange)
    try:
        result = _run_engine(payload["semantics"], program, db)
    finally:
        SHARD.deactivate()
    fingerprint = ship.table_fingerprint(table)
    if wid != 0:
        return {"fingerprint": fingerprint}
    if payload["semantics"] == "wellfounded":
        return {
            "fingerprint": fingerprint,
            "true": _encode_atoms(table, program, result.true),
            "undefined": _encode_atoms(table, program, result.undefined),
            "rounds": result.rounds,
        }
    out: Dict[str, Any] = {
        "fingerprint": fingerprint,
        "idb": _encode_idb(table, result.idb),
        "rounds": result.rounds,
        "engine": result.engine,
    }
    if result.engine == "stratified":
        out["strata"] = tuple(tuple(sorted(layer)) for layer in result.strata)
    return out


HANDLERS["evaluate"] = _handle_evaluate


def _dispatch(semantics: str, program: Program, db: Database, nshards: int):
    """Ship an evaluate job; returns (worker0 result, parent table)."""
    table = ship.build_table(db.universe, program)
    payload = {
        "semantics": semantics,
        "program": program,
        "db": ship.ship_database(table, db),
        "columns": build_shard_plan(program).columns,
    }
    pool = get_pool(nshards)
    results = pool.run_job("evaluate", payload, table)
    expected = ship.table_fingerprint(table)
    for wid, res in enumerate(results):
        if res["fingerprint"] != expected:
            raise ParallelError(
                "shard %d symbol table diverged from the parent" % wid
            )
    return results[0], table


def parallel_evaluate(
    semantics: str, program: Program, db: Database, nshards: int
):
    """Evaluate ``program`` over ``db`` across ``nshards`` worker processes.

    Falls back to the sequential engine when process forking is
    unavailable (the result is identical either way — sharding is an
    execution strategy, not a semantics).
    """
    if semantics not in _ENGINES or semantics == "wellfounded":
        if semantics == "wellfounded":
            return parallel_well_founded(program, db, nshards)
        raise ParallelError("unknown parallel semantics %r" % semantics)
    if nshards < 1:
        raise ValueError("nshards must be >= 1")
    if not fork_available():
        return _run_engine(semantics, program, db)

    from ..core.semantics.base import EvaluationResult
    from ..core.semantics.stratified import StratifiedResult

    res, table = _dispatch(semantics, program, db, nshards)
    idb = _decode_idb(table, res["idb"])
    if res["engine"] == "stratified":
        return StratifiedResult(
            program=program,
            db=db,
            idb=idb,
            rounds=res["rounds"],
            engine="stratified",
            trace=None,
            strata=tuple(frozenset(layer) for layer in res["strata"]),
        )
    return EvaluationResult(
        program=program,
        db=db,
        idb=idb,
        rounds=res["rounds"],
        engine=res["engine"],
        trace=None,
    )


def parallel_well_founded(program: Program, db: Database, nshards: int):
    """Well-founded model across ``nshards`` sharded worker processes."""
    if nshards < 1:
        raise ValueError("nshards must be >= 1")
    from ..core.semantics.wellfounded import WellFoundedResult, well_founded_semantics

    if not fork_available():
        return well_founded_semantics(program, db)

    res, table = _dispatch("wellfounded", program, db, nshards)
    return WellFoundedResult(
        program=program,
        db=db,
        true=_decode_atoms(table, res["true"]),
        undefined=_decode_atoms(table, res["undefined"]),
        rounds=res["rounds"],
    )
