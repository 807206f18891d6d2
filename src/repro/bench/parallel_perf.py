"""Scaling table for the sharded parallel executor.

``python -m repro.bench parallel`` times the sharded fixpoints against
the sequential engines on the two headline workloads — the win-move
game on the ``L_2000`` path under well-founded semantics, and the E8
distance program under inflationary semantics — at 1, 2, and 4 worker
processes.  Every row's ``ok`` asserts result equality against the
sequential engine (the executor's defining property) and nothing else:
the speed-up is reported, not asserted.  On win-move it reads under
0.01x at every worker count, because the sequential engine is linear in
the ground program while the workers run the restart-and-sweep
alternation (:mod:`repro.parallel.wellfounded`), the only shape with a
per-round barrier to shard.

The row set is fixed at {1, 2, 4} workers on every machine, never
capped to ``cpu_count``: the regression gate matches rows by name
across the committed baseline and the CI rerun, and a machine-shaped
table would make the gate compare different experiments.

``parallel s`` is the timing cell the CI regression gate
(``python -m repro.bench check``) compares against the committed
``BENCH_*.json`` baseline.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Tuple

from ..core.semantics.inflationary import inflationary_semantics
from ..core.semantics.wellfounded import well_founded_semantics
from ..db.database import Database
from ..db.relation import Relation
from ..queries.library import distance_program, win_move_program
from .harness import Table, register

_WORKERS = (1, 2, 4)
_WIN_N = 2000
_DISTANCE_N = 16


def _path_db(rel: str, n: int) -> Database:
    return Database(
        frozenset(range(1, n + 1)),
        [Relation(rel, 2, {(i, i + 1) for i in range(1, n)})],
    )


def _win_workload() -> Tuple[str, Callable[[int], object]]:
    program = win_move_program()
    db = _path_db("E", _WIN_N)

    def run(workers: int):
        result = well_founded_semantics(program, db, parallel=workers)
        return (result.true, result.undefined)

    return "win-move L_%d (wellfounded)" % _WIN_N, run


def _distance_workload() -> Tuple[str, Callable[[int], object]]:
    program = distance_program()
    db = _path_db("E", _DISTANCE_N)

    def run(workers: int):
        result = inflationary_semantics(program, db, parallel=workers)
        return {p: rel.tuples for p, rel in result.idb.items()}

    return "distance L_%d (inflationary)" % _DISTANCE_N, run


@register(
    "parallel",
    "PARALLEL: sharded fixpoints across worker processes",
    "sharded evaluation returns exactly the sequential engines' models "
    "on the headline workloads while splitting the per-round rule work "
    "across a process pool (PR 10 executor claim)",
)
def run_parallel() -> List[Table]:
    from ..parallel.pool import fork_available, shutdown_pools

    cores = os.cpu_count() or 1
    table = Table(
        "sharded vs sequential fixpoints",
        ["workload / workers", "parallel s", "sequential s", "speedup", "ok"],
    )
    table.note("machine has %d core(s)" % cores)
    if not fork_available():
        table.note("fork unavailable: parallel runs fall back to sequential")
    table.note(
        "ok = same model as the sequential engine; the speedup column is "
        "reported, not asserted (with fewer cores than workers the "
        "replicas time-slice and the cells measure exchange overhead)"
    )

    for name, run in (_win_workload(), _distance_workload()):
        started = time.perf_counter()
        expected = run(0)
        sequential_s = time.perf_counter() - started
        for workers in _WORKERS:
            started = time.perf_counter()
            got = run(workers)
            parallel_s = time.perf_counter() - started
            speedup = sequential_s / parallel_s if parallel_s else 0.0
            table.add(
                "%s / %d" % (name, workers),
                parallel_s,
                sequential_s,
                "%.3fx" % speedup,
                got == expected,
            )
    shutdown_pools()
    return [table]
