"""Scaling table for the sharded well-founded engine.

``python -m repro.bench parallel`` times ``well_founded_semantics(...,
parallel=N)`` against the sequential engine on the win-move game over
the ``L_2000`` path at 1, 2 and 4 worker processes, the only engine with
a sharded path.  Every row's ``ok`` asserts the sharded model equals the
sequential one and nothing else: the speed-up is reported, not
asserted.  It reads about 0.002x at every worker count, because the
sequential engine is linear in the ground program while the workers run
the restart-and-sweep alternation (:mod:`repro.parallel.wellfounded`).

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
from typing import List

from ..core.semantics.wellfounded import well_founded_semantics
from ..db.database import Database
from ..db.relation import Relation
from ..queries.library import win_move_program
from .harness import Table, register

_WORKERS = (1, 2, 4)
_WIN_N = 2000


@register(
    "parallel",
    "PARALLEL: the sharded well-founded engine across worker processes",
    "sharded well-founded evaluation returns exactly the sequential "
    "engine's model while splitting the ground rules across a process "
    "pool",
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
        "workers time-slice and the cells measure exchange overhead)"
    )

    program = win_move_program()
    db = Database(
        frozenset(range(1, _WIN_N + 1)),
        [Relation("E", 2, {(i, i + 1) for i in range(1, _WIN_N)})],
    )
    name = "win-move L_%d (wellfounded)" % _WIN_N

    def run(workers: int):
        result = well_founded_semantics(program, db, parallel=workers)
        return (result.true, result.undefined)

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
