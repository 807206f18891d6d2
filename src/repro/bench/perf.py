"""Perf experiment: the shipped rule-execution path vs. its baselines.

Registered in the same harness as E1–E9 so ``python -m repro.bench perf``
prints wall-clock tables whose timed cells all call public entry points
(the engine functions, ``MaterializedView.apply``): the engines (compiled
plans, every one columnar) against the reference evaluator
``theta_legacy``; the engines' scaling at n, 2n, 4n; the materialized-view
scenario — single-tuple EDB update latency through ``MaterializedView``
against from-scratch recomputation; and the well-founded engine's scaling.
The ``ok`` columns assert what actually matters for correctness — all
paths produce the same valuations — while the timing columns document
the wins; speedups vary by machine, so they are reported, not asserted.
Every timed cell goes through :func:`~repro.bench.harness.timed`, the
collector collected once and paused for the measurement.
``--json`` emits the same tables as data; the newest committed
``BENCH_*.json`` is the snapshot the CI regression gate compares against
(``compiled s`` and ``update s`` cells).
"""

from __future__ import annotations

import random
from typing import Callable, List

from ..core.fixpoint import idb_equal, idb_union
from ..core.operator import IDBMap, empty_idb, theta_legacy
from ..core.semantics import (
    inflationary_semantics,
    naive_least_fixpoint,
    seminaive_least_fixpoint,
    well_founded_semantics,
)
from ..db.database import Database
from ..core.program import Program
from ..graphs import generators as gg
from ..graphs.algorithms import transitive_closure
from ..graphs.encode import graph_to_database
from ..obs import (
    RECORDER,
    TRACER,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    walk,
)
from ..queries import (
    distance_program,
    pi1,
    transitive_closure_program,
    win_move_program,
)
from .harness import PROTOCOL, Table, register, scaling_table, timed
from .materialize_perf import materialize_table
from .wellfounded_perf import wellfounded_scaling_table, wellfounded_table


def _legacy_least_fixpoint(program: Program, db: Database) -> IDBMap:
    current = empty_idb(program)
    while True:
        nxt = theta_legacy(program, db, current)
        if idb_equal(nxt, current):
            return current
        current = nxt


def _legacy_inflationary(program: Program, db: Database) -> IDBMap:
    current = empty_idb(program)
    while True:
        nxt = idb_union([current, theta_legacy(program, db, current)])
        if idb_equal(nxt, current):
            return current
        current = nxt


def _distance_size(n: int) -> int:
    """``|{(x, y, x*, y*) : d(x, y) <= d(x*, y*)}|`` on ``L_n``, in closed form.

    ``n - d`` pairs lie at distance ``d``; a pair at distance ``d`` is
    dominated by the ``(n-d)(n-d+1)/2`` pairs at distance ``>= d`` and by
    every unreachable pair (distance infinity).
    """
    reachable = n * (n - 1) // 2
    return sum(k**3 + k**2 for k in range(1, n)) // 2 + (n * n - reachable) * reachable


def engine_scaling_tables() -> List[Table]:
    """The relational engines at n, 2n, 4n (ROADMAP aim 1).

    The carrier grows faster than ``n`` (about ``n^2`` for the closure of
    G(n, 2n), ``n^4`` for the distance query), so the fit against the
    result size is the one that says whether an engine is linear in what
    it must produce.  A repetition is ``ok`` when the carrier's size
    equals an independent count (BFS closure / closed form).
    """

    def measure_with(engine, program, graphs, expected):
        def measure(n: int):
            db = graph_to_database(graphs[n])  # fresh: no caches, no symbol table
            result, seconds = timed(lambda: engine(program, db))
            size = len(result.carrier_value)
            return seconds, size, result.rounds, size == expected[n]

        return measure

    graphs = {n: gg.gnm(random.Random(n), n, 2 * n, loops=False) for n in (200, 400, 800)}
    tc = scaling_table(
        "seminaive_least_fixpoint scaling on transitive closure of G(n, 2n)",
        "result tuples",
        "engine s",
        [("G(%d,%d)" % (n, 2 * n), n) for n in graphs],
        measure_with(
            seminaive_least_fixpoint,
            transitive_closure_program(),
            graphs,
            {n: len(transitive_closure(g)) for n, g in graphs.items()},
        ),
        exponent_bound=1.3,
    )
    paths = {n: gg.path(n) for n in (8, 16, 32)}
    distance = scaling_table(
        "inflationary_semantics scaling on the distance query of L_n",
        "result tuples",
        "engine s",
        [("L_%d" % n, n) for n in paths],
        measure_with(
            inflationary_semantics,
            distance_program(),
            paths,
            {n: _distance_size(n) for n in paths},
        ),
        exponent_bound=1.3,
    )
    for table in (tc, distance):
        table.note(
            "engine s = wall time of one call of the public engine function on "
            "a fresh database (fit rows: the fastest at the largest size); "
            "exponent = least-squares slope of log(fastest s) against log(n) "
            "and against log(result tuples); ok on the second fit row = "
            "exponent <= 1.3; each call %s" % PROTOCOL
        )
    return [tc, distance]


def _count_obs_touchpoints(fn: Callable[[], object]) -> int:
    """Run ``fn`` once fully observed and count every instrumentation hit.

    Metrics go into a scratch registry (the process-wide one stays
    clean); spans are counted from the collected trace.  Counters
    incremented by an amount > 1 count their full amount even though
    they cost one facade call, so the touchpoint count — and therefore
    the overhead estimate built on it — errs high.
    """
    scratch = MetricsRegistry()
    enable_metrics(scratch)
    TRACER.start()
    try:
        fn()
    finally:
        roots = TRACER.stop()
        disable_metrics()
    touchpoints = sum(1 for _ in walk(roots))
    for family in scratch.families():
        for _, child in family.children():
            if family.kind == "histogram":
                touchpoints += child.count
            else:
                touchpoints += int(child.value)
    return touchpoints


_OBS_NS_PER_SITE_BOUND = 100


def observability_overhead_table() -> Table:
    """The gated claim: a disabled observability site costs < 100 ns.

    Every instrumented hot path early-returns off one attribute load
    (``RECORDER.inc`` / ``TRACER.span`` while disabled), so the
    disabled-path cost of a workload is bounded by (touchpoints crossed)
    x (cost of one disabled facade call).  Both factors are measured —
    the touchpoints by running the workload fully observed, the per-call
    cost by a microbenchmark of the disabled facade (40 ns on the 2-core
    box) — and the gate is on the per-site cost: the percentage it
    implies is reported, but a percentage of a 0.3 ms run moves with
    the run, not with the instrumentation.
    """
    calls = 200_000
    inc = RECORDER.inc

    def disabled_sites() -> None:
        for _ in range(calls):
            inc("repro_engine_rounds_total")

    # The fastest of five loops: the rest is the machine.
    ns_per_call = timed(disabled_sites, repeat=5)[1] / calls * 1e9

    n = 24
    path_db = graph_to_database(gg.path(n))
    win_db = graph_to_database(gg.path(64))
    cases = [
        (
            "seminaive/TC (L_%d)" % n,
            lambda: seminaive_least_fixpoint(
                transitive_closure_program(), path_db
            ),
        ),
        (
            "inflationary/pi_1 (L_%d)" % n,
            lambda: inflationary_semantics(pi1(), path_db),
        ),
        (
            "wellfounded/win (L_64)",
            lambda: well_founded_semantics(win_move_program(), win_db),
        ),
    ]
    table = Table(
        "observability disabled-path overhead (gated: ns/site < 100)",
        ["workload", "eval s", "obs sites", "ns/site", "overhead %", "ok"],
    )
    for name, fn in cases:
        _, eval_s = timed(fn, repeat=7)  # RECORDER and TRACER are off here
        sites = _count_obs_touchpoints(fn)
        overhead = sites * ns_per_call / (eval_s * 1e9) * 100.0
        table.add(
            name, eval_s, sites, "%.0f" % ns_per_call, "%.3f" % overhead,
            ns_per_call < _OBS_NS_PER_SITE_BOUND,
        )
    table.note(
        "overhead %% = obs sites x disabled-facade ns / un-observed runtime "
        "— an upper bound (sites counted from a fully observed run), "
        "reported; the ok column asserts ns/site < %d; eval s and the facade "
        "loop are the fastest of 7 and 5 runs, %s" % (_OBS_NS_PER_SITE_BOUND, PROTOCOL)
    )
    return table


@register(
    "perf",
    "PERF: compiled rule plans vs. legacy per-round evaluation",
    "The planner (compile once per rule, cache indexes on relations) "
    "computes exactly the valuations of the legacy evaluator, faster.",
)
def run_perf() -> List[Table]:
    n = 24
    path_db = graph_to_database(gg.path(n))
    # The distance program's unsafe rules complete variables over the whole
    # universe — work the planner cannot skip — so it runs on a smaller
    # instance to keep the experiment quick.
    small_db = graph_to_database(gg.path(8))

    cases = [
        (
            "naive/TC",
            lambda: naive_least_fixpoint(transitive_closure_program(), path_db).idb,
            lambda: _legacy_least_fixpoint(transitive_closure_program(), path_db),
        ),
        (
            "seminaive/TC",
            lambda: seminaive_least_fixpoint(
                transitive_closure_program(), path_db
            ).idb,
            lambda: _legacy_least_fixpoint(transitive_closure_program(), path_db),
        ),
        (
            "inflationary/pi_1",
            lambda: inflationary_semantics(pi1(), path_db).idb,
            lambda: _legacy_inflationary(pi1(), path_db),
        ),
        (
            "inflationary/distance (L_8)",
            lambda: inflationary_semantics(distance_program(), small_db).idb,
            lambda: _legacy_inflationary(distance_program(), small_db),
        ),
    ]

    table = Table(
        "compiled vs legacy on L_%d (unless noted)" % n,
        ["engine/program", "compiled s", "legacy s", "speedup", "equal", "ok"],
    )
    for name, compiled_fn, legacy_fn in cases:
        compiled, compiled_s = timed(compiled_fn, repeat=7)
        legacy, legacy_s = timed(legacy_fn, repeat=7)
        equal = idb_equal(compiled, legacy)
        speedup = legacy_s / compiled_s if compiled_s > 0 else float("inf")
        table.add(name, compiled_s, legacy_s, "%.1fx" % speedup, equal, equal)
    table.note(
        "timings are informational (machine-dependent): the fastest of 7 "
        "runs, %s; the ok column asserts result equality only" % PROTOCOL
    )

    # The serving path: materialized-view single-tuple update latency
    # against from-scratch stratified recomputation (PR-3 subsystem) and
    # live well-founded views against alternating-fixpoint recomputation
    # (PR-5 subsystem, the non-stratifiable workload class) with the
    # batch engine's own scaling beside them.
    return (
        [table]
        + engine_scaling_tables()
        + [materialize_table()]
        + [wellfounded_table(), wellfounded_scaling_table(), observability_overhead_table()]
    )
