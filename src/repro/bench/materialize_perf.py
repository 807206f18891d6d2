"""The materialized-view update-latency scenario (shared measurement).

One measurement function serves two consumers: the ``perf`` experiment's
materialize table (``python -m repro.bench perf``, snapshotted into the
committed baseline and gated by ``repro.bench check``) and the opt-in
``benchmarks/bench_materialize.py``, which runs larger sizes and asserts
the headline claim — the shortcut update beating from-scratch stratified
recomputation on the E8 distance program.

The workload is the E8 distance program (Proposition 2) on the path
``L_n``, under two single-tuple updates:

* **tail** — delete and re-insert the last edge ``(n-1, n)``: the
  natural append/retract at the end of a growing log.  Deletion is the
  hard direction (DRed over-delete + rederive on the TC strata, then a
  counted flip of every ``!S2`` literal the change touches).
* **shortcut** — insert and delete the chord ``(1, n)``: an update whose
  transitive closure is already known, isolating the counting layer.

From-scratch times evaluate ``stratified_semantics`` on a freshly built
database (fresh relation objects, so no cache asymmetry with the view's
long-lived ones).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Tuple

from ..core.semantics import stratified_semantics
from ..graphs import generators as gg
from ..graphs.encode import graph_to_database
from ..materialize import Delta, MaterializedView
from ..queries import distance_program
from .harness import Table


def measure_update_scenario(n: int, rounds: int = 2) -> Dict[str, float]:
    """Update-latency measurements for the distance program on ``L_n``.

    Returns mean seconds for the tail and shortcut single-tuple updates
    (and the tuples each one's first change set holds), the from-scratch
    stratified recompute, the view build, and an ``equal`` flag
    asserting the maintained result matches a final from-scratch
    evaluation.
    """
    program = distance_program()
    start = time.perf_counter()
    view = MaterializedView(program, graph_to_database(gg.path(n)))
    build_s = time.perf_counter() - start

    def timed_updates(delta: Delta, undo: Delta) -> Tuple[float, int]:
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            changes = view.apply(delta)
            times.append(time.perf_counter() - start)
            start = time.perf_counter()
            view.apply(undo)
            times.append(time.perf_counter() - start)
        return statistics.mean(times), len(changes)

    tail = (n - 1, n)
    tail_s, tail_changes = timed_updates(
        Delta.delete("E", tail), Delta.insert("E", tail)
    )
    shortcut = (1, n)
    shortcut_s, shortcut_changes = timed_updates(
        Delta.insert("E", shortcut), Delta.delete("E", shortcut)
    )

    scratch_times = []
    for _ in range(rounds):
        fresh = graph_to_database(gg.path(n))
        start = time.perf_counter()
        reference = stratified_semantics(program, fresh)
        scratch_times.append(time.perf_counter() - start)
    scratch_s = statistics.mean(scratch_times)

    return {
        "n": n,
        "build_s": build_s,
        "tail_s": tail_s,
        "tail_changes": tail_changes,
        "shortcut_s": shortcut_s,
        "shortcut_changes": shortcut_changes,
        "scratch_s": scratch_s,
        "equal": view.result.idb == reference.idb,
    }


def materialize_table(sizes=(16, 24)) -> Table:
    """The perf experiment's materialize table (one row per update kind)."""
    table = Table(
        "materialized view: single-tuple EDB update vs from-scratch stratified",
        ["view/update", "update s", "scratch s", "speedup", "equal", "ok"],
    )
    for n in sizes:
        m = measure_update_scenario(n)
        for kind, seconds in (("tail", m["tail_s"]), ("shortcut", m["shortcut_s"])):
            speedup = m["scratch_s"] / seconds if seconds > 0 else float("inf")
            table.add(
                "distance (L_%d) %s" % (n, kind),
                seconds,
                m["scratch_s"],
                "%.1fx" % speedup,
                m["equal"],
                m["equal"],
            )
    table.note(
        "update s = mean latency of MaterializedView.apply on one EDB "
        "tuple (counting + DRed); scratch s = stratified_semantics on a "
        "fresh database.  Speedups are informational here; the >=5x "
        "headline is asserted for the shortcut update at L_36 in "
        "benchmarks/bench_materialize.py, and the regression gate compares update s "
        "against the committed baseline."
    )
    return table
