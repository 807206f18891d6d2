"""Materialized-view update latency against from-scratch evaluation.

:func:`measure_view_updates` is the one measurement behind every view
update-vs-recompute number: the ``perf`` experiment's materialize table
here and well-founded table in :mod:`repro.bench.wellfounded_perf`
(``python -m repro.bench perf``, snapshotted into the committed baseline
and gated by ``repro.bench check``), and the opt-in
``benchmarks/bench_materialize.py`` / ``bench_wellfounded_maintain.py``,
which run larger sizes and assert the ratios.  The whole measurement is
one :func:`~repro.bench.harness.collector_paused` block, so an update
and the recompute it is compared with are timed under the same protocol.

This module's scenario is the E8 distance program (Proposition 2) on the
path ``L_n``, under two single-tuple updates:

* **tail** — delete and re-insert the last edge ``(n-1, n)``: the
  natural append/retract at the end of a growing log.  Deletion is the
  hard direction (DRed over-delete + rederive on the TC strata, then a
  counted flip of every ``!S2`` literal the change touches).
* **shortcut** — insert and delete the chord ``(1, n)``: an update whose
  transitive closure is already known, isolating the counting layer.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Tuple

from ..core.program import Program
from ..core.semantics import stratified_semantics, well_founded_semantics
from ..db.database import Database
from ..graphs import generators as gg
from ..graphs.encode import graph_to_database
from ..materialize import Delta, MaterializedView
from ..queries import distance_program
from .harness import PROTOCOL, Table, collector_paused, timed


def recompute(program: Program, db: Database, semantics: str):
    """From-scratch evaluation under a view's ``stratified`` / ``wellfounded`` semantics."""
    engine = well_founded_semantics if semantics == "wellfounded" else stratified_semantics
    return engine(program, db)


def model(result, semantics: str):
    """What a maintained result must equal: the IDB, or both well-founded partitions."""
    return (result.true, result.undefined) if semantics == "wellfounded" else result.idb


def measure_view_updates(
    program: Program,
    make_db: Callable[[], Database],
    semantics: str,
    updates: Dict[str, Tuple[Delta, Delta]],
    rounds: int,
) -> Dict[str, Any]:
    """A view's single-tuple updates against recomputing it, in one measurement.

    Builds the view on ``make_db()`` (``build_s``); times every
    ``(update, undo)`` pair of ``updates`` ``rounds`` times (``<kind>_s``,
    the mean over both directions, and ``<kind>_changes``, the size of
    the update's changeset); times ``rounds`` evaluations on a fresh
    ``make_db()`` (``scratch_s``, the mean); and sets ``equal`` when the
    maintained model — every update is undone, so the view ends on the
    database it started from — equals the last evaluation's.
    """
    out: Dict[str, Any] = {}
    with collector_paused():
        db = make_db()
        view, out["build_s"] = timed(lambda: MaterializedView(program, db, semantics))
        for kind, (update, undo) in updates.items():
            times = []
            for _ in range(rounds):
                changes, seconds = timed(lambda: view.apply(update))
                times += [seconds, timed(lambda: view.apply(undo))[1]]
            out[kind + "_s"] = statistics.mean(times)
            out[kind + "_changes"] = len(changes)
        scratch = []
        for _ in range(rounds):
            fresh = make_db()
            reference, seconds = timed(lambda: recompute(program, fresh, semantics))
            scratch.append(seconds)
        out["scratch_s"] = statistics.mean(scratch)
    out["equal"] = model(view.result, semantics) == model(reference, semantics)
    return out


def measure_update_scenario(n: int, rounds: int = 2) -> Dict[str, Any]:
    """The distance program on ``L_n``: ``tail`` and ``shortcut`` against ``stratified_semantics``."""
    tail, shortcut = (n - 1, n), (1, n)
    updates = {
        "tail": (Delta.delete("E", tail), Delta.insert("E", tail)),
        "shortcut": (Delta.insert("E", shortcut), Delta.delete("E", shortcut)),
    }
    m = measure_view_updates(
        distance_program(), lambda: graph_to_database(gg.path(n)), "stratified", updates, rounds
    )
    return dict(m, n=n)


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
        "fresh database; both %s.  Speedups are informational here; the "
        ">=5x headline is asserted for the shortcut update at L_36 in "
        "benchmarks/bench_materialize.py, and the regression gate compares "
        "update s against the committed baseline." % PROTOCOL
    )
    return table
