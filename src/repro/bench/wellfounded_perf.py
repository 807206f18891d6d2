"""Well-founded evaluation and view maintenance (shared measurements).

Two tables of the ``perf`` experiment (``python -m repro.bench perf``,
snapshotted into the committed baseline and gated by ``repro.bench
check``) come from here, and the opt-in
``benchmarks/bench_wellfounded_maintain.py`` runs the first at larger
sizes.

The workload is the win–move game (``pi_1`` over reversed edges — the
paper's canonical *non-stratifiable* program) on the path ``L_n``, whose
alternating fixpoint needs ``~n/2`` outer rounds: every round decides
one more position walking back from the dead end.

**Update latency** (:func:`wellfounded_table`).  Two single-tuple
updates through ``MaterializedView(semantics="wellfounded")``:

* **probe** — insert and delete the self-loop ``(1, 1)`` at the node
  farthest from the dead end: one ground rule enters and leaves, and no
  atom changes status — the serving path's common case (most updates do
  not move the fixpoint).
* **flip** — delete and re-insert the final edge ``(n-1, n)``: moving
  the dead end flips the win/lose parity of the *entire* path, so the
  whole path goes undefined and the resumed alternation re-decides it in
  ~n/2 steps — maintenance's worst case, reported at the small size only.

From-scratch times run ``well_founded_semantics`` (grounding included —
that is what "recompute" costs) on a freshly built database, so no cache
asymmetry favours the view's long-lived relations; both sides are timed
by :func:`~repro.bench.materialize_perf.measure_view_updates`, in one
measurement with the collector paused.  A view update is an
over-deletion of the affected region plus the batch engine's own resume
loop over it, so the probe costs a few counter patches and the flip
about one pass over the ground program without the grounding; every row
asserts that the maintained model *equals* the recomputed one.

**Scaling** (:func:`wellfounded_scaling_table`).  The public
``well_founded_semantics`` on ``L_n`` for doubling ``n``, grounding
included, one row per repetition, with the log-log slope of the fastest
repetitions: the evidence that the engine is linear in the ground
program.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.semantics import well_founded_semantics
from ..graphs import generators as gg
from ..graphs.encode import graph_to_database
from ..materialize import Delta
from ..queries import win_move_program
from .harness import PROTOCOL, Table, scaling_table, timed
from .materialize_perf import measure_view_updates


def measure_wellfounded_scenario(
    n: int, rounds: int = 2, include_flip: bool = False
) -> Dict[str, Any]:
    """Win–move on ``L_n``: ``probe`` (and ``flip``) against ``well_founded_semantics``.

    ``flip_s`` is ``None`` unless ``include_flip``.
    """
    tail = (n - 1, n)
    updates = {"probe": (Delta.insert("E", (1, 1)), Delta.delete("E", (1, 1)))}
    if include_flip:
        updates["flip"] = (Delta.delete("E", tail), Delta.insert("E", tail))
    m = measure_view_updates(
        win_move_program(), lambda: graph_to_database(gg.path(n)), "wellfounded", updates, rounds
    )
    return dict({"flip_s": None}, **m, n=n)


def wellfounded_table(sizes=(400, 2000)) -> Table:
    """The perf experiment's well-founded maintenance table.

    Every row's ``ok`` cell asserts three-valued equality of the
    maintained model with the from-scratch one; the recompute/update
    ratio is reported beside it (``benchmarks/bench_wellfounded_maintain.py``
    asserts it, in one process, at its own sizes).
    """
    table = Table(
        "well-founded view: single-tuple EDB update vs alternating-fixpoint recompute",
        ["view/update", "update s", "scratch s", "scratch/update", "equal", "ok"],
    )
    largest = max(sizes)
    for n in sizes:
        m = measure_wellfounded_scenario(n, include_flip=(n != largest))
        rows = [("probe", m["probe_s"])]
        if m["flip_s"] is not None:
            rows.append(("flip", m["flip_s"]))
        for kind, seconds in rows:
            ratio = m["scratch_s"] / seconds if seconds > 0 else float("inf")
            table.add(
                "win-move (L_%d) %s" % (n, kind),
                seconds,
                m["scratch_s"],
                "%.2fx" % ratio,
                m["equal"],
                m["equal"],
            )
    table.note(
        "update s = mean latency of MaterializedView.apply on one EDB tuple "
        "(patched grounding, over-deletion of the affected region, resumed "
        "alternation); scratch s = well_founded_semantics on a fresh "
        "database, grounding included; both %s.  ok = the maintained model "
        "equals the recomputed one.  probe moves no atom; flip re-decides "
        "the whole path (the parity-flipping worst case)." % PROTOCOL
    )
    return table


SCALING_SIZES = (2500, 5000, 10000, 20000)
SCALING_EXPONENT_BOUND = 1.3  # four runs, collector paused, read 1.03-1.06
SCALING_REPETITIONS = 7
SCALING_LARGEST_BOUND_S = 1.0


def wellfounded_scaling_table() -> Table:
    """``well_founded_semantics`` on ``L_n`` for doubling ``n``, grounding included."""
    program = win_move_program()

    def measure(n: int):
        db = graph_to_database(gg.path(n))
        result, seconds = timed(lambda: well_founded_semantics(program, db))
        # On L_n exactly the nodes at odd distance from the dead end win.
        correct = result.is_total and len(result.true) == n // 2
        return seconds, n - 1, result.rounds, correct

    table = scaling_table(
        "well_founded_semantics scaling on win-move L_n (grounding included)",
        "ground rules",
        "wf s",
        [("L_%d" % n, n) for n in SCALING_SIZES],
        measure,
        SCALING_EXPONENT_BOUND,
        SCALING_LARGEST_BOUND_S,
        SCALING_REPETITIONS,
    )
    table.note(
        "wf s = wall time of one well_founded_semantics call on a fresh "
        "database (the fit rows show the fastest of %d at the largest size); "
        "exponent = least-squares slope of log(fastest s) against log(n) / "
        "log(ground rules); ok on the second fit row = exponent <= %.1f and "
        "the largest size under %.0f s (SCALING_EXPONENT_BOUND and "
        "SCALING_LARGEST_BOUND_S in repro.bench.wellfounded_perf).  Each call "
        "is %s, so no collector pass over the growing heap is in it; what is "
        "left above 1.0 is cache misses once the ground program outgrows L2."
        % (SCALING_REPETITIONS, SCALING_EXPONENT_BOUND, SCALING_LARGEST_BOUND_S, PROTOCOL)
    )
    return table
