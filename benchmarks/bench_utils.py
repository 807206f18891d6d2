"""Helpers shared by the benchmark suite."""

from __future__ import annotations

import random
import statistics
from typing import Any, Dict

from repro import Database, Relation, parse_program
from repro.bench.harness import collector_paused, timed
from repro.bench.materialize_perf import model, recompute
from repro.core.semantics import stratified_semantics
from repro.graphs.generators import gnm
from repro.materialize import Delta, MaterializedView


def run_once(benchmark, fn):
    """Benchmark an experiment with a single measured round.

    Experiment runners are deterministic and some are seconds-long, so one
    round gives a faithful timing without minutes of repetition; the
    returned tables are also asserted, making every benchmark double as an
    integration check.
    """
    tables = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
    for table in tables:
        assert table.all_ok(), "failing rows in %r\n%s" % (table.title, table.render())
    return tables


def measure_growth_stream(
    source: str, semantics: str, n: int, m: int, reps: int = 40, seed: int = 7
) -> Dict[str, Any]:
    """Universe growth as a delta: fresh-node inserts on a random ``G(n, m)``.

    ``source`` reads one binary EDB relation ``E``.  Each repetition
    inserts ``E(u, f)`` for a never-seen ``f`` (*fresh*), deletes it,
    inserts the same edge again — ``f`` is now a known, isolated node
    (*known*: the same change to every relation, the universe aside) —
    and deletes it again.  Returns the median seconds of both inserts,
    the view's ``recomputes`` and an ``equal`` flag: the maintained
    result equals a from-scratch evaluation on the grown database.  The
    stream is one :func:`~repro.bench.harness.collector_paused` measurement.
    """
    rng = random.Random(seed)
    edges = gnm(rng, n, m, loops=True).edges
    program = parse_program(source)
    view = MaterializedView(
        program, Database(range(n), [Relation("E", 2, sorted(edges))]), semantics
    )

    fresh_s, known_s = [], []
    with collector_paused():
        for i in range(reps):
            edge = (rng.randrange(n), n + i)
            insert = Delta.insert("E", edge)
            fresh_s.append(timed(lambda: view.apply(insert))[1])
            view.apply(Delta.delete("E", edge))
            known_s.append(timed(lambda: view.apply(insert))[1])
            view.apply(Delta.delete("E", edge))
    equal = model(view.result, semantics) == model(recompute(program, view.db, semantics), semantics)
    return {
        "fresh_s": statistics.median(fresh_s),
        "known_s": statistics.median(known_s),
        "recomputes": view.recomputes,
        "equal": equal,
    }


def measure_single_edge_stream(
    source: str, n: int, m: int, reps: int = 40, seed: int = 7
) -> Dict[str, Any]:
    """Single-edge updates of a stratified view over a random ``G(n, m)``.

    ``source`` reads one binary EDB relation ``E`` (no self-loops).  After
    one warm-up update, ``reps`` updates strictly alternate a fresh edge
    in and a present edge out.  Returns their median seconds, the number
    of from-scratch join-index builds (``SortedRun.__init__`` calls) they
    made, the number of new relations ``Relation.evolve`` returned in
    them (``evolves``), the number of plans the counted predicates'
    delta variants ran (``solves``), and an ``equal`` flag: the view
    equals a recompute.  The stream is one
    :func:`~repro.bench.harness.collector_paused` measurement.
    """
    from repro.db import kernel
    from repro.materialize import counting

    rng = random.Random(seed)
    edges = set(gnm(rng, n, m, loops=False).edges)
    program = parse_program(source)
    view = MaterializedView(program, Database(range(n), [Relation("E", 2, sorted(edges))]))
    present = sorted(edges)
    builds = [0]
    evolves = [0]
    solves = [0]
    build = kernel.SortedRun.__init__
    evolve = Relation.evolve
    solve = counting.solve_bindings

    def counted(self, relation, key_columns):
        builds[0] += 1
        build(self, relation, key_columns)

    def counted_evolve(self, inserts=(), deletes=()):
        out = evolve(self, inserts, deletes)
        evolves[0] += out is not self
        return out

    def counted_solve(plan, interp):
        solves[0] += 1
        return solve(plan, interp)

    times = []
    with collector_paused():
        for index in range(reps + 1):
            if index % 2 == 0:
                while True:
                    edge = (rng.randrange(n), rng.randrange(n))
                    if edge[0] != edge[1] and edge not in edges:
                        break
                edges.add(edge)
                present.append(edge)
                delta = Delta.insert("E", edge)
            else:
                edge = present.pop(rng.randrange(len(present)))
                edges.discard(edge)
                delta = Delta.delete("E", edge)
            kernel.SortedRun.__init__ = counted if index else build
            Relation.evolve = counted_evolve if index else evolve
            counting.solve_bindings = counted_solve if index else solve
            try:
                seconds = timed(lambda: view.apply(delta))[1]
            finally:
                kernel.SortedRun.__init__ = build
                Relation.evolve = evolve
                counting.solve_bindings = solve
            if index:
                times.append(seconds)
    return {
        "p50_s": statistics.median(times),
        "index_builds": builds[0],
        "evolves": evolves[0],
        "solves": solves[0],
        "equal": view.result.idb == stratified_semantics(program, view.db).idb,
    }
