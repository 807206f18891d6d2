"""Compiled rule plans vs. the legacy per-round evaluator.

Pairs of benchmarks over identical work: the ``*_compiled`` variant runs
the engines as shipped (plans compiled once per rule, set-at-a-time batch
execution, indexes cached on relations) and the ``*_legacy`` variant
iterates ``theta_legacy``, which re-plans the join order and rebuilds
every hash index on every round — the seed behaviour.  Every measured
run also asserts the paths agree, so the speedup numbers are for
provably identical results.
"""

import pytest

from repro.core.fixpoint import idb_equal, idb_union
from repro.core.operator import empty_idb, theta, theta_legacy
from repro.core.semantics import (
    inflationary_semantics,
    naive_least_fixpoint,
    seminaive_least_fixpoint,
)
from repro.graphs import generators as gg, graph_to_database
from repro.queries import distance_program, pi1, transitive_closure_program

TC = transitive_closure_program()
PI1 = pi1()
DIST = distance_program()


def legacy_least_fixpoint(program, db):
    current = empty_idb(program)
    while True:
        nxt = theta_legacy(program, db, current)
        if idb_equal(nxt, current):
            return current
        current = nxt


def legacy_inflationary(program, db):
    current = empty_idb(program)
    while True:
        nxt = idb_union([current, theta_legacy(program, db, current)])
        if idb_equal(nxt, current):
            return current
        current = nxt


# ----------------------------------------------------------------------
# One Theta round on a converged TC valuation (pure operator cost)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 32])
def test_theta_round_compiled(benchmark, n):
    db = graph_to_database(gg.path(n))
    idb = naive_least_fixpoint(TC, db).idb
    result = benchmark(theta, TC, db, idb)
    assert idb_equal(result, idb)


@pytest.mark.parametrize("n", [16, 32])
def test_theta_round_legacy(benchmark, n):
    db = graph_to_database(gg.path(n))
    idb = naive_least_fixpoint(TC, db).idb
    result = benchmark(theta_legacy, TC, db, idb)
    assert idb_equal(result, idb)


# ----------------------------------------------------------------------
# Full engine runs, compiled vs. legacy iteration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 24])
def test_naive_tc_compiled(benchmark, n):
    db = graph_to_database(gg.path(n))
    result = benchmark(naive_least_fixpoint, TC, db)
    assert len(result.idb["S"]) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [16, 24])
def test_naive_tc_legacy(benchmark, n):
    db = graph_to_database(gg.path(n))
    result = benchmark(legacy_least_fixpoint, TC, db)
    assert len(result["S"]) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [16, 24])
def test_seminaive_tc_compiled(benchmark, n):
    db = graph_to_database(gg.path(n))
    result = benchmark(seminaive_least_fixpoint, TC, db)
    assert len(result.idb["S"]) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [16, 24])
def test_inflationary_pi1_compiled(benchmark, n):
    db = graph_to_database(gg.path(n))
    result = benchmark(inflationary_semantics, PI1, db)
    assert result.idb["T"]


@pytest.mark.parametrize("n", [16, 24])
def test_inflationary_pi1_legacy(benchmark, n):
    db = graph_to_database(gg.path(n))
    result = benchmark(legacy_inflationary, PI1, db)
    assert result["T"]


@pytest.mark.parametrize("n", [8, 12])
def test_inflationary_distance_compiled(benchmark, n):
    # The completion-bound program: @U joins plus anti-joins, set at a
    # time, against the legacy evaluator's per-binding completion.
    db = graph_to_database(gg.path(n))
    result = benchmark(inflationary_semantics, DIST, db)
    assert idb_equal(result.idb, legacy_inflationary(DIST, db))
