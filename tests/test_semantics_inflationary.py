"""Tests for Inflationary DATALOG (Section 4)."""

import pytest
from hypothesis import given

from repro import Database, Relation, parse_program
from repro.core.fixpoint import idb_leq, idb_union
from repro.core.operator import empty_idb, is_fixpoint, theta, theta_legacy
from repro.core.semantics import (
    SemanticsError,
    inflationary_semantics,
    stratified_semantics,
    theta_stage,
)
from repro.graphs import generators as gg, graph_to_database
from repro.queries import distance_program

from strategies import random_programs, small_databases


def test_toggle_gives_full_relation():
    """Paper: 'For the program T(x) :- !T(y) we have Theta^inf = A'.

    One round, not two: a rule with no positive IDB atom fires its
    largest set in round 1 and never again — the observation the
    delta-driven engine rests on.
    """
    p = parse_program("T(X) :- !T(Y).")
    db = Database({1, 2, 3}, [])
    result = inflationary_semantics(p, db)
    assert set(result.carrier_value.tuples) == {(1,), (2,), (3,)}
    assert result.rounds == 1


def test_nothing_derivable_is_zero_rounds():
    p = parse_program("T(X) :- E(X, X).")
    db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    result = inflationary_semantics(p, db)
    assert len(result.carrier_value) == 0
    assert result.rounds == 0


def test_pi1_gives_nodes_with_predecessor(pi1_program, path4_db):
    """Paper: 'Theta^inf = {x : exists y E(y, x)}' for pi_1."""
    result = inflationary_semantics(pi1_program, path4_db)
    assert set(result.carrier_value.tuples) == {(2,), (3,), (4,)}
    assert result.rounds == 1


def test_result_need_not_be_a_fixpoint():
    """Section 4's warning: Theta^inf may fail to be a fixpoint of Theta."""
    p = parse_program("T(X) :- !T(Y).")
    db = Database({1, 2}, [])
    result = inflationary_semantics(p, db)
    assert not is_fixpoint(p, db, result.idb)
    assert len(theta(p, db, result.idb)["T"]) == 0


def test_coincides_with_lfp_on_tc():
    from repro.core.semantics import naive_least_fixpoint

    tc = parse_program("S(X, Y) :- E(X, Y). S(X, Y) :- E(X, Z), S(Z, Y).")
    db = graph_to_database(gg.random_digraph(6, 0.3, seed=11))
    assert inflationary_semantics(tc, db).idb == naive_least_fixpoint(tc, db).idb


def test_trace_is_increasing(pi1_program, cycle4_db):
    result = inflationary_semantics(pi1_program, cycle4_db, keep_trace=True)
    for earlier, later in zip(result.trace, result.trace[1:]):
        assert idb_leq(earlier, later)


@given(random_programs(), small_databases())
def test_stage_function_matches_trace(program, db):
    """The delta-driven engine walks the paper's chain stage by stage.

    ``trace[k]`` is ``Theta^k`` (full Theta, the specification) on every
    DATALOG¬ program, IDB negation included, and ``rounds`` is the
    paper's ``n_0`` — the first ``n`` with ``Theta^n = Theta^{n+1}`` —
    counted here by iterating the pre-planner ``theta_legacy``.
    """
    result = inflationary_semantics(program, db, keep_trace=True)
    assert len(result.trace) == result.rounds + 1
    for k, snapshot in enumerate(result.trace):
        assert theta_stage(program, db, k) == snapshot
    stage, n0 = empty_idb(program), 0
    while True:
        nxt = idb_union([stage, theta_legacy(program, db, stage)])
        if nxt == stage:
            break
        stage, n0 = nxt, n0 + 1
    assert result.rounds == n0
    assert result.idb == stage


def test_stage_rejects_negative():
    p = parse_program("T(X) :- !T(Y).")
    with pytest.raises(ValueError):
        theta_stage(p, Database({1}, []), -1)


def test_distance_program_on_path():
    """Proposition 2, small concrete check: D(1,3, 1,2) fails (2 > 1) and
    D(1,2, 1,3) holds (1 <= 2) on the path 1->2->3."""
    db = graph_to_database(gg.path(3))
    carrier = inflationary_semantics(distance_program(), db).carrier_value
    assert (1, 2, 1, 3) in carrier
    assert (1, 3, 1, 2) not in carrier
    assert (1, 3, 3, 1) in carrier  # no path 3 -> 1 at all


@pytest.mark.parametrize("n", [4, 5, 6])
def test_distance_program_is_not_its_stratified_reading(n):
    """Theta^infinity counts stages *simultaneously* across predicates:
    ``S3`` sees ``S2`` as it stood one stage earlier, which is what
    compares distances.  Evaluated component by component (the
    stratified reading) ``S2`` is complete before ``S3`` starts and the
    same rules compute ``TC and not TC`` — a different query.  So the
    inflationary engine must never be run SCC-by-SCC.
    """
    db = graph_to_database(gg.path(n))
    inflationary = inflationary_semantics(distance_program(), db).relation("S3")
    stratified = stratified_semantics(distance_program(), db).relation("S3")
    assert inflationary != stratified
    assert stratified.issubset(inflationary)
    assert (1, 2, 1, 3) in inflationary  # d(1,2) = 1 <= 2 = d(1,3)
    assert (1, 2, 1, 3) not in stratified  # (1,3) is in TC


def test_max_rounds_caps_a_program_with_idb_negation():
    db = graph_to_database(gg.path(5))
    rounds = inflationary_semantics(distance_program(), db).rounds
    assert rounds == 4
    assert inflationary_semantics(distance_program(), db, max_rounds=4).rounds == 4
    with pytest.raises(SemanticsError):
        inflationary_semantics(distance_program(), db, max_rounds=3)


@given(random_programs(), small_databases())
def test_total_on_all_programs_and_bounded(program, db):
    """Inflationary semantics is defined on every program and stabilises
    within the |A|^k bound (the paper's polynomial-time argument)."""
    result = inflationary_semantics(program, db)
    n = len(db.universe)
    bound = sum(n ** program.arity(p) for p in program.idb_predicates)
    assert result.rounds <= bound
    # Applying one more inflationary step changes nothing.
    from repro.core.semantics import inflationary_step

    assert inflationary_step(program, db, result.idb) == result.idb


@given(random_programs(), small_databases())
def test_stages_are_increasing(program, db):
    result = inflationary_semantics(program, db, keep_trace=True)
    for earlier, later in zip(result.trace, result.trace[1:]):
        assert idb_leq(earlier, later)
