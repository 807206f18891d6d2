"""Tests for naive and semi-naive least-fixpoint engines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Database, Relation, parse_program
from repro.core.fixpoint import differential_plans, idb_equal, iterate
from repro.core.operator import is_fixpoint
from repro.core.planning import compile_rule
from repro.core.semantics import (
    SemanticsError,
    inflationary_semantics,
    naive_least_fixpoint,
    seminaive_least_fixpoint,
)
from repro.graphs import generators as gg, graph_to_database

from strategies import positive_programs, random_programs, small_databases


@pytest.mark.parametrize("slack", [-1, 0, 1])
@pytest.mark.parametrize(
    "engine",
    [
        naive_least_fixpoint,
        seminaive_least_fixpoint,
        inflationary_semantics,
    ],
)
def test_max_rounds_is_a_cap_on_result_rounds(engine, slack, tc_program):
    # One contract for the three iterating engines: max_rounds=r succeeds
    # iff result.rounds <= r (the confirming application is free), and a
    # caller-set cap that is hit is a SemanticsError, never an assertion.
    db = graph_to_database(gg.path(6))  # TC reaches its fixpoint in 5 rounds
    if slack < 0:
        with pytest.raises(SemanticsError):
            engine(tc_program, db, max_rounds=5 + slack)
    else:
        assert engine(tc_program, db, max_rounds=5 + slack).rounds == 5


class TestNaive:
    def test_tc_on_path(self, tc_program, path4_db):
        result = naive_least_fixpoint(tc_program, path4_db)
        assert set(result.idb["S"].tuples) == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        }
        assert result.engine == "naive"

    def test_result_is_a_fixpoint(self, tc_program, path4_db):
        result = naive_least_fixpoint(tc_program, path4_db)
        assert is_fixpoint(tc_program, path4_db, result.idb)

    def test_rejects_negated_idb(self, pi1_program, path4_db):
        with pytest.raises(SemanticsError):
            naive_least_fixpoint(pi1_program, path4_db)

    def test_accepts_semipositive(self, path4_db):
        p = parse_program("T(X) :- E(X, Y), !E(Y, X).")
        result = naive_least_fixpoint(p, path4_db)
        assert set(result.idb["T"].tuples) == {(1,), (2,), (3,)}

    def test_accepts_inequality_over_edb(self, path4_db):
        p = parse_program("T(X) :- E(X, Y), X != Y.")
        naive_least_fixpoint(p, path4_db)

    def test_trace(self, tc_program, path4_db):
        result = naive_least_fixpoint(tc_program, path4_db, keep_trace=True)
        assert len(result.trace) == result.rounds + 1
        # Stages increase.
        for earlier, later in zip(result.trace, result.trace[1:]):
            assert earlier["S"].issubset(later["S"])

    def test_carrier_value(self, tc_program, path4_db):
        assert naive_least_fixpoint(tc_program, path4_db).carrier_value.name == "S"


class TestSemiNaive:
    def test_agrees_with_naive_on_tc(self, tc_program, path4_db):
        a = naive_least_fixpoint(tc_program, path4_db)
        b = seminaive_least_fixpoint(tc_program, path4_db)
        assert idb_equal(a.idb, b.idb)

    def test_rejects_negated_idb(self, pi1_program, path4_db):
        with pytest.raises(SemanticsError):
            seminaive_least_fixpoint(pi1_program, path4_db)

    def test_multi_idb_program(self, path4_db):
        p = parse_program(
            """
            A(X) :- E(X, Y).
            B(X, Y) :- A(X), E(X, Y).
            B(X, Y) :- B(X, Z), E(Z, Y).
            """,
            carrier="B",
        )
        a = naive_least_fixpoint(p, path4_db)
        b = seminaive_least_fixpoint(p, path4_db)
        assert idb_equal(a.idb, b.idb)

    def test_cyclic_graph(self, tc_program, cycle4_db):
        a = naive_least_fixpoint(tc_program, cycle4_db)
        b = seminaive_least_fixpoint(tc_program, cycle4_db)
        assert idb_equal(a.idb, b.idb)
        assert len(a.idb["S"]) == 16  # full closure on a cycle

    def test_empty_edb(self, tc_program):
        db = Database({1, 2}, [Relation("E", 2, [])])
        assert len(seminaive_least_fixpoint(tc_program, db).idb["S"]) == 0


@given(positive_programs(), small_databases())
def test_naive_equals_seminaive_equals_inflationary(program, db):
    """The paper's conservativity claim, property-tested: for DATALOG
    programs the three engines compute the same relations."""
    a = naive_least_fixpoint(program, db)
    b = seminaive_least_fixpoint(program, db)
    c = inflationary_semantics(program, db)
    assert idb_equal(a.idb, b.idb)
    assert idb_equal(a.idb, c.idb)


@given(positive_programs(), small_databases())
def test_least_fixpoint_is_fixpoint_and_minimal_on_probes(program, db):
    result = naive_least_fixpoint(program, db)
    assert is_fixpoint(program, db, result.idb)


@given(
    random_programs(allow_idb_negation=False),
    small_databases(),
    st.randoms(use_true_random=False),
)
def test_iterate_from_any_sound_start_reaches_the_least_fixpoint(program, db, rng):
    """Section 2: a monotone Theta's least fixpoint is reached from any
    ``S <= lfp``.  A delta-driven run whose first round is full Theta,
    started from a random subset of the semi-naive result, ends at that
    result, and reports exactly ``lfp - S`` as added."""
    lfp = seminaive_least_fixpoint(program, db).idb
    start = {
        p: Relation(p, rel.arity, [t for t in sorted(rel.tuples) if rng.random() < 0.5])
        for p, rel in lfp.items()
    }
    _, plans = differential_plans(program)
    theta = [compile_rule(r) for r in program.rules]
    run = iterate(program, db, plans, theta, engine="restart", start=start)
    assert idb_equal(run.idb, lfp)
    assert {p: r.tuples for p, r in run.added.items()} == {
        p: lfp[p].tuples - start[p].tuples for p in lfp
    }


def test_a_run_from_empty_added_its_result_and_naive_takes_no_start(
    tc_program, path4_db
):
    run = seminaive_least_fixpoint(tc_program, path4_db)
    assert run.added is run.idb
    with pytest.raises(ValueError):
        iterate(tc_program, path4_db, [], engine="naive", start=run.idb)
