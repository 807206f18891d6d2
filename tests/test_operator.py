"""Tests for the consequence operator Theta (Section 2 semantics)."""

from hypothesis import given

from repro import Database, Relation, parse_program
from repro.core.operator import (
    as_interpretation,
    empty_idb,
    evaluate_rule,
    full_idb,
    idb_of,
    is_fixpoint,
    theta,
)
from repro.core.parser import parse_rule

from strategies import random_programs, small_databases


class TestEvaluateRule:
    def test_simple_join(self, path4_db):
        rule = parse_rule("T(X) :- E(X, Y), E(Y, Z).")
        out = evaluate_rule(rule, as_interpretation(parse_program("T(X) :- E(X, Y), E(Y, Z)."), path4_db))
        assert out == {(1,), (2,)}

    def test_repeated_variable_in_atom(self):
        db = Database({1, 2}, [Relation("E", 2, [(1, 1), (1, 2)])])
        rule = parse_rule("T(X) :- E(X, X).")
        assert evaluate_rule(rule, db) == {(1,)}

    def test_constant_in_body(self, path4_db):
        rule = parse_rule("T(X) :- E(1, X).")
        assert evaluate_rule(rule, path4_db) == {(2,)}

    def test_constant_in_head(self, path4_db):
        rule = parse_rule("T(9) :- E(1, 2).")
        # 9 is emitted even though it is not in the universe of E's tuples.
        assert evaluate_rule(rule, path4_db) == {(9,)}

    def test_unsafe_head_variable_ranges_over_universe(self, path4_db):
        rule = parse_rule("T(X) :- E(1, 2).")
        assert evaluate_rule(rule, path4_db) == {(1,), (2,), (3,), (4,)}

    def test_negation_as_filter(self, path4_db):
        rule = parse_rule("T(X) :- E(X, Y), !E(Y, X).")
        assert evaluate_rule(rule, path4_db) == {(1,), (2,), (3,)}

    def test_pure_negation_rule(self):
        db = Database({1, 2}, [Relation("V", 1, [(1,)])])
        rule = parse_rule("T(X) :- !V(X).")
        assert evaluate_rule(rule, db) == {(2,)}

    def test_inequality(self, path4_db):
        rule = parse_rule("T(X) :- E(X, Y), X != Y.")
        assert evaluate_rule(rule, path4_db) == {(1,), (2,), (3,)}

    def test_equality_binds_through_universe(self):
        db = Database({1, 2, 3}, [])
        rule = parse_rule("T(X) :- X = Y.")
        assert evaluate_rule(rule, db) == {(1,), (2,), (3,)}

    def test_empty_body_fact_schema(self):
        db = Database({1, 2}, [])
        rule = parse_rule("T(X, 1).")
        assert evaluate_rule(rule, db) == {(1, 1), (2, 1)}

    def test_missing_relation_treated_empty(self):
        db = Database({1}, [])
        assert evaluate_rule(parse_rule("T(X) :- Nope(X)."), db) == set()
        assert evaluate_rule(parse_rule("T(X) :- !Nope(X)."), db) == {(1,)}


class TestTheta:
    def test_replaces_rather_than_accumulates(self, pi1_program, path4_db):
        """Theta is the paper's non-cumulative operator."""
        full = full_idb(pi1_program, path4_db)
        out = theta(pi1_program, path4_db, full)
        # With T = A no rule body !T(y) can be satisfied.
        assert len(out["T"]) == 0

    def test_pi1_first_application(self, pi1_program, path4_db):
        out = theta(pi1_program, path4_db, empty_idb(pi1_program))
        assert set(out["T"].tuples) == {(2,), (3,), (4,)}

    def test_multi_idb(self, path4_db):
        p = parse_program(
            "A(X) :- E(X, Y). B(X) :- A(X), E(X, Y).", carrier="B"
        )
        out = theta(p, path4_db, {"A": Relation("A", 1, [(1,)]), "B": Relation("B", 1, [])})
        assert set(out["A"].tuples) == {(1,), (2,), (3,)}
        assert set(out["B"].tuples) == {(1,)}

    def test_is_fixpoint_examples(self, pi1_program, path4_db):
        assert is_fixpoint(pi1_program, path4_db, {"T": Relation("T", 1, [(2,), (4,)])})
        assert not is_fixpoint(pi1_program, path4_db, {"T": Relation("T", 1, [])})

    def test_idb_values_can_live_in_db(self, pi1_program, path4_db):
        loaded = path4_db.with_relation(Relation("T", 1, [(2,), (4,)]))
        assert is_fixpoint(pi1_program, loaded)


class TestInterpretationHelpers:
    def test_as_interpretation_defaults_empty(self, pi1_program, path4_db):
        interp = as_interpretation(pi1_program, path4_db)
        assert "T" in interp and len(interp["T"]) == 0

    def test_idb_of_roundtrip(self, pi1_program, path4_db):
        valuation = {"T": Relation("T", 1, [(2,)])}
        interp = as_interpretation(pi1_program, path4_db, valuation)
        assert idb_of(pi1_program, interp) == valuation

    def test_full_idb_cardinality(self, pi1_program, path4_db):
        assert len(full_idb(pi1_program, path4_db)["T"]) == 4


@given(random_programs(), small_databases())
def test_theta_output_signature(program, db):
    """Theta always produces relations of the declared arities."""
    out = theta(program, db, empty_idb(program))
    for pred in program.idb_predicates:
        assert out[pred].arity == program.arity(pred)
        for t in out[pred]:
            assert all(v in db.universe for v in t)


@given(random_programs(allow_idb_negation=False), small_databases())
def test_theta_monotone_on_semipositive(program, db):
    """S <= S' implies Theta(S) <= Theta(S') when no IDB literal is negated."""
    from repro.core.fixpoint import idb_leq

    lo = empty_idb(program)
    mid = theta(program, db, lo)
    hi = theta(program, db, mid)
    # empty <= mid, so Theta(empty) <= Theta(mid), i.e. mid <= hi.
    assert idb_leq(mid, hi)
