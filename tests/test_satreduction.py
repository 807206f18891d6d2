"""Tests for SAT-backed fixpoint analysis (the Theorems 1-3 machinery)."""

from hypothesis import example, given, settings

from repro import Database, Relation, parse_program

from repro.core.fixpoint import idb_equal
from repro.core.grounding import ground_program
from repro.core.operator import is_fixpoint
from repro.core.satreduction import (
    FixpointSAT,
    analyze_fixpoints,
    count_fixpoints_sat,
    enumerate_fixpoints_sat,
    find_fixpoint,
    has_fixpoint,
    has_unique_fixpoint,
    least_fixpoint,
    unique_fixpoint,
)
from repro.cli import main
from repro.core.semantics import all_fixpoints, naive_least_fixpoint
from repro.graphs import generators as gg, graph_to_database
from repro.sat import Solver

from strategies import derivable_atoms, ground_atoms, random_programs, small_databases


class TestEncoding:
    def test_models_decode_to_fixpoints(self, pi1_program, cycle4_db):
        enc = FixpointSAT(pi1_program, cycle4_db)
        model = Solver(enc.cnf).solve()
        decoded = enc.decode(model)
        assert is_fixpoint(pi1_program, cycle4_db, decoded)

    def test_each_variable_decodes_to_its_atom(self, tc_program, path4_db):
        enc = FixpointSAT(tc_program, path4_db)
        index = enc.ground.index
        assert {index.atoms[a] for a in enc.atoms} == derivable_atoms(enc.ground)
        assert list(enc.variables) == list(range(1, len(enc.atoms) + 1))
        for v, a in zip(enc.variables, enc.atoms):
            only = {u: u == v for u in enc.variables}
            assert ground_atoms(enc.decode(only)) == {index.atoms[a]}


class TestDecisions:
    def test_existence(self, pi1_program):
        assert has_fixpoint(pi1_program, graph_to_database(gg.path(5)))
        assert not has_fixpoint(pi1_program, graph_to_database(gg.cycle(5)))

    def test_find_returns_verified_fixpoint(self, pi1_program, cycle4_db):
        fp = find_fixpoint(pi1_program, cycle4_db)
        assert is_fixpoint(pi1_program, cycle4_db, fp)

    def test_find_none_when_absent(self, pi1_program, cycle3_db):
        assert find_fixpoint(pi1_program, cycle3_db) is None

    def test_unique(self, pi1_program, path4_db, cycle4_db, cycle3_db):
        assert has_unique_fixpoint(pi1_program, path4_db)
        assert not has_unique_fixpoint(pi1_program, cycle4_db)  # two
        assert not has_unique_fixpoint(pi1_program, cycle3_db)  # zero
        unique = unique_fixpoint(pi1_program, path4_db)
        assert set(unique["T"].tuples) == {(2,), (4,)}

    def test_enumeration_limit(self, pi1_program, cycle4_db):
        assert len(list(enumerate_fixpoints_sat(pi1_program, cycle4_db, limit=1))) == 1

    def test_count_2n_on_gn(self, pi1_program):
        for n in (1, 2, 3, 4):
            db = graph_to_database(gg.disjoint_cycles(n))
            assert count_fixpoints_sat(pi1_program, db) == 2 ** n


class TestLeastFixpoint:
    def test_no_fixpoint_reports_cleanly(self, pi1_program, cycle3_db):
        report = least_fixpoint(pi1_program, cycle3_db)
        assert not report.exists
        assert report.least is None and report.intersection is None
        assert report.oracle_calls == 1

    def test_unique_is_least(self, pi1_program, path4_db):
        report = least_fixpoint(pi1_program, path4_db)
        assert report.least_exists
        assert set(report.least["T"].tuples) == {(2,), (4,)}

    def test_even_cycle_no_least(self, pi1_program, cycle4_db):
        """Two incomparable fixpoints: intersection (empty set) is not a
        fixpoint — the paper's canonical example."""
        report = least_fixpoint(pi1_program, cycle4_db)
        assert report.exists and not report.least_exists
        assert all(len(r) == 0 for r in report.intersection.values())

    def test_positive_program_least_is_standard_semantics(self, tc_program):
        db = graph_to_database(gg.random_digraph(5, 0.35, seed=4))
        report = least_fixpoint(tc_program, db)
        assert report.least_exists
        assert idb_equal(report.least, naive_least_fixpoint(tc_program, db).idb)

    def test_oracle_calls_polynomial(self, pi1_program):
        db = graph_to_database(gg.disjoint_cycles(3))
        report = least_fixpoint(pi1_program, db)
        gp = ground_program(pi1_program, db)
        assert report.oracle_calls <= 1 + len(derivable_atoms(gp))


class TestAnalyze:
    def test_full_analysis_on_path(self, pi1_program, path4_db):
        analysis = analyze_fixpoints(pi1_program, path4_db)
        assert analysis.exists and analysis.unique
        assert analysis.count == 1 and analysis.least_exists

    def test_full_analysis_no_fixpoint(self, pi1_program, cycle3_db):
        analysis = analyze_fixpoints(pi1_program, cycle3_db)
        assert not analysis.exists and analysis.count == 0
        assert analysis.sample is None

    def test_count_limit_yields_none(self, pi1_program):
        db = graph_to_database(gg.disjoint_cycles(4))  # 16 fixpoints
        analysis = analyze_fixpoints(pi1_program, db, count_limit=5)
        assert analysis.count is None
        assert analysis.exists


# ----------------------------------------------------------------------
# Cross-validation against brute force (the load-bearing property test)
# ----------------------------------------------------------------------


_ONE = Database({1}, [Relation("E", 2, [(1, 1)])])


@given(random_programs(max_rules=3), small_databases(max_size=3))
@example(parse_program("P() :- P()."), _ONE)  # the fixpoints {} and {P}
@example(parse_program("T(X) :- E(X, X), S(X, X). S(X, Y) :- E(X, Y), X != Y."), _ONE)
@example(parse_program("T(X) :- E(X, X), !S(X, X). S(X, Y) :- E(X, Y), X != Y."), _ONE)
@example(parse_program("T(1). S(X, Y) :- E(X, Y), !T(X)."), _ONE)
@example(parse_program("P() :- E(X, X), !Q(). Q() :- E(X, X), !P()."), _ONE)
@settings(max_examples=30)
def test_sat_agrees_with_brute_force(program, db):
    """SAT-based enumeration and exhaustive subset enumeration agree.

    The examples take each branch of the encoding in turn: a positive
    self-loop, a rule killed by an underivable positive atom, an
    underivable negated atom (vacuously true), a bodyless IDB fact (a
    unit clause) and zero-ary heads."""
    gp = ground_program(program, db)
    if len(derivable_atoms(gp)) > 14:
        return  # keep the brute-force side cheap
    brute = {
        frozenset(ground_atoms(m))
        for m in all_fixpoints(program, db, limit_atoms=14, ground=gp)
    }
    sat = {
        frozenset(ground_atoms(m))
        for m in enumerate_fixpoints_sat(program, db, ground=gp)
    }
    assert brute == sat


@given(random_programs(max_rules=3), small_databases(max_size=3))
@settings(max_examples=30)
def test_every_sat_fixpoint_verifies_via_theta(program, db):
    for fp in enumerate_fixpoints_sat(program, db, limit=8):
        assert is_fixpoint(program, db, fp)


_ENUMERATION_CAP = 50


@given(random_programs(max_rules=3), small_databases(max_size=3))
@example(
    # 1 728 fixpoints over |A| = 3: the first 50 the solver enumerates
    # have a least element, the full family does not (found by
    # Hypothesis; the engine's "no least fixpoint" report is right).
    parse_program(
        """
        T(X) :- T(X).
        S(X, X) :- !T(X).
        S(X, X) :- E(X, X).
        S(Z, X) :- S(Z, X).
        """,
        carrier="T",
    ),
    Database({1, 2, 3}, [Relation("E", 2, [])]),
)
@settings(max_examples=20)
def test_least_fixpoint_report_consistent(program, db):
    """When a least fixpoint is reported it is a fixpoint below every
    enumerated fixpoint; when not, no enumerated fixpoint is below all —
    which a *truncated* enumeration cannot refute, so that branch is
    only asserted when the enumeration was exhaustive."""
    from repro.core.fixpoint import idb_leq, least_among

    report = least_fixpoint(program, db)
    points = list(enumerate_fixpoints_sat(program, db, limit=_ENUMERATION_CAP))
    if report.least_exists:
        assert is_fixpoint(program, db, report.least)
        assert all(idb_leq(report.least, other) for other in points)
    elif len(points) < _ENUMERATION_CAP:
        assert least_among(points) is None


def test_mixed_universes_answer_every_fixpoint_question(tmp_path, capsys):
    """Ints and strings in one universe, as the CSV loader reads them:
    no question orders atoms or values by value."""
    program = parse_program("T(X) :- E(Y, X), !T(Y).")
    db = Database({1, "a", 2}, [Relation("E", 2, [(1, "a"), ("a", 2)])])
    only = {("T", ("a",))}
    assert has_fixpoint(program, db)
    assert ground_atoms(find_fixpoint(program, db)) == only
    assert ground_atoms(unique_fixpoint(program, db)) == only
    report = least_fixpoint(program, db)
    assert ground_atoms(report.least) == ground_atoms(report.intersection) == only
    assert [ground_atoms(m) for m in enumerate_fixpoints_sat(program, db)] == [only]
    assert [ground_atoms(m) for m in all_fixpoints(program, db)] == [only]

    (tmp_path / "pi1.dl").write_text("T(X) :- E(Y, X), !T(Y).\n")
    (tmp_path / "db").mkdir()
    (tmp_path / "db" / "E.csv").write_text("1,a\na,2\n")
    assert main(["analyze", str(tmp_path / "pi1.dl"), "--db", str(tmp_path / "db")]) == 0
    out = capsys.readouterr().out
    assert "unique          : True" in out
    assert "least fixpoint:" in out
