"""Tests for the static analyzer: fixtures per code, the ``.dl``
corpus, the ``lint`` CLI, JSON schema stability, and Hypothesis
properties (the analyzer never raises; clean programs evaluate)."""

import json
from pathlib import Path

import pytest
from hypothesis import given

from repro.analysis import (
    EngineSupport,
    ProgramFacts,
    Severity,
    lint_program,
    lint_source,
)
from repro.analysis.diagnostics import JSON_VERSION
from repro.cli import main
from repro.core.semantics import (
    inflationary_semantics,
    seminaive_least_fixpoint,
    stratified_semantics,
    well_founded_semantics,
)
from repro.db.database import Database
from repro.db.relation import Relation
from strategies import (
    disconnected_programs,
    nonstratifiable_programs,
    positive_programs,
    random_programs,
    small_databases,
)

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "programs"

ALL_CODES = {
    "P001", "P002", "A001", "A002", "V001", "V002", "U001", "R001",
    "S001", "S002", "D001", "D002", "D003", "W001", "W002", "T001",
}

_E2 = Database([1, 2], [Relation("E", 2, [(1, 2)])])
_E1 = Database([1, 2], [Relation("E", 1, [(1,)])])
_E2_EXTRA = Database(
    [1, 2], [Relation("E", 2, [(1, 2)]), Relation("Extra", 1, [(1,)])]
)

# One (triggering, non-triggering) pair of lint inputs per code.  Each
# case is (text, db, carrier).
FIXTURES = {
    "P001": (("T(X :- E(X, Y).", None, None),
             ("T(X) :- E(X, Y).", None, None)),
    "P002": (("% comments only\n", None, None),
             ("T(X) :- E(X, Y).", None, None)),
    "A001": (("P(X) :- Q(X).\nP(X, Y) :- Q(Y).", None, None),
             ("P(X) :- Q(X).\nP(Y) :- Q(Y).", None, None)),
    "A002": (("T(X) :- E(X, Y).", None, "Nope"),
             ("T(X) :- E(X, Y).", None, "T")),
    "V001": (("T(X) :- E(X, Y).", Database([1]), None),
             ("T(X) :- E(X, Y).", _E2, None)),
    "V002": (("T(X) :- E(X, Y).", _E1, None),
             ("T(X) :- E(X, Y).", _E2, None)),
    "U001": (("T(X) :- E(X, Y).", _E2_EXTRA, None),
             ("T(X) :- E(X, Y).", _E2, None)),
    "R001": (("Likes(X, Y) :- Person(X).", None, None),
             ("Likes(X, Y) :- Person(X), Person(Y).", None, None)),
    "S001": (("Win(X) :- Move(X, Y), !Win(Y).", None, None),
             ("T(X) :- E(X, Y), !Base(Y).", None, None)),
    "S002": (("Win(X) :- Move(X, Y), !Win(Y).", None, None),
             ("T(X) :- E(X, Y), !Base(Y).", None, None)),
    "D001": (("Ghost(X) :- Ghost(X).\nHaunted(X) :- Ghost(X).", None, "Haunted"),
             ("T(X) :- E(X, Y).", None, None)),
    "D002": (("Ghost(X) :- Ghost(X).\nHaunted(X) :- Ghost(X).", None, "Haunted"),
             ("T(X) :- E(X, Y).\nT(X) :- T(X).", None, None)),
    "D003": (("A(X) :- E(X, X).\nB(X) :- E(X, X).", None, None),
             ("A(X) :- E(X, X).\nB(X) :- A(X).", None, "B")),
    "W001": (("T(X) :- E(X, Y).\nT(X) :- E(X, Y).", None, None),
             ("T(X) :- E(X, Y).\nT(X) :- E(Y, X).", None, None)),
    "W002": (("T(X) :- E(X, Y).\nT(X) :- E(X, Y), E(Y, X).", None, None),
             ("T(X) :- E(X, Y).\nT(X) :- E(Y, X), E(X, X).", None, None)),
    "T001": (("Tag(X, 1) :- E(X, X).\nTag(X, 'one') :- E(X, X).", None, None),
             ("Tag(X, 1) :- E(X, X).\nTag(X, 2) :- E(X, X).", None, None)),
}


def codes_of(text, db=None, carrier=None):
    return set(lint_source(text, db=db, carrier=carrier).codes())


# ----------------------------------------------------------------------
# Per-code fixtures
# ----------------------------------------------------------------------


def test_every_code_has_fixtures():
    assert set(FIXTURES) == ALL_CODES


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_code_fires_on_positive_fixture(code):
    text, db, carrier = FIXTURES[code][0]
    assert code in codes_of(text, db, carrier)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_code_silent_on_negative_fixture(code):
    text, db, carrier = FIXTURES[code][1]
    assert code not in codes_of(text, db, carrier)


def test_stratifiability_witness_names_the_cycle():
    report = lint_source("Win(X) :- Move(X, Y), !Win(Y).")
    (s001,) = [d for d in report.diagnostics if d.code == "S001"]
    assert "Win -(not)-> Win" in s001.message
    assert "at 1:1" in s001.message
    assert s001.severity is Severity.WARNING


def test_divergence_flags_exactly_the_cycle_predicates():
    # Observer negates into the cycle but is not *on* it: S002 must
    # name Win only — divergence originates on the cycle.
    text = "Win(X) :- Move(X, Y), !Win(Y).\nSafe(X) :- Move(X, X), !Win(X)."
    report = lint_source(text)
    flagged = {d.predicate for d in report.diagnostics if d.code == "S002"}
    assert flagged == {"Win"}


# ----------------------------------------------------------------------
# The .dl corpus
# ----------------------------------------------------------------------


def corpus_header(path):
    """The ``% lint:`` expected codes and ``% carrier:`` of a corpus file."""
    codes, carrier = None, None
    for line in path.read_text().splitlines():
        if line.startswith("% lint:"):
            codes = line.split(":", 1)[1].split()
        elif line.startswith("% carrier:"):
            carrier = line.split(":", 1)[1].strip()
    assert codes is not None, "%s lacks a '%% lint:' header" % path.name
    return (set() if codes == ["clean"] else set(codes)), carrier


def corpus_files():
    files = sorted(CORPUS.glob("*.dl"))
    assert len(files) >= 5, "corpus missing under %s" % CORPUS
    return files


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_file_matches_header(path):
    expected, carrier = corpus_header(path)
    report = lint_source(path.read_text(), carrier=carrier)
    assert set(report.codes()) == expected


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_exit_code_contract(path):
    """Errors exit 1 always; warnings only under --strict; clean never."""
    expected, carrier = corpus_header(path)
    report = lint_source(path.read_text(), carrier=carrier)
    argv = ["lint", str(path)] + (["--carrier", carrier] if carrier else [])
    has_errors = report.errors > 0
    has_warnings = report.warnings > 0
    assert main(argv) == (1 if has_errors else 0)
    assert main(argv + ["--strict"]) == (1 if has_errors or has_warnings else 0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_lint_json_schema(capsys):
    path = CORPUS / "win_move.dl"
    assert main(["lint", str(path), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == JSON_VERSION
    assert set(document) == {"version", "summary", "diagnostics"}
    assert set(document["summary"]) == {
        "class", "rules", "strata", "negative_cycle_predicates",
        "errors", "warnings", "infos",
    }
    assert document["summary"]["class"] == "general"
    assert document["summary"]["strata"] is None
    assert document["summary"]["negative_cycle_predicates"] == ["Win"]
    assert document["diagnostics"], "win-move must produce diagnostics"
    for entry in document["diagnostics"]:
        assert set(entry) == {
            "code", "severity", "message", "line", "column", "rule", "predicate",
        }


def test_cli_lint_human_output_has_spans_and_counts(capsys):
    path = CORPUS / "win_move.dl"
    main(["lint", str(path)])
    out = capsys.readouterr().out
    assert "%s:8:1: warning[S001]" % path in out
    assert "warning(s)" in out and "class=general" in out


def test_cli_lint_db_missing_relation_is_an_error(tmp_path, capsys):
    program = tmp_path / "p.dl"
    program.write_text("T(X) :- E(Y, X), !T(Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    assert main(["lint", str(program), "--db", str(dbdir)]) == 1
    assert "V001" in capsys.readouterr().out


def test_cli_lint_db_unused_relation_is_info(tmp_path, capsys):
    program = tmp_path / "p.dl"
    program.write_text("T(X) :- E(Y, X).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n")
    (dbdir / "Extra.csv").write_text("7\n")
    assert main(["lint", str(program), "--db", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert "U001" in out
    # infos never fail the gate, even under --strict
    assert main(["lint", str(program), "--db", str(dbdir), "--strict"]) == 0


def test_cli_lint_db_skips_engine_named_files(tmp_path, capsys):
    # ``@`` names belong to the engine (``@U`` is the universe): such a
    # file is no relation of the database, so the load skips it.
    program = tmp_path / "p.dl"
    program.write_text("T(X) :- E(Y, X).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n")
    (dbdir / "@U.csv").write_text("1\n")
    assert main(["lint", str(program), "--db", str(dbdir)]) == 0
    assert "@U" not in capsys.readouterr().out


def test_cli_explain_includes_lint_summary(tmp_path, capsys):
    program = tmp_path / "p.dl"
    program.write_text("T(X) :- E(Y, X), !T(Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n")
    assert main(["explain", str(program), "--db", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert "lint: class=general" in out
    assert "S001" in out


# ----------------------------------------------------------------------
# Report semantics
# ----------------------------------------------------------------------


def test_diagnostics_sorted_by_source_position():
    text = "B(X) :- A(X).\nA(X) :- A(X).\n"
    report = lint_source(text)
    lines = [d.span.line for d in report.diagnostics if d.span is not None]
    assert lines == sorted(lines)


def test_exit_code_matrix():
    clean = lint_source("T(X) :- E(X, Y).", carrier="T")
    warn = lint_source("Win(X) :- Move(X, Y), !Win(Y).")
    err = lint_source("P(X :- Q(X).")
    assert (clean.exit_code(), clean.exit_code(strict=True)) == (0, 0)
    assert (warn.exit_code(), warn.exit_code(strict=True)) == (0, 1)
    assert (err.exit_code(), err.exit_code(strict=True)) == (1, 1)


def test_parse_error_diagnostic_carries_the_span():
    report = lint_source("T(X) :- E(X, Y).\nT(X :- E(X, Y).\n")
    (d,) = report.diagnostics
    assert d.code == "P001" and d.span.line == 2


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@given(program=random_programs(include_zeroary=True))
def test_analyzer_total_on_random_programs(program):
    report = lint_program(program)
    assert report.errors == 0
    assert report.program_class is not None


@given(program=nonstratifiable_programs())
def test_analyzer_total_on_nonstratifiable_programs(program):
    report = lint_program(program)
    assert report.errors == 0
    assert "S001" in report.codes()
    assert report.stratum_count is None
    assert report.negative_cycle_predicates


@given(program=disconnected_programs())
def test_analyzer_total_on_disconnected_programs(program):
    assert lint_program(program).errors == 0


@given(program=positive_programs())
def test_analyzer_total_on_positive_programs(program):
    report = lint_program(program)
    assert report.errors == 0
    assert "S001" not in report.codes()
    assert report.program_class == "positive"


@given(program=random_programs(), db=small_databases())
def test_lint_clean_programs_evaluate_on_applicable_engines(program, db):
    report = lint_program(program, db)
    assert report.errors == 0
    support = EngineSupport.for_program(program)
    inflationary_semantics(program, db)
    well_founded_semantics(program, db)
    if support.stratified:
        stratified_semantics(program, db)
    if support.least_fixpoint:
        seminaive_least_fixpoint(program, db)


@given(program=nonstratifiable_programs())
def test_facts_agree_with_report(program):
    facts = ProgramFacts(program)
    report = lint_program(program, facts=facts)
    assert report.program_class == facts.classification.value
    assert set(report.negative_cycle_predicates) == set(
        facts.negative_cycle_predicates
    )
    for cycle in facts.negative_cycles:
        assert any(edge.negative for edge in cycle)
        # each witness is a closed walk
        for prev, nxt in zip(cycle, cycle[1:] + [cycle[0]]):
            assert prev.target == nxt.source
