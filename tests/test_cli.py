"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    """A program file and CSV database for the paper's pi_1 on L_4."""
    program = tmp_path / "pi1.dl"
    program.write_text("T(X) :- E(Y, X), !T(Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n2,3\n3,4\n")
    return program, dbdir


def test_run_inflationary(workspace, capsys):
    program, dbdir = workspace
    assert main(["run", str(program), "--db", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert "engine=inflationary" in out
    assert "T/1 (3 tuples)" in out


@pytest.mark.parametrize("semantics", ["seminaive", "stratified", "wellfounded"])
def test_run_imports_only_what_run_needs(tmp_path, semantics):
    # ``python -m repro run`` in a fresh interpreter: the SAT reduction,
    # the analyzer's lint pass, the views and the server belong to other
    # subcommands and must not be billed to a batch evaluation's start-up.
    program = tmp_path / "tc.dl"
    program.write_text("S(X, Y) :- E(X, Y).\nS(X, Y) :- E(X, Z), S(Z, Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n")
    script = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'run', %r, '--db', %r, '--semantics', %r]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "print('MODULES', *sorted(m for m in sys.modules if m.startswith('repro')))\n"
    ) % (str(program), str(dbdir), semantics)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "S/2 (1 tuples):\n  1, 2\n" in proc.stdout
    loaded = proc.stdout.rsplit("MODULES", 1)[1].split()
    assert "repro.cli" in loaded and "repro.core.fixpoint" in loaded
    for prefix in (
        "repro.sat",
        "repro.core.satreduction",
        "repro.analysis.lint",
        "repro.materialize",
        "repro.server",
    ):
        assert not [m for m in loaded if m == prefix or m.startswith(prefix + ".")]


def test_run_wellfounded(workspace, capsys):
    program, dbdir = workspace
    assert main(["run", str(program), "--db", str(dbdir), "--semantics", "wellfounded"]) == 0
    out = capsys.readouterr().out
    assert "total=True" in out


def test_run_naive_rejects_general_program(workspace):
    program, dbdir = workspace
    from repro.core.semantics import SemanticsError

    with pytest.raises(SemanticsError):
        main(["run", str(program), "--db", str(dbdir), "--semantics", "naive"])


def test_analyze(workspace, capsys):
    program, dbdir = workspace
    assert main(["analyze", str(program), "--db", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert "fixpoint exists : True" in out
    assert "unique          : True" in out
    assert "least fixpoint:" in out


def test_classify(workspace, capsys):
    program, _ = workspace
    assert main(["classify", str(program)]) == 0
    out = capsys.readouterr().out
    assert "class            : general" in out
    assert "inflationary ok  : True" in out


def test_classify_stratified(tmp_path, capsys):
    program = tmp_path / "strat.dl"
    program.write_text(
        "TC(X, Y) :- E(X, Y). TC(X, Y) :- E(X, Z), TC(Z, Y). N(X, Y) :- !TC(X, Y).\n"
    )
    assert main(["classify", str(program)]) == 0
    out = capsys.readouterr().out
    assert "class            : stratified" in out
    assert "stratum 0        : TC" in out
    assert "stratum 1        : N" in out


def test_run_with_carrier(tmp_path, capsys):
    program = tmp_path / "two.dl"
    program.write_text("A(X) :- E(X, Y). B(X) :- A(X).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n")
    assert main(["run", str(program), "--db", str(dbdir), "--carrier", "B"]) == 0
    out = capsys.readouterr().out
    assert "A/1" in out and "B/1" in out


def test_missing_database_relation(tmp_path):
    program = tmp_path / "p.dl"
    program.write_text("T(X) :- E(X, X).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    with pytest.raises(FileNotFoundError):
        main(["run", str(program), "--db", str(dbdir)])


def test_update_applies_csv_delta(workspace, tmp_path, capsys):
    program, dbdir = workspace
    program = tmp_path / "tc.dl"
    program.write_text(
        "TC(X, Y) :- E(X, Y).\nTC(X, Y) :- E(X, Z), TC(Z, Y).\n"
        "NOTC(X, Y) :- !TC(X, Y).\n"
    )
    deltadir = tmp_path / "delta"
    deltadir.mkdir()
    (deltadir / "E.insert.csv").write_text("4,1\n")
    (deltadir / "E.delete.csv").write_text("2,3\n")
    out_dir = tmp_path / "out"
    assert (
        main(
            [
                "update",
                str(program),
                "--db",
                str(dbdir),
                "--delta",
                str(deltadir),
                "--carrier",
                "NOTC",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "engine=stratified" in out
    assert "E: +1 -1" in out
    assert "TC:" in out and "NOTC:" in out
    # The post-delta database was written back.
    assert (out_dir / "E.csv").read_text().splitlines() == ["1,2", "3,4", "4,1"]


def test_update_rejects_unknown_delta_relation(workspace, tmp_path):
    program, dbdir = workspace
    deltadir = tmp_path / "delta"
    deltadir.mkdir()
    (deltadir / "Nope.insert.csv").write_text("1\n")
    with pytest.raises(ValueError):
        main(["update", str(program), "--db", str(dbdir), "--delta", str(deltadir)])


def test_update_wellfounded_reports_undefined_partition(workspace, tmp_path, capsys):
    """pi_1 on L_4 plus the closing edge (4, 1): an even cycle — every
    position becomes undefined, reported under T@undef."""
    program, dbdir = workspace
    deltadir = tmp_path / "delta"
    deltadir.mkdir()
    (deltadir / "E.insert.csv").write_text("4,1\n")
    assert (
        main(
            [
                "update",
                str(program),
                "--db",
                str(dbdir),
                "--delta",
                str(deltadir),
                "--semantics",
                "wellfounded",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "engine=wellfounded" in out
    assert "T@undef: +4 -0" in out
    assert "T: +0 -2" in out  # the decided atoms {2, 4} drown in the cycle


def test_update_batch_composes_deltas(workspace, tmp_path, capsys):
    """Two --delta directories under --batch make one transaction whose
    churned tuple cancels out."""
    program, dbdir = workspace
    d1 = tmp_path / "d1"
    d1.mkdir()
    (d1 / "E.insert.csv").write_text("4,1\n")
    d2 = tmp_path / "d2"
    d2.mkdir()
    (d2 / "E.delete.csv").write_text("4,1\n")
    assert (
        main(
            [
                "update",
                str(program),
                "--db",
                str(dbdir),
                "--delta",
                str(d1),
                "--delta",
                str(d2),
                "--batch",
                "--semantics",
                "wellfounded",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "batch of 2 delta(s)" in out
    assert "(no change)" in out


def test_update_sequential_deltas_print_each_changeset(workspace, tmp_path, capsys):
    program, dbdir = workspace
    d1 = tmp_path / "d1"
    d1.mkdir()
    (d1 / "E.insert.csv").write_text("4,1\n")
    d2 = tmp_path / "d2"
    d2.mkdir()
    (d2 / "E.delete.csv").write_text("4,1\n")
    assert (
        main(
            [
                "update",
                str(program),
                "--db",
                str(dbdir),
                "--delta",
                str(d1),
                "--delta",
                str(d2),
                "--semantics",
                "inflationary",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("engine=") == 2
    assert "E: +1 -0" in out and "E: +0 -1" in out


def test_explain_prints_plans_and_estimates(workspace, capsys):
    program, dbdir = workspace
    assert main(["explain", str(program), "--db", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert "semantics=wellfounded" in out  # auto-detected: pi_1 is unstratifiable
    assert "plan for T(X) :- E(Y, X), !T(Y)." in out


def test_explain_profile_attributes_phases(workspace, tmp_path, capsys):
    from repro.obs import RECORDER, TRACER

    program, dbdir = workspace
    trace = tmp_path / "trace.json"
    assert (
        main(
            [
                "explain",
                str(program),
                "--db",
                str(dbdir),
                "--profile",
                "--trace-out",
                str(trace),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "profile: wall" in out and "attributed to spans" in out
    assert "alternation.step" in out
    # The profile run leaves the process-wide facades off again.
    assert not RECORDER.enabled and not TRACER.enabled
    import json

    doc = json.loads(trace.read_text())
    assert any(e["name"] == "wellfounded" for e in doc["traceEvents"])
