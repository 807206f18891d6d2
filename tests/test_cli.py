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


def test_run_prints_code_only_relations_without_loading_numpy_ma(tmp_path):
    # Printing a code-only result ranks its id columns; plain np.unique
    # would import numpy.ma (~15 ms of start-up) on first use.
    program = tmp_path / "tc.dl"
    program.write_text("S(X, Y) :- E(X, Y).\nS(X, Y) :- E(X, Z), S(Z, Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n2,3\n3,1\n")
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['run', %r, '--db', %r, '--semantics', 'seminaive']) == 0\n"
        "print('NUMPY_MA', 'numpy.ma' in sys.modules)\n"
    ) % (str(program), str(dbdir))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "S/2 (9 tuples):\n  1, 1\n  1, 2\n  1, 3\n  2, 1\n" in proc.stdout
    assert proc.stdout.rstrip().endswith("NUMPY_MA False")


def test_core_materialize_and_server_leave_the_parallel_package_unloaded():
    # Sharding lives only behind well_founded_semantics(parallel=N): the
    # CLI, the views, the server and a stratified run must not load it.
    script = (
        "import sys\n"
        "import repro.cli, repro.materialize, repro.server.service\n"
        "from repro.core.parser import parse_program\n"
        "from repro.core.semantics.stratified import stratified_semantics\n"
        "from repro.db.database import Database\n"
        "from repro.db.relation import Relation\n"
        "from repro.materialize import Delta, MaterializedView\n"
        "program = parse_program('T(X,Y) :- E(X,Y).\\n'\n"
        "    'T(X,Z) :- E(X,Y), T(Y,Z).\\nN(X,Y) :- !T(X,Y).')\n"
        "db = Database(frozenset(range(4)), [Relation('E', 2, {(0, 1), (1, 2)})])\n"
        "stratified_semantics(program, db)\n"
        "MaterializedView(program, db).apply(Delta.insert('E', (2, 3)))\n"
        "print('MODULES', *sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.rsplit("MODULES", 1)[1].split()
    assert "repro.materialize.dred" in loaded
    assert "repro.parallel" not in loaded


def test_run_wellfounded(workspace, capsys):
    program, dbdir = workspace
    assert main(["run", str(program), "--db", str(dbdir), "--semantics", "wellfounded"]) == 0
    out = capsys.readouterr().out
    assert "total=True" in out


def test_run_wellfounded_prints_what_the_spec_prints(tmp_path, capsys):
    # Strings, ints and undefined atoms: the partitions print from their
    # id columns, byte-identical to ``sorted(key=repr)`` of the atoms.
    from repro.cli import _load_database, _load_program, _rows_text, _rows_text_from_codes
    from repro.core.semantics import well_founded_semantics
    from repro.db.relation import Relation

    program = tmp_path / "win.dl"
    program.write_text("W(X) :- M(X, Y), !W(Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "M.csv").write_text(
        '"a","b"\n"b","a"\n"b",10\n10,"x y"\n"x y",2\n2,"01"\n3,3\n'
    )
    assert main(["run", str(program), "--db", str(dbdir), "--semantics", "wellfounded"]) == 0
    out = capsys.readouterr().out

    parsed = _load_program(str(program))
    result = well_founded_semantics(parsed, _load_database(str(dbdir), parsed))
    assert _rows_text_from_codes(result.undefined_idb()["W"]) is not None

    def spec(atoms):
        rel = Relation("W", 1, [values for _, values in atoms])
        return "W/1 (%d tuples):\n%s" % (len(rel), _rows_text(rel))

    assert result.true == {("W", (2,)), ("W", (10,))}
    assert out == (
        "well-founded model (total=False):\nTRUE:\n%sUNDEFINED:\n%s"
        % (spec(result.true), spec(result.undefined))
    )


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


@pytest.mark.parametrize("semantics", ["naive", "inflationary", "auto"])
def test_explain_workers_outside_wellfounded_is_exit_2(tmp_path, semantics, capsys):
    # Only the well-founded engine has a sharded path; "auto" resolves
    # this stratifiable program to stratified.
    program = tmp_path / "tc.dl"
    program.write_text("S(X, Y) :- E(X, Y).\nS(X, Y) :- E(X, Z), S(Z, Y).\n")
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    (dbdir / "E.csv").write_text("1,2\n2,3\n")
    argv = ["explain", str(program), "--db", str(dbdir), "--profile"]
    assert main(argv + ["--semantics", semantics, "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: --workers")


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


# ----------------------------------------------------------------------
# Golden `repro update` output: the changeset rendering, byte for byte
# ----------------------------------------------------------------------


@pytest.fixture
def golden(workspace, tmp_path):
    """pi_1 and TC/NOTC over L_4, and four delta directories."""
    pi1, dbdir = workspace
    tc = tmp_path / "tc.dl"
    tc.write_text(
        "TC(X, Y) :- E(X, Y).\nTC(X, Y) :- E(X, Z), TC(Z, Y).\n"
        "NOTC(X, Y) :- !TC(X, Y).\n"
    )
    deltas = {
        "swap": {"E.insert.csv": "4,1\n", "E.delete.csv": "2,3\n"},
        "grow": {"E.insert.csv": "2,3\n5,1\n"},
        "close": {"E.insert.csv": "4,1\n"},
        "tail": {"E.insert.csv": "5,1\n"},
    }
    dirs = {}
    for name, files in deltas.items():
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        for file, text in files.items():
            (dirs[name] / file).write_text(text)
    return {"pi1": str(pi1), "tc": str(tc), "db": str(dbdir)}, {
        name: str(path) for name, path in dirs.items()
    }


def _update_stdout(capsys, program, db, deltas, *flags):
    args = ["update", program, "--db", db]
    for delta in deltas:
        args += ["--delta", delta]
    assert main(args + list(flags)) == 0
    return capsys.readouterr().out


def test_update_output_is_golden(golden, capsys):
    files, d = golden
    out = _update_stdout(capsys, files["tc"], files["db"], [d["swap"]], "--carrier", "NOTC")
    assert out == (
        "engine=stratified semantics=stratified delta=Delta(E:+1/-1)\n"
        "E: +1 -1\n  + 4, 1\n  - 2, 3\n"
        "NOTC: +4 -4\n  + 1, 3\n  + 1, 4\n  + 2, 3\n  + 2, 4\n"
        "  - 3, 1\n  - 3, 2\n  - 4, 1\n  - 4, 2\n"
        "TC: +4 -4\n  + 3, 1\n  + 3, 2\n  + 4, 1\n  + 4, 2\n"
        "  - 1, 3\n  - 1, 4\n  - 2, 3\n  - 2, 4\n"
    )


def test_update_batch_output_is_golden(golden, capsys):
    files, d = golden
    out = _update_stdout(
        capsys, files["tc"], files["db"], [d["swap"], d["grow"]], "--batch", "--carrier", "NOTC"
    )
    assert out == (
        "engine=stratified semantics=stratified batch of 2 delta(s)\n"
        "E: +2 -0\n  + 4, 1\n  + 5, 1\n"
        "NOTC: +5 -10\n  + 1, 5\n  + 2, 5\n  + 3, 5\n  + 4, 5\n  + 5, 5\n"
        "  - 1, 1\n  - 2, 1\n  - 2, 2\n  - 3, 1\n  - 3, 2\n  - 3, 3\n"
        "  - 4, 1\n  - 4, 2\n  - 4, 3\n  - 4, 4\n"
        "TC: +14 -0\n  + 1, 1\n  + 2, 1\n  + 2, 2\n  + 3, 1\n  + 3, 2\n  + 3, 3\n"
        "  + 4, 1\n  + 4, 2\n  + 4, 3\n  + 4, 4\n  + 5, 1\n  + 5, 2\n  + 5, 3\n  + 5, 4\n"
    )


def test_update_wellfounded_output_is_golden(golden, capsys):
    files, d = golden
    out = _update_stdout(
        capsys, files["pi1"], files["db"], [d["close"], d["tail"]], "--semantics", "wellfounded"
    )
    assert out == (
        "engine=wellfounded semantics=wellfounded delta=Delta(E:+1/-0)\n"
        "E: +1 -0\n  + 4, 1\n"
        "T: +0 -2\n  - 2\n  - 4\n"
        "T@undef: +4 -0\n  + 1\n  + 2\n  + 3\n  + 4\n"
        "engine=wellfounded semantics=wellfounded delta=Delta(E:+1/-0)\n"
        "E: +1 -0\n  + 5, 1\n"
        "T: +2 -0\n  + 1\n  + 3\n"
        "T@undef: +0 -4\n  - 1\n  - 2\n  - 3\n  - 4\n"
    )
