"""The oracles of ``reference.py`` against the paper's definitions.

Every oracle is compared, on graphs of at most 8 nodes, with naive
iteration of the pre-planner operator ``theta_legacy`` (the paper's
Theta) or with ``well_founded_semantics``; and the harness is shown to
count a corrupted ``repro run`` output as a failed operation.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
from repro.core.operator import theta_legacy  # noqa: E402
from repro.core.parser import parse_program  # noqa: E402
from repro.core.semantics import well_founded_semantics  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.relation import Relation  # noqa: E402


def small_graphs():
    rng = random.Random(1988)
    graphs = [(3, {(0, 1), (1, 2)}), (3, {(0, 1), (1, 2), (2, 0)}), (2, set()), (4, {(0, 1), (1, 0), (2, 3)})]
    for _ in range(40):
        n = rng.randrange(2, 9)
        graphs.append((n, inputs.gnm(rng, n, rng.randrange(0, min(2 * n, n * (n - 1)) + 1))))
    return graphs


def database(n, edges, name="E"):
    return Database(range(n), [Relation(name, 2, edges)])


def program(name):
    return parse_program((HERE / "programs" / name).read_text())


def tuples(idb, pred):
    return set(idb[pred].tuples)


def least_fixpoint(prog, db, start=None):
    """Iterate ``theta_legacy`` from ``start`` (default: empty) until stable."""
    current = start
    while True:
        nxt = theta_legacy(prog, db, current)
        if current is not None and all(tuples(nxt, p) == tuples(current, p) for p in nxt):
            return nxt
        current = nxt


def inflationary_fixpoint(prog, db):
    """The paper's inflationary iteration: ``S <- S union Theta(S)``."""
    current = theta_legacy(prog, db, None)
    while True:
        step = theta_legacy(prog, db, current)
        nxt = {p: Relation(p, current[p].arity, tuples(current, p) | tuples(step, p)) for p in current}
        if all(tuples(nxt, p) == tuples(current, p) for p in nxt):
            return nxt
        current = nxt


@pytest.mark.parametrize("n,edges", small_graphs())
def test_transitive_closure_and_size(n, edges):
    closure = tuples(least_fixpoint(program("tc.dl"), database(n, edges)), "TC")
    assert reference.transitive_closure(range(n), edges) == closure
    assert reference.closure_size(n, edges) == len(closure)


@pytest.mark.parametrize("n,edges", small_graphs())
def test_complement_and_acyc(n, edges):
    db = database(n, edges)
    closure = least_fixpoint(program("tc.dl"), db)
    # Stratified meaning: the lower stratum is complete before the rule
    # with the negation is applied, once.
    lower = db.with_relations([closure["TC"]])
    notc = parse_program("NOTC(X, Y) :- !TC(X, Y).")
    assert reference.tc_complement(range(n), edges) == tuples(theta_legacy(notc, lower), "NOTC")
    acyc = parse_program("ACYC(X, Y) :- E(X, Y), !TC(Y, X).")
    assert reference.acyc(range(n), edges) == tuples(theta_legacy(acyc, lower), "ACYC")


@pytest.mark.parametrize("n,edges", small_graphs()[:24])
def test_distance_query(n, edges):
    idb = inflationary_fixpoint(program("distance.dl"), database(n, edges))
    assert reference.distance_query(range(n), edges) == tuples(idb, "S3")
    assert reference.transitive_closure(range(n), edges) == tuples(idb, "S1")


@pytest.mark.parametrize("n,edges", small_graphs())
def test_win_move(n, edges):
    model = well_founded_semantics(program("win.dl"), database(n, edges, "Move"))
    won, lost, drawn, _depth = reference.win_move(range(n), edges)
    assert {(x,) for x in won} == set(model.true_idb()["WIN"].tuples)
    assert {(x,) for x in drawn} == set(model.undefined_idb()["WIN"].tuples)
    assert won | lost | drawn == set(range(n))


def test_corrupted_output_is_a_failed_operation(tmp_path, monkeypatch):
    import catalog
    import workloads

    real = workloads.run_argv
    corrupt = (
        "import subprocess, sys\n"
        "lines = subprocess.run(sys.argv[1:], capture_output=True, text=True).stdout.splitlines()\n"
        "rows = [i for i, line in enumerate(lines) if line.startswith('  ')]\n"
        "if len(rows) > 1: lines[rows[-1]] = lines[rows[0]]\n"
        "print('\\n'.join(lines))\n"
    )
    monkeypatch.setattr(
        workloads, "run_argv", lambda *args, **kwargs: [sys.executable, "-c", corrupt] + real(*args, **kwargs)
    )
    ctx = workloads.Context(seed=1988, seconds=1, trace=False, smoke=True, workdir=tmp_path)
    result = workloads.batch_relational(ctx)
    assert result.failures
    assert catalog.detailed(result)["failed_ratio"][0] > 0
