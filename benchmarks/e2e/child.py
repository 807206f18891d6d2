"""The processes the harness starts that are not ``python -m repro``.

``cli``       the shipped CLI (``repro.cli.main``) with the timing wrappers
              of ``layers.py`` installed first: the traced twin of
              ``python -m repro ...`` for the batch cases and the server.
``maintain``  one window of the maintain-stream workload: load the CSV
              database, build the view, apply the updates of an op file
              one by one, write latencies and the final relations.
``parallel``  sequential against ``parallel=2`` engine time of the
              well-founded semantics (one layer metric needs it).

Every mode needs ``PYTHONPATH`` to hold the checkout's ``src``; the
harness sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path


def _recorder(mode, spans_path):
    import layers

    recorder = layers.Recorder()
    layers.install(recorder, mode)
    return recorder, lambda: recorder.dump(spans_path)


def run_cli(args):
    """``repro.cli.main(argv)`` under a root span; spans written at exit.

    ``SIGUSR1`` also writes them, because the server is killed with
    ``SIGKILL`` in the recovery leg and would take its spans with it.
    """
    mode = "serve" if args.argv and args.argv[0] == "serve" else "cli"
    recorder, dump = _recorder(mode, args.spans)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: dump())
    from repro import cli

    main = recorder.wrap("cli.main", cli.main)
    # Interpreter start and imports, on the clock the harness shares:
    # perf_counter is the system-wide monotonic clock on Linux.
    spawned = float(os.environ["E2E_SPAWN_CLOCK"])
    recorder.spans.append([recorder.name_id("cli.boot"), spawned, time.perf_counter(), -1, 0, None])
    try:
        return main(args.argv)
    finally:
        dump()


def _load(program_path, db_dir):
    """Parse a program and load its CSV database, as ``repro run`` does."""
    from repro.core.parser import parse_program
    from repro.core.validation import check_database
    from repro.db import csvio

    program = parse_program(Path(program_path).read_text())
    schema = {pred: program.arity(pred) for pred in program.edb_predicates}
    db = csvio.load_database(db_dir, schema)
    check_database(program, db)
    return program, db


def run_maintain(args):
    recorder = dump = None
    if args.spans:
        recorder, dump = _recorder("maintain", args.spans)
    from repro.materialize import MaterializedView
    from repro.materialize.delta import Delta

    ops = json.loads(Path(args.ops).read_text())
    started = time.perf_counter()
    program, db = _load(args.program, args.db)
    view = MaterializedView(program, db, "stratified")
    setup_s = time.perf_counter() - started
    latencies = []
    for index, (kind, edge) in enumerate(ops):
        make = Delta.insert if kind == "insert" else Delta.delete
        delta = make("E", tuple(edge))
        if recorder is not None:
            recorder.op = index + 1
        t0 = time.perf_counter()
        view.apply(delta)
        latencies.append(time.perf_counter() - t0)
    out = {
        "setup_s": setup_s,
        "latencies": latencies,
        "recomputes": view.recomputes,
        "E": sorted(view.db["E"].tuples),
        "TC": sorted(view.relation("TC").tuples),
        "ACYC": sorted(view.relation("ACYC").tuples),
    }
    if recorder is not None:
        dump()
        # The from-scratch engine on the final database: what an update
        # has to beat.  Traced windows only, after the measured stream
        # and outside its ledger.
        from repro.core.semantics import stratified_semantics

        t0 = time.perf_counter()
        stratified_semantics(program, view.db)
        out["recompute_s"] = time.perf_counter() - t0
    Path(args.out).write_text(json.dumps(out))
    return 0


def run_parallel(args):
    from repro.core.semantics import well_founded_semantics

    program, db = _load(args.program, args.db)
    times = {}
    for label, workers in (("sequential_s", 0), ("parallel2_s", 2)):
        t0 = time.perf_counter()
        well_founded_semantics(program, db, parallel=workers)
        times[label] = time.perf_counter() - t0
    print(json.dumps(times))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    cli.set_defaults(fn=run_cli)
    maintain = sub.add_parser("maintain")
    maintain.add_argument("--spans", default=None)
    maintain.add_argument("--program", required=True)
    maintain.add_argument("--db", required=True)
    maintain.add_argument("--ops", required=True)
    maintain.add_argument("--out", required=True)
    maintain.set_defaults(fn=run_maintain)
    parallel = sub.add_parser("parallel")
    parallel.add_argument("--program", required=True)
    parallel.add_argument("--db", required=True)
    parallel.set_defaults(fn=run_parallel)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
