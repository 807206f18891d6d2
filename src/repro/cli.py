"""Command-line interface: evaluate, analyse, classify, lint, update programs.

Usage::

    python -m repro run PROGRAM.dl --db DIR [--semantics inflationary]
    python -m repro analyze PROGRAM.dl --db DIR [--count-limit N]
    python -m repro classify PROGRAM.dl
    python -m repro lint PROGRAM.dl [--db DIR] [--json] [--strict]
    python -m repro update PROGRAM.dl --db DIR --delta DIR [--delta DIR2 ...]
        [--semantics stratified|inflationary|wellfounded] [--batch]
    python -m repro serve [PROGRAM.dl] [--db DIR] [--state DIR]
        [--host H] [--port P] [--semantics S] [--tick-ms MS]
        [--snapshot-every N] [--log-level LEVEL]
    python -m repro explain PROGRAM.dl --db DIR [--semantics auto|...]
        [--profile] [--trace-out FILE] [--slow-ms MS] [--workers N]

``--db DIR`` points at a directory of headerless ``<relation>.csv`` files
(one tuple per row); the schema is inferred from the program's EDB arities.
``update`` builds a materialized view over the database, applies the
deltas found in the ``--delta`` directories (``<relation>.insert.csv`` /
``<relation>.delete.csv``, validated against the EDB schema) and prints
the changesets — every EDB and IDB tuple that moved; ``--batch`` folds
all deltas into one transaction, ``--semantics wellfounded`` maintains
the three-valued model of non-stratifiable programs (changes to the
undefined partition print under ``pred@undef``).

``serve`` runs the long-lived view server (:mod:`repro.server`): a JSON-
lines TCP service where clients POST deltas, query maintained results and
subscribe to changeset streams.  With ``--state DIR`` every committed
batch is written ahead to a CSV delta log and the server restarts by
snapshot + WAL replay — starting ``serve`` again on a populated state
directory recovers without ``PROGRAM.dl``/``--db``.  Startup, recovery
and slow-op events go through stdlib ``logging`` (``--log-level``), and
engine metrics are enabled so the ``metrics`` verb exposes them.

``explain`` pretty-prints each rule's compiled plan (its op list in
join order) together with a static-analysis summary block.
``--profile`` additionally runs the program under span tracing and
prints a phase-attributed time/row breakdown; ``--trace-out FILE``
writes the span forest as Chrome trace-event JSON (openable in
Perfetto / ``chrome://tracing``).

``lint`` runs the full static analyzer (:mod:`repro.analysis`): parse
and arity errors, range-restriction/safety, stratifiability with a
witness cycle through negation, semantics-divergence warnings on the
predicates where inflationary and well-founded models can differ, dead
rules, duplicate/subsumed rules, column type conflicts, and — with
``--db`` — database compatibility and unused relations.  Exit status is
1 exactly when error-level diagnostics exist; ``--strict`` promotes
warnings to errors; ``--json`` emits the schema-stable report document.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .core.parser import parse_program
from .core.program import Program
from .core.semantics import (
    inflationary_semantics,
    naive_least_fixpoint,
    seminaive_least_fixpoint,
    stratified_semantics,
    well_founded_semantics,
)
from .core.validation import check_database, safety_report
from .db import csvio, kernel
from .db.database import Database
from .db.relation import Relation

# Imports above are what ``run`` needs; every other subcommand imports
# its own subsystem (SAT reduction, analyzer, views, server) inside its
# ``cmd_*`` so a batch evaluation does not pay for them at start-up.

_ENGINES = {
    "inflationary": inflationary_semantics,
    "naive": naive_least_fixpoint,
    "seminaive": seminaive_least_fixpoint,
    "stratified": stratified_semantics,
}


def _load_program(path: str, carrier: str = None) -> Program:
    return parse_program(Path(path).read_text(), carrier=carrier)


def _load_database(directory: str, program: Program) -> Database:
    schema = {pred: program.arity(pred) for pred in program.edb_predicates}
    db = csvio.load_database(directory, schema)
    check_database(program, db)
    return db


def _load_lint_database(directory: str, program: Program):
    """Best-effort database load for the analyzer.

    Unlike :func:`_load_database` this never fails on a missing or
    mismatched relation — those become V001/V002 diagnostics.  Every
    ``<name>.csv`` in the directory is loaded (so unreferenced
    relations surface as U001), with the arity inferred from the first
    data row when the program does not fix it.  Names with an ``@``
    belong to the engine (``@U`` is the universe), so their files are
    skipped.
    """
    import csv as _csv

    relations = []
    universe = set()
    for path in sorted(Path(directory).glob("*.csv")):
        name = path.stem
        if "@" in name:
            continue
        with open(path, newline="") as f:
            first = next((row for row in _csv.reader(f) if row), None)
        if first is not None:
            arity = 0 if first == ["()"] else len(first)
        else:
            try:
                arity = program.arity(name)
            except KeyError:
                continue  # empty and unknown to the program: nothing to say
        rel = csvio.load_relation(path, name, arity)
        relations.append(rel)
        for t in rel:
            universe.update(t)
    return Database(universe, relations)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer; exit 1 iff the report gates red.

    ``--strict`` promotes warnings to errors for the exit status (the
    report itself is unchanged); ``--json`` prints the schema-stable
    document instead of the human rendering.
    """
    import json

    from .analysis import lint_source
    from .core.parser import ParseError
    from .core.program import ProgramError

    text = Path(args.program).read_text()
    db = None
    if args.db is not None:
        try:
            program = parse_program(text, carrier=args.carrier)
        except (ParseError, ProgramError):
            program = None  # lint_source reports the failure itself
        if program is not None:
            db = _load_lint_database(args.db, program)
    report = lint_source(text, db=db, carrier=args.carrier)
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=False))
    else:
        print(report.format(args.program))
        if args.strict and report.warnings and not report.errors:
            print("(--strict: warnings promoted to errors)")
    return report.exit_code(strict=args.strict)


def _rows_text_from_codes(rel: Relation) -> Optional[str]:
    """The row lines of a code-only relation, straight from its id columns.

    Byte-identical to :func:`_rows_text` without building a tuple:
    ``repr`` of a row is ``(`` + the fields' ``repr(value) + separator``
    strings concatenated, so when no such string is a prefix of another
    in the same column (checked; true for ints and strings) the
    ``sorted(key=repr)`` order is the lexicographic order of per-column
    *ranks* of those strings over the column's distinct values — one
    ``repr`` per distinct value, one ``np.lexsort`` over the rows, one
    ``str.join``.  Returns ``None`` when the relation is not code-only
    or the shortcut cannot vouch for the order; the caller then falls
    back to the spec.
    """
    rc = rel.code_only
    if rc is None or rel.arity == 0 or not len(rel):
        return None
    extern = rc.symbols.extern
    last = rel.arity - 1
    ranks = []
    texts = []
    for j, col in enumerate(rc.columns()):
        ids = kernel.sorted_unique(col)
        values = [extern(i) for i in ids.tolist()]
        sep = ", " if j < last else (",)" if last == 0 else ")")
        keys = [repr(v) + sep for v in values]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if any(
            keys[b].startswith(keys[a]) for a, b in zip(order, order[1:])
        ):
            return None
        size = int(ids[-1]) + 1
        rank = np.empty(size, dtype=np.int64)
        rank[ids[order]] = np.arange(len(order))
        ranks.append(rank[col])
        text = [""] * size
        lead = "  " if j == 0 else ""
        tail = ", " if j < last else "\n"
        for i, v in zip(ids.tolist(), values):
            text[i] = lead + str(v) + tail
        texts.append(text)
    rows = np.lexsort(ranks[::-1])
    cells = [
        [text[i] for i in col[rows].tolist()]
        for text, col in zip(texts, rc.columns())
    ]
    return "".join(chain.from_iterable(zip(*cells)))


def _rows_text(rel: Relation) -> str:
    """The spec: one line per tuple, tuples in ``sorted(key=repr)`` order."""
    return "".join(
        "  " + ", ".join(str(v) for v in t) + "\n" for t in sorted(rel, key=repr)
    )


def _print_relations(idb) -> None:
    """Print every relation of ``idb``: a header, then its rows, one write each."""
    for pred in sorted(idb):
        rel = idb[pred]
        text = _rows_text_from_codes(rel)
        if text is None:
            text = _rows_text(rel)
        sys.stdout.write(
            "%s/%d (%d tuples):\n%s" % (pred, rel.arity, len(rel), text)
        )


def cmd_run(args: argparse.Namespace) -> int:
    """Evaluate a program on a CSV database under a chosen semantics."""
    program = _load_program(args.program, carrier=args.carrier)
    db = _load_database(args.db, program)
    if args.semantics == "wellfounded":
        result = well_founded_semantics(program, db)
        print("well-founded model (total=%s):" % result.is_total)
        print("TRUE:")
        _print_relations(result.true_idb())
        if not result.is_total:
            print("UNDEFINED:")
            _print_relations(result.undefined_idb())
        return 0
    engine = _ENGINES[args.semantics]
    result = engine(program, db)
    print("engine=%s rounds=%d" % (result.engine, result.rounds))
    _print_relations(result.idb)
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Apply CSV deltas to a materialized view and print the changesets.

    ``--delta`` may repeat; with ``--batch`` the deltas are applied as a
    single transaction (one maintenance pass, one undo-log entry),
    otherwise sequentially with one changeset each.  Under
    ``--semantics wellfounded`` the changeset reports the *true*
    partition under each predicate's own name and the *undefined*
    partition under ``pred@undef``.
    """
    from .materialize import MaterializedView

    program = _load_program(args.program, carrier=args.carrier)
    db = _load_database(args.db, program)
    schema = {pred: program.arity(pred) for pred in program.edb_predicates}
    deltas = [csvio.load_delta(directory, schema) for directory in args.delta]
    view = MaterializedView(program, db, semantics=args.semantics)
    if args.batch:
        changeset = view.apply_many(deltas)
        print(
            "engine=%s semantics=%s batch of %d delta(s)"
            % (view.result.engine, args.semantics, len(deltas))
        )
        print(changeset.format())
    else:
        for delta in deltas:
            changeset = view.apply(delta)
            print(
                "engine=%s semantics=%s delta=%r"
                % (view.result.engine, args.semantics, delta)
            )
            print(changeset.format())
    if args.out:
        csvio.dump_database(view.db, args.out)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print compiled rule plans; with ``--profile``, a phase breakdown.

    The plain form shows, per rule, the compiled
    :class:`~repro.core.planning.plan.RulePlan` the engines run
    (its op list: joins in order, anti-joins, filters, projections).
    ``--profile`` evaluates the program under metrics + span tracing
    and prints a per-phase time/row table attributing the evaluation
    wall time to fixpoint phases (grounding, semi-naive rounds,
    alternation steps, rule executions).  ``--workers N`` profiles the
    sharded well-founded engine; under any other semantics it is an
    ``error:`` line and exit status 2.
    """
    import json
    import time

    from .core.planning import compile_rule
    from .core.semantics import is_stratifiable
    from .obs import (
        REGISTRY,
        TRACER,
        aggregate,
        disable_metrics,
        enable_metrics,
        export_chrome,
        span_total,
    )

    program = _load_program(args.program, carrier=args.carrier)
    db = _load_database(args.db, program)
    semantics = args.semantics
    if semantics == "auto":
        semantics = "stratified" if is_stratifiable(program) else "wellfounded"
    if args.workers and semantics != "wellfounded":
        print(
            "error: --workers needs --semantics wellfounded, the only sharded "
            "engine (got %s)" % semantics,
            file=sys.stderr,
        )
        return 2
    print(
        "program %s: %d rules, %d EDB / %d IDB predicates, semantics=%s"
        % (
            args.program,
            len(program.rules),
            len(program.edb_predicates),
            len(program.idb_predicates),
            semantics,
        )
    )
    print()
    for rule in program.rules:
        print(compile_rule(rule).describe())
        print()

    from .analysis import lint_program

    report = lint_program(program, db)
    summary = report.summary()
    print(
        "lint: class=%s strata=%s, %d error(s), %d warning(s), %d info(s)"
        % (
            summary["class"],
            "n/a" if summary["strata"] is None else summary["strata"],
            summary["errors"],
            summary["warnings"],
            summary["infos"],
        )
    )
    for diagnostic in report.diagnostics:
        print("  " + diagnostic.format(args.program))
    print()

    wall = None
    if args.profile:
        enable_metrics()
        TRACER.start(slow_threshold=args.slow_ms / 1000.0 if args.slow_ms else None)
        try:
            started = time.perf_counter()
            if semantics == "wellfounded":
                well_founded_semantics(program, db, parallel=args.workers)
            else:
                _ENGINES[semantics](program, db)
            wall = time.perf_counter() - started
        finally:
            roots = TRACER.stop()
            disable_metrics()
        covered = span_total(roots)
        print(
            "profile: wall %.4fs, %.1f%% attributed to spans"
            % (wall, 100.0 * covered / wall if wall else 0.0)
        )
        print(
            "%-28s %7s %10s %10s %12s"
            % ("phase", "count", "total s", "self s", "rows")
        )
        for stat in aggregate(roots):
            print(
                "%-28s %7d %10.4f %10.4f %12d"
                % (stat.name, stat.count, stat.total, stat.self_time, stat.rows)
            )
        counters = [
            (f.name, f.value)
            for f in REGISTRY.families()
            if f.kind == "counter" and not f.labelnames and f.value
        ]
        if counters:
            print()
            print("counters:")
            for name, value in counters:
                print("  %-42s %d" % (name, int(value)))
        if args.trace_out:
            Path(args.trace_out).write_text(export_chrome(roots))
            print()
            print("chrome trace written to %s (open in Perfetto)" % args.trace_out)

    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the live view server until interrupted (or told to shut down).

    A fresh start needs ``PROGRAM.dl`` and ``--db`` to register the
    initial view; a restart on a populated ``--state`` directory
    recovers every view it holds by snapshot + WAL replay and ignores
    neither — recovered views win, the program/db pair only registers
    the named view when recovery did not already produce it.  A state
    directory recovery refuses (another log format, a missing snapshot,
    a corrupt WAL record) is one ``error:`` line and exit status 2.
    """
    import asyncio
    import logging

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


async def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import enable_metrics
    from .server.net import TcpFrontend
    from .server.service import ViewServer

    # Engine-side instruments flow into the process registry so the
    # ``metrics`` verb reports fixpoint work alongside the always-on
    # per-view serving series.
    enable_metrics()
    service = ViewServer(
        state_dir=args.state,
        tick=args.tick_ms / 1000.0,
        snapshot_every=args.snapshot_every,
    )
    try:
        recovered = await service.start()
    except ValueError as exc:
        # A state directory this build cannot read, or a damaged one
        # (DeltaLog.recover names the file): say so, replay nothing.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for info in recovered:
        print(
            "recovered view %r at seq %d by snapshot + WAL replay (%s)"
            % (info.name, info.seq, info.semantics)
        )
    if args.name not in service.views():
        if args.program is None or args.db is None:
            print(
                "view %r is not in the state directory: a fresh start needs "
                "PROGRAM.dl and --db" % args.name
            )
            return 2
        program = _load_program(args.program, carrier=args.carrier)
        db = _load_database(args.db, program)
        info = service.register(
            args.name,
            Path(args.program).read_text(),
            db,
            semantics=args.semantics,
            carrier=args.carrier,
        )
        print(
            "registered view %r (%s; EDB %s; IDB %s)%s"
            % (
                info.name,
                info.semantics,
                ", ".join(sorted(info.edb)),
                ", ".join(sorted(info.idb)),
                "" if info.durable else " [in-memory: no --state given]",
            )
        )
    frontend = TcpFrontend(service)
    host, port = await frontend.start(args.host, args.port)
    print("serving on %s:%d (newline-delimited JSON; op: register/delta/"
          "query/subscribe/info/stats/lint/metrics/shutdown)" % (host, port))
    sys.stdout.flush()

    # SIGTERM is the normal supervisor kill; route it (and SIGINT) into
    # the same graceful path the `shutdown` verb takes, so the final
    # snapshot is cut no matter how the process is asked to stop.
    def _on_signal(signame: str) -> None:
        print("received %s; closing gracefully" % signame)
        sys.stdout.flush()
        frontend.request_stop()

    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, _on_signal, signum.name)
        except (NotImplementedError, ValueError, RuntimeError):
            continue  # platforms without loop signal support
        installed.append(signum)
    try:
        await frontend.wait_stopped()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await frontend.close()
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Fixpoint analysis: existence, uniqueness, count, least fixpoint."""
    from .core.satreduction import analyze_fixpoints

    program = _load_program(args.program, carrier=args.carrier)
    db = _load_database(args.db, program)
    analysis = analyze_fixpoints(program, db, count_limit=args.count_limit)
    print("fixpoint exists : %s" % analysis.exists)
    print("unique          : %s" % analysis.unique)
    print(
        "count           : %s"
        % (">%d" % args.count_limit if analysis.count is None else analysis.count)
    )
    print("least exists    : %s" % analysis.least_exists)
    if analysis.least is not None:
        print("least fixpoint:")
        _print_relations(analysis.least)
    elif analysis.sample is not None:
        print("sample fixpoint:")
        _print_relations(analysis.sample)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Report a program's class, strata, safety, and engine support."""
    from .analysis.classify import EngineSupport, classify

    program = _load_program(args.program)
    kind = classify(program)
    support = EngineSupport.for_program(program)
    print("class            : %s" % kind.value)
    print("IDB predicates   : %s" % ", ".join(sorted(program.idb_predicates)))
    print("EDB predicates   : %s" % ", ".join(sorted(program.edb_predicates)))
    print("safety           : %s" % safety_report(program))
    print("least fixpoint ok: %s" % support.least_fixpoint)
    print("stratified ok    : %s" % support.stratified)
    print("inflationary ok  : %s (always)" % support.inflationary)
    if support.stratified:
        from .core.semantics import stratify

        for i, layer in enumerate(stratify(program)):
            print("stratum %d        : %s" % (i, ", ".join(sorted(layer))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATALOG¬ engines and fixpoint analysis "
        "(Kolaitis & Papadimitriou, 'Why Not Negation by Fixpoint?')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a program on a CSV database")
    run.add_argument("program", help="path to a .dl program file")
    run.add_argument("--db", required=True, help="directory of <name>.csv files")
    run.add_argument(
        "--semantics",
        choices=sorted(_ENGINES) + ["wellfounded"],
        default="inflationary",
    )
    run.add_argument("--carrier", default=None, help="goal predicate")
    run.set_defaults(fn=cmd_run)

    update = sub.add_parser(
        "update", help="apply a CSV delta to a materialized view"
    )
    update.add_argument("program", help="path to a .dl program file")
    update.add_argument("--db", required=True, help="directory of <name>.csv files")
    update.add_argument(
        "--delta",
        required=True,
        action="append",
        help="directory of <name>.insert.csv / <name>.delete.csv files "
        "(repeatable; see --batch)",
    )
    update.add_argument(
        "--batch",
        action="store_true",
        help="apply all --delta directories as one transaction "
        "(a single maintenance pass over the composed delta)",
    )
    update.add_argument(
        "--semantics",
        choices=["stratified", "inflationary", "wellfounded"],
        default="stratified",
    )
    update.add_argument("--carrier", default=None, help="goal predicate")
    update.add_argument(
        "--out", default=None, help="write the post-delta database here"
    )
    update.set_defaults(fn=cmd_update)

    serve = sub.add_parser(
        "serve", help="run the live view server (JSON-lines TCP)"
    )
    serve.add_argument(
        "program",
        nargs="?",
        default=None,
        help="path to a .dl program file (optional when --state recovers)",
    )
    serve.add_argument(
        "--db", default=None, help="directory of <name>.csv files (fresh start)"
    )
    serve.add_argument(
        "--state",
        default=None,
        help="state directory for the write-ahead delta log + snapshots; "
        "restarting on it recovers by replay",
    )
    serve.add_argument("--name", default="default", help="view name")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7464)
    serve.add_argument(
        "--semantics",
        choices=["stratified", "inflationary", "wellfounded"],
        default="stratified",
    )
    serve.add_argument("--carrier", default=None, help="goal predicate")
    serve.add_argument(
        "--tick-ms",
        type=float,
        default=10.0,
        help="writer linger per batch: concurrent deltas arriving within "
        "one tick share a single maintenance pass",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        help="cut a snapshot (pruning the WAL behind it) every N commits",
    )
    serve.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="stdlib logging level for startup/recovery/slow-op events",
    )
    serve.set_defaults(fn=cmd_serve)

    explain = sub.add_parser(
        "explain",
        help="print compiled rule plans; --profile adds a phase breakdown",
    )
    explain.add_argument("program", help="path to a .dl program file")
    explain.add_argument("--db", required=True, help="directory of <name>.csv files")
    explain.add_argument(
        "--semantics",
        choices=["auto"] + sorted(_ENGINES) + ["wellfounded"],
        default="auto",
        help="engine to profile under; 'auto' picks stratified when the "
        "program is stratifiable, wellfounded otherwise",
    )
    explain.add_argument("--carrier", default=None, help="goal predicate")
    explain.add_argument(
        "--profile",
        action="store_true",
        help="evaluate under metrics + span tracing and print the "
        "phase-attributed time/row breakdown",
    )
    explain.add_argument(
        "--trace-out",
        default=None,
        help="write the profile's span forest as Chrome trace-event JSON",
    )
    explain.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log spans slower than this many milliseconds via logging",
    )
    explain.add_argument(
        "--workers",
        type=int,
        default=0,
        help="profile the sharded well-founded engine with N worker "
        "processes (0 = in-process engine; wellfounded semantics only)",
    )
    explain.set_defaults(fn=cmd_explain)

    analyze = sub.add_parser("analyze", help="fixpoint existence/uniqueness/least")
    analyze.add_argument("program")
    analyze.add_argument("--db", required=True)
    analyze.add_argument("--count-limit", type=int, default=10_000)
    analyze.add_argument("--carrier", default=None)
    analyze.set_defaults(fn=cmd_analyze)

    cls = sub.add_parser("classify", help="program class / strata / safety")
    cls.add_argument("program")
    cls.set_defaults(fn=cmd_classify)

    lint = sub.add_parser(
        "lint", help="static analysis: spanned diagnostics with stable codes"
    )
    lint.add_argument("program", help="path to a .dl program file")
    lint.add_argument(
        "--db",
        default=None,
        help="directory of <name>.csv files; enables database-compatibility "
        "and unused-relation checks and seeds column-type inference",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the schema-stable JSON report document",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="promote warnings to errors for the exit status",
    )
    lint.add_argument("--carrier", default=None, help="goal predicate")
    lint.set_defaults(fn=cmd_lint)
    return parser


def main(argv=None) -> int:
    """Entry point used by ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
