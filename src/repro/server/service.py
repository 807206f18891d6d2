"""The asyncio view service: registered programs, a writer queue, readers.

:class:`ViewServer` hosts named :class:`~repro.materialize.view.MaterializedView`\\ s
and gives each one the serving discipline the ROADMAP asks for:

* **One writer, batched.**  Every view has a single writer task draining
  an :class:`asyncio.Queue`.  Concurrent :meth:`submit` calls enqueue;
  per tick the writer folds everything queued through
  :meth:`Delta.then <repro.materialize.delta.Delta.then>` and runs
  **one** maintenance pass for the whole batch (the
  :meth:`~repro.materialize.view.MaterializedView.apply_many`
  transaction semantics: tuples that churn within a tick cost nothing).
  Every submitter of the batch is acknowledged with the commit sequence
  number and the batch's net changeset.
* **Snapshot-consistent reads, free.**  Databases and results are
  immutable values; :meth:`pin` hands a reader the current
  ``(seq, db, result)`` triple, which stays internally consistent no
  matter how far the writer advances.  :meth:`query` is the one-shot
  convenience form.
* **Reads from kept renderings.**  :meth:`read` — what the wire's
  ``query`` answers from — keeps each queried relation's rendered
  ``tuples`` text, and every commit patches it with the rows its
  changeset moved, as the snapshot files are patched in the
  :class:`~repro.server.wal.DeltaLog`; a read regroups, sorts and
  encodes nothing, and a commit renders one row per changed tuple.
* **Changesets are the wire payload.**  A changeset is a
  :class:`~repro.materialize.delta.Delta` keyed by every relation the
  batch moved.  :meth:`subscribe` returns an async iterator of
  ``(seq, changeset)`` events, fanned out to every
  subscriber as batches commit (empty net changesets are not
  published; the fan-out's recent-events window is deduplicated by the
  changesets' content hash).
* **Bounded queues.**  A writer queue that is full fails :meth:`submit`
  at once with :class:`OverloadedError`; a subscriber a whole window of
  events behind is unsubscribed, its stream ending with ``lagged`` set.
* **Durability by replay.**  With a state directory, every committed
  batch is appended to the view's :class:`~repro.server.wal.DeltaLog`
  *before* it is acknowledged, and a snapshot is cut every
  ``snapshot_every`` commits, so :meth:`ViewServer.start` restarts by
  snapshot + WAL replay instead of from-scratch recompute.  The
  snapshot is cut after the batch is acknowledged; one that fails is
  logged, counted in ``repro_wal_snapshot_failures_total{view}`` and
  retried by the next commit, and the writer keeps serving.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis import LintReport, lint_program, lint_source
from ..core.parser import parse_program
from ..core.program import Program
from ..core.validation import check_database
from ..db.csvio import SortedRows
from ..db.database import Database
from ..db.relation import Relation
from ..materialize.delta import Delta
from ..materialize.view import SEMANTICS, MaterializedView
from ..materialize.wellfounded_maint import UNDEF
from ..obs import LATENCY_BUCKETS, REGISTRY, SIZE_BUCKETS
from . import protocol
from .wal import RENDER_REBUILDS, SNAPSHOT_FAILURES, DeltaLog

logger = logging.getLogger("repro.server")

_SHUTDOWN = object()

# Per-view serving series, registered on the process-wide registry at
# import time so the ``metrics`` verb exposes the families (and their
# HELP/TYPE headers) before the first commit.  These are always-on —
# one dict hit and a locked increment per *commit*, not per tuple — so
# scraping works without enabling the engine-side recorder.
_SUBMITTED = REGISTRY.counter(
    "repro_server_submitted_total",
    "Deltas submitted (accepted into the writer queue).",
    labelnames=("view",),
)
_COMMITS = REGISTRY.counter(
    "repro_server_commits_total",
    "Batches committed (logged, applied, acknowledged).",
    labelnames=("view",),
)
_COMMIT_SECONDS = REGISTRY.histogram(
    "repro_server_commit_seconds",
    "Commit latency: WAL append + one maintenance pass.",
    labelnames=("view",),
    buckets=LATENCY_BUCKETS,
)
_BATCH_SIZE = REGISTRY.histogram(
    "repro_server_batch_size",
    "Deltas folded into one committed batch.",
    labelnames=("view",),
    buckets=SIZE_BUCKETS,
)
_READS = REGISTRY.counter(
    "repro_server_reads_total",
    "Relation reads answered from a kept rendering (hit) or rendered "
    "from scratch (miss).",
    labelnames=("view", "cache"),
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_server_queue_depth",
    "Writer-queue depth (refreshed per commit and per scrape).",
    labelnames=("view",),
)
_SUBSCRIBERS = REGISTRY.gauge(
    "repro_server_subscribers",
    "Live subscriptions.",
    labelnames=("view",),
)
_SUBSCRIBER_LAG = REGISTRY.gauge(
    "repro_server_subscriber_lag",
    "Most undelivered events across a view's subscribers.",
    labelnames=("view",),
)
_RECOVERY_REPLAYED = REGISTRY.counter(
    "repro_server_recovery_replayed_total",
    "WAL entries replayed while recovering a view.",
    labelnames=("view",),
)
_RECOVERY_SECONDS = REGISTRY.histogram(
    "repro_server_recovery_seconds",
    "Recovery wall time: snapshot load + WAL replay + refixpoint.",
    labelnames=("view",),
    buckets=LATENCY_BUCKETS,
)

_RECENT_WINDOW = 256
"""How many committed changesets the per-view recent-events window keeps
(the dedup set over their content hashes backs the ``stats`` counters),
and how many undelivered events a subscriber may fall behind before it
is unsubscribed."""

_QUEUE_LIMIT = 1024
"""Deltas a view's writer queue holds before :meth:`ViewServer.submit`
answers ``overloaded`` (well above ``repro.bench serve``'s 128-request
storm)."""


class ProgramRejected(ValueError):
    """``register`` refused a program with error-level diagnostics.

    Carries the full :class:`~repro.analysis.diagnostics.LintReport` so
    the protocol layer can return the diagnostic list to the client.
    """

    def __init__(self, report: LintReport) -> None:
        self.report = report
        from ..analysis import Severity

        errors = [
            d.message for d in report.diagnostics if d.severity is Severity.ERROR
        ]
        super().__init__(
            "program rejected by static analysis: %d error(s): %s"
            % (report.errors, "; ".join(errors))
        )


class OverloadedError(RuntimeError):
    """The view's writer queue is full; the delta was not accepted."""


class UnknownViewError(KeyError):
    """A request named a view this server does not host."""

    def __init__(self, name: str, known) -> None:
        super().__init__(
            "no view named %r; registered views: %s"
            % (name, sorted(known) or "(none)")
        )


@dataclass(frozen=True)
class ViewInfo:
    """What a client learns about a hosted view."""

    name: str
    semantics: str
    carrier: Optional[str]
    seq: int
    edb: Dict[str, int]
    idb: Dict[str, int]
    durable: bool
    recovered: bool


@dataclass(frozen=True)
class Pinned:
    """A snapshot-consistent read handle: immutable values, safely held
    across awaits while the writer advances the view."""

    seq: int
    db: Database
    result: Any


class Subscription:
    """An async iterator of committed ``(seq, changeset)`` events.

    At most ``_RECENT_WINDOW`` events wait undelivered.  A subscriber
    that falls further behind is unsubscribed: ``lagged`` becomes the
    sequence number of the first commit it will not see, and the
    iterator finishes after the events already queued.
    """

    def __init__(self, view: str) -> None:
        self.view = view
        self._queue: "asyncio.Queue" = asyncio.Queue(maxsize=_RECENT_WINDOW)
        self._closed = False
        self.lagged: Optional[int] = None

    def _publish(self, seq: int, changeset: Delta) -> None:
        if self._closed:
            return
        try:
            self._queue.put_nowait((seq, changeset))
        except asyncio.QueueFull:
            self.lagged = seq
            self.close()

    def close(self) -> None:
        """End the stream (the iterator finishes after drained events)."""
        if not self._closed:
            self._closed = True
            if self._queue.empty():
                # Wake a consumer blocked in get(); with events queued
                # none is, and __anext__ sees the flag once they drain.
                self._queue.put_nowait(None)

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> Tuple[int, Delta]:
        if self._closed and self._queue.empty():
            raise StopAsyncIteration
        event = await self._queue.get()
        if event is None:
            raise StopAsyncIteration
        return event


class _ViewState:
    """One hosted view: the materialized view plus its serving shell."""

    __slots__ = (
        "name",
        "program",
        "program_text",
        "carrier",
        "view",
        "log",
        "seq",
        "queue",
        "task",
        "subscribers",
        "recent",
        "recovered",
        "submitted",
        "commits",
        "lint_report",
        "reads",
        "read_hits",
        "read_misses",
        "render_rebuilds",
    )

    def __init__(
        self,
        name: str,
        program: Program,
        program_text: str,
        carrier: Optional[str],
        view: MaterializedView,
        log: Optional[DeltaLog],
        seq: int = 0,
        recovered: bool = False,
    ) -> None:
        self.name = name
        self.program = program
        self.program_text = program_text
        self.carrier = carrier
        self.view = view
        self.log = log
        self.seq = seq
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=_QUEUE_LIMIT)
        self.task: Optional["asyncio.Task"] = None
        self.subscribers: List[Subscription] = []
        self.recent: "deque" = deque(maxlen=_RECENT_WINDOW)
        self.recovered = recovered
        self.submitted = 0
        self.commits = 0
        # Static-analysis report, computed once (at register, or lazily
        # for recovered views) so analysis stays off the serving path.
        self.lint_report: Optional[LintReport] = None
        # (predicate, undefined) -> (arity, rendered ``tuples``) of each
        # relation read so far; the rendering's ``seq`` is the commit it
        # renders, and _commit patches those at the previous one.
        self.reads: Dict[Tuple[str, bool], Tuple[int, SortedRows]] = {}
        self.read_hits = 0
        self.read_misses = 0
        self.render_rebuilds = 0


class ViewServer:
    """A long-lived host for materialized views (see the module doc).

    Parameters
    ----------
    state_dir:
        Root directory for durability.  Each view owns
        ``<state_dir>/<view name>/`` (a :class:`~repro.server.wal.DeltaLog`);
        ``None`` serves purely in memory.
    tick:
        Seconds the writer lingers after the first queued delta before
        committing, so concurrent submitters land in one batch.  ``0``
        commits immediately with whatever else is already queued.
    snapshot_every:
        Cut a snapshot (and prune the WAL behind it) every this many
        commits.  ``None`` disables periodic snapshots — the WAL then
        grows until :meth:`close`, which always cuts a final snapshot.
    """

    def __init__(
        self,
        state_dir: Optional[Union[str, Path]] = None,
        tick: float = 0.0,
        snapshot_every: Optional[int] = 64,
    ) -> None:
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.tick = tick
        self.snapshot_every = snapshot_every
        self._views: Dict[str, _ViewState] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> List[ViewInfo]:
        """Recover every view the state directory holds; return their infos.

        Recovery is replay: rebuild the view at the newest snapshot,
        then apply the WAL entries after it — each one a committed
        batch — through the ordinary maintenance path.
        """
        started = time.perf_counter()
        recovered = []
        if self.state_dir is not None and self.state_dir.is_dir():
            for child in sorted(self.state_dir.iterdir()):
                if child.is_dir() and DeltaLog.exists(child):
                    state = self._recover(child)
                    self._attach(state)
                    recovered.append(self.info(state.name))
        if recovered:
            logger.info(
                "recovery complete: %d view(s) in %.3fs: %s",
                len(recovered),
                time.perf_counter() - started,
                ", ".join(info.name for info in recovered),
            )
        return recovered

    def _recover(self, directory: Path) -> _ViewState:
        started = time.perf_counter()
        log = DeltaLog(directory)
        rec = log.recover()
        program = parse_program(rec.program_text, carrier=rec.carrier)
        view = MaterializedView(program, rec.db, semantics=rec.semantics)
        replayed = 0
        for _seq, delta in rec.entries:
            view.apply(delta)
            replayed += 1
        elapsed = time.perf_counter() - started
        _RECOVERY_REPLAYED.labels(rec.view).inc(replayed)
        _RECOVERY_SECONDS.labels(rec.view).observe(elapsed)
        logger.info(
            "recovered view %r (%s): snapshot at seq %d, %d WAL entries "
            "replayed, last seq %d, %.3fs",
            rec.view,
            rec.semantics,
            log.snapshot_seq,
            replayed,
            rec.last_seq,
            elapsed,
        )
        return _ViewState(
            name=rec.view,
            program=program,
            program_text=rec.program_text,
            carrier=rec.carrier,
            view=view,
            log=log,
            seq=rec.last_seq,
            recovered=True,
        )

    def register(
        self,
        name: str,
        program_text: str,
        db: Database,
        semantics: str = "stratified",
        carrier: Optional[str] = None,
        durable: bool = True,
    ) -> ViewInfo:
        """Host a new view: lint, parse, validate, evaluate, start its writer.

        The program text runs through the static analyzer first; any
        error-level diagnostic (parse failure, arity conflict, missing
        or mismatched database relation) raises :class:`ProgramRejected`
        carrying the full report, so protocol clients get the diagnostic
        list instead of a bare message.  Warnings (unsafe rules,
        non-stratifiability) do not block — inflationary and
        well-founded semantics are total.

        With a state directory (and ``durable``), the initial database
        is snapshotted before the first delta is accepted, so a crash at
        any later point recovers.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if name in self._views:
            raise ValueError("a view named %r is already registered" % name)
        if semantics not in SEMANTICS:
            raise ValueError(
                "unknown semantics %r; expected one of %s" % (semantics, SEMANTICS)
            )
        report = lint_source(program_text, db=db, carrier=carrier)
        if report.has_errors():
            raise ProgramRejected(report)
        program = parse_program(program_text, carrier=carrier)
        check_database(program, db)
        log = None
        if durable and self.state_dir is not None:
            log = DeltaLog.initialise(
                self.state_dir / name, name, program_text, semantics, carrier, db
            )
        view = MaterializedView(program, db, semantics=semantics)
        state = _ViewState(
            name=name,
            program=program,
            program_text=program_text,
            carrier=carrier,
            view=view,
            log=log,
        )
        state.lint_report = report
        self._attach(state)
        logger.info(
            "registered view %r: %s semantics, %d rules, durable=%s",
            name,
            semantics,
            len(program.rules),
            log is not None,
        )
        return self.info(name)

    def _attach(self, state: _ViewState) -> None:
        self._views[state.name] = state
        state.task = asyncio.get_running_loop().create_task(self._writer_loop(state))

    async def close(self) -> None:
        """Stop every writer, end subscriptions, cut final snapshots."""
        self._closed = True
        for state in self._views.values():
            await state.queue.put(_SHUTDOWN)
        for state in self._views.values():
            if state.task is not None:
                await state.task
                state.task = None
            if state.log is not None:
                if state.seq > state.log.snapshot_seq:
                    state.log.snapshot(state.seq, state.view.db)
                state.log.close()
            for sub in list(state.subscribers):
                sub.close()
            state.subscribers.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def views(self) -> List[str]:
        """The hosted view names, sorted."""
        return sorted(self._views)

    def _state(self, name: str) -> _ViewState:
        try:
            return self._views[name]
        except KeyError:
            raise UnknownViewError(name, self._views) from None

    def info(self, name: str) -> ViewInfo:
        """Schema-level facts about a hosted view."""
        state = self._state(name)
        program = state.program
        return ViewInfo(
            name=state.name,
            semantics=state.view.semantics,
            carrier=state.carrier,
            seq=state.seq,
            edb={p: program.arity(p) for p in sorted(program.edb_predicates)},
            idb={p: program.arity(p) for p in sorted(program.idb_predicates)},
            durable=state.log is not None,
            recovered=state.recovered,
        )

    def lint(self, name: str) -> LintReport:
        """The static-analysis report for a hosted view.

        Computed once — at :meth:`register`, or on first request for a
        recovered view (against the database as of that moment) — and
        cached on the view state; the analyzer never runs on the commit
        path.
        """
        state = self._state(name)
        if state.lint_report is None:
            state.lint_report = lint_program(state.program, state.view.db)
        return state.lint_report

    def stats(self, name: str) -> Dict[str, Any]:
        """Serving counters for one view (the observability face).

        ``read_hits`` / ``read_misses`` count :meth:`read` calls
        answered from a kept (possibly patched) rendering / rendered
        from scratch; ``render_rebuilds`` counts the renderings, read or
        snapshot, that were rendered from scratch because no commit had
        patched them up to date (0 while serving; the first snapshot
        after a recovery rebuilds the snapshot files).
        ``kernel`` reports the columnar substrate the view runs on —
        which backend is live and how many constants its database family
        has interned (``None`` until something touches the kernel; the
        peek never forces a table into existence).  ``cardinalities``
        are the current per-predicate relation sizes; relations track
        their length, so the whole block is O(#predicates), safe to
        poll — no served tuple is ever counted, copied, or decoded.
        ``analysis`` is the cached static-analysis summary — program
        class, stratum count, negative-cycle predicates, diagnostic
        counts and codes — computed once per registration, never per
        poll.
        """
        from ..db import kernel

        report = self.lint(name)
        state = self._state(name)
        program = state.program
        db = state.view.db
        return {
            "seq": state.seq,
            "submitted": state.submitted,
            "commits": state.commits,
            "read_hits": state.read_hits,
            "read_misses": state.read_misses,
            "render_rebuilds": state.render_rebuilds
            + (state.log.render_rebuilds if state.log is not None else 0),
            "applied": state.view.applied,
            "recomputes": state.view.recomputes,
            "queue_depth": state.queue.qsize(),
            "subscribers": len(state.subscribers),
            "recent_events": len(state.recent),
            # A Delta hashes by content, so the window dedups exactly.
            "distinct_recent_changes": len({cs for _, cs in state.recent}),
            "snapshot_seq": (
                state.log.snapshot_seq if state.log is not None else None
            ),
            "kernel": {
                "backend": kernel.backend(),
                "interned_constants": db.interned_size(),
            },
            "cardinalities": {
                "edb": {
                    p: (len(r) if (r := db.get(p)) is not None else 0)
                    for p in sorted(program.edb_predicates)
                },
                "idb": {
                    p: len(state.view.relation(p))
                    for p in sorted(program.idb_predicates)
                },
            },
            "analysis": dict(report.summary(), codes=list(report.codes())),
        }

    def metrics(self) -> str:
        """The process-wide metrics registry in Prometheus text format.

        Counters and histograms accumulate as commits happen;
        point-in-time gauges — queue depth, subscriber counts and lag —
        are refreshed per scrape so every exposition is current.
        """
        for state in self._views.values():
            _QUEUE_DEPTH.labels(state.name).set(state.queue.qsize())
            _SUBSCRIBERS.labels(state.name).set(len(state.subscribers))
            _SUBSCRIBER_LAG.labels(state.name).set(
                max((s._queue.qsize() for s in state.subscribers), default=0)
            )
        return REGISTRY.exposition()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def pin(self, name: str) -> Pinned:
        """The current ``(seq, db, result)``, safe to hold across awaits."""
        state = self._state(name)
        return Pinned(seq=state.seq, db=state.view.db, result=state.view.result)

    def query(
        self, name: str, predicate: str, undefined: bool = False
    ) -> Tuple[int, Relation]:
        """One predicate's current value with its commit sequence.

        EDB predicates read from the database, IDB predicates from the
        maintained result.  For well-founded views the IDB value is the
        *true* partition; ``undefined=True`` reads the undefined one
        (an error for two-valued views, which have none).
        """
        state = self._state(name)
        program = state.program
        if undefined:
            if state.view.semantics != "wellfounded":
                raise ValueError(
                    "view %r has two-valued semantics %r: no undefined "
                    "partition to query" % (name, state.view.semantics)
                )
            if predicate not in program.idb_predicates:
                raise KeyError(
                    "predicate %r is not an IDB predicate of view %r"
                    % (predicate, name)
                )
            return state.seq, state.view.result.undefined_idb()[predicate]
        if predicate in program.idb_predicates:
            return state.seq, state.view.relation(predicate)
        rel = state.view.db.get(predicate)
        if rel is None:
            raise KeyError(
                "predicate %r is neither an IDB predicate nor a database "
                "relation of view %r" % (predicate, name)
            )
        return state.seq, rel

    def read(
        self, name: str, predicate: str, undefined: bool = False
    ) -> Tuple[int, int, bytes]:
        """:meth:`query` for the wire: ``(seq, arity, tuples bytes)``.

        The bytes are the text of :func:`protocol.tuple_rows` of the
        relation, kept per ``(predicate, undefined)`` and patched by
        every commit (:meth:`_commit`), so a read renders nothing; a
        kept rendering no commit brought up to date is rendered again
        and counted as a rebuild.  ``seq`` is always the current commit.
        """
        state = self._state(name)
        key = (predicate, undefined)
        kept = state.reads.get(key)
        if kept is not None and kept[1].seq == state.seq:
            state.read_hits += 1
            _READS.labels(state.name, "hit").inc()
        else:
            _, rel = self.query(name, predicate, undefined)
            rows = protocol.tuple_rows(rel.tuples)
            rows.seq = state.seq
            if kept is not None:
                state.render_rebuilds += 1
                RENDER_REBUILDS.labels(state.name).inc()
            kept = state.reads[key] = (rel.arity, rows)
            state.read_misses += 1
            _READS.labels(state.name, "miss").inc()
        return state.seq, kept[0], kept[1].text().encode()

    def subscribe(self, name: str) -> Subscription:
        """Stream every future committed batch's net changeset."""
        state = self._state(name)
        sub = Subscription(name)
        state.subscribers.append(sub)
        _SUBSCRIBERS.labels(state.name).set(len(state.subscribers))
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach and close a subscription."""
        state = self._views.get(sub.view)
        if state is not None and sub in state.subscribers:
            state.subscribers.remove(sub)
            _SUBSCRIBERS.labels(state.name).set(len(state.subscribers))
        sub.close()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    async def submit(self, name: str, delta: Delta) -> Tuple[int, Delta]:
        """Queue a delta; await its commit.

        The delta is validated against the view's schema *now* (a bad
        delta fails its submitter alone, never the batch it would have
        joined) and acknowledged once the batch containing it is durably
        logged and applied.  The returned changeset is the whole batch's
        net effect and the sequence number is the batch's commit — the
        transaction the submitter rode in.  A writer queue already
        holding ``_QUEUE_LIMIT`` deltas raises :class:`OverloadedError`
        at once: the delta was not accepted and nothing waits.
        """
        state = self._state(name)
        state.view.validate_delta(delta)
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        try:
            state.queue.put_nowait((delta, future))
        except asyncio.QueueFull:
            raise OverloadedError(
                "overloaded: view %r already has %d deltas queued; retry later"
                % (name, _QUEUE_LIMIT)
            ) from None
        state.submitted += 1
        _SUBMITTED.labels(state.name).inc()
        return await future

    async def _writer_loop(self, state: _ViewState) -> None:
        while True:
            item = await state.queue.get()
            if item is _SHUTDOWN:
                return
            batch = [item]
            if self.tick > 0:
                # Linger one tick so concurrent submitters share the pass.
                await asyncio.sleep(self.tick)
            stop = False
            while True:
                try:
                    nxt = state.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                batch.append(nxt)
            self._commit(state, batch)
            if stop:
                return

    def _commit(self, state: _ViewState, batch) -> None:
        composed = Delta.empty()
        for delta, _future in batch:
            composed = composed.then(delta)
        futures = [future for _delta, future in batch]
        if composed.is_empty():
            # The batch churned to nothing: no log entry, no seq, and the
            # committed-state semantics says nothing happened.
            for future in futures:
                if not future.cancelled():
                    future.set_result((state.seq, composed))
            return
        seq = state.seq + 1
        started = time.perf_counter()
        try:
            if state.log is not None:
                # Write-ahead: the entry is durable before any state moves
                # and before any submitter is acknowledged.
                state.log.append(seq, composed)
            try:
                changeset = state.view.apply(composed)
            except BaseException:
                # apply's exception contract left the view untouched; the
                # logged entry must not outlive the failed batch, or replay
                # would apply an update that never happened.
                if state.log is not None:
                    state.log.discard(seq)
                raise
        except Exception as exc:
            for future in futures:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        state.seq = seq
        # Served state moved: patch every kept rendering along with it.
        for (predicate, undefined), (_arity, rows) in state.reads.items():
            moved = predicate + UNDEF if undefined else predicate
            try:
                rows.advance(seq, changeset.inserts(moved), changeset.deletes(moved))
            except ValueError:
                # A value the wire cannot carry: left behind, so the next
                # read renders it from scratch and reports the error.
                pass
        if state.log is not None:
            state.log.advance(seq, changeset, state.view.db)
        state.commits += 1
        _COMMITS.labels(state.name).inc()
        _BATCH_SIZE.labels(state.name).observe(len(batch))
        _COMMIT_SECONDS.labels(state.name).observe(time.perf_counter() - started)
        _QUEUE_DEPTH.labels(state.name).set(state.queue.qsize())
        if not changeset.is_empty():
            state.recent.append((seq, changeset))
            for sub in list(state.subscribers):
                sub._publish(seq, changeset)
                if sub.lagged is not None:
                    self.unsubscribe(sub)
        for future in futures:
            if not future.cancelled():
                future.set_result((seq, changeset))
        if (
            state.log is not None
            and self.snapshot_every is not None
            and seq - state.log.snapshot_seq >= self.snapshot_every
        ):
            # The batch is logged and acknowledged: a failed snapshot
            # only delays the next, which the next commit retries.
            try:
                state.log.snapshot(seq, state.view.db)
            except Exception:
                logger.exception(
                    "snapshot of view %r at seq %d failed; the next commit retries", state.name, seq
                )
                SNAPSHOT_FAILURES.labels(state.name).inc()
