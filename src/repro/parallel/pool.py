"""Fork-based worker pool and the parent-side barrier hub.

The pool owns ``nshards`` long-lived forked workers connected by pipes.
A *job* broadcasts one payload to every worker, which dispatches it to a
registered handler (the sharded well-founded ``evaluate``) together with
its worker id, the shard count and an ``exchange`` callback.  Mid-job,
workers rendezvous at *barriers*: each sends one tagged exchange
message, the hub unions the per-predicate tuple sets (in code space when
possible) and broadcasts the result.

The hub never evaluates anything — all engine decisions are taken
inside the workers from merged data, so every worker reaches every
barrier the same number of times with the same exchange kind.  The hub
*checks* that invariant and aborts the job loudly if it breaks, because
a lockstep divergence means shards would silently drift.

Observability: each job runs under a ``parallel.job`` span; per-shard
compute time is reported back with every message and re-emitted as
synthetic ``shard.compute`` child spans (visible in
``repro explain --profile``) plus ``repro_shard_*`` counters.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
import traceback
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..db.kernel import SymbolTable
from ..obs.metrics import RECORDER, REGISTRY
from ..obs.trace import TRACER, synthetic_span
from . import ship

#: The one exchange kind: a ``{pred: (arity, encoded tuples)}`` map,
#: unioned per predicate across shards.
UNION_MAP = "union_map"

_BARRIERS = REGISTRY.counter(
    "repro_shard_barriers_total",
    "Round barriers crossed by sharded jobs.",
    ("kind",),
)
_JOBS = REGISTRY.counter(
    "repro_shard_jobs_total",
    "Jobs dispatched to the sharded worker pool.",
    ("kind",),
)
_BUSY = REGISTRY.counter(
    "repro_shard_busy_seconds_total",
    "Per-shard compute seconds, excluding barrier waits.",
    ("shard",),
)
_EXCHANGED = REGISTRY.counter(
    "repro_shard_rows_exchanged_total",
    "Encoded tuple rows unioned across shards at barriers.",
)

#: Worker-side job handlers: kind -> f(wid, nshards, payload, exchange).
HANDLERS: Dict[str, Callable[..., Any]] = {}


class ParallelError(RuntimeError):
    """A worker failed or the pool lost lockstep; the job was aborted."""


class _Aborted(Exception):
    """Raised inside a worker when the hub aborts the current job."""


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# -- worker side -----------------------------------------------------------


class _BusyClock:
    """Accumulates compute time between barrier waits."""

    def __init__(self) -> None:
        self._mark = time.perf_counter()
        self.total = 0.0

    def pause(self) -> float:
        now = time.perf_counter()
        self.total += now - self._mark
        return self.total

    def resume(self) -> None:
        self._mark = time.perf_counter()


def _worker_main(wid: int, nshards: int, conn) -> None:
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "exit":
            return
        if msg[0] != "job":
            continue  # stale abort/exchange reply from a dead job
        _, kind, payload = msg
        clock = _BusyClock()

        def exchange(xkind: str, xpayload: Any) -> Any:
            conn.send(("x", xkind, xpayload, clock.pause()))
            reply = conn.recv()
            clock.resume()
            if reply[0] == "abort":
                raise _Aborted()
            if reply[0] != "xr":
                raise RuntimeError("unexpected barrier reply %r" % (reply[0],))
            return reply[1]

        try:
            handler = HANDLERS[kind]
            result = handler(wid, nshards, payload, exchange)
        except _Aborted:
            conn.send(("aborted",))
            continue
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc()))
            except (OSError, ValueError):
                return
            continue
        conn.send(("done", result, clock.pause()))


# -- hub-side merges -------------------------------------------------------


def _union_encoded(parts: Sequence[Tuple[str, Any]], table: SymbolTable, arity: int) -> Tuple[str, Any]:
    """Union encoded tuple sets, staying in code space if possible."""
    if all(tag == ship.CODES for tag, _ in parts):
        codes: Set[int] = set()
        for _, payload in parts:
            codes.update(array("q", payload))
        return (ship.CODES, array("q", sorted(codes)).tobytes())
    union: Set[Tuple[Any, ...]] = set()
    for enc in parts:
        union.update(ship.decode_tuples(table, arity, enc))
    return (ship.PLAIN, sorted(union, key=repr))


def _merge_union_map(parts: Sequence[Dict[str, Any]], table: SymbolTable) -> Dict[str, Any]:
    first = parts[0]
    if any(part.keys() != first.keys() for part in parts[1:]):
        raise ParallelError("shards lost lockstep: barrier predicate sets differ")
    merged: Dict[str, Any] = {}
    for pred in first:
        arity = first[pred][0]
        encs = [part[pred][1] for part in parts]
        merged[pred] = (arity, _union_encoded(encs, table, arity))
    return merged


def _merged_rows(payload: Dict[str, Any]) -> int:
    return sum(
        len(body) // 8 if tag == ship.CODES else len(body)
        for _, (tag, body) in payload.values()
    )


# -- the pool --------------------------------------------------------------


class WorkerPool:
    """``nshards`` forked replica workers plus the barrier hub."""

    def __init__(self, nshards: int) -> None:
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        self.nshards = nshards
        self._procs: Optional[List[multiprocessing.Process]] = None
        self._conns: List[Any] = []

    def _ensure(self) -> None:
        if self._procs is not None:
            return
        if not fork_available():
            raise ParallelError("fork start method unavailable on this platform")
        # Handlers must be registered before forking so children see them.
        from . import executor  # noqa: F401

        ctx = multiprocessing.get_context("fork")
        procs: List[multiprocessing.Process] = []
        conns: List[Any] = []
        for wid in range(self.nshards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, self.nshards, child_conn),
                daemon=True,
                name="repro-shard-%d" % wid,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        self._procs = procs
        self._conns = conns

    @property
    def alive(self) -> bool:
        return self._procs is not None and all(p.is_alive() for p in self._procs)

    def run_job(self, kind: str, payload: Any, table: SymbolTable) -> List[Any]:
        """Broadcast a job, serve its barriers, return per-worker results."""
        self._ensure()
        if RECORDER.enabled:
            _JOBS.labels(kind).inc()
        busy = [0.0] * self.nshards
        barriers = 0
        with TRACER.span("parallel.job", kind=kind, shards=self.nshards):
            for conn in self._conns:
                conn.send(("job", kind, payload))
            while True:
                try:
                    msgs = [conn.recv() for conn in self._conns]
                except (EOFError, OSError) as exc:
                    self.close(force=True)
                    raise ParallelError("a shard worker died mid-job") from exc
                tags = {m[0] for m in msgs}
                if "err" in tags:
                    self._drain(msgs)
                    detail = next(m[1] for m in msgs if m[0] == "err")
                    raise ParallelError("shard worker failed:\n" + detail)
                if tags == {"x"}:
                    xkinds = {m[1] for m in msgs}
                    if len(xkinds) != 1:
                        self._drain(msgs)
                        raise ParallelError(
                            "shards lost lockstep: mixed exchange kinds %r" % xkinds
                        )
                    xkind = xkinds.pop()
                    merged = _merge_union_map([m[2] for m in msgs], table)
                    barriers += 1
                    for i, m in enumerate(msgs):
                        busy[i] = m[3]
                    if RECORDER.enabled:
                        _BARRIERS.labels(xkind).inc()
                        _EXCHANGED.inc(_merged_rows(merged))
                    for conn in self._conns:
                        conn.send(("xr", merged))
                elif tags == {"done"}:
                    for i, m in enumerate(msgs):
                        busy[i] = m[2]
                    break
                else:
                    self._drain(msgs)
                    raise ParallelError(
                        "shards lost lockstep: mixed message tags %r" % tags
                    )
            for wid, seconds in enumerate(busy):
                synthetic_span(
                    TRACER, "shard.compute", seconds, shard=wid, kind=kind
                )
                if RECORDER.enabled:
                    _BUSY.labels(str(wid)).inc(seconds)
        return [m[1] for m in msgs]

    def _drain(self, msgs: Sequence[Tuple[Any, ...]]) -> None:
        """Abort workers blocked at a barrier and consume their handshakes.

        ``done``/``err``/``aborted`` are terminal — those workers are back
        in their main loop.  Workers that sent ``x`` are blocked awaiting a
        reply; abort them and read until their terminal lands, so no stale
        message leaks into the next job.
        """
        for conn, m in zip(self._conns, msgs):
            if m[0] != "x":
                continue
            try:
                conn.send(("abort",))
                while True:
                    reply = conn.recv()
                    if reply[0] == "x":
                        conn.send(("abort",))
                    else:
                        break
            except (EOFError, OSError, ValueError):
                continue

    def close(self, force: bool = False) -> None:
        if self._procs is None:
            return
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=0.1 if force else 2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = None
        self._conns = []


_POOLS: Dict[int, WorkerPool] = {}


def get_pool(nshards: int) -> WorkerPool:
    """Shared pool per shard count; respawned if its workers died."""
    pool = _POOLS.get(nshards)
    if pool is None or (pool._procs is not None and not pool.alive):
        if pool is not None:
            pool.close(force=True)
        pool = _POOLS[nshards] = WorkerPool(nshards)
    return pool


def shutdown_pools() -> None:
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
