"""The TCP front end: newline-delimited JSON over asyncio streams.

One request per line, one response per line, matched by an optional
client-chosen ``id`` echoed back.  Requests are objects with an ``op``
field::

    {"op": "views"}
    {"op": "register", "name": ..., "program": ..., "semantics": ...,
     "db": {"relations": {...}, "arities": {...}, "universe": [...]}}
    {"op": "delta", "view": ..., "inserts": {...}, "deletes": {...}}
    {"op": "query", "view": ..., "predicate": ..., "undefined": false}
    {"op": "info" | "stats" | "lint", "view": ...}
    {"op": "metrics"}
    {"op": "subscribe", "view": ...}
    {"op": "ping"}
    {"op": "shutdown"}

``register`` runs the static analyzer first: a program with error-level
diagnostics is refused, and the error response carries the findings as
``{"ok": false, "error": ..., "diagnostics": [...]}`` (each entry the
schema-stable object of
:meth:`~repro.analysis.diagnostics.Diagnostic.to_dict`).  ``lint``
returns a hosted view's cached report as the full JSON document
(``{"ok": true, "report": {"version", "summary", "diagnostics"}}``),
and ``stats`` includes the same summary under ``"analysis"``.

``metrics`` returns the process-wide registry rendered as Prometheus
text exposition (``{"ok": true, "metrics": "..."}``) — per-view commit
latency histograms, batch fold sizes, WAL append/snapshot durations,
queue depth, subscriber lag and recovery replay counts, plus whatever
engine-side series the recorder has emitted.

Every response carries ``"ok"``; failures are
``{"ok": false, "error": "..."}`` — a malformed request is a clean error
response, never a dropped connection.  Two failures say the server is
protecting itself: a ``delta`` against a full writer queue is refused
with an error starting ``overloaded``, and a request line longer than
16 MiB is answered ``request exceeds 16777216 bytes`` and the connection
closed (the rest of the line cannot be told from the next request).
``subscribe`` acks and then turns the connection into an event stream:
one ``{"event": "change", "view": ..., "seq": ..., "changeset": {...}}``
line per committed batch until either side closes — or, for a subscriber
that falls a whole window of events behind, until a final
``{"event": "lagged", "view": ..., "seq": ...}`` naming the first commit
it was not sent.

A ``query`` response's ``"tuples"`` member is not encoded per request:
:meth:`ViewServer.read <repro.server.service.ViewServer.read>` hands back
the relation already rendered, and :meth:`TcpFrontend._send` splices
those bytes into the line.

:class:`Client` is the matching asyncio client, used by the tests, the
load harness (``repro.bench serve``) and the CI smoke
(:mod:`repro.server.smoke`).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from ..materialize.delta import Delta
from . import protocol
from .protocol import ProtocolError
from .service import OverloadedError, ProgramRejected, ViewServer

_LINE_LIMIT = 2 ** 24
"""Stream reader line limit (16 MiB): changesets of large commits are
single lines."""


def _error(message: str, request_id: Any = None) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": False, "error": message}
    if request_id is not None:
        response["id"] = request_id
    return response


def _failure(exc: Exception) -> Dict[str, Any]:
    """The error response for a request the service or codec refused."""
    return _error(str(exc.args[0] if exc.args else exc))


class TcpFrontend:
    """Serve a :class:`~repro.server.service.ViewServer` over TCP."""

    def __init__(self, service: ViewServer) -> None:
        self.service = service
        self._server: Optional["asyncio.base_events.Server"] = None
        self._stopping: Optional["asyncio.Event"] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=_LINE_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`)."""
        await self._stopping.wait()

    def request_stop(self) -> None:
        """Unblock :meth:`wait_stopped` without closing anything yet.

        Safe to call from a signal handler: the coroutine blocked in
        ``wait_stopped`` resumes and runs its own graceful-close path
        (which cuts the final snapshots) in ordinary task context.
        """
        if self._stopping is not None:
            self._stopping.set()

    async def close(self) -> None:
        """Stop listening and close the service (final snapshots cut)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()
        if self._stopping is not None:
            self._stopping.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than the stream's limit
                    await self._send(
                        writer, _error("request exceeds %d bytes" % _LINE_LIMIT)
                    )
                    return
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except ValueError:
                    await self._send(writer, _error("request is not valid JSON"))
                    continue
                if not isinstance(request, dict):
                    await self._send(writer, _error("request is not a JSON object"))
                    continue
                request_id = request.get("id")
                op = request.get("op")
                if op == "subscribe":
                    # The ack is sent, then the connection becomes an
                    # event stream owned by the subscription.
                    await self._subscribe(request, reader, writer)
                    return
                tuples = None
                if op == "query":
                    response, tuples = self._op_query(request)
                else:
                    response = await self._dispatch(op, request)
                if request_id is not None:
                    response["id"] = request_id
                await self._send(writer, response, tuples)
                if op == "shutdown" and response.get("ok"):
                    asyncio.get_running_loop().create_task(self.close())
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(
        self,
        writer: "asyncio.StreamWriter",
        obj: Dict[str, Any],
        tuples: Optional[bytes] = None,
    ) -> None:
        """Write one line: ``obj``, plus — spliced in unparsed as its last
        member — a relation's already rendered ``"tuples"``."""
        line = json.dumps(obj, separators=(",", ":")).encode()
        if tuples is not None:
            line = b'%s,"tuples":%s}' % (line[:-1], tuples)
        writer.write(line + b"\n")
        await writer.drain()

    async def _dispatch(self, op: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "views":
                return {"ok": True, "views": self.service.views()}
            if op == "register":
                return self._op_register(request)
            if op == "delta":
                return await self._op_delta(request)
            if op == "info":
                info = self.service.info(self._view_name(request))
                return {
                    "ok": True,
                    "name": info.name,
                    "semantics": info.semantics,
                    "carrier": info.carrier,
                    "seq": info.seq,
                    "edb": info.edb,
                    "idb": info.idb,
                    "durable": info.durable,
                    "recovered": info.recovered,
                }
            if op == "stats":
                stats = self.service.stats(self._view_name(request))
                return {"ok": True, "stats": protocol.encode_stats(stats)}
            if op == "lint":
                report = self.service.lint(self._view_name(request))
                return {"ok": True, "report": report.to_json()}
            if op == "metrics":
                return {"ok": True, "metrics": self.service.metrics()}
            if op == "shutdown":
                return {"ok": True, "stopping": True}
            return _error("unknown op %r" % (op,))
        except ProgramRejected as exc:
            response = _error(str(exc))
            response["diagnostics"] = [
                d.to_dict() for d in exc.report.diagnostics
            ]
            return response
        except (ProtocolError, ValueError, KeyError, OverloadedError) as exc:
            return _failure(exc)

    def _view_name(self, request: Dict[str, Any]) -> str:
        name = request.get("view")
        if not isinstance(name, str) or not name:
            raise ProtocolError("field 'view' must name a registered view")
        return name

    def _op_register(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("field 'name' must be a non-empty string")
        program_text = request.get("program")
        if not isinstance(program_text, str):
            raise ProtocolError("field 'program' must be the program text")
        db_obj = request.get("db")
        if db_obj is None:
            raise ProtocolError("field 'db' (relations/arities/universe) is required")
        db = protocol.decode_database(db_obj)
        info = self.service.register(
            name,
            program_text,
            db,
            semantics=request.get("semantics", "stratified"),
            carrier=request.get("carrier"),
            durable=bool(request.get("durable", True)),
        )
        return {"ok": True, "name": info.name, "seq": info.seq, "idb": info.idb}

    async def _op_delta(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._view_name(request)
        delta = protocol.decode_delta(
            {"inserts": request.get("inserts"), "deletes": request.get("deletes")}
        )
        seq, changeset = await self.service.submit(name, delta)
        return {
            "ok": True,
            "seq": seq,
            "changeset": protocol.encode_changeset(changeset),
        }

    def _op_query(
        self, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """The response minus ``"tuples"``, and the bytes to splice in."""
        try:
            name = self._view_name(request)
            predicate = request.get("predicate")
            if not isinstance(predicate, str) or not predicate:
                raise ProtocolError("field 'predicate' must name a predicate")
            seq, arity, tuples = self.service.read(
                name, predicate, bool(request.get("undefined", False))
            )
        except (ProtocolError, ValueError, KeyError) as exc:
            return _failure(exc), None
        return (
            {"ok": True, "seq": seq, "predicate": predicate, "arity": arity},
            tuples,
        )

    async def _subscribe(
        self,
        request: Dict[str, Any],
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        request_id = request.get("id")
        try:
            name = self._view_name(request)
            sub = self.service.subscribe(name)
        except (ProtocolError, ValueError, KeyError) as exc:
            await self._send(writer, _error(str(exc), request_id))
            return
        ack: Dict[str, Any] = {"ok": True, "subscribed": name}
        if request_id is not None:
            ack["id"] = request_id
        # Race the event pump against connection EOF: a subscriber that
        # hangs up must release its subscription promptly, not hold the
        # fan-out queue until the server shuts down.
        loop = asyncio.get_running_loop()
        pump = loop.create_task(self._pump(name, sub, writer, ack))
        eof = loop.create_task(reader.read())
        try:
            await asyncio.wait({pump, eof}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            self.service.unsubscribe(sub)
            for task in (pump, eof):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                    pass

    async def _pump(
        self,
        name: str,
        sub,
        writer: "asyncio.StreamWriter",
        ack: Dict[str, Any],
    ) -> None:
        await self._send(writer, ack)
        async for seq, changeset in sub:
            await self._send(
                writer,
                {
                    "event": "change",
                    "view": name,
                    "seq": seq,
                    "changeset": protocol.encode_changeset(changeset),
                },
            )
        if sub.lagged is not None:
            await self._send(
                writer, {"event": "lagged", "view": name, "seq": sub.lagged}
            )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class ServerError(Exception):
    """The server answered ``{"ok": false}``; the message is its error.

    When the server rejected a ``register`` on static-analysis errors,
    ``diagnostics`` holds the response's diagnostic objects (else it is
    the empty list).
    """

    def __init__(self, message: str, diagnostics=None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or ())


class Client:
    """A minimal asyncio client for the JSON-lines protocol."""

    def __init__(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, await its response; raise on ``ok: false``."""
        payload = {"op": op}
        payload.update(fields)
        self._writer.write(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServerError(
                response.get("error", "unknown server error"),
                diagnostics=response.get("diagnostics"),
            )
        return response

    # Convenience wrappers -------------------------------------------------

    async def register(
        self,
        name: str,
        program: str,
        db: Dict[str, Any],
        semantics: str = "stratified",
        carrier: Optional[str] = None,
        durable: bool = True,
    ) -> Dict[str, Any]:
        return await self.request(
            "register",
            name=name,
            program=program,
            db=db,
            semantics=semantics,
            carrier=carrier,
            durable=durable,
        )

    async def delta(
        self,
        view: str,
        inserts: Optional[Dict[str, Any]] = None,
        deletes: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        return await self.request(
            "delta", view=view, inserts=inserts or {}, deletes=deletes or {}
        )

    async def query(
        self, view: str, predicate: str, undefined: bool = False
    ) -> Dict[str, Any]:
        return await self.request(
            "query", view=view, predicate=predicate, undefined=undefined
        )

    async def lint(self, view: str) -> Dict[str, Any]:
        """A hosted view's static-analysis report (the JSON document)."""
        response = await self.request("lint", view=view)
        return response["report"]

    async def metrics(self) -> str:
        """The server's Prometheus text exposition."""
        response = await self.request("metrics")
        return response["metrics"]

    async def subscribe(self, view: str) -> AsyncIterator[Tuple[int, Delta]]:
        """Turn this connection into an event stream (see the module doc)."""
        ack = await self.request("subscribe", view=view)
        assert ack.get("subscribed") == view

        async def events() -> AsyncIterator[Tuple[int, Delta]]:
            while True:
                line = await self._reader.readline()
                if not line:
                    return
                event = json.loads(line)
                if event.get("event") == "lagged":
                    raise ServerError(
                        "subscription to %r lagged: unsubscribed at seq %d"
                        % (view, event["seq"])
                    )
                if event.get("event") != "change":
                    continue
                yield event["seq"], protocol.decode_changeset(event["changeset"])

        return events()
