"""Load harness for the live view server: throughput and tail latency.

``python -m repro.bench serve`` boots the real serving stack — a
:class:`~repro.server.service.ViewServer` behind the JSON-lines
:class:`~repro.server.net.TcpFrontend` — in-process on an ephemeral
port and ramps concurrent clients against it.  Every client POSTs
single-edge deltas to a transitive-closure view; each row of the table
is one load step reporting requests/second, the p95 request latency
(as ``p95 s``, the cell the CI regression gate compares, and again in
milliseconds for reading) and how many commits the single-writer queue
actually ran — under concurrency that is *fewer* than the number of
requests, because queued deltas are folded through ``Delta.then``
into shared maintenance passes.  The ``ok`` column asserts what
matters: after the storm, the served view equals a from-scratch
stratified evaluation of the final database, exactly.

``BENCH_PR6.json`` is the committed snapshot of
``python -m repro.bench perf serve --json`` that the gate
(``python -m repro.bench check``) judges fresh runs against.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from typing import List, Optional, Tuple

from ..core.parser import parse_program
from ..core.semantics import stratified_semantics
from ..db.database import Database
from ..db.relation import Relation
from .harness import Table, register

_PROGRAM = """
    TC(X, Y) :- E(X, Y).
    TC(X, Y) :- E(X, Z), TC(Z, Y).
"""

_SEED_EDGES = [(0, 1), (1, 2)]

_STEPS = [
    # (row key, concurrent clients, requests per client, durable WAL?)
    ("1 client x 32 deltas", 1, 32, False),
    ("4 clients x 16 deltas", 4, 16, False),
    ("16 clients x 8 deltas", 16, 8, False),
    ("4 clients x 16 deltas + WAL", 4, 16, True),
]


def _chain(client: int, ops: int) -> List[Tuple[int, int]]:
    """Client ``client``'s private edge chain (disjoint across clients).

    Disjoint chains make the final database independent of how the
    writer interleaved and folded the concurrent deltas, so the
    reference evaluation is deterministic.
    """
    base = 10 + client * (ops + 1)
    return [(base + j, base + j + 1) for j in range(ops)]


async def _client_load(
    host: str, port: int, edges: List[Tuple[int, int]], latencies: List[float]
) -> None:
    from ..server.net import Client

    client = await Client.connect(host, port)
    try:
        for edge in edges:
            start = time.perf_counter()
            await client.delta("tc", inserts={"E": [list(edge)]})
            latencies.append(time.perf_counter() - start)
    finally:
        await client.close()


async def _run_step(
    clients: int, ops: int, state_dir: Optional[str]
) -> Tuple[float, List[float], int, bool]:
    """One load step: returns (elapsed, latencies, commits, exact)."""
    from ..server.net import Client, TcpFrontend
    from ..server.service import ViewServer

    service = ViewServer(state_dir=state_dir, tick=0.0)
    frontend = TcpFrontend(service)
    try:
        host, port = await frontend.start()
        admin = await Client.connect(host, port)
        await admin.register(
            "tc",
            _PROGRAM,
            db={
                "relations": {"E": [list(e) for e in _SEED_EDGES]},
                "arities": {"E": 2},
            },
            durable=state_dir is not None,
        )
        chains = [_chain(i, ops) for i in range(clients)]
        latencies: List[float] = []
        start = time.perf_counter()
        await asyncio.gather(
            *(_client_load(host, port, chain, latencies) for chain in chains)
        )
        elapsed = time.perf_counter() - start
        commits = (await admin.request("stats", view="tc"))["stats"]["commits"]

        # Exactness: the served view equals a from-scratch stratified
        # evaluation of the final database.
        final_edges = set(_SEED_EDGES)
        for chain in chains:
            final_edges.update(chain)
        served_e = {
            tuple(t) for t in (await admin.query("tc", "E"))["tuples"]
        }
        served_tc = {
            tuple(t) for t in (await admin.query("tc", "TC"))["tuples"]
        }
        universe = {v for e in final_edges for v in e}
        reference = stratified_semantics(
            parse_program(_PROGRAM),
            Database(universe, [Relation("E", 2, sorted(final_edges))]),
        )
        exact = served_e == final_edges and served_tc == set(
            reference.idb["TC"].tuples
        )
        await admin.close()
        return elapsed, latencies, commits, exact
    finally:
        await frontend.close()


async def _serve_table() -> Table:
    table = Table(
        "live view server under concurrent delta load (TC view, one edge "
        "per request)",
        [
            "load step",
            "requests",
            "throughput_rps",
            "p95 s",
            "p95_latency_ms",
            "commits",
            "ok",
        ],
    )
    for key, clients, ops, durable in _STEPS:
        state_dir = tempfile.mkdtemp(prefix="repro-serve-bench-") if durable else None
        try:
            elapsed, latencies, commits, exact = await _run_step(
                clients, ops, state_dir
            )
        finally:
            if state_dir is not None:
                shutil.rmtree(state_dir, ignore_errors=True)
        total = clients * ops
        latencies.sort()
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
        table.add(
            key,
            total,
            total / elapsed if elapsed > 0 else float("inf"),
            p95,
            p95 * 1000.0,
            commits,
            exact and len(latencies) == total,
        )
    table.note(
        "each request is one TCP round trip ending in an acknowledged "
        "commit; commits < requests under concurrency because the writer "
        "folds queued deltas into shared maintenance passes"
    )
    table.note(
        "the + WAL step writes every batch ahead to the CSV delta log "
        "before acknowledging, so its latency includes durability"
    )
    return table


@register(
    "serve",
    "SERVE: the live view server under concurrent delta load",
    "The single-writer queue keeps the served view exactly equal to a "
    "from-scratch evaluation of the final database while concurrent "
    "clients stream deltas; folding queued deltas into shared "
    "maintenance passes bounds the per-request latency.",
)
def run_serve() -> List[Table]:
    return [asyncio.run(_serve_table())]
