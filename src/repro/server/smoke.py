"""End-to-end serving smoke: boot, load, kill, restart, replay-check.

``PYTHONPATH=src python -m repro.server.smoke`` runs the whole serving
story against a real TCP socket in one process and exits non-zero on
the first violated assertion — CI's "the server actually serves" gate,
complementing the unit tests (which exercise the same paths in-process)
and the load harness (which measures instead of asserting):

1. boot a durable :class:`~repro.server.ViewServer` + TCP front end on
   an ephemeral port;
2. register a stratified view (transitive closure + its negation — the
   negation makes maintenance non-monotone, so a replay that is merely
   *similar* would be caught) over the JSON protocol; check the
   ``lint`` verb reports it clean, and that a program with error-level
   diagnostics is *refused* with the findings in the response;
3. POST concurrent deltas, including value shapes the old CSV coercion
   corrupted (``"01"``, ``" 7"``, ``"+5"`` as *strings*), and check a
   subscriber streamed every committed changeset;
4. query through the wire and against a local reference
   :class:`~repro.materialize.view.MaterializedView` fed the same
   deltas;
5. kill the server without a final snapshot (the crash); flip one byte
   of an acknowledged WAL record and check ``repro serve`` refuses the
   directory with one ``error:`` line and exit status 2, replaying
   nothing; put the byte back, leave half a record at the end of the
   segment (a crash in mid-append) and restart from the state
   directory — recovery is snapshot + WAL replay — and check the
   recovered view state equals the pre-crash one exactly and the torn
   tail is gone;
6. scrape the ``metrics`` verb on both sides of the crash and check the
   story is visible in the exposition: commit/batch/WAL series present
   and populated before the crash, the recovery replay counter advanced
   after the restart, and the commit counter strictly increasing across
   it (the registry is process-wide, so counters survive the in-process
   "crash" and keep climbing).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ..core.parser import parse_program
from ..db.database import Database
from ..db.relation import Relation
from ..materialize.delta import Delta
from ..materialize.view import MaterializedView
from .net import Client, ServerError, TcpFrontend
from .service import ViewServer

PROGRAM = """
    TC(X, Y) :- E(X, Y).
    TC(X, Y) :- E(X, Z), TC(Z, Y).
    NOTC(X, Y) :- !TC(X, Y).
"""

_checks = 0


def _sample(exposition: str, name: str, label: str = 'view="tc"') -> float:
    """The first sample of ``name`` carrying ``label`` (NaN when absent)."""
    for line in exposition.splitlines():
        if line.startswith(name + "{") and label in line:
            return float(line.rsplit(" ", 1)[1])
    return float("nan")


def check(condition: bool, label: str) -> None:
    global _checks
    _checks += 1
    status = "ok" if condition else "FAIL"
    print("  [%s] %s" % (status, label))
    if not condition:
        raise AssertionError("smoke check failed: %s" % label)


async def main() -> int:
    state_dir = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    try:
        await run(state_dir)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    print("serve smoke passed (%d checks)" % _checks)
    return 0


async def run(state_dir: Path) -> None:
    # --- boot ---------------------------------------------------------
    service = ViewServer(state_dir=state_dir, tick=0.0, snapshot_every=4)
    frontend = TcpFrontend(service)
    host, port = await frontend.start()
    print("booted server on %s:%d (state: %s)" % (host, port, state_dir))

    edges = [(1, 2), (2, 3), (3, 4)]
    client = await Client.connect(host, port)
    await client.register(
        "tc",
        PROGRAM,
        db={"relations": {"E": [list(e) for e in edges]}, "arities": {"E": 2}},
        carrier="NOTC",
    )
    check((await client.request("views"))["views"] == ["tc"], "view registered")

    # --- static analysis over the wire --------------------------------
    report = await client.lint("tc")
    check(report["summary"]["class"] == "stratified", "lint verb reports the class")
    check(report["summary"]["errors"] == 0, "hosted program has no error diagnostics")
    try:
        await client.register(
            "bad",
            "P(X) :- Q(X). P(X, Y) :- Q(Y).",
            db={"relations": {}, "arities": {}},
        )
        check(False, "register refused the arity-conflicted program")
    except ServerError as exc:
        check(
            any(d["code"] == "A001" for d in exc.diagnostics),
            "rejection response carries the A001 diagnostic",
        )
    check((await client.request("views"))["views"] == ["tc"], "rejected view not hosted")

    # --- a subscriber watches every commit ----------------------------
    watcher = await Client.connect(host, port)
    events = await watcher.subscribe("tc")

    # --- concurrent writers, incl. the corruption-prone values --------
    # "01", " 7", "+5" are *strings* the old bare-int() coercion turned
    # into integers on WAL replay; 10 is a genuine int sharing the file.
    deltas = [
        {"inserts": {"E": [[4, 5], [5, 1]]}},
        {"inserts": {"E": [["01", " 7"], [" 7", "+5"], ["+5", 10]]}},
        {"deletes": {"E": [[3, 4]]}},
        {"inserts": {"E": [[10, "01"]]}},
    ]
    writers = [
        asyncio.create_task(_post(host, port, d)) for d in deltas
    ]
    acks = await asyncio.gather(*writers)
    check(all(a["ok"] for a in acks), "concurrent deltas all acknowledged")
    seqs = sorted(a["seq"] for a in acks)
    check(seqs == sorted(set(seqs)) or len(set(seqs)) < len(seqs), "commit seqs assigned")

    # Reference view fed the same deltas, in commit order.
    reference = MaterializedView(
        parse_program(PROGRAM, carrier="NOTC"),
        Database({v for e in edges for v in e}, [Relation("E", 2, edges)]),
    )
    for delta in deltas:
        reference.apply(
            Delta(
                inserts={
                    r: [tuple(t) for t in rows]
                    for r, rows in delta.get("inserts", {}).items()
                },
                deletes={
                    r: [tuple(t) for t in rows]
                    for r, rows in delta.get("deletes", {}).items()
                },
            )
        )
    # The server may have folded writers into fewer batches, but the
    # composed effect is order-insensitive here (disjoint tuples).
    queried = await client.query("tc", "TC")
    served = {tuple(t) for t in queried["tuples"]}
    check(served == set(reference.relation("TC").tuples), "served TC == reference TC")
    string_edge = ("01", " 7")
    check(string_edge in {tuple(t) for t in (await client.query("tc", "E"))["tuples"]},
          "int-lookalike strings served uncorrupted")

    # The subscriber saw every commit the acks named.
    max_seq = max(a["seq"] for a in acks)
    seen = set()
    async for seq, _changeset in events:
        seen.add(seq)
        if seq >= max_seq:
            break
    check(set(a["seq"] for a in acks) <= seen, "subscriber streamed every commit")
    await watcher.close()

    # --- metrics verb: the serving story shows in the exposition ------
    exposition = await client.metrics()
    commits_before = _sample(exposition, "repro_server_commits_total")
    check(commits_before >= 1, "metrics verb exposes the commit counter")
    check(
        _sample(exposition, "repro_server_batch_size_count") >= 1,
        "commit batch-size histogram populated",
    )
    check(
        _sample(exposition, "repro_server_commit_seconds_count") >= 1,
        "commit latency histogram populated",
    )
    check(
        _sample(exposition, "repro_wal_append_seconds_count") >= 1,
        "WAL append latency histogram populated",
    )
    check(
        _sample(exposition, "repro_server_reads_total", 'cache="miss"') >= 1,
        "read counter exposed with its cache label",
    )

    # Snapshots (every 4th commit) empty the live segment; pad it to
    # three records so the damage legs below have a non-tail one to hit.
    def segment() -> Path:
        return sorted((state_dir / "tc" / "wal").glob("*.log"))[-1]

    pad = 0
    while segment().read_bytes().count(b"\n") < 3:
        pad += 1
        await client.delta("tc", inserts={"E": [[200 + pad, 1]]})

    pre_crash = {
        "seq": service.pin("tc").seq,
        "db": service.pin("tc").db,
        "idb": dict(service.pin("tc").result.idb),
    }

    # --- crash: no graceful close, no final snapshot ------------------
    # (close() would cut a snapshot; a real crash does not get one.
    # Killing the tasks and dropping the service leaves only what the
    # write-ahead log already made durable — which must be everything
    # acknowledged above.)
    frontend._server.close()
    for state in service._views.values():
        if state.task is not None:
            state.task.cancel()
    await client.close()
    del service, frontend
    print("crashed server (state dir holds snapshot + WAL only)")

    # --- a damaged record is refused, a torn tail is dropped ----------
    live = segment()
    intact = live.read_bytes()
    live.write_bytes(intact[:12] + bytes([intact[12] ^ 1]) + intact[13:])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[2]), env.get("PYTHONPATH")])
    )
    refused = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--state", str(state_dir),
         "--name", "tc", "--port", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    check(refused.returncode == 2, "`repro serve` exits 2 on a flipped byte in a non-tail record")
    check(
        refused.stderr.startswith("error: ")
        and "%s is corrupt at byte offset 0" % live in refused.stderr
        and len(refused.stderr.splitlines()) == 1,
        "one error line names the segment and the offset (no traceback)",
    )
    check("recovered view" not in refused.stdout, "nothing was replayed around the damage")
    # Put the byte back; then what a crash in mid-append leaves behind:
    # half a record that was never fsync'd, so never acknowledged.
    last_record = intact.splitlines(keepends=True)[-1]
    live.write_bytes(intact + last_record[: len(last_record) // 2])

    # --- restart: recovery is snapshot + WAL replay -------------------
    service2 = ViewServer(state_dir=state_dir, tick=0.0, snapshot_every=4)
    recovered = await service2.start()
    check([i.name for i in recovered] == ["tc"], "restart recovered the view")
    check(recovered[0].recovered, "recovery went through the replay path")
    pin = service2.pin("tc")
    check(pin.seq == pre_crash["seq"], "replay reached the pre-crash sequence")
    check(pin.db == pre_crash["db"], "replayed database == pre-crash database")
    check(
        dict(pin.result.idb) == pre_crash["idb"],
        "replayed view result == pre-crash result (exact)",
    )
    check(live.read_bytes() == intact, "the torn tail was truncated away, no acked record with it")

    # The recovered server keeps serving: one more write + read.
    frontend2 = TcpFrontend(service2)
    host2, port2 = await frontend2.start()
    client2 = await Client.connect(host2, port2)
    ack = await client2.delta("tc", inserts={"E": [[99, 1]]})
    check(ack["seq"] == pre_crash["seq"] + 1, "post-recovery commit continues the log")
    tc_after = {tuple(t) for t in (await client2.query("tc", "TC"))["tuples"]}
    check((99, 2) in tc_after, "post-recovery maintenance is live")

    # Metrics across the crash: recovery counters advanced, commits kept
    # climbing (same process, same registry — the smoke's "crash" kills
    # the server objects, not the counters).
    exposition2 = await client2.metrics()
    check(
        _sample(exposition2, "repro_server_recovery_replayed_total") >= 1,
        "recovery replay counter advanced on restart",
    )
    check(
        _sample(exposition2, "repro_server_recovery_seconds_count") >= 1,
        "recovery wall-time histogram populated",
    )
    check(
        _sample(exposition2, "repro_server_commits_total") > commits_before,
        "commit counter strictly increased across crash/replay",
    )
    stats = (await client2.request("stats", view="tc"))["stats"]
    check(
        {"commits", "submitted", "seq", "snapshot_seq"} <= set(stats),
        "stats verb answers commits / submitted / seq / snapshot_seq",
    )
    check(
        stats.get("analysis", {}).get("class") == "stratified",
        "stats analysis block live after recovery (lazily computed)",
    )
    await client2.close()
    await frontend2.close()


async def _post(host: str, port: int, delta: dict) -> dict:
    client = await Client.connect(host, port)
    try:
        return await client.delta(
            "tc", inserts=delta.get("inserts"), deletes=delta.get("deletes")
        )
    finally:
        await client.close()


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
