"""Tests for the live view server: service, protocol, WAL replay, TCP.

The crash/replay tests are the durability contract in miniature: after
every acknowledged commit, killing the writer tasks without a graceful
close (so no final snapshot is cut) and restarting from the state
directory must reproduce the pre-crash sequence number, database and
maintained result *exactly* — on all three semantics, and with the
int-lookalike string values (``"01"``, ``" 7"``, ``"+5"``) whose
corruption by the old CSV coercion would have made replay diverge.
"""

import asyncio
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import csvio
from repro.db.database import Database
from repro.db.relation import Relation
from repro.materialize import Delta
from repro.server import ViewServer
from repro.server import net as net_module
from repro.server import protocol as protocol_module
from repro.server import service as service_module
from repro.server.net import Client, ServerError, TcpFrontend
from repro.server.protocol import (
    ProtocolError,
    decode_changeset,
    decode_database,
    decode_delta,
    encode_changeset,
    encode_delta,
    encode_tuples,
)
from repro.server.service import (
    _QUEUE_LIMIT,
    _RECENT_WINDOW,
    OverloadedError,
    ProgramRejected,
    UnknownViewError,
)

TC_PROGRAM = """
    TC(X, Y) :- E(X, Y).
    TC(X, Y) :- E(X, Z), TC(Z, Y).
"""

TC_NOTC_PROGRAM = TC_PROGRAM + "    NOTC(X, Y) :- !TC(X, Y).\n"

WIN_MOVE_PROGRAM = "W(X) :- E(X, Y), !W(Y).\n"


def _edges(*pairs):
    universe = {v for pair in pairs for v in pair}
    return Database(universe, [Relation("E", 2, list(pairs))])


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Protocol encode/decode
# ----------------------------------------------------------------------


class TestProtocol:
    def test_delta_roundtrip(self):
        delta = Delta(
            inserts={"E": [(1, "01"), ("", -2)]}, deletes={"V": [(" 7",)]}
        )
        assert decode_delta(encode_delta(delta)) == delta

    def test_changeset_roundtrip(self):
        changeset = Delta(
            inserts={"T": {(1,), ("+5",)}}, deletes={"E": {(1, 2)}}
        )
        assert decode_changeset(encode_changeset(changeset)) == changeset

    def test_database_roundtrip_carries_universe(self):
        db = Database({1, 2, 3, "x"}, [Relation("E", 2, [(1, 2)])])
        obj = {
            "relations": {"E": [[1, 2]]},
            "arities": {"E": 2},
            "universe": [1, 2, 3, "x"],
        }
        back = decode_database(obj)
        assert back["E"] == db["E"]
        assert back.universe == db.universe

    def test_bool_values_rejected(self):
        with pytest.raises(ProtocolError):
            decode_delta({"inserts": {"E": [[True, 1]]}, "deletes": {}})

    def test_float_values_rejected(self):
        with pytest.raises(ProtocolError):
            decode_delta({"inserts": {"E": [[1.5, 1]]}, "deletes": {}})


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


class TestViewServer:
    def test_register_query_and_submit(self):
        async def scenario():
            service = ViewServer()
            info = service.register("tc", TC_PROGRAM, _edges((1, 2), (2, 3)))
            assert info.idb == {"TC": 2} and not info.durable
            seq, rel = service.query("tc", "TC")
            assert seq == 0 and (1, 3) in set(rel.tuples)
            seq, changeset = await service.submit(
                "tc", Delta(inserts={"E": [(3, 4)]})
            )
            assert seq == 1
            assert (1, 4) in changeset.inserts("TC")
            _, edb = service.query("tc", "E")
            assert (3, 4) in set(edb.tuples)
            await service.close()

        _run(scenario())

    def test_unknown_view_and_duplicate_registration(self):
        async def scenario():
            service = ViewServer()
            with pytest.raises(UnknownViewError):
                service.query("nope", "TC")
            service.register("v", TC_PROGRAM, _edges((1, 2)))
            with pytest.raises(ValueError):
                service.register("v", TC_PROGRAM, _edges((1, 2)))
            with pytest.raises(ValueError):
                service.register(
                    "w", TC_PROGRAM, _edges((1, 2)), semantics="magic"
                )
            await service.close()

        _run(scenario())

    def test_tick_folds_concurrent_submits_into_one_commit(self):
        async def scenario():
            service = ViewServer(tick=0.05)
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            acks = await asyncio.gather(
                *(
                    service.submit("tc", Delta(inserts={"E": [(10 + i, 11 + i)]}))
                    for i in range(4)
                )
            )
            seqs = {seq for seq, _ in acks}
            changesets = {cs for _, cs in acks}
            # One batch: every submitter rode the same commit and got the
            # batch's net changeset.
            assert seqs == {1} and len(changesets) == 1
            stats = service.stats("tc")
            assert stats["submitted"] == 4 and stats["commits"] == 1
            await service.close()

        _run(scenario())

    def test_churning_batch_commits_nothing(self):
        async def scenario():
            service = ViewServer()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            seq, changeset = await service.submit("tc", Delta.empty())
            assert seq == 0 and changeset.is_empty()
            assert service.stats("tc")["commits"] == 0
            await service.close()

        _run(scenario())

    def test_stats_surfaces_kernel_and_cardinalities(self):
        async def scenario():
            from repro.db import kernel

            service = ViewServer()
            service.register("tc", TC_PROGRAM, _edges((1, 2), (2, 3)))
            stats = service.stats("tc")
            assert stats["kernel"]["backend"] == kernel.backend()
            # The intern-table size is a peek, never a forcing read:
            # None until something touches the kernel, an int after.
            assert stats["kernel"]["interned_constants"] is None or isinstance(
                stats["kernel"]["interned_constants"], int
            )
            cards = stats["cardinalities"]
            assert cards["edb"] == {"E": 2}
            assert cards["idb"] == {"TC": 3}

            await service.submit("tc", Delta(inserts={"E": [(3, 4)]}))
            cards = service.stats("tc")["cardinalities"]
            assert cards["edb"] == {"E": 3}
            assert cards["idb"] == {"TC": 6}

            # Forcing the symbol table makes the size observable — and
            # it covers at least the live universe {1, 2, 3, 4}.
            service.pin("tc").db.symbols()
            size = service.stats("tc")["kernel"]["interned_constants"]
            assert isinstance(size, int) and size >= 4
            await service.close()

        _run(scenario())

    def test_bad_delta_fails_its_submitter_alone(self):
        async def scenario():
            service = ViewServer()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            with pytest.raises((ValueError, KeyError)):
                await service.submit("tc", Delta(inserts={"E": [(1, 2, 3)]}))
            with pytest.raises((ValueError, KeyError)):
                await service.submit("tc", Delta(inserts={"TC": [(9, 9)]}))
            # The view is untouched and still accepts good deltas.
            seq, _ = await service.submit("tc", Delta(inserts={"E": [(2, 3)]}))
            assert seq == 1
            await service.close()

        _run(scenario())

    def test_subscribers_stream_committed_changesets(self):
        async def scenario():
            service = ViewServer()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            sub = service.subscribe("tc")
            await service.submit("tc", Delta(inserts={"E": [(2, 3)]}))
            await service.submit("tc", Delta(deletes={"E": [(2, 3)]}))
            seen = []
            async for seq, changeset in sub:
                seen.append((seq, changeset))
                if len(seen) == 2:
                    break
            assert [s for s, _ in seen] == [1, 2]
            assert (2, 3) in seen[0][1].inserts("E")
            assert (2, 3) in seen[1][1].deletes("E")
            service.unsubscribe(sub)
            assert service.stats("tc")["subscribers"] == 0
            await service.close()

        _run(scenario())

    def test_pin_is_snapshot_consistent_across_commits(self):
        async def scenario():
            service = ViewServer()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            pinned = service.pin("tc")
            await service.submit("tc", Delta(inserts={"E": [(2, 3)]}))
            # The pin still shows the pre-commit world, internally
            # consistent; the live view moved on.
            assert pinned.seq == 0
            assert (2, 3) not in set(pinned.db["E"].tuples)
            assert (1, 3) not in set(pinned.result.idb["TC"].tuples)
            assert service.pin("tc").seq == 1
            await service.close()

        _run(scenario())

    def test_undefined_partition_queries(self):
        async def scenario():
            service = ViewServer()
            service.register(
                "game",
                WIN_MOVE_PROGRAM,
                _edges((1, 2), (2, 3), (3, 4), (4, 4)),
                semantics="wellfounded",
            )
            _, undef = service.query("game", "W", undefined=True)
            assert (4, 4) in set(
                service.query("game", "E")[1].tuples
            ) and (4,) in set(undef.tuples)
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            with pytest.raises(ValueError):
                service.query("tc", "TC", undefined=True)
            await service.close()

        _run(scenario())

    def test_reads_are_counted_as_hits_and_misses(self):
        async def scenario():
            service = ViewServer()
            service.register("reads_probe", TC_PROGRAM, _edges((1, 2), (2, 3)))
            first = service.read("reads_probe", "TC")
            assert first == (0, 2, b"[[1,2],[1,3],[2,3]]")
            assert service.read("reads_probe", "TC") == first
            with pytest.raises(KeyError):
                service.read("reads_probe", "NOPE")  # neither counted nor kept
            stats = service.stats("reads_probe")
            assert (stats["read_misses"], stats["read_hits"]) == (1, 1)
            exposition = service.metrics()
            for cache in ("hit", "miss"):
                assert (
                    'repro_server_reads_total{view="reads_probe",cache="%s"} 1' % cache
                    in exposition
                )
            await service.close()

        _run(scenario())

    def test_a_flood_is_refused_at_once_and_every_accepted_delta_commits(self):
        async def scenario():
            # The tick is the barrier: the writer takes the first delta
            # and lingers, so everything after it piles up in the queue.
            service = ViewServer(tick=0.5)
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            state = service._views["tc"]
            first = asyncio.ensure_future(
                service.submit("tc", Delta(inserts={"E": [(2, 3)]}))
            )
            while not (state.submitted == 1 and state.queue.empty()):
                await asyncio.sleep(0)
            flood = [
                asyncio.ensure_future(
                    service.submit(
                        "tc", Delta(inserts={"E": [(1000 + 2 * i, 1001 + 2 * i)]})
                    )
                )
                for i in range(_QUEUE_LIMIT + 40)
            ]
            answers = await asyncio.gather(*flood, return_exceptions=True)
            refused = [a for a in answers if isinstance(a, OverloadedError)]
            assert len(refused) == 40 and answers[-40:] == refused
            assert "overloaded" in str(refused[0])
            # one batch carried the first delta and the whole accepted flood
            assert (await first)[0] == 1
            assert {a[0] for a in answers[:_QUEUE_LIMIT]} == {1}
            stats = service.stats("tc")
            assert stats["submitted"] == 1 + _QUEUE_LIMIT and stats["commits"] == 1
            assert stats["cardinalities"]["edb"] == {"E": 2 + _QUEUE_LIMIT}
            await service.close()

        _run(scenario())

    def test_a_subscriber_that_never_reads_is_evicted_the_others_miss_nothing(self):
        async def scenario():
            service = ViewServer()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            stalled = service.subscribe("tc")
            live = service.subscribe("tc")
            seen = []

            async def consume():
                async for seq, _changeset in live:
                    seen.append(seq)

            consumer = asyncio.ensure_future(consume())
            commits = _RECENT_WINDOW + 5
            for i in range(commits):
                toggle = "deletes" if i % 2 else "inserts"
                await service.submit("tc", Delta(**{toggle: {"E": [(2, 3)]}}))
            assert stalled.lagged == _RECENT_WINDOW + 1
            assert service.stats("tc")["subscribers"] == 1
            # The evicted stream still delivers the window it was allowed.
            backlog = [seq async for seq, _changeset in stalled]
            assert backlog == list(range(1, _RECENT_WINDOW + 1))
            service.unsubscribe(live)
            await consumer
            assert seen == list(range(1, commits + 1)) and live.lagged is None
            await service.close()

        _run(scenario())


# ----------------------------------------------------------------------
# Durability: crash without a final snapshot, recover by replay
# ----------------------------------------------------------------------

_DELTAS = [
    Delta(inserts={"E": [(4, 1)]}),
    # Int-lookalike strings and a genuine int sharing relations: the
    # shapes whose corruption would make replay diverge.
    Delta(inserts={"E": [("01", " 7"), (" 7", 2)]}),
    Delta(deletes={"E": [(2, 3)]}),
    Delta(inserts={"E": [(5, "+5"), ("+5", "01")]}),
    Delta(deletes={"E": [(4, 1)]}),
]


def _result_value(view):
    if view.semantics == "wellfounded":
        return (dict(view.result.true_idb()), dict(view.result.undefined_idb()))
    return dict(view.result.idb)


@pytest.mark.parametrize(
    "semantics,program,carrier",
    [
        ("stratified", TC_NOTC_PROGRAM, "NOTC"),
        ("inflationary", TC_PROGRAM, None),
        ("wellfounded", WIN_MOVE_PROGRAM, None),
    ],
)
def test_crash_then_replay_recovers_exactly(tmp_path, semantics, program, carrier):
    async def scenario():
        # snapshot_every=3 with five commits: recovery crosses a
        # mid-history snapshot AND a WAL tail.
        service = ViewServer(state_dir=tmp_path, tick=0.0, snapshot_every=3)
        await service.start()
        service.register(
            "v",
            program,
            _edges((1, 2), (2, 3), (3, 4)),
            semantics=semantics,
            carrier=carrier,
        )
        for delta in _DELTAS:
            await service.submit("v", delta)
        state = service._views["v"]
        pre = (state.seq, state.view.db, _result_value(state.view))
        assert state.log.snapshot_seq == 3  # a mid-history snapshot exists

        # Crash: cancel the writers, cut no final snapshot.
        for viewstate in service._views.values():
            viewstate.task.cancel()
        del service

        restarted = ViewServer(state_dir=tmp_path, tick=0.0, snapshot_every=3)
        recovered = await restarted.start()
        assert [info.name for info in recovered] == ["v"]
        assert recovered[0].recovered and recovered[0].semantics == semantics
        state2 = restarted._views["v"]
        assert (state2.seq, state2.view.db, _result_value(state2.view)) == pre

        # The recovered view keeps serving and the log keeps counting.
        seq, _ = await restarted.submit("v", Delta(inserts={"E": [(99, 1)]}))
        assert seq == pre[0] + 1
        await restarted.close()

    _run(scenario())


def test_a_batch_whose_apply_fails_leaves_no_record(tmp_path, monkeypatch):
    async def scenario():
        service = ViewServer(state_dir=tmp_path, snapshot_every=100)
        service.register("v", TC_PROGRAM, _edges((1, 2), (2, 3)))
        await service.submit("v", Delta(inserts={"E": [(3, 4)]}))
        state = service._views["v"]

        def boom(delta):
            raise RuntimeError("maintenance failed")

        with monkeypatch.context() as patch:
            patch.setattr(state.view, "apply", boom)
            with pytest.raises(RuntimeError, match="maintenance failed"):
                await service.submit("v", Delta(inserts={"E": [(4, 5)]}))
        # Logged ahead of the apply, then discarded: the sequence number
        # is reused and a replay never sees the failed batch.
        seq, _ = await service.submit("v", Delta(deletes={"E": [(1, 2)]}))
        assert seq == 2
        pre = (state.seq, state.view.db)
        for viewstate in service._views.values():
            viewstate.task.cancel()
        del service

        restarted = ViewServer(state_dir=tmp_path)
        await restarted.start()
        state2 = restarted._views["v"]
        assert (state2.seq, state2.view.db) == pre
        assert (4, 5) not in set(state2.view.db["E"].tuples)
        await restarted.close()

    _run(scenario())


def test_graceful_close_cuts_a_final_snapshot(tmp_path):
    async def scenario():
        service = ViewServer(state_dir=tmp_path, tick=0.0, snapshot_every=100)
        service.register("v", TC_PROGRAM, _edges((1, 2)))
        await service.submit("v", Delta(inserts={"E": [(2, 3)]}))
        await service.close()
        # After close, recovery starts at the final snapshot: no WAL
        # entries remain to replay.
        restarted = ViewServer(state_dir=tmp_path)
        (info,) = await restarted.start()
        assert info.seq == 1
        assert restarted._views["v"].log.snapshot_seq == 1
        assert restarted.stats("v")["snapshot_seq"] == 1
        await restarted.close()

    _run(scenario())


def test_nondurable_views_leave_no_state(tmp_path):
    async def scenario():
        service = ViewServer(state_dir=tmp_path)
        info = service.register(
            "scratch", TC_PROGRAM, _edges((1, 2)), durable=False
        )
        assert not info.durable
        await service.submit("scratch", Delta(inserts={"E": [(2, 3)]}))
        await service.close()
        assert list(tmp_path.iterdir()) == []

    _run(scenario())


# ----------------------------------------------------------------------
# TCP front end
# ----------------------------------------------------------------------


class TestTcpFrontend:
    def test_end_to_end(self):
        async def scenario():
            service = ViewServer()
            frontend = TcpFrontend(service)
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            assert (await client.request("ping"))["pong"]

            ack = await client.register(
                "tc",
                TC_PROGRAM,
                db={"relations": {"E": [[1, 2], [2, 3]]}, "arities": {"E": 2}},
                durable=False,
            )
            assert ack["idb"] == {"TC": 2}
            assert (await client.request("views"))["views"] == ["tc"]

            watcher = await Client.connect(host, port)
            events = await watcher.subscribe("tc")

            ack = await client.delta("tc", inserts={"E": [[3, "01"]]})
            assert ack["seq"] == 1
            queried = await client.query("tc", "TC")
            assert [1, "01"] in queried["tuples"]

            seq, changeset = await events.__anext__()
            assert seq == 1 and (3, "01") in changeset.inserts("E")
            await watcher.close()

            info = await client.request("info", view="tc")
            assert info["seq"] == 1 and not info["durable"]
            stats = await client.request("stats", view="tc")
            assert stats["stats"]["commits"] == 1

            with pytest.raises(ServerError, match="reserved"):
                await client.delta("tc", inserts={"@U": [[9]]})
            assert (await client.request("info", view="tc"))["seq"] == 1
            with pytest.raises(ServerError, match="no view named"):
                await client.query("nope", "TC")
            with pytest.raises(ServerError, match="unknown op"):
                await client.request("frobnicate")

            await client.request("shutdown")
            await client.close()
            await frontend.wait_stopped()

        _run(scenario())

    def test_commit_wire_bytes_are_pinned(self):
        """One commit's ``delta`` response and ``change`` event, byte for
        byte: sides sorted by relation, rows by ``repr``, inserted first."""
        changeset = (
            b'"changeset":{"inserted":{"E":[[3,"01"]],"TC":[[2,"01"],[3,"01"]]},'
            b'"deleted":{"E":[[1,2]],"TC":[[1,2],[1,3]]}}}\n'
        )

        async def scenario():
            frontend = TcpFrontend(ViewServer())
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            await client.register(
                "tc",
                TC_PROGRAM,
                db={"relations": {"E": [[1, 2], [2, 3]]}, "arities": {"E": 2}},
                durable=False,
            )
            watcher = await Client.connect(host, port)
            await watcher.subscribe("tc")
            client._writer.write(
                b'{"op":"delta","view":"tc","inserts":{"E":[[3,"01"]]},'
                b'"deletes":{"E":[[1,2]]}}\n'
            )
            await client._writer.drain()
            assert await client._reader.readline() == b'{"ok":true,"seq":1,' + changeset
            assert (
                await watcher._reader.readline()
                == b'{"event":"change","view":"tc","seq":1,' + changeset
            )
            await watcher.close()
            await client.request("shutdown")
            await client.close()
            await frontend.wait_stopped()

        _run(scenario())

    def test_malformed_requests_get_error_responses(self):
        async def scenario():
            service = ViewServer()
            frontend = TcpFrontend(service)
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            import json

            response = json.loads(await client._reader.readline())
            assert not response["ok"] and "JSON" in response["error"]
            client._writer.write(b'["a","list"]\n')
            await client._writer.drain()
            response = json.loads(await client._reader.readline())
            assert not response["ok"]
            # The connection survived both: a normal request still works.
            assert (await client.request("ping"))["pong"]
            await client.close()
            await frontend.close()

        _run(scenario())

    def test_an_oversized_request_line_is_answered_and_others_are_still_served(
        self, monkeypatch
    ):
        assert net_module._LINE_LIMIT == 2 ** 24  # the documented 16777216
        monkeypatch.setattr(net_module, "_LINE_LIMIT", 2 ** 16)

        async def scenario():
            service = ViewServer()
            frontend = TcpFrontend(service)
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            client._writer.write(b"x" * (2 ** 16 + 1))  # and no newline yet
            await client._writer.drain()
            response = json.loads(await client._reader.readline())
            assert response == {"ok": False, "error": "request exceeds 65536 bytes"}
            # The rest of that line cannot be told from a next request:
            # the server hangs up on this connection, and only on this one.
            assert await client._reader.readline() == b""
            await client.close()
            other = await Client.connect(host, port)
            assert (await other.request("ping"))["pong"]
            await other.close()
            await frontend.close()

        _run(scenario())

    def test_a_full_writer_queue_answers_overloaded(self, monkeypatch):
        monkeypatch.setattr(service_module, "_QUEUE_LIMIT", 2)

        async def scenario():
            service = ViewServer(tick=0.5)  # the writer lingers: the barrier
            frontend = TcpFrontend(service)
            host, port = await frontend.start()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            state = service._views["tc"]
            clients = [await Client.connect(host, port) for _ in range(4)]
            held = [
                asyncio.ensure_future(clients[0].delta("tc", inserts={"E": [[2, 3]]}))
            ]
            while not (state.submitted == 1 and state.queue.empty()):
                await asyncio.sleep(0.005)
            held += [
                asyncio.ensure_future(c.delta("tc", inserts={"E": [[3 + i, 4 + i]]}))
                for i, c in enumerate(clients[1:3])
            ]
            while state.queue.qsize() < 2:
                await asyncio.sleep(0.005)
            with pytest.raises(ServerError, match="^overloaded: view 'tc'"):
                await clients[3].delta("tc", inserts={"E": [[9, 9]]})
            # Refused, not dropped: the connection answers the next request.
            assert (await clients[3].request("ping"))["pong"]
            acks = await asyncio.gather(*held)
            assert [a["seq"] for a in acks] == [1, 1, 1]
            assert [9, 9] not in (await clients[3].query("tc", "E"))["tuples"]
            for c in clients:
                await c.close()
            await frontend.close()

        _run(scenario())

    def test_lagged_is_the_last_line_a_stalled_subscriber_is_sent(self):
        async def scenario():
            service = ViewServer()
            frontend = TcpFrontend(service)
            host, port = await frontend.start()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            watcher = await Client.connect(host, port)
            events = await watcher.subscribe("tc")
            state = service._views["tc"]
            (sub,) = state.subscribers
            # A window and one more commit with no await in between: the
            # pump cannot run, which is all the writer sees of a reader
            # that stopped reading.
            loop = asyncio.get_running_loop()
            for i in range(_RECENT_WINDOW + 1):
                toggle = "deletes" if i % 2 else "inserts"
                delta = Delta(**{toggle: {"E": [(2, 3)]}})
                service._commit(state, [(delta, loop.create_future())])
            assert sub.lagged == _RECENT_WINDOW + 1 and state.subscribers == []
            seqs = []
            with pytest.raises(
                ServerError, match="unsubscribed at seq %d" % (_RECENT_WINDOW + 1)
            ):
                async for seq, _changeset in events:
                    seqs.append(seq)
            assert seqs == list(range(1, _RECENT_WINDOW + 1))
            assert await watcher._reader.readline() == b""  # and hung up
            await watcher.close()
            await frontend.close()

        _run(scenario())

    def test_subscriber_disconnect_releases_subscription(self):
        async def scenario():
            service = ViewServer()
            frontend = TcpFrontend(service)
            host, port = await frontend.start()
            service.register("tc", TC_PROGRAM, _edges((1, 2)))
            watcher = await Client.connect(host, port)
            await watcher.subscribe("tc")
            assert service.stats("tc")["subscribers"] == 1
            await watcher.close()
            for _ in range(50):
                if service.stats("tc")["subscribers"] == 0:
                    break
                await asyncio.sleep(0.01)
            assert service.stats("tc")["subscribers"] == 0
            await frontend.close()

        _run(scenario())


# ----------------------------------------------------------------------
# Reads from kept bytes: coherent with the view after every commit
# ----------------------------------------------------------------------

_NODES = [1, 2, 3, 4, 5]
_EDGE = st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES))
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "delete", "churn"]), _EDGE),
        # a value outside the universe: the view recomputes
        st.tuples(st.just("grow"), st.tuples(st.sampled_from(_NODES), st.integers(6, 8))),
        st.tuples(st.sampled_from(["empty", "rejected"]), st.none()),
    ),
    max_size=8,
)


class _Capture:
    """Just enough of a ``StreamWriter`` for ``TcpFrontend._send``."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


async def _storm_step(service, kind, edge):
    if kind in ("insert", "grow"):
        await service.submit("v", Delta(inserts={"E": [edge]}))
    elif kind == "delete":
        await service.submit("v", Delta(deletes={"E": [edge]}))
    elif kind == "churn":
        # One batch (both are queued before the writer wakes) whose
        # tuple comes and goes: no net change to E unless it was there.
        await asyncio.gather(
            service.submit("v", Delta(inserts={"E": [edge]})),
            service.submit("v", Delta(deletes={"E": [edge]})),
        )
    elif kind == "empty":
        await service.submit("v", Delta.empty())
    else:
        with pytest.raises(ValueError):
            await service.submit("v", Delta(inserts={"E": [(1, 2, 3)]}))


def _snapshot_files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _fresh_snapshot(db, directory):
    """The files of a snapshot of ``db``, rendered from scratch."""
    csvio.dump_database(db, directory)
    csvio.dump_relation(
        Relation("@universe", 1, [(v,) for v in db.universe]),
        directory / "@universe.csv",
    )
    return _snapshot_files(directory)


def _assert_newest_snapshot_is_fresh(view_dir, history):
    """The newest ``snapshot-*/`` equals a from-scratch dump of the
    database at its commit (``history`` maps commits to databases)."""
    newest = max(view_dir.glob("snapshot-*"))
    seq = int(newest.name[len("snapshot-"):])
    with tempfile.TemporaryDirectory() as scratch:
        assert _snapshot_files(newest) == _fresh_snapshot(history[seq], Path(scratch))


@pytest.mark.parametrize(
    "semantics,program,carrier",
    [
        ("stratified", TC_NOTC_PROGRAM, "NOTC"),
        ("inflationary", TC_PROGRAM, None),
        # 1 and 2 draw (a 2-cycle), 3 wins, 4 loses, 5 draws with itself:
        # both partitions of W are inhabited and both move under edits.
        ("wellfounded", WIN_MOVE_PROGRAM, None),
    ],
    ids=["stratified", "inflationary", "wellfounded"],
)
@given(steps=_STEPS)
def test_served_bytes_equal_the_uncached_answer_after_every_commit(
    semantics, program, carrier, steps
):
    async def scenario(state_dir):
        service = ViewServer(state_dir=state_dir, snapshot_every=2)
        frontend = TcpFrontend(service)
        info = service.register(
            "v",
            program,
            _edges((1, 2), (2, 1), (2, 3), (3, 4), (5, 5)),
            semantics=semantics,
            carrier=carrier,
        )
        state = service._views["v"]
        keys = [(p, False) for p in sorted({**info.edb, **info.idb})]
        if semantics == "wellfounded":
            keys += [(p, True) for p in sorted(info.idb)]
        history = {0: state.view.db}

        async def served(predicate, undefined):
            request = {"op": "query", "view": "v", "predicate": predicate}
            if undefined:
                request["undefined"] = True
            capture = _Capture()
            await frontend._send(capture, *frontend._op_query(request))
            assert capture.data.endswith(b"}\n")
            return json.loads(capture.data)

        for kind, edge in [("empty", None)] + steps:
            await _storm_step(service, kind, edge)
            history[state.seq] = state.view.db
            for predicate, undefined in keys:
                _, rel = service.query("v", predicate, undefined)  # no cache
                expected = {
                    "ok": True,
                    "seq": state.seq,
                    "predicate": predicate,
                    "arity": rel.arity,
                    "tuples": encode_tuples(rel.tuples),
                }
                assert await served(predicate, undefined) == expected
                hits = state.read_hits
                assert await served(predicate, undefined) == expected
                assert state.read_hits == hits + 1  # nothing moved: a hit
            _assert_newest_snapshot_is_fresh(state_dir / "v", history)
        # Every reading after the first was a patched rendering.
        assert state.read_misses == len(keys)
        assert service.stats("v")["render_rebuilds"] == 0
        await service.close()
        _assert_newest_snapshot_is_fresh(state_dir / "v", history)

    with tempfile.TemporaryDirectory() as state_dir:
        _run(scenario(Path(state_dir)))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_commit_renders_one_fragment_per_inserted_tuple(tmp_path, monkeypatch):
    csv_lines = _count_calls(monkeypatch, csvio, "csv_line")
    json_rows = _count_calls(monkeypatch, protocol_module, "json_row")

    async def scenario():
        service = ViewServer(state_dir=tmp_path, snapshot_every=None)
        service.register("v", TC_PROGRAM, _edges(*[(i, i + 1) for i in range(1, 40)]))
        state = service._views["v"]
        for predicate in ("E", "TC"):
            service.read("v", predicate)  # warm-up: rendered once, then kept
        assert len(csv_lines) == 39 + 40  # snapshot 0: E and the universe
        assert len(json_rows) == 39 + 39 * 40 // 2
        del csv_lines[:], json_rows[:]

        # Cutting the chain deletes 400 TC tuples and renders nothing;
        # joining it again renders each inserted tuple once per kept
        # rendering that holds it: E as CSV and JSON, TC as JSON.
        await service.submit("v", Delta(deletes={"E": [(20, 21)]}))
        assert csv_lines == json_rows == []
        _, changeset = await service.submit("v", Delta(inserts={"E": [(20, 21)]}))
        assert len(changeset.inserts("TC")) == 20 * 20
        assert csv_lines == [(20, 21)]
        assert sorted(json_rows) == sorted([*changeset.inserts("E"), *changeset.inserts("TC")])
        first = {key: service.read("v", key[0]) for key in state.reads}
        assert state.read_misses == 2
        state.log.snapshot(state.seq, state.view.db)  # renders nothing
        assert len(csv_lines) == 1 and len(json_rows) == 1 + 400
        assert {key: service.read("v", key[0]) for key in state.reads} == first
        _assert_newest_snapshot_is_fresh(tmp_path / "v", {state.seq: state.view.db})
        assert service.stats("v")["render_rebuilds"] == 0
        await service.close()

    _run(scenario())


def test_a_value_the_wire_cannot_carry_fails_the_read_not_the_writer():
    async def scenario():
        service = ViewServer()
        service.register("v", TC_PROGRAM, _edges((1, 2)))
        assert service.read("v", "TC")[2] == b"[[1,2]]"
        # In memory nothing logs the delta, so the float reaches the view;
        # patching the kept rendering refuses it and leaves it behind.
        for seq, delta in enumerate(
            [Delta(inserts={"E": [(1.5, 2)]}), Delta(deletes={"E": [(1.5, 2)]})], 1
        ):
            # Acknowledged: the writer survives the refused patch.
            assert (await asyncio.wait_for(service.submit("v", delta), 10))[0] == seq
            if seq == 1:
                with pytest.raises(ProtocolError, match="float"):
                    service.read("v", "TC")
        assert service.read("v", "TC") == (2, 2, b"[[1,2]]")
        await service.close()

    _run(scenario())


def test_renderings_a_commit_did_not_patch_are_rebuilt_and_counted(tmp_path):
    async def scenario():
        service = ViewServer(state_dir=tmp_path, snapshot_every=None)
        service.register("rebuild_probe", TC_PROGRAM, _edges((1, 2), (2, 3)))
        await service.submit("rebuild_probe", Delta(inserts={"E": [(3, 4)]}))
        for viewstate in service._views.values():
            viewstate.task.cancel()  # crash: no final snapshot
        del service

        restarted = ViewServer(state_dir=tmp_path, snapshot_every=None)
        await restarted.start()
        await restarted.submit("rebuild_probe", Delta(inserts={"E": [(4, 9)]}))
        state = restarted._views["rebuild_probe"]
        state.log.snapshot(state.seq, state.view.db)
        stats = restarted.stats("rebuild_probe")
        # The recovered log kept no rendering: E and the universe rebuilt.
        assert stats["render_rebuilds"] == 2
        assert (
            'repro_server_render_rebuilds_total{view="rebuild_probe"} 2' in restarted.metrics()
        )
        _assert_newest_snapshot_is_fresh(tmp_path / "rebuild_probe", {state.seq: state.view.db})

        # A kept read no commit advanced is rebuilt on the next read.
        before = restarted.read("rebuild_probe", "TC")
        state.reads[("TC", False)][1].seq = None
        assert restarted.read("rebuild_probe", "TC") == before
        assert restarted.stats("rebuild_probe")["render_rebuilds"] == 3
        await restarted.close()

    _run(scenario())


# ----------------------------------------------------------------------
# Static analysis at the service and protocol layers
# ----------------------------------------------------------------------


class TestServerAnalysis:
    def test_register_rejects_error_level_program(self):
        async def run():
            server = ViewServer()
            with pytest.raises(ProgramRejected) as err:
                server.register(
                    "bad", "P(X) :- Q(X). P(X, Y) :- Q(Y).", _edges((1, 2))
                )
            report = err.value.report
            assert "A001" in report.codes()
            assert report.errors > 0
            assert server.views() == []
            await server.close()

        _run(run())

    def test_register_rejects_missing_edb(self):
        async def run():
            server = ViewServer()
            db = Database([1, 2])  # no E relation
            with pytest.raises(ProgramRejected) as err:
                server.register("tc", TC_PROGRAM, db, carrier="TC")
            assert "V001" in err.value.report.codes()
            await server.close()

        _run(run())

    def test_register_accepts_warnings_and_caches_report(self):
        async def run():
            server = ViewServer()
            server.register(
                "wm", WIN_MOVE_PROGRAM, _edges((1, 2)), semantics="wellfounded"
            )
            report = server.lint("wm")
            assert {"S001", "S002"} <= set(report.codes())
            assert report.errors == 0
            assert server.lint("wm") is report  # cached, not recomputed
            await server.close()

        _run(run())

    def test_stats_carries_analysis_block(self):
        async def run():
            server = ViewServer()
            server.register("tc", TC_NOTC_PROGRAM, _edges((1, 2)), carrier="NOTC")
            analysis = server.stats("tc")["analysis"]
            assert analysis["class"] == "stratified"
            assert analysis["strata"] == 2
            assert analysis["errors"] == 0
            assert analysis["negative_cycle_predicates"] == []
            assert isinstance(analysis["codes"], list)
            await server.close()

        _run(run())

    def test_register_naming_the_universe_relation_is_an_error(self):
        # ``@U`` is the engine's universe, not a relation a client may
        # store: the JSON-lines register gets an error response and no
        # view is created.
        async def run():
            server = ViewServer()
            frontend = TcpFrontend(server)
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            request = {
                "op": "register",
                "name": "shadow",
                "program": "N(X) :- !R(X). R(X) :- E(X, Y).",
                "carrier": "N",
                "durable": False,
                "db": {
                    "universe": [1, 2, 3, 4],
                    "relations": {"E": [[1, 2], [2, 3]], "@U": [[1]]},
                },
            }
            client._writer.write(json.dumps(request).encode() + b"\n")
            await client._writer.drain()
            response = json.loads(await client._reader.readline())
            assert not response["ok"] and "reserved" in response["error"]
            assert server.views() == []
            assert (await client.request("views"))["views"] == []
            await client.close()
            await frontend.close()

        _run(run())

    def test_tcp_register_rejection_carries_diagnostics(self):
        async def run():
            server = ViewServer()
            frontend = TcpFrontend(server)
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            with pytest.raises(ServerError) as err:
                await client.register(
                    "bad",
                    "P(X) :- Q(X). P(X, Y) :- Q(Y).",
                    db={"relations": {}, "arities": {}},
                )
            assert any(d["code"] == "A001" for d in err.value.diagnostics)
            assert {d["severity"] for d in err.value.diagnostics} <= {
                "error", "warning", "info"
            }
            await client.close()
            await frontend.close()

        _run(run())

    def test_tcp_lint_verb_returns_schema_stable_report(self):
        async def run():
            server = ViewServer()
            frontend = TcpFrontend(server)
            host, port = await frontend.start()
            client = await Client.connect(host, port)
            await client.register(
                "wm",
                WIN_MOVE_PROGRAM,
                db={"relations": {"E": [[1, 2], [2, 1]]}, "arities": {"E": 2}},
                semantics="wellfounded",
            )
            report = await client.lint("wm")
            assert set(report) == {"version", "summary", "diagnostics"}
            assert report["summary"]["class"] == "general"
            assert {d["code"] for d in report["diagnostics"]} == {"S001", "S002"}
            stats = (await client.request("stats", view="wm"))["stats"]
            assert stats["analysis"]["class"] == "general"
            with pytest.raises(ServerError):
                await client.lint("nope")
            await client.close()
            await frontend.close()

        _run(run())


def test_a_failed_snapshot_is_retried_and_the_writer_keeps_serving(tmp_path, monkeypatch):
    """A snapshot that raises (a full disk) after its batch is logged
    fails neither that batch's submitter nor the writer: every submit is
    acknowledged, the failure is counted, the next commit cuts the
    snapshot, and a restart replays to the acknowledged state."""
    import errno

    from repro.server.wal import DeltaLog

    cut = DeltaLog.snapshot
    failures = []

    def full_disk_once(log, seq, db):
        if not failures:
            failures.append(seq)
            raise OSError(errno.ENOSPC, "No space left on device")
        cut(log, seq, db)

    async def scenario():
        service = ViewServer(state_dir=tmp_path, tick=0.0, snapshot_every=2)
        service.register("snapfail", TC_PROGRAM, _edges((1, 2)))
        state = service._views["snapfail"]
        monkeypatch.setattr(DeltaLog, "snapshot", full_disk_once)
        seqs = []
        for edge in [(2, 3), (3, 4), (4, 5), (5, 6)]:
            seq, _ = await asyncio.wait_for(
                service.submit("snapfail", Delta(inserts={"E": [edge]})), timeout=10
            )
            seqs.append(seq)
        monkeypatch.undo()
        assert seqs == [1, 2, 3, 4]
        assert failures == [2]
        assert state.log.snapshot_seq == 3  # retried at 3; 4 is in the WAL tail
        assert 'repro_wal_snapshot_failures_total{view="snapfail"} 1' in service.metrics()
        pre = (state.seq, state.view.db, _result_value(state.view))
        # Crash: no final snapshot.
        for viewstate in service._views.values():
            viewstate.task.cancel()
        del service

        restarted = ViewServer(state_dir=tmp_path, tick=0.0, snapshot_every=2)
        await restarted.start()
        state2 = restarted._views["snapfail"]
        assert (state2.seq, state2.view.db, _result_value(state2.view)) == pre
        await restarted.close()

    _run(scenario())
