"""Durability of the write-ahead log: fsync discipline and crash replay.

An acknowledged commit must be on disk before its ack.  For an append
that is one ``os.fsync`` of the open segment, issued after the record is
written; the segment's *name* is made durable once, when the segment is
created (an fsync of ``wal/``).  Snapshots and ``meta.json`` stay
rename-based: every file of the artefact, its directory, and the parent
directory whose entry the rename changed.  These tests enumerate the
fsync calls by path instead of trusting the happy path, and damage the
log on purpose: a torn tail must be dropped, anything else refused.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.relation import Relation
from repro.materialize.delta import Delta
from repro.server.wal import DeltaLog


def _db(edges, universe):
    return Database(frozenset(universe), [Relation("E", 2, set(edges))])


def _fresh_log(directory):
    return DeltaLog.initialise(
        directory, "v", "T(X,Y) :- E(X,Y).", "stratified", None,
        _db([(1, 2)], range(3)),
    )


class _Fsyncs(list):
    """The real path of every fd passed to ``os.fsync``, in call order;
    ``sizes`` holds each file's length at that moment."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def clear(self):
        super().clear()
        self.sizes.clear()


@pytest.fixture
def fsynced(monkeypatch):
    calls = _Fsyncs()
    real_fsync = os.fsync

    def recording_fsync(fd):
        try:
            calls.append(os.path.realpath("/proc/self/fd/%d" % fd))
        except OSError:
            calls.append("<unknown>")
        calls.sizes.append(os.fstat(fd).st_size)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return calls


class TestFsyncEnumeration:
    def test_append_is_one_fsync_of_the_segment_after_the_write(
        self, tmp_path, fsynced
    ):
        log = _fresh_log(tmp_path / "v")
        wal = tmp_path / "v" / "wal"
        first = wal / "00000000.log"
        # the segment's creation made its name durable: wal/, once
        assert fsynced.count(str(wal)) == 1 and first.exists()
        for seq in (1, 2, 3):
            fsynced.clear()
            log.append(seq, Delta.insert("E", (0, seq)))
            # steady state: exactly one fsync, of the segment, issued
            # when the whole record was already in the file
            assert fsynced == [str(first)]
            assert fsynced.sizes == [first.stat().st_size]
        assert first.read_bytes().count(b"\n") == 3

        # a snapshot opens the next segment: wal/ once more, for the new
        # name, and appends then sync the new file only
        fsynced.clear()
        log.snapshot(3, _db([(1, 2), (0, 1), (0, 2), (0, 3)], range(4)))
        assert fsynced.count(str(wal)) == 1
        second = wal / "00000003.log"
        assert [p.name for p in wal.iterdir()] == [second.name]
        fsynced.clear()
        log.append(4, Delta.delete("E", (0, 1)))
        assert fsynced == [str(second)]
        assert fsynced.sizes == [second.stat().st_size]
        log.close()

    def test_snapshot_and_meta_replace_are_fsynced(self, tmp_path, fsynced):
        log = _fresh_log(tmp_path / "v")
        log.append(1, Delta.insert("E", (0, 1)))
        fsynced.clear()
        log.snapshot(1, _db([(1, 2), (0, 1)], range(3)))
        synced = set(fsynced)
        # snapshot files + its directory, under the pre-rename tmp name
        assert any("tmp-snapshot-00000001" in p and p.endswith(".csv") for p in synced)
        assert any(p.endswith(".tmp-snapshot-00000001") for p in synced)
        # meta.json contents, then the state dir for both renames
        assert any(p.endswith("meta.json.tmp") for p in synced)
        assert str(tmp_path / "v") in synced
        log.close()

    def test_discard_restores_the_segment_byte_for_byte(self, tmp_path, fsynced):
        log = _fresh_log(tmp_path / "v")
        segment = tmp_path / "v" / "wal" / "00000000.log"
        first = Delta.insert("E", (0, 1))
        log.append(1, first)
        before = segment.read_bytes()
        log.append(2, Delta.insert("E", (0, 2)))
        fsynced.clear()
        log.discard(2)
        assert segment.read_bytes() == before
        # the truncation itself is durable: a crash now must not bring
        # the discarded batch back
        assert fsynced == [str(segment)] and fsynced.sizes == [len(before)]
        # and the sequence number is free again
        retry = Delta.delete("E", (1, 2))
        log.append(2, retry)
        assert log.recover().entries == [(1, first), (2, retry)]
        log.close()


# Values a delta can carry: ints and strings, including the canonical-int
# strings ("7") and control characters the CSV entries could not hold.
_VALUES = st.one_of(st.integers(), st.text(max_size=6))
_ROWS = st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=3, unique=True)
_DELTAS = st.builds(
    lambda rows, insert: Delta(**{"inserts" if insert else "deletes": {"E": rows}}),
    _ROWS,
    st.booleans(),
)


def _written(directory, deltas):
    """A closed log holding ``deltas`` as records 1..n; its segment's bytes."""
    log = _fresh_log(directory)
    for seq, delta in enumerate(deltas, start=1):
        log.append(seq, delta)
    log.close()
    segment = directory / "wal" / "00000000.log"
    return segment, segment.read_bytes()


class TestCrashReplay:
    @given(deltas=st.lists(_DELTAS, min_size=1, max_size=4), data=st.data())
    def test_a_torn_last_record_is_dropped_and_the_log_goes_on(self, deltas, data):
        """Cut the segment at any byte inside its last record — what a
        crash between ``write`` and ``fsync`` can leave — and recovery
        returns exactly the earlier records; the next append lands where
        the torn one began."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "v"
            segment, whole = _written(directory, deltas)
            last = whole.rfind(b"\n", 0, len(whole) - 1) + 1
            cut = data.draw(st.integers(last, len(whole) - 1), label="cut")
            segment.write_bytes(whole[:cut])

            log = DeltaLog(directory)
            assert log.recover().entries == list(enumerate(deltas[:-1], start=1))
            assert segment.read_bytes() == whole[:last]  # truncated away
            log.append(len(deltas), deltas[-1])
            log.close()
            assert segment.read_bytes() == whole
            again = DeltaLog(directory)
            assert again.recover().entries == list(enumerate(deltas, start=1))
            again.close()

    @given(deltas=st.lists(_DELTAS, min_size=2, max_size=4), data=st.data())
    def test_damage_to_an_earlier_record_is_refused_with_its_offset(self, deltas, data):
        """Change any one byte of any record but the last (its newline
        included): recovery raises, naming the record's offset — it never
        skips the record, replays an altered delta, or mistakes two
        records run together for a torn tail."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "v"
            segment, whole = _written(directory, deltas)
            last = whole.rfind(b"\n", 0, len(whole) - 1) + 1
            at = data.draw(st.integers(0, last - 1), label="at")
            byte = data.draw(
                st.integers(0, 255).filter(lambda b: b != whole[at]), label="byte"
            )
            damaged = whole[:at] + bytes([byte]) + whole[at + 1:]
            segment.write_bytes(damaged)
            record_start = whole.rfind(b"\n", 0, at) + 1
            with pytest.raises(ValueError, match=r"00000000\.log is corrupt at byte offset %d:" % record_start):
                DeltaLog(directory).recover()
            assert segment.read_bytes() == damaged  # nothing truncated either

    def test_a_format_1_directory_is_refused(self, tmp_path):
        log = _fresh_log(tmp_path / "v")
        log.close()
        meta = tmp_path / "v" / "meta.json"
        meta.write_text(meta.read_text().replace('"format": 2', '"format": 1'))
        with pytest.raises(ValueError, match="log format 1; this build reads format 2"):
            DeltaLog(tmp_path / "v").recover()

    def test_recovery_replays_to_the_pre_crash_state(self, tmp_path):
        db = _db([(i, i + 1) for i in range(4)], range(6))
        log = DeltaLog.initialise(
            tmp_path / "v", "v", "T(X,Y) :- E(X,Y).", "stratified", None, db
        )
        deltas = [
            Delta.insert("E", (4, 5)),
            Delta.delete("E", (1, 2)),
            Delta(inserts={"E": [(1, 2)]}, deletes={"E": [(0, 1)]}),
        ]
        expected = db
        for seq, delta in enumerate(deltas, start=1):
            log.append(seq, delta)
            expected = expected.apply_delta(delta)
        # "crash": recover from a fresh DeltaLog over the same directory
        log.close()
        restarted = DeltaLog(tmp_path / "v")
        rec = restarted.recover()
        restarted.close()
        replayed = rec.db
        for _seq, delta in rec.entries:
            replayed = replayed.apply_delta(delta)
        assert replayed["E"].tuples == expected["E"].tuples
        assert replayed.universe == expected.universe
