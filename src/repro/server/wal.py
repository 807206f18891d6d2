"""Durability: a write-ahead delta log plus periodic database snapshots.

A :class:`DeltaLog` owns one view's state directory::

    <dir>/
      meta.json              format, view name, semantics, carrier,
                             schema {relation: arity}, snapshot_seq
      program.dl             the registered program text
      snapshot-<SEQ>/        the database at commit SEQ:
                             <relation>.csv per relation (csvio format)
                             + @universe.csv (the full universe, which
                             can exceed the active domain)
      wal/<SEQ>.log          the segment opened when snapshot SEQ was
                             cut: one record per batch committed since

A record is one newline-terminated line of ASCII text::

    <crc32, 8 hex digits> <seq> <compact JSON of protocol.encode_delta>

The CRC covers everything after its separating space up to the newline.
JSON keeps ``7`` and ``"7"`` apart, so a record replays to exactly the
delta that was committed, and a segment stays readable with ``less``.

**The durability contract: acked ⇒ fsync'd before the ack.**
:meth:`DeltaLog.append` issues one ``os.write`` and one ``os.fsync`` on
the open segment and returns only after the fsync has.  One fsync is
enough because appending to a file that is already durable changes no
directory entry: the segment's *creation* is followed by an fsync of
``wal/`` (once per snapshot), and every later append moves only the
file's own data and length, which its fsync covers.

Snapshots stay rename-based: a snapshot directory is fully written and
fsync'd under a ``.tmp-`` name, renamed into place, and only then does
``meta.json`` (rewritten via ``os.replace`` + directory fsync) name its
sequence number; after that the new segment is opened and the older
segments and snapshots are unlinked.  At every crash point ``meta.json``
names a complete snapshot and the records after it sit in the segment of
that name, so replaying them reproduces the exact pre-crash state
(maintenance == recompute is property-tested, and apply is
deterministic).

A snapshot writes text the log already holds: every snapshot file is
kept as a :class:`~repro.db.csvio.SortedRows` that records the commit
it renders, and :meth:`DeltaLog.advance` patches it with each commit's
changeset, so cutting a snapshot renders nothing.  A rendering a commit
did not advance — after recovery, say — is rendered from scratch by the
next snapshot and counted (``repro_server_render_rebuilds_total``).

**What recovery tolerates and what it refuses.**  A crash in the middle
of an append can leave a partial record at the end of the last segment;
it was never fsync'd, hence never acknowledged.  :meth:`DeltaLog.recover`
therefore drops — and truncates away — a *last* line of the *last*
segment that is unterminated or fails its CRC.  Any other line that is
unterminated or fails its CRC is damage to an acknowledged commit:
recovery raises a ``ValueError`` naming the file and the byte offset and
replays nothing, rather than skip the record or parse what is left of
it.  (So is a failing last line that *ends* in an intact record: two
acknowledged records run together by a damaged newline, not a torn
append.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

from ..db import csvio
from ..db.database import Database
from ..materialize.delta import Delta
from ..obs import LATENCY_BUCKETS, REGISTRY
from . import protocol

PathLike = Union[str, Path]

_APPEND_SECONDS = REGISTRY.histogram(
    "repro_wal_append_seconds",
    "WAL append latency: one record encoded, written and fsync'd "
    "to the open segment.",
    labelnames=("view",),
    buckets=LATENCY_BUCKETS,
)
_SNAPSHOT_SECONDS = REGISTRY.histogram(
    "repro_wal_snapshot_seconds",
    "Snapshot cut latency (dump + meta flip + prune).",
    labelnames=("view",),
    buckets=LATENCY_BUCKETS,
)

SNAPSHOT_FAILURES = REGISTRY.counter(
    "repro_wal_snapshot_failures_total",
    "Periodic snapshots that raised (e.g. a full disk).  The commit that "
    "triggered one is already logged and acknowledged; the next commit "
    "retries the snapshot.",
    labelnames=("view",),
)

RENDER_REBUILDS = REGISTRY.counter(
    "repro_server_render_rebuilds_total",
    "Kept renderings (query responses, snapshot CSVs) rendered from "
    "scratch because no commit had patched them up to date.",
    labelnames=("view",),
)

_FORMAT = 2
_META = "meta.json"
_PROGRAM = "program.dl"
_WAL = "wal"
_SEGMENT_SUFFIX = ".log"
_SNAPSHOT_PREFIX = "snapshot-"
_UNIVERSE = "@universe"
_SEQ_WIDTH = 8
_RECORD_HEAD = re.compile(rb"[0-9a-f]{8} \d+ ")


def _fsync_path(path: Path) -> None:
    """fsync a file or directory by path (directories need O_RDONLY)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(directory: Path) -> None:
    """fsync every file under ``directory``, then the directory itself.

    Called on a fully-written tmp directory *before* the atomic rename:
    ``os.replace`` orders the name change, but says nothing about the
    data blocks or the tmp directory's own entries — a crash after the
    rename could otherwise surface a committed-looking entry with empty
    or truncated CSV files.
    """
    for child in sorted(directory.iterdir()):
        if child.is_file():
            _fsync_path(child)
    _fsync_path(directory)


def _seq_name(seq: int) -> str:
    return "%0*d" % (_SEQ_WIDTH, seq)


def _parse_seq(name: str) -> Optional[int]:
    if len(name) == _SEQ_WIDTH and name.isdigit():
        return int(name)
    return None


def _encode_record(seq: int, delta: Delta) -> bytes:
    """Batch ``seq`` as one record line (see the module docstring)."""
    body = b"%d %s" % (
        seq,
        json.dumps(protocol.encode_delta(delta), separators=(",", ":")).encode(),
    )
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _decode_record(line: bytes) -> Optional[Tuple[int, Delta]]:
    """``(seq, delta)`` of a record line without its newline, or ``None``
    when the line is not a record whose CRC holds."""
    crc, _, body = line.partition(b" ")
    if crc != b"%08x" % zlib.crc32(body):
        return None
    seq, _, payload = body.partition(b" ")
    return int(seq), protocol.decode_delta(json.loads(payload))


def _ends_in_a_record(line: bytes) -> bool:
    """True when a proper suffix of ``line`` is a record whose CRC holds."""
    return any(
        _decode_record(line[match.start():]) is not None
        for match in _RECORD_HEAD.finditer(line, 1)
    )


@dataclass
class RecoveredState:
    """Everything :meth:`DeltaLog.recover` reads back from disk."""

    view: str
    program_text: str
    semantics: str
    carrier: Optional[str]
    schema: Dict[str, int]
    db: Database
    snapshot_seq: int
    entries: List[Tuple[int, Delta]]

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest committed batch."""
        return self.entries[-1][0] if self.entries else self.snapshot_seq


class DeltaLog:
    """One view's durable state: a snapshot plus the segment of records
    committed since (see the module docstring)."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self._meta: Optional[dict] = None
        # The open segment (unbuffered, O_APPEND), and ``(seq, offset)``
        # of the record appended last, for discard.
        self._segment: Optional[BinaryIO] = None
        self._undo: Optional[Tuple[int, int]] = None
        # The snapshot files kept rendered (relation name, and _UNIVERSE,
        # -> csvio.SortedRows whose ``seq`` is the commit it renders),
        # and how many a snapshot had to render from scratch.
        self._rows: Dict[str, csvio.SortedRows] = {}
        self.render_rebuilds = 0

    # ------------------------------------------------------------------
    # Creation and recovery
    # ------------------------------------------------------------------

    @classmethod
    def exists(cls, directory: PathLike) -> bool:
        """True when ``directory`` holds an initialised log."""
        return (Path(directory) / _META).is_file()

    @classmethod
    def initialise(
        cls,
        directory: PathLike,
        view: str,
        program_text: str,
        semantics: str,
        carrier: Optional[str],
        db: Database,
    ) -> "DeltaLog":
        """Create a fresh state directory with a snapshot at sequence 0."""
        log = cls(directory)
        if cls.exists(directory):
            raise ValueError(
                "state directory %s is already initialised; recover from it "
                "or point the server at a fresh directory" % log.directory
            )
        log.directory.mkdir(parents=True, exist_ok=True)
        (log.directory / _WAL).mkdir(exist_ok=True)
        (log.directory / _PROGRAM).write_text(program_text)
        schema = {name: db[name].arity for name in db.relation_names()}
        log._write_snapshot_dir(0, db)
        log._write_meta(
            {
                "format": _FORMAT,
                "view": view,
                "semantics": semantics,
                "carrier": carrier,
                "schema": schema,
                "snapshot_seq": 0,
            }
        )
        log._open_segment(0)
        return log

    def recover(self) -> RecoveredState:
        """Read back the snapshot and every committed record after it.

        Drops a torn last record, refuses any other damage (see the
        module docstring), and leaves the log open for appending.
        """
        meta = self._read_meta()
        schema = dict(meta["schema"])
        snapshot_seq = meta["snapshot_seq"]
        db = self._load_snapshot(snapshot_seq, schema)
        entries = self._read_segments(snapshot_seq)
        self._open_segment(snapshot_seq)
        return RecoveredState(
            view=meta["view"],
            program_text=(self.directory / _PROGRAM).read_text(),
            semantics=meta["semantics"],
            carrier=meta.get("carrier"),
            schema=schema,
            db=db,
            snapshot_seq=snapshot_seq,
            entries=entries,
        )

    def close(self) -> None:
        """Release the open segment (every acked record is already durable)."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    # ------------------------------------------------------------------
    # The write-ahead log
    # ------------------------------------------------------------------

    def append(self, seq: int, delta: Delta) -> None:
        """Durably record batch ``seq``: one write, one fsync, then return."""
        started = time.perf_counter()
        if self._segment is None:
            raise ValueError(
                "log %s is not open for appending: recover() it first"
                % self.directory
            )
        record = _encode_record(seq, delta)
        fd = self._segment.fileno()
        start = os.fstat(fd).st_size
        try:
            if os.write(fd, record) != len(record):
                raise OSError("short write to %s" % self._segment.name)
            # Durability before the ack.
            os.fsync(fd)
        except BaseException:
            # Whatever reached the file must not precede the next record.
            os.ftruncate(fd, start)
            raise
        self._undo = (seq, start)
        _APPEND_SECONDS.labels(self.directory.name).observe(
            time.perf_counter() - started
        )

    def discard(self, seq: int) -> None:
        """Remove record ``seq``, the one just appended (the apply-failed
        undo of a logged batch), durably."""
        if self._undo is not None and self._undo[0] == seq:
            fd = self._segment.fileno()
            os.ftruncate(fd, self._undo[1])
            os.fsync(fd)
            self._undo = None

    def _segment_path(self, seq: int) -> Path:
        return self.directory / _WAL / (_seq_name(seq) + _SEGMENT_SUFFIX)

    def _segments(self) -> List[Tuple[int, Path]]:
        """``(snapshot seq, path)`` of every segment on disk, oldest first."""
        return sorted(
            (seq, entry)
            for entry in (self.directory / _WAL).iterdir()
            if entry.name.endswith(_SEGMENT_SUFFIX)
            for seq in [_parse_seq(entry.name[: -len(_SEGMENT_SUFFIX)])]
            if seq is not None
        )

    def _open_segment(self, seq: int) -> None:
        """Hold ``wal/<seq>.log`` open for appending, creating it durably."""
        self.close()
        path = self._segment_path(seq)
        created = not path.exists()
        self._segment = open(path, "ab", buffering=0)
        if created:
            # The one directory entry appends depend on (module docstring).
            _fsync_path(path.parent)
        self._undo = None

    def _read_segments(self, after: int) -> List[Tuple[int, Delta]]:
        """Every record with ``seq > after``, in order; truncates a torn tail."""
        entries: List[Tuple[int, Delta]] = []
        segments = self._segments()
        for _, path in segments:
            data = path.read_bytes()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                end = len(data) if newline < 0 else newline
                record = _decode_record(data[offset:end]) if newline >= 0 else None
                if record is None:
                    if (
                        path != segments[-1][1]
                        or end < len(data) - 1
                        or _ends_in_a_record(data[offset:end])
                    ):
                        raise ValueError(
                            "WAL segment %s is corrupt at byte offset %d: an "
                            "acknowledged record is unterminated or fails its "
                            "CRC; refusing to replay around it" % (path, offset)
                        )
                    # The un-acked tail of a crashed append.
                    os.truncate(path, offset)
                    _fsync_path(path)
                    break
                if record[0] > after:
                    entries.append(record)
                offset = end + 1
        return entries

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, seq: int, db: Database) -> None:
        """Snapshot the database at commit ``seq`` and prune behind it.

        Order matters for crash safety: the new snapshot directory is
        fully written first, then ``meta.json`` atomically starts
        pointing at it, then segment ``<seq>.log`` is opened for the
        records to come, and only then are the superseded snapshot and
        the segments it absorbs deleted.  A crash between any two steps
        leaves a recoverable state (at worst with stale artefacts the
        next snapshot prunes: recovery skips records ≤ ``seq``).
        """
        started = time.perf_counter()
        meta = self._read_meta()
        rendered = self._write_snapshot_dir(seq, db)
        if rendered:
            self.render_rebuilds += rendered
            RENDER_REBUILDS.labels(self.directory.name).inc(rendered)
        meta["snapshot_seq"] = seq
        meta["schema"] = {name: db[name].arity for name in db.relation_names()}
        self._write_meta(meta)
        self._open_segment(seq)
        self._prune(seq)
        _SNAPSHOT_SECONDS.labels(self.directory.name).observe(
            time.perf_counter() - started
        )

    @property
    def snapshot_seq(self) -> int:
        """The commit sequence the current snapshot captures."""
        return self._read_meta()["snapshot_seq"]

    def _snapshot_dir(self, seq: int) -> Path:
        return self.directory / (_SNAPSHOT_PREFIX + _seq_name(seq))

    def advance(self, seq: int, changeset: Delta, db: Database) -> None:
        """Patch the kept snapshot renderings from commit ``seq - 1`` to
        ``seq``, whose net changeset is ``changeset`` and database ``db``.

        A rendering at any other commit is left behind; the next
        snapshot discards and rebuilds it (:attr:`render_rebuilds`).
        The universe file is patched only when the universe grew, with
        the values of the inserted tuples, and advances only when it
        then holds the whole universe.
        """
        for name, rows in self._rows.items():
            if name != _UNIVERSE:
                rows.advance(seq, changeset.inserts(name), changeset.deletes(name))
        universe = self._rows.get(_UNIVERSE)
        if universe is None or universe.seq != seq - 1:
            return
        if len(universe) < len(db.universe):
            universe.patch({(v,) for v in changeset.restrict(db.relation_names()).values()})
        if len(universe) == len(db.universe):
            universe.seq = seq

    def _write_snapshot_dir(self, seq: int, db: Database) -> int:
        """Write snapshot ``seq``; return how many files were rendered
        from scratch rather than written from a kept rendering."""
        final = self._snapshot_dir(seq)
        tmp = self.directory / (".tmp-" + final.name)
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        rows = {name: kept for name, kept in self._rows.items() if kept.seq == seq}
        kept = len(rows)
        csvio.dump_database(db, tmp, rows)
        # The universe can exceed the active domain (never shrinks), and
        # completion quantifies over all of it — persist it explicitly.
        if _UNIVERSE not in rows:
            rows[_UNIVERSE] = csvio.csv_rows(
                [(v,) for v in db.universe], "relation %s" % _UNIVERSE
            )
        csvio.write_rows(tmp / (_UNIVERSE + ".csv"), rows[_UNIVERSE])
        if final.exists():
            shutil.rmtree(final)
        _fsync_tree(tmp)
        os.replace(tmp, final)
        _fsync_path(self.directory)
        for rendering in rows.values():
            rendering.seq = seq
        self._rows = rows
        return len(rows) - kept

    def _load_snapshot(self, seq: int, schema: Dict[str, int]) -> Database:
        directory = self._snapshot_dir(seq)
        if not directory.is_dir():
            raise ValueError(
                "state directory %s names snapshot %d but %s is missing"
                % (self.directory, seq, directory)
            )
        base = csvio.load_database(directory, schema)
        universe_rel = csvio.load_relation(
            directory / (_UNIVERSE + ".csv"), _UNIVERSE, 1
        )
        universe = base.universe | {v for (v,) in universe_rel}
        return Database(universe, base.relations.values(), check=False)

    def _prune(self, seq: int) -> None:
        """Drop the snapshots and WAL segments older than ``seq``."""
        for entry in self.directory.iterdir():
            if entry.name.startswith(_SNAPSHOT_PREFIX):
                snap_seq = _parse_seq(entry.name[len(_SNAPSHOT_PREFIX):])
                if snap_seq is not None and snap_seq < seq:
                    shutil.rmtree(entry)
        for segment_seq, path in self._segments():
            if segment_seq < seq:
                path.unlink()

    # ------------------------------------------------------------------
    # meta.json
    # ------------------------------------------------------------------

    def _read_meta(self) -> dict:
        if self._meta is None:
            path = self.directory / _META
            if not path.is_file():
                raise ValueError(
                    "state directory %s has no %s; expected a directory "
                    "initialised by DeltaLog.initialise (or `repro serve`)"
                    % (self.directory, _META)
                )
            with open(path) as fh:
                meta = json.load(fh)
            if meta.get("format") != _FORMAT:
                raise ValueError(
                    "state directory %s has log format %r; this build reads "
                    "format %r" % (self.directory, meta.get("format"), _FORMAT)
                )
            self._meta = meta
        return dict(self._meta)

    def _write_meta(self, meta: dict) -> None:
        path = self.directory / _META
        tmp = self.directory / (_META + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename is what commits the new snapshot_seq — persist it.
        _fsync_path(self.directory)
        self._meta = meta
