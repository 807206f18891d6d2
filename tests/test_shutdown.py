"""Graceful shutdown of the real server process.

SIGTERM is how supervisors stop the server; the handler must route into
the same close path as the ``shutdown`` verb, so the final snapshot is
cut and a restart recovers without replaying the whole WAL.  This runs
the actual ``repro.cli serve`` entry point in a subprocess — loop signal
handlers cannot be exercised in-process.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or os.name == "nt",
    reason="POSIX signals required",
)

_SERVING = re.compile(r"serving on ([\d.]+):(\d+)")


def _start_server(tmp_path):
    data = tmp_path / "db"
    data.mkdir()
    (data / "E.csv").write_text("0,1\n1,2\n2,3\n")
    (tmp_path / "tc.dl").write_text(
        "T(X,Y) :- E(X,Y).\nT(X,Z) :- E(X,Y), T(Y,Z).\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_repo_src()), env.get("PYTHONPATH", "")])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            str(tmp_path / "tc.dl"),
            "--db", str(data),
            "--state", str(tmp_path / "state"),
            "--name", "tc",
            "--port", "0",
            "--snapshot-every", "1000",  # only the final snapshot counts
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines = []
    for line in proc.stdout:
        lines.append(line)
        m = _SERVING.search(line)
        if m:
            return proc, m.group(1), int(m.group(2))
    proc.wait()
    raise AssertionError("server never announced its port:\n" + "".join(lines))


def _repo_src():
    return os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


async def _submit(host, port, inserts):
    from repro.server.net import Client

    client = await Client.connect(host, port)
    try:
        return await client.delta("tc", inserts=inserts)
    finally:
        await client.close()


def test_sigterm_cuts_final_snapshot_and_recovers(tmp_path):
    proc, host, port = _start_server(tmp_path)
    try:
        asyncio.run(_submit(host, port, {"E": [[3, 4]]}))
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "received SIGTERM" in out
    # graceful close cut a final snapshot at the last committed sequence
    meta = json.loads((tmp_path / "state" / "tc" / "meta.json").read_text())
    assert meta["snapshot_seq"] == 1, out
    # and nothing is left to replay: the WAL behind the snapshot was pruned
    from repro.server.wal import DeltaLog

    log = DeltaLog(tmp_path / "state" / "tc")
    assert log.recover().entries == []
    log.close()


def test_a_damaged_state_directory_is_one_error_line_and_exit_2(tmp_path):
    from repro.db.database import Database
    from repro.db.relation import Relation
    from repro.materialize.delta import Delta
    from repro.server.wal import DeltaLog

    directory = tmp_path / "state" / "tc"
    log = DeltaLog.initialise(
        directory, "tc", "T(X,Y) :- E(X,Y).", "stratified", None,
        Database({0, 1, 2}, [Relation("E", 2, [(0, 1)])]),
    )
    for seq in (1, 2):
        log.append(seq, Delta.insert("E", (seq, 0)))
    log.close()
    segment = directory / "wal" / "00000000.log"
    intact = segment.read_bytes()
    meta = directory / "meta.json"

    def serve():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_repo_src()), env.get("PYTHONPATH", "")])
        )
        return subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--state", str(tmp_path / "state"), "--name", "tc", "--port", "0",
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )

    # a flipped byte in the first (acknowledged, non-tail) record
    segment.write_bytes(intact[:20] + b"#" + intact[21:])
    done = serve()
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: WAL segment %s is corrupt at byte offset 0" % segment)
    assert len(done.stderr.splitlines()) == 1 and "recovered view" not in done.stdout
    # a log format this build does not read
    segment.write_bytes(intact)
    meta.write_text(meta.read_text().replace('"format": 2', '"format": 1'))
    done = serve()
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: state directory %s has log format 1" % directory)
    assert len(done.stderr.splitlines()) == 1
