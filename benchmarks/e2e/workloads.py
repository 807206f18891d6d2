"""The four workloads of the end-to-end benchmark.

Each workload function takes a :class:`Context` and returns a
:class:`Result`.  All of them share one shape:

* **set-up** is repeated and timed (``setup_s`` samples);
* the **measured phase** runs *windows* of seed-fixed work -- a window
  starts the program in a fresh process, so neither heaps nor plan and
  intern caches carry over -- until ``ctx.seconds`` are spent; every
  operation of a window contributes one ``(kind, seconds)`` sample;
* every output is checked against ``reference.py``; a mismatch, a
  refusal, a crash or a timeout is a *failed* operation;
* a traced run alternates traced and untraced windows.  The traced ones
  start the program through ``child.py`` with the wrappers of
  ``layers.py`` installed; their spans become the per-layer ledger and
  the untraced ones give the tracing overhead.

The load generator is this one process; it uses no threads and at most
two connections.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
import inputs
import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PROGRAMS = HERE / "programs"
CHILD = str(HERE / "child.py")
REFERENCE = str(HERE / "speed_reference.py")

NOMINAL_S = 0.55
"""Wall time of ``speed_reference.py`` on the sandbox the first baseline
was taken on, in its usual regime.  Timings are divided by
``reference wall / NOMINAL_S``; the constant only fixes the scale."""

OP_TIMEOUT = 60.0
"""Seconds after which an operation counts as failed."""

CASES = {
    # case: (program, EDB relation, --semantics)
    "tc": ("tc.dl", "E", "seminaive"),
    "notc": ("notc.dl", "E", "stratified"),
    "distance": ("distance.dl", "E", "inflationary"),
    "path": ("win.dl", "Move", "wellfounded"),
    "random": ("win.dl", "Move", "wellfounded"),
}

clock = time.perf_counter


class Context:
    """What one run of one workload is given."""

    def __init__(self, seed, seconds, trace, smoke, workdir, trace_out=None):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.trace_out = trace_out
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.servers = []  # every Server started, so none is left running
        self.factors = []  # every machine_factor() of the run
        self._dirs = 0

    def fresh_dir(self, label):
        self._dirs += 1
        path = self.workdir / ("%s-%d" % (label, self._dirs))
        path.mkdir(parents=True)
        return path

    def sizes(self, case):
        return inputs.sizes(case, self.smoke)

    def machine_factor(self):
        """How slow the machine is right now: 1.0 is nominal, 2.0 half speed."""
        out = self.workdir / "speed_reference.out"
        wall, _rss, code = run_process([sys.executable, REFERENCE], self.env, out)
        if code != 0:
            raise RuntimeError("speed reference failed: %s" % stderr_tail(out))
        self.factors.append(wall / NOMINAL_S)
        return self.factors[-1]


class Result:
    """What one run of one workload measured."""

    def __init__(self):
        # Timings are [kind, seconds, machine factor]; the factor is filled
        # in by scale_since() once the reference job after them has run.
        self.samples = []  # untraced operations
        self.traced_samples = []  # operations of traced windows
        self.setup_samples = []  # kind is "setup"
        self.wall_s = None  # normalised wall of the operations, if they overlap
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures = []  # messages; len() is the failed count
        self.extra = {}  # workload-specific end-to-end numbers
        self.layer_windows = []  # per traced window: {metric: value}
        self.layer_extra = {}  # per-layer numbers that are not span sums
        self.raw = {}  # anything worth keeping in --json-out

    def fail(self, message):
        self.failures.append(message)
        print("FAILED: %s" % message, file=sys.stderr)

    def marks(self):
        return len(self.samples), len(self.traced_samples), len(self.setup_samples)

    def scale_since(self, marks, factor):
        """Give every timing recorded since ``marks`` its machine factor."""
        for timings, mark in zip((self.samples, self.traced_samples, self.setup_samples), marks):
            for timing in timings[mark:]:
                timing[2] = factor

    def saw_rss(self, rss_mb):
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def peak_rss_mb(pid):
    """``VmHWM`` of a live process in MiB (0 once it is gone).

    Not ``ru_maxrss``: a spawned child inherits the high-water mark of
    the harness, which holds parsed outputs and oracles and is bigger
    than most programs it measures.
    """
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_process(argv, env, stdout_path, timeout=OP_TIMEOUT):
    """Run ``argv`` to completion; ``(wall_s, rss_mb, status)``.

    The clock stops when the process's pidfd becomes readable, that is
    when it exits; until then its ``VmHWM`` is sampled every 20 ms.
    ``status`` is the exit code, or ``None`` after a timeout (the child
    is killed).  stderr goes to ``<stdout_path>.err``.
    """
    with open(stdout_path, "wb") as out, open("%s.err" % stdout_path, "wb") as err:
        started = clock()
        env = dict(env, E2E_SPAWN_CLOCK=repr(started))
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        rss = 0.0
        timed_out = False
        try:
            while not select.select([pidfd], [], [], 0.02)[0]:
                rss = max(rss, peak_rss_mb(proc.pid))
                if clock() - started > timeout:
                    timed_out = True
                    proc.kill()
                    break
            wall = clock() - started
        finally:
            os.close(pidfd)
        code = proc.wait()
    return wall, rss, None if timed_out else code


def stderr_tail(stdout_path):
    try:
        text = Path("%s.err" % stdout_path).read_text(errors="replace")
    except OSError:
        return ""
    return text.strip().splitlines()[-1] if text.strip() else ""


def run_windows(ctx, result, run_window, before=None):
    """Call ``run_window(index, traced)`` until the time budget is spent.

    The speed reference runs before the first window and after every
    window; a window's timings get the mean of the two factors around
    it.  A window is started only if the longest one so far still fits,
    so a run does not overshoot ``ctx.seconds`` by a window.  There is
    always one window; a traced run has at least one of each kind, the
    first one traced.  Returns the number of windows.
    """
    started = clock()
    longest = 0.0
    index = 0
    before = before or ctx.machine_factor()
    while True:
        t0 = clock()
        marks = result.marks()
        run_window(index, ctx.trace and index % 2 == 0)
        after = ctx.machine_factor()
        result.scale_since(marks, (before + after) / 2)
        before = after
        longest = max(longest, clock() - t0)
        index += 1
        if index >= (2 if ctx.trace else 1) and clock() - started + longest > ctx.seconds:
            return index


# ----------------------------------------------------------------------
# Reading what the program prints
# ----------------------------------------------------------------------


def parse_run_output(text):
    """``{(section, predicate): set of tuples}`` of ``repro run`` output.

    ``section`` is ``""`` for two-valued engines and ``"TRUE"`` /
    ``"UNDEFINED"`` for the well-founded model.  Raises ``ValueError`` on
    anything unexpected, including a relation whose printed count is not
    the number of rows that follow.
    """
    relations = {}
    declared = {}
    section = ""
    current = None
    for line in text.splitlines():
        if line.startswith("  "):
            if current is None:
                raise ValueError("row before any relation header: %r" % line)
            relations[current].add(tuple(int(v) for v in line[2:].split(", ")))
        elif line.endswith("tuples):"):
            head, count = line[: -len(" tuples):")].rsplit(" (", 1)
            current = (section, head.split("/")[0])
            relations[current] = set()
            declared[current] = int(count)
        elif line in ("TRUE:", "UNDEFINED:"):
            section = line[:-1]
        elif line.startswith("engine=") or line.startswith("well-founded model"):
            continue
        else:
            raise ValueError("unexpected output line: %r" % line)
    for key, tuples in relations.items():
        if declared[key] != len(tuples):
            raise ValueError(
                "%s/%s declares %d tuples, prints %d distinct"
                % (key[0], key[1], declared[key], len(tuples))
            )
    return {key: tuples for key, tuples in relations.items() if tuples}


def expected_output(case, nodes, edges):
    """What ``repro run`` must print for ``case``, from the oracles."""
    if case == "tc":
        expected = {("", "TC"): reference.transitive_closure(nodes, edges)}
    elif case == "notc":
        expected = {
            ("", "TC"): reference.transitive_closure(nodes, edges),
            ("", "NOTC"): reference.tc_complement(nodes, edges),
        }
    elif case == "distance":
        closure = reference.transitive_closure(nodes, edges)
        expected = {
            ("", "S1"): closure,
            ("", "S2"): closure,
            ("", "S3"): reference.distance_query(nodes, edges),
        }
    else:
        won, _lost, drawn, _depth = reference.win_move(nodes, edges)
        expected = {
            ("TRUE", "WIN"): {(x,) for x in won},
            ("UNDEFINED", "WIN"): {(x,) for x in drawn},
        }
    return {key: tuples for key, tuples in expected.items() if tuples}


def active_nodes(edges):
    """The universe ``repro`` infers from a CSV database: values seen."""
    return sorted({x for edge in edges for x in edge})


# ----------------------------------------------------------------------
# Layer ledger of one traced process
# ----------------------------------------------------------------------


def ledger(span_file, keep=None):
    """``{span name: {calls, total, self, note}}`` of one span file."""
    names, spans = layers.load(span_file)
    return layers.summarise(names, spans, keep)


def add_ledgers(total, part):
    for name, row in part.items():
        into = total.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "note": 0})
        for key, value in row.items():
            into[key] += value
    return total


def trace_overhead(result):
    """Traced over untraced cost: sum over kinds of the mean normalised
    latency, so windows with different operations still compare."""
    def cost(timings):
        return sum(statistics.fmean(values) for values in catalog.by_kind(timings).values())

    return cost(result.traced_samples) / cost(result.samples)


# ----------------------------------------------------------------------
# batch-relational and batch-wellfounded
# ----------------------------------------------------------------------


def case_edges(ctx, case, params=None):
    """The edge set of a batch case for this seed."""
    params = params or ctx.sizes(case)
    if case in ("distance", "path"):
        return set(inputs.path_edges(params["n"]))
    return inputs.conditioned_gnm(inputs.stream(ctx.seed, case), params)


def run_argv(case, db_dir, traced_spans=None):
    program, _relation, semantics = CASES[case]
    tail = ["run", str(PROGRAMS / program), "--db", str(db_dir), "--semantics", semantics]
    if traced_spans is None:
        return [sys.executable, "-m", "repro"] + tail
    return [sys.executable, CHILD, "cli", "--spans", str(traced_spans), "--"] + tail


def batch(ctx, cases):
    """Fresh ``python -m repro run`` processes over the given cases."""
    result = Result()
    graphs = {case: case_edges(ctx, case) for case in cases}
    expected = {}

    # Set-up: write the CSV databases, then one `repro run` of the first
    # case's program on a one-edge database -- interpreter start, imports,
    # parse and plan: the fixed cost every case below pays again.
    first = cases[0]
    before = ctx.machine_factor()
    for _ in range(1 if ctx.smoke else 3):
        t0 = clock()
        dbs = {}
        for case in cases:
            dbs[case] = ctx.fresh_dir(case)
            inputs.write_relation(dbs[case], CASES[case][1], graphs[case])
        tiny = ctx.fresh_dir("tiny")
        inputs.write_relation(tiny, CASES[first][1], [(1, 2)])
        t1 = clock()
        wall, rss, code = run_process(run_argv(first, tiny), ctx.env, tiny / "out.txt")
        result.setup_samples.append(["setup", t1 - t0 + wall, None])
        result.raw.setdefault("startup_s", []).append(wall)
        if code != 0:
            result.fail("start-up probe exited with %r: %s" % (code, stderr_tail(tiny / "out.txt")))
    after = ctx.machine_factor()
    result.scale_since((0, 0, 0), (before + after) / 2)

    verified = {}  # sha256 of an output already compared with the oracle
    stdout_bytes = {}
    result_tuples = {}
    shares = []

    def run_case(case, traced, window, db_dir=None, check=True):
        db_dir = db_dir or dbs[case]
        out = ctx.workdir / ("%s-%d.out" % (case, window))
        spans = ctx.workdir / ("%s-%d.spans" % (case, window)) if traced else None
        wall, rss, code = run_process(run_argv(case, db_dir, spans), ctx.env, out)
        result.saw_rss(rss)
        if not check:
            return wall, spans
        result.attempted += 1
        (result.traced_samples if traced else result.samples).append([case, wall, None])
        if code != 0:
            what = "timed out" if code is None else "exited with %d" % code
            result.fail("%s %s: %s" % (case, what, stderr_tail(out)))
            return wall, None
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in verified:
            if case not in expected:
                expected[case] = expected_output(case, active_nodes(graphs[case]), graphs[case])
            try:
                printed = parse_run_output(data.decode())
                verified[digest] = printed == expected[case]
            except ValueError as exc:
                print("unreadable output of %s: %s" % (case, exc), file=sys.stderr)
                verified[digest] = False
            if verified[digest]:
                stdout_bytes[case] = len(data)
                result_tuples[case] = sum(len(t) for t in printed.values())
        if not verified[digest]:
            result.fail("%s printed a result that differs from the oracle" % case)
        return wall, spans

    def window(index, traced):
        walls = []
        total = {}
        for case in cases:
            wall, spans = run_case(case, traced, index)
            walls.append(wall)
            if spans is not None and spans.exists():
                part = ledger(spans)
                add_ledgers(total, part)
                engine = part.get("core.semantics.eval", {})
                for key, field in (("eval_s", "total"), ("rounds", "note")):
                    name = "core.semantics.%s.%s" % (key, case)
                    result.layer_extra.setdefault(name, []).append(engine.get(field, 0))
                if ctx.trace_out:
                    shutil.copy(spans, "%s.%s.json" % (ctx.trace_out, case))
        result.raw.setdefault("window_wall_s", []).append(sum(walls))
        if traced:
            result.layer_windows.append(total)
            shares.append(sum(row["self"] for row in total.values()) / sum(walls))

    result.raw["windows"] = run_windows(ctx, result, window, before=after)

    if ctx.trace:
        extra = result.layer_extra
        extra["cli.startup_s"] = statistics.median(result.raw["startup_s"])
        extra["cli.stdout_bytes"] = sum(stdout_bytes.values())
        for case in cases:
            extra["core.semantics.result_tuples." + case] = result_tuples.get(case, 0)
            for key in ("eval_s", "rounds"):
                name = "core.semantics.%s.%s" % (key, case)
                extra[name] = statistics.median(extra[name])
        extra["obs.trace_overhead"] = trace_overhead(result)
        extra["obs.attributed_share"] = statistics.median(shares)
        scaled = "tc" if "tc" in cases else "path"
        extra["core.semantics.scale_exp." + scaled] = scaling_exponent(
            ctx, scaled, extra["core.semantics.eval_s." + scaled], run_case
        )
        if "path" in cases:
            extra["parallel.speedup_w2.path"] = parallel_speedup(ctx, result)
    return result


def scaling_exponent(ctx, case, full_time, run_case):
    """Log-log slope of engine time at n/4, n/2 and n (informational)."""
    full = ctx.sizes(case)
    points = [(full["n"], full_time)]
    for divisor in (2, 4):
        params = {"n": max(2, full["n"] // divisor)}
        if "m" in full:
            params["m"] = max(1, full["m"] // divisor)
        db_dir = ctx.fresh_dir("%s-over-%d" % (case, divisor))
        inputs.write_relation(db_dir, CASES[case][1], case_edges(ctx, case, params))
        _wall, spans = run_case(case, True, -divisor, db_dir=db_dir, check=False)
        engine = ledger(spans).get("core.semantics.eval", {}) if spans.exists() else {}
        points.append((params["n"], engine.get("total", 0.0)))
    if any(t <= 0 for _n, t in points):
        return 0.0
    xs = [math.log(n) for n, _t in points]
    ys = [math.log(t) for _n, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def parallel_speedup(ctx, result):
    """Sequential over ``parallel=2`` engine time on the path at n/2.

    Half size, because the sharded engine is about twice as slow as the
    sequential one and the full path would double the traced run.
    """
    n = max(2, ctx.sizes("path")["n"] // 2)
    db_dir = ctx.fresh_dir("path-parallel")
    inputs.write_relation(db_dir, "Move", inputs.path_edges(n))
    argv = [sys.executable, CHILD, "parallel", "--program", str(PROGRAMS / "win.dl"), "--db", str(db_dir)]
    out = db_dir / "out.json"
    _wall, _rss, code = run_process(argv, ctx.env, out, timeout=120)
    if code != 0:
        result.fail("parallel probe failed: %s" % stderr_tail(out))
        return 0.0
    times = json.loads(out.read_text())
    return times["sequential_s"] / times["parallel2_s"]


def batch_relational(ctx):
    return batch(ctx, ["tc", "notc", "distance"])


def batch_wellfounded(ctx):
    return batch(ctx, ["path", "random"])


# ----------------------------------------------------------------------
# maintain-stream
# ----------------------------------------------------------------------


def maintain_stream(ctx):
    """Single-edge updates of a materialized ACYC view, window by window.

    Every window is a fresh ``child.py maintain`` process on the same
    initial database; it builds the view (one ``setup_s`` sample) and
    applies the window's updates, strictly alternating a fresh random
    edge in and a random present edge out.  Updates differ from window to
    window; the first window's are fixed by the seed alone.
    """
    result = Result()
    params = ctx.sizes("maintain")
    rng = inputs.stream(ctx.seed, "maintain")
    initial = inputs.conditioned_gnm(rng, params)
    nodes = active_nodes(initial)
    db_dir = ctx.fresh_dir("maintain-db")
    inputs.write_relation(db_dir, "E", initial)
    shares = []
    recompute = []

    def window(index, traced):
        edges = set(initial)
        ops = list(inputs.update_stream(rng, nodes, edges, params["window"]))
        work = ctx.fresh_dir("maintain-window")
        (work / "ops.json").write_text(json.dumps(ops))
        argv = [
            sys.executable, CHILD, "maintain",
            "--program", str(PROGRAMS / "acyc.dl"), "--db", str(db_dir),
            "--ops", str(work / "ops.json"), "--out", str(work / "out.json"),
        ]
        spans = work / "spans.json"
        if traced:
            argv += ["--spans", str(spans)]
        timeout = OP_TIMEOUT * len(ops)
        wall, rss, code = run_process(argv, ctx.env, work / "stdout.txt", timeout)
        result.saw_rss(rss)
        result.attempted += len(ops)
        if code != 0:
            for _ in ops:
                result.fail("maintain window %d exited with %r: %s" % (index, code, stderr_tail(work / "stdout.txt")))
            return
        out = json.loads((work / "out.json").read_text())
        result.setup_samples.append(["setup", out["setup_s"], None])
        into = result.traced_samples if traced else result.samples
        into.extend([kind, latency, None] for (kind, _edge), latency in zip(ops, out["latencies"]))
        result.raw.setdefault("recomputes", []).append(out["recomputes"])
        result.raw.setdefault("window_wall_s", []).append(wall)
        served = {name: {tuple(t) for t in out[name]} for name in ("E", "TC", "ACYC")}
        truth = {
            "E": edges,
            "TC": reference.transitive_closure(nodes, edges),
            "ACYC": reference.acyc(nodes, edges),
        }
        wrong = [name for name in truth if served[name] != truth[name]]
        if wrong:
            # The view is one object: a wrong final state spoils every
            # update of the window.
            for _ in ops:
                result.fail("maintain window %d: %s differ from the oracle" % (index, ", ".join(wrong)))
        if traced and spans.exists():
            total = ledger(spans)
            result.layer_windows.append(total)
            shares.append(sum(row["self"] for row in total.values()) / (out["setup_s"] + sum(out["latencies"])))
            recompute.append(out["recompute_s"])
            if ctx.trace_out:
                shutil.copy(spans, "%s.maintain.json" % ctx.trace_out)

    result.raw["windows"] = run_windows(ctx, result, window)
    if ctx.trace and shares:
        inserts = [t[1] for t in result.traced_samples if t[0] == "insert"]
        extra = result.layer_extra
        extra["materialize.recompute_s"] = statistics.median(recompute)
        extra["materialize.vs_recompute"] = extra["materialize.recompute_s"] / statistics.median(inserts)
        extra["materialize.recomputes"] = sum(result.raw["recomputes"])
        extra["obs.trace_overhead"] = trace_overhead(result)
        extra["obs.attributed_share"] = statistics.median(shares)
    return result


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

VIEW = "default"


class Server:
    """A ``repro serve`` subprocess."""

    def __init__(self, ctx, argv_tail, spans=None):
        self.spans = spans
        if spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, CHILD, "cli", "--spans", str(spans), "--"]
        argv += ["serve"] + argv_tail + [
            "--semantics", "wellfounded", "--tick-ms", "0", "--snapshot-every", "64",
            "--log-level", "warning", "--port", "0",
        ]
        self.log = open(ctx.fresh_dir("server") / "stderr.txt", "wb")
        self.started = clock()
        env = dict(ctx.env, E2E_SPAWN_CLOCK=repr(self.started))
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=self.log)
        ctx.servers.append(self)
        self.port = None
        self.ready_s = None

    def wait_ready(self):
        """Block until the ``serving on`` line; returns seconds since spawn."""
        fd = self.proc.stdout.fileno()
        seen = b""
        while True:
            left = self.started + OP_TIMEOUT - clock()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.kill()
                raise RuntimeError("server not serving after %.0f s" % OP_TIMEOUT)
            chunk = os.read(fd, 65536)
            if not chunk:
                self.reap()
                raise RuntimeError("server exited before serving")
            seen += chunk
            for line in seen.decode(errors="replace").splitlines():
                if line.startswith("serving on "):
                    self.ready_s = clock() - self.started
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    return self.ready_s

    def flush_spans(self):
        """Ask a traced server for its spans (it is about to be killed)."""
        before = self.spans.stat().st_mtime_ns if self.spans.exists() else 0
        self.proc.send_signal(signal.SIGUSR1)
        deadline = clock() + 10
        while clock() < deadline:
            if self.spans.exists() and self.spans.stat().st_mtime_ns != before:
                return
            time.sleep(0.01)

    def kill(self):
        self.proc.kill()
        self.reap()

    def reap(self, timeout=OP_TIMEOUT):
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Connection:
    """One closed-loop client connection (newline-delimited JSON)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.bytes_out = 0
        self.bytes_in = 0

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=2 ** 26)
        return cls(reader, writer)

    async def call(self, request):
        """Send one request; ``(response, seconds)``; the clock stops when
        the whole response line has arrived, before it is parsed."""
        data = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        t0 = clock()
        self.writer.write(data)
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), OP_TIMEOUT)
        elapsed = clock() - t0
        self.bytes_out += len(data)
        self.bytes_in += len(line)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), elapsed

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def delta_request(kind, edge):
    side = "inserts" if kind == "insert" else "deletes"
    return {"op": "delta", "view": VIEW, side: {"Move": [list(edge)]}}


class Client:
    """One closed-loop connection: 50 % queries, 25 % inserts, 25 % deletes.

    ``edges`` is this connection's share of the database (``u mod 2 ==
    index``); only it is touched, so the two connections commute and the
    final database does not depend on how they interleave.
    """

    def __init__(self, conn, index, rng, nodes, edges, result):
        self.conn = conn
        self.rng = rng
        self.result = result
        self.updates = inputs.update_stream(rng, nodes, edges, 10 ** 9, owner=(index, 2))
        self.queries = 0
        self.timings = []
        self.broken = False

    async def run_until(self, deadline):
        result = self.result
        while clock() < deadline and not self.broken:
            result.attempted += 1
            if self.rng.random() < 0.5:
                self.queries += 1
                undefined = self.queries % 4 == 0
                request = {"op": "query", "view": VIEW, "predicate": "WIN", "undefined": undefined}
                kind = "query"
            else:
                update_kind, edge = next(self.updates)
                request = delta_request(update_kind, edge)
                kind = "delta"
            try:
                response, elapsed = await self.conn.call(request)
            except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
                result.fail("%s request failed: %r" % (kind, exc))
                self.broken = True
                return
            self.timings.append([kind, elapsed, None])
            if not response.get("ok"):
                result.fail("%s refused: %s" % (kind, response.get("error")))
            elif kind == "delta":
                moved = response["changeset"]["inserted" if update_kind == "insert" else "deleted"]
                if list(edge) not in moved.get("Move", []):
                    result.fail("delta ack does not report %s of %r" % (update_kind, edge))


async def check_served(conn, nodes, edges, result, when):
    """Compare served ``Move`` / ``WIN`` / ``WIN@undef`` with the oracle."""
    won, _lost, drawn, _depth = reference.win_move(nodes, edges)
    wanted = [
        ("Move", False, set(edges)),
        ("WIN", False, {(x,) for x in won}),
        ("WIN", True, {(x,) for x in drawn}),
    ]
    for predicate, undefined, truth in wanted:
        result.attempted += 1
        request = {"op": "query", "view": VIEW, "predicate": predicate, "undefined": undefined}
        try:
            response, _elapsed = await conn.call(request)
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
            result.fail("check query %s %s failed: %r" % (predicate, when, exc))
            continue
        served = {tuple(t) for t in response.get("tuples", [])}
        if not response.get("ok") or served != truth:
            label = predicate + ("@undef" if undefined else "")
            result.fail("served %s %s differs from the oracle" % (label, when))


LOAD_SLICES = 4
"""The load phase pauses this often for the speed reference (the server
idles meanwhile), so a slice's timings carry the factor of their own
seven seconds and not of the whole phase."""


async def load_phase(ctx, server, streams, nodes, shares, seconds, result):
    """Two closed-loop connections for ``seconds``; ``(conn, timings, facts)``."""
    conns = [await Connection.open(server.port) for _ in range(2)]
    clients = [Client(conn, i, streams[i], nodes, shares[i], result) for i, conn in enumerate(conns)]
    facts = {"start": clock(), "busy_s": 0.0, "wall_s": 0.0}
    before = ctx.factors[-1]
    for _ in range(LOAD_SLICES):
        marks = [len(client.timings) for client in clients]
        t0 = clock()
        # The reference after the slice comes out of the slice's budget.
        deadline = t0 + max(0.2, seconds / LOAD_SLICES - NOMINAL_S)
        await asyncio.gather(*(client.run_until(deadline) for client in clients))
        busy = clock() - t0
        # Blocks the event loop; nothing else is scheduled on it.
        after = ctx.machine_factor()
        factor = (before + after) / 2
        before = after
        for client, mark in zip(clients, marks):
            for timing in client.timings[mark:]:
                timing[2] = factor
        facts["busy_s"] += busy
        facts["wall_s"] += busy / factor
    facts["end"] = clock()
    facts["bytes_in"] = sum(c.bytes_out for c in conns)  # the server's view
    facts["bytes_out"] = sum(c.bytes_in for c in conns)
    stats, _ = await conns[0].call({"op": "stats", "view": VIEW})
    facts["commits"] = stats["stats"]["commits"]
    facts["submitted"] = stats["stats"]["submitted"]
    await check_served(conns[0], nodes, shares[0] | shares[1], result, "after the load phase")
    for conn in conns[1:]:
        await conn.close()
    return conns[0], clients[0].timings + clients[1].timings, facts


async def steer_to_mid_snapshot(conn, rng, nodes, share, result):
    """Single-connection deltas until 48 commits sit in the WAL."""
    updates = inputs.update_stream(rng, nodes, share, 10 ** 9, owner=(0, 2))
    for _ in range(130):
        stats, _ = await conn.call({"op": "stats", "view": VIEW})
        if stats["stats"]["seq"] - stats["stats"]["snapshot_seq"] == 48:
            return True
        kind, edge = next(updates)
        result.attempted += 1
        response, _ = await conn.call(delta_request(kind, edge))
        if not response.get("ok"):
            result.fail("steering delta refused: %s" % response.get("error"))
    return False


async def stop_gracefully(server):
    conn = await Connection.open(server.port)
    await conn.call({"op": "shutdown"})
    await conn.close()


def serve_mixed(ctx):
    """Mixed reads and writes against ``repro serve``; kill; recover."""
    result = Result()
    params = ctx.sizes("serve")
    rng = inputs.stream(ctx.seed, "serve")
    initial = inputs.conditioned_gnm(rng, params)
    nodes = active_nodes(initial)
    db_dir = ctx.fresh_dir("serve-db")
    inputs.write_relation(db_dir, "Move", initial)
    program = str(PROGRAMS / "win.dl")

    def spawn(traced, state=None, fresh=True):
        state = state or ctx.fresh_dir("state")
        spans = ctx.fresh_dir("spans") / "spans.json" if traced else None
        tail = ([program, "--db", str(db_dir)] if fresh else []) + ["--state", str(state)]
        server = Server(ctx, tail, spans)
        server.state = state
        server.wait_ready()
        return server

    # Set-up: spawn -> `serving on`, several times; the last one is kept
    # for the measured phase.  A traced run starts its traced server here.
    f_start = ctx.machine_factor()
    server = None
    for attempt in range(1 if ctx.smoke else 3):
        if server is not None:
            asyncio.run(stop_gracefully(server))
            server.reap()
        server = spawn(False)
        result.setup_samples.append(["setup", server.ready_s, None])
    f_ready = ctx.machine_factor()
    result.scale_since((0, 0, 0), (f_start + f_ready) / 2)
    if ctx.trace:
        asyncio.run(stop_gracefully(server))
        server.reap()
        server = spawn(True)

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds

    def load(server, label, steer):
        """One load phase against ``server``; ``(timings, facts)``."""
        streams = [inputs.stream(ctx.seed, "%s-%d" % (label, i)) for i in range(2)]

        async def phase():
            conn, timings, facts = await load_phase(ctx, server, streams, nodes, shares, seconds, result)
            if steer and not await steer_to_mid_snapshot(conn, streams[0], nodes, shares[0], result):
                result.fail("could not steer the WAL to 48 entries")
            await conn.close()
            return timings, facts

        return asyncio.run(phase())

    shares = [{e for e in initial if e[0] % 2 == i} for i in range(2)]
    main_samples, facts = load(server, "serve-conn", steer=True)
    result.saw_rss(peak_rss_mb(server.proc.pid))
    if server.spans is not None:
        server.flush_spans()
    server.kill()  # SIGKILL: no final snapshot, the WAL must carry the tail

    recovered = spawn(ctx.trace, state=server.state, fresh=False)

    async def after_recovery():
        conn = await Connection.open(recovered.port)
        await check_served(conn, nodes, shares[0] | shares[1], result, "after kill and recovery")
        result.saw_rss(peak_rss_mb(recovered.proc.pid))
        await conn.call({"op": "shutdown"})
        await conn.close()

    asyncio.run(after_recovery())
    recovered.reap()
    before = ctx.factors[-1]
    result.extra["recovery_s"] = recovered.ready_s / ((before + ctx.machine_factor()) / 2)

    result.raw["requests"] = len(main_samples)
    result.raw["commits"] = facts["commits"]
    if not ctx.trace:
        result.samples = main_samples
        result.wall_s = facts["wall_s"]
        return result

    # Traced run: the phase above was the traced half.  The other half is
    # the same load against the shipped server, for the overhead ratio.
    result.traced_samples = main_samples
    plain = spawn(False)
    shares = [{e for e in initial if e[0] % 2 == i} for i in range(2)]
    result.samples, plain_facts = load(plain, "serve-plain", steer=False)
    result.wall_s = plain_facts["wall_s"]
    asyncio.run(stop_gracefully(plain))
    plain.reap()

    def in_load(span):
        return facts["start"] <= span[1] <= facts["end"]

    total = ledger(server.spans, in_load)
    scale = 1000.0 / len(main_samples)  # the ledger is per 1000 requests
    for row in total.values():
        for key in row:
            row[key] *= scale
    result.layer_windows.append(total)
    deltas = sum(1 for timing in main_samples if timing[0] == "delta")
    extra = result.layer_extra
    wal_bytes = sum(total.get(n, {}).get("note", 0) for n in ("server.wal.append", "server.wal.snapshot"))
    extra["server.wal.bytes_per_delta"] = wal_bytes / scale / max(1, deltas)
    extra["server.net.bytes_in"] = facts["bytes_in"] * scale
    extra["server.net.bytes_out"] = facts["bytes_out"] * scale
    extra["server.service.commits"] = facts["commits"] * scale
    extra["server.service.batch_mean"] = facts["submitted"] / max(1, facts["commits"])
    replay = ledger(recovered.spans).get("server.wal.recover", {})
    extra["server.wal.recover_s"] = replay.get("total", 0.0)
    extra["server.wal.replayed"] = replay.get("note", 0)
    extra["obs.trace_overhead"] = trace_overhead(result)
    busy = sum(row["self"] for row in total.values()) / scale
    # Share of the load slices' wall time the (single-threaded) server
    # spent inside a named wrapper; the rest is unnamed code and idling.
    extra["obs.attributed_share"] = busy / facts["busy_s"]
    if ctx.trace_out:
        shutil.copy(server.spans, "%s.serve.json" % ctx.trace_out)
        shutil.copy(recovered.spans, "%s.recovery.json" % ctx.trace_out)
    return result


WORKLOADS = {
    "batch-relational": batch_relational,
    "batch-wellfounded": batch_wellfounded,
    "maintain-stream": maintain_stream,
    "serve-mixed": serve_mixed,
}
