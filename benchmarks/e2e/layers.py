"""Harness-side tracing: timing wrappers around the program's layers.

The traced run of the benchmark starts the program through
``child.py``, which calls :func:`install` before handing control to the
shipped entry point.  :func:`install` wraps a fixed table of callables
(:data:`TARGETS`) and rebinds every name in the loaded ``repro`` modules
that holds one of them -- engines import several by value
(``from ..planning import execute_plan``), and ``cli._ENGINES`` keeps
them in a dict -- so nothing under ``src/`` is edited and no number
depends on a ``repro.obs`` span name.

Every call records one span ``[name, start, end, parent, op, note]`` in
memory.  ``parent`` is the enclosing synchronous span (a call stack, so
spans nest properly); spans of coroutines (``ViewServer.submit``) are
recorded as waits: they have no children and take no part in self-time
attribution.  ``op`` is the operation the span served (update index,
request count).  ``note`` is one number read off the call's result
(rounds, rows, bytes).  Spans are written out when the process ends.

:func:`summarise` is the reading side: per span name the call count,
the inclusive time of outermost calls, the self time (duration minus
the time covered by child spans) and the sum of notes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

SYNC, ASYNC, CLASSMETHOD = "sync", "async", "classmethod"


class Recorder:
    """The spans of one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.stack = []
        self.op = 0

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, note=None):
        """A synchronous timing wrapper around ``fn``."""
        name_id = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(result, *args)
            return result

        return wrapper

    def wrap_async(self, name, fn):
        """A wait span around a coroutine function (no children)."""
        name_id = self.name_id(name)
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            self.op += 1
            span = [name_id, clock(), 0.0, -2, self.op, None]
            spans.append(span)
            try:
                return await fn(*args, **kwargs)
            finally:
                span[2] = clock()

        return wrapper

    def dump(self, path):
        """Write the spans recorded so far (atomically) to ``path``."""
        tmp = "%s.tmp" % path
        with open(tmp, "w") as f:
            json.dump({"names": self.names, "spans": self.spans}, f)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Notes: one number read off a call's result
# ----------------------------------------------------------------------


def _rounds(result, *_args):
    return getattr(result, "rounds", None)


def _length(result, *_args):
    return len(result)


def _loaded_rows(result, *_args):
    return sum(len(result[name]) for name in result.relation_names())


def _replayed(result, *_args):
    return len(result.entries)


def _tree_bytes(directory):
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _wal_entry_bytes(_result, log, seq, _delta):
    return _tree_bytes(os.path.join(str(log.directory), "wal", "%08d" % seq))


def _snapshot_bytes(_result, log, seq, _db):
    return _tree_bytes(os.path.join(str(log.directory), "snapshot-%08d" % seq))


def _json_bytes(result, *args):
    # dumps returns the text, loads receives it
    return len(result) if isinstance(result, str) else len(args[0])


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

TARGETS = [
    # (span name, defining module, attribute path, kind, note)
    ("core.parser.parse", "repro.core.parser", "parse_program", SYNC, None),
    ("analysis.lint", "repro.analysis.lint", "lint_source", SYNC, None),
    ("core.validation.check", "repro.core.validation", "check_database", SYNC, None),
    ("db.csvio.load", "repro.db.csvio", "load_database", SYNC, _loaded_rows),
    ("db.csvio.load", "repro.db.csvio", "load_delta", SYNC, _length),
    ("db.csvio.dump", "repro.db.csvio", "dump_delta", SYNC, None),
    ("db.csvio.dump", "repro.db.csvio", "dump_database", SYNC, None),
    ("core.planning.compile", "repro.core.planning.compiler", "compile_rule", SYNC, None),
    ("core.planning.execute", "repro.core.planning.batch", "execute_plan", SYNC, None),
    ("core.planning.colexec", "repro.core.planning.colexec", "execute_plan_codes", SYNC, None),
    # The four primitives the kernel advertises ...
    ("db.kernel.primitive", "repro.db.kernel", "join_codes", SYNC, None),
    ("db.kernel.primitive", "repro.db.kernel", "antijoin_codes", SYNC, None),
    ("db.kernel.primitive", "repro.db.kernel", "semijoin_filter", SYNC, None),
    ("db.kernel.primitive", "repro.db.kernel", "complement_codes", SYNC, None),
    # ... and what the shipped executor actually calls.
    ("db.kernel.encode", "repro.db.kernel", "RelationCodes.encode", CLASSMETHOD, _length),
    ("db.kernel.decode", "repro.db.kernel", "RelationCodes.decode", SYNC, _length),
    ("db.kernel.index", "repro.db.kernel", "SortedRun.__init__", SYNC, None),
    ("db.kernel.sort", "repro.db.kernel", "sorted_unique", SYNC, None),
    ("db.kernel.sort", "repro.db.kernel", "dedup_sorted", SYNC, None),
    ("db.kernel.probe", "repro.db.kernel", "_sorted_isin", SYNC, None),
    ("core.grounding.ground", "repro.core.grounding", "ground_program", SYNC, _length),
    ("core.semantics.eval", "repro.core.semantics.naive", "naive_least_fixpoint", SYNC, _rounds),
    ("core.semantics.eval", "repro.core.semantics.seminaive", "seminaive_least_fixpoint", SYNC, _rounds),
    ("core.semantics.eval", "repro.core.semantics.inflationary", "inflationary_semantics", SYNC, _rounds),
    ("core.semantics.eval", "repro.core.semantics.stratified", "stratified_semantics", SYNC, _rounds),
    ("core.semantics.eval", "repro.core.semantics.wellfounded", "well_founded_semantics", SYNC, _rounds),
    ("materialize.init", "repro.materialize.view", "MaterializedView.__init__", SYNC, None),
    ("materialize.apply", "repro.materialize.view", "MaterializedView.apply", SYNC, _length),
    ("materialize.apply", "repro.materialize.view", "MaterializedView.apply_many", SYNC, _length),
    ("server.protocol.decode", "repro.server.protocol", "decode_delta", SYNC, None),
    ("server.protocol.encode", "repro.server.protocol", "encode_tuples", SYNC, _length),
    ("server.protocol.encode", "repro.server.protocol", "encode_changeset", SYNC, None),
    ("server.service.submit", "repro.server.service", "ViewServer.submit", ASYNC, None),
    ("server.service.query", "repro.server.service", "ViewServer.query", SYNC, None),
    ("server.service.commit", "repro.server.service", "ViewServer._commit", SYNC, None),
    ("server.wal.append", "repro.server.wal", "DeltaLog.append", SYNC, _wal_entry_bytes),
    ("server.wal.snapshot", "repro.server.wal", "DeltaLog.snapshot", SYNC, _snapshot_bytes),
    ("server.wal.recover", "repro.server.wal", "DeltaLog.recover", SYNC, _replayed),
    ("os.fsync", "os", "fsync", SYNC, None),
]

ENTRY_MODULES = {
    # What each child mode imports before patching, so that every
    # by-value binding of a target already exists and gets rebound.
    "cli": ["repro.cli"],
    "maintain": ["repro.cli", "repro.materialize"],
    "serve": [
        "repro.cli",
        "repro.materialize",
        "repro.analysis.lint",
        "repro.server.net",
        "repro.server.service",
        "repro.server.wal",
    ],
}


class _TracedJson:
    """Stand-in for the ``json`` name in ``repro.server.net``.

    The frontend parses requests and renders responses with
    ``json.loads`` / ``json.dumps``; timing them attributes the wire
    text work to ``server.net`` without touching the module's code.
    """

    def __init__(self, recorder):
        self.loads = recorder.wrap("server.net.json", json.loads, _json_bytes)
        self.dumps = recorder.wrap("server.net.json", json.dumps, _json_bytes)
        self.JSONDecodeError = json.JSONDecodeError


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, replacement):
    """Point every module-level name (or dict value) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(recorder, mode):
    """Wrap every target whose module ``mode`` loads."""
    for module_name in ENTRY_MODULES[mode]:
        importlib.import_module(module_name)
    for span_name, module_name, path, kind, note in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == CLASSMETHOD:
            wrapped = classmethod(recorder.wrap(span_name, original.__func__, note))
        elif kind == ASYNC:
            wrapped = recorder.wrap_async(span_name, original)
        else:
            wrapped = recorder.wrap(span_name, original, note)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type) and module_name != "os":
            _rebind(original, wrapped)
    net = sys.modules.get("repro.server.net")
    if net is not None:
        net.json = _TracedJson(recorder)


# ----------------------------------------------------------------------
# Reading spans
# ----------------------------------------------------------------------


def load(path):
    """``(names, spans)`` of a span file written by :meth:`Recorder.dump`."""
    with open(path) as f:
        doc = json.load(f)
    return doc["names"], doc["spans"]


def summarise(names, spans, keep=None):
    """Per span name: ``calls``, ``total``, ``self`` and ``note``.

    ``total`` and ``note`` add up the calls that are not nested inside a
    call of the same name (stratified evaluation calls the semi-naive
    engine; both are ``core.semantics.eval``).  ``self`` is duration
    minus the time covered by direct child spans.  Wait spans (parent
    ``-2``) have no self time.  ``keep`` filters
    spans (it receives the span) before anything is added up.
    """
    out = {name: {"calls": 0, "total": 0.0, "self": 0.0, "note": 0} for name in names}
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    for index, span in enumerate(spans):
        if span[2] == 0.0 or (keep is not None and not keep(span)):
            continue  # still open when the file was written, or filtered
        row = out[names[span[0]]]
        duration = span[2] - span[1]
        row["calls"] += 1
        ancestor = span[3]
        if ancestor != -2:
            row["self"] += duration - child_time[index]
            while ancestor >= 0 and spans[ancestor][0] != span[0]:
                ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total"] += duration
            row["note"] += span[5] or 0
    return out
