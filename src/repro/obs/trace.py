"""The tracing half of ``repro.obs``: span trees, Chrome export, profiles.

A *span* is one timed region with a name and attributes (rows in/out,
delta sizes, kernel backend, replan events...).  Spans nest: the tracer
keeps a per-thread stack, so a span opened while another is live becomes
its child, and completed top-level spans accumulate as *roots*.  The
tree of one run is exactly the iteration structure the paper says
determines cost — which fixpoint, how many strata/rounds/alternation
layers — made inspectable:

* :func:`export_chrome` renders roots as Chrome trace-event JSON
  (``"ph": "X"`` complete events), openable in Perfetto / ``chrome://tracing``;
* :func:`aggregate` folds them into a phase-attributed time/row
  breakdown (the ``explain --profile`` output);
* spans slower than the tracer's ``slow_threshold`` are logged through
  stdlib ``logging`` (logger ``repro.obs``) as they close.

Like the metrics recorder, the tracer is a **no-op until started**:
``TRACER.span(name)`` returns the shared :data:`NULL_SPAN` while
disabled — a falsy, attribute-swallowing context manager — so
instrumented code needs no conditionals (the hottest sites still guard
on ``TRACER.enabled`` to skip even the null-span call).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

logger = logging.getLogger("repro.obs")


class Span:
    """One timed, attributed region of a trace tree."""

    __slots__ = ("name", "attrs", "start", "end", "children", "tid", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: List["Span"] = []
        self.tid = 0

    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __bool__(self) -> bool:
        return True

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.tid = threading.get_ident()
        tracer._stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # tolerate interleaved exits (generators, exceptions)
            try:
                stack.remove(self)
            except ValueError:
                pass
        if stack:
            stack[-1].children.append(self)
        else:
            with tracer._lock:
                tracer.roots.append(self)
        threshold = tracer.slow_threshold
        if threshold is not None and self.end - self.start >= threshold:
            logger.warning(
                "slow op: %s took %.4fs %s",
                self.name,
                self.end - self.start,
                self.attrs or "",
            )
        return False

    def __repr__(self) -> str:
        return "Span(%r, %.6fs, %d children)" % (
            self.name,
            self.duration,
            len(self.children),
        )


class _NullSpan:
    """The shared disabled-path span: falsy, swallows everything."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    @property
    def duration(self) -> float:
        return 0.0


NULL_SPAN = _NullSpan()


class Tracer:
    """The span factory plus the per-thread open-span stacks."""

    def __init__(self) -> None:
        self.enabled = False
        self.slow_threshold: Optional[float] = None
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any):
        """A context-managed span (the shared null span while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration marker attached to the current open span."""
        if not self.enabled:
            return
        now = time.perf_counter()
        marker = Span(self, name, attrs)
        marker.start = marker.end = now
        marker.tid = threading.get_ident()
        stack = self._stack()
        if stack:
            stack[-1].children.append(marker)
        else:
            with self._lock:
                self.roots.append(marker)

    def start(self, slow_threshold: Optional[float] = None) -> None:
        """Begin collecting spans (clears any previous roots)."""
        with self._lock:
            self.roots = []
        self.slow_threshold = slow_threshold
        self.enabled = True

    def stop(self) -> List[Span]:
        """Stop collecting; return the completed root spans."""
        self.enabled = False
        with self._lock:
            roots, self.roots = self.roots, []
        return roots


TRACER = Tracer()
"""The process-wide tracer.  Off by default; ``explain --profile`` and
the slow-op log in ``serve`` turn it on."""


def span(name: str, **attrs: Any):
    """Module-level convenience for ``TRACER.span``."""
    return TRACER.span(name, **attrs)


def synthetic_span(tracer: Tracer, name: str, duration: float, **attrs: Any):
    """Record a span for work that happened elsewhere (e.g. a worker
    process), back-dating its start so ``duration`` is preserved.  The
    span attaches to the currently open span (or the roots) like any
    other; a no-op while tracing is disabled."""
    s = tracer.span(name, **attrs)
    if s is NULL_SPAN:
        return s
    with s:
        pass
    s.start = s.end - duration
    return s


# ----------------------------------------------------------------------
# Well-formedness, export, aggregation
# ----------------------------------------------------------------------


def walk(roots: Iterable[Span]):
    """Yield ``(span, parent)`` over the whole forest, parents first."""
    stack = [(root, None) for root in roots]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        for child in node.children:
            stack.append((child, node))


def chrome_events(roots: Iterable[Span]) -> List[Dict[str, Any]]:
    """The forest as Chrome trace-event *complete* events (``ph: X``).

    Timestamps are microseconds relative to the earliest span start, so
    the trace opens at t=0 in Perfetto regardless of process uptime.
    """
    spans = [s for s, _ in walk(roots)]
    if not spans:
        return []
    epoch = min(s.start for s in spans)
    tids = {}
    events = []
    for node in sorted(spans, key=lambda s: (s.start, -s.end)):
        tid = tids.setdefault(node.tid, len(tids) + 1)
        events.append(
            {
                "name": node.name,
                "ph": "X",
                "ts": round((node.start - epoch) * 1e6, 3),
                "dur": round((node.end - node.start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in node.attrs.items()},
            }
        )
    return events


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def export_chrome(roots: Iterable[Span]) -> str:
    """Chrome trace-event JSON for the forest (Perfetto-openable)."""
    return json.dumps({"traceEvents": chrome_events(roots)}, indent=1)


def import_chrome(text: str) -> List[Span]:
    """Rebuild a span forest from exported Chrome trace JSON.

    Nesting is recovered from interval containment per thread lane —
    the inverse of :func:`export_chrome` up to microsecond rounding.
    Used by the round-trip tests and handy for re-aggregating a saved
    trace.
    """
    doc = json.loads(text)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    tracer = Tracer()
    roots: List[Span] = []
    stacks: Dict[int, List[Span]] = {}
    for ev in sorted(events, key=lambda e: (e["ts"], -e.get("dur", 0))):
        if ev.get("ph") != "X":
            continue
        node = Span(tracer, ev["name"], dict(ev.get("args", {})))
        node.start = ev["ts"] / 1e6
        node.end = node.start + ev.get("dur", 0) / 1e6
        node.tid = ev.get("tid", 1)
        stack = stacks.setdefault(node.tid, [])
        while stack and stack[-1].end < node.end:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


class PhaseStat:
    """Aggregated numbers for one span name across a forest."""

    __slots__ = ("name", "count", "total", "self_time", "rows")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0

    def __repr__(self) -> str:
        return "PhaseStat(%r, n=%d, total=%.4fs, self=%.4fs)" % (
            self.name,
            self.count,
            self.total,
            self.self_time,
        )


_ROW_ATTRS = ("rows_out", "rows", "delta", "changed")
"""Attribute names whose integer values aggregate into a phase's row count."""


def aggregate(roots: Iterable[Span]) -> List[PhaseStat]:
    """Per-phase totals: count, inclusive time, self time, summed rows.

    *Self time* is a span's duration minus its children's — summing the
    column over all phases equals the summed root durations, so the
    breakdown attributes every traced second exactly once.
    """
    stats: Dict[str, PhaseStat] = {}
    for node, _parent in walk(roots):
        stat = stats.get(node.name)
        if stat is None:
            stat = stats[node.name] = PhaseStat(node.name)
        stat.count += 1
        stat.total += node.duration
        stat.self_time += node.duration - sum(c.duration for c in node.children)
        for attr in _ROW_ATTRS:
            value = node.attrs.get(attr)
            if isinstance(value, int):
                stat.rows += value
                break
    return sorted(stats.values(), key=lambda s: -s.self_time)


def span_total(roots: Iterable[Span]) -> float:
    """Summed root durations — the traced share of wall time."""
    return sum(root.duration for root in roots)
