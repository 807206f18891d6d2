"""The metrics half of ``repro.obs``: counters, gauges, histograms.

Zero-dependency, thread-safe, Prometheus-text-exposable.  One
:class:`MetricsRegistry` owns a set of metric *families*; a family is
either unlabeled (use it directly: ``registry.counter("x", "help").inc()``)
or labeled (``family.labels(view="tc").observe(0.01)`` — children are
created on first use and cached).  :meth:`MetricsRegistry.exposition`
renders everything in the Prometheus text format (``# HELP``/``# TYPE``
lines, escaped label values, cumulative ``_bucket{le=...}`` series for
histograms) — what the server's ``metrics`` protocol verb returns.

The engine hot paths never talk to the registry directly: they go
through the module-level :data:`RECORDER`, a facade that is a **no-op
until enabled** — the disabled path is one attribute load and an early
return, so instrumentation costs nothing when nobody is observing
(``repro.bench perf`` ships a gated row proving <3%).  The instrument
catalog (:data:`INSTRUMENTS`) is the single source of truth for the
engine-side metric names, types and help strings; the README's metrics
table is generated from the same entries.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)
"""Default histogram buckets for durations in seconds (100µs .. 10s)."""

SIZE_BUCKETS: Tuple[float, ...] = (
    1,
    2,
    5,
    10,
    25,
    50,
    100,
    250,
    500,
    1000,
    2500,
    5000,
    10000,
)
"""Default histogram buckets for counts (batch sizes, delta sizes)."""


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (n, _escape_label_value(str(v)))
        for n, v in zip(names, values)
    )


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; inc by %r refused" % amount)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    Bucket semantics follow Prometheus: an observation lands in the
    first bucket whose upper bound is ``>= value`` (``le`` — *less than
    or equal*), with an implicit ``+Inf`` overflow bucket.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric: an unlabeled child or a set of labeled children.

    Unlabeled families proxy ``inc``/``set``/``observe`` straight to
    their single child, so the registry's get-or-create methods read
    like direct metric handles.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_lock", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError("unknown metric kind %r" % kind)
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, *values, **kv):
        """The child metric for one label-value combination."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(str(kv[n]) for n in self.labelnames)
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                "metric %r expects labels %r, got %r"
                % (self.name, self.labelnames, values)
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._children[values] = self._make_child()
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                "metric %r is labeled by %r; use .labels(...)"
                % (self.name, self.labelnames)
            )
        return self.labels()

    # Unlabeled convenience proxies ------------------------------------

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A thread-safe, get-or-create collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, Family] = {}

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = Family(
                        name, kind, help, labelnames, buckets
                    )
        if family.kind != kind:
            raise ValueError(
                "metric %r already registered as a %s; cannot re-register "
                "as a %s" % (name, family.kind, kind)
            )
        if family.labelnames != tuple(labelnames):
            raise ValueError(
                "metric %r already registered with labels %r, got %r"
                % (name, family.labelnames, tuple(labelnames))
            )
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Family:
        return self._get_or_create(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Family:
        return self._get_or_create(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Family:
        return self._get_or_create(name, "histogram", help, labelnames, buckets)

    def families(self) -> List[Family]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (tests; never called on the live registry)."""
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------

    def exposition(self) -> str:
        """The registry in Prometheus text format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append("# HELP %s %s" % (family.name, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for labelvalues, child in family.children():
                if family.kind == "histogram":
                    for bound, cumulative in child.bucket_counts():
                        bucket_labels = _format_labels(
                            family.labelnames + ("le",),
                            labelvalues + (_format_number(bound),),
                        )
                        lines.append(
                            "%s_bucket%s %d"
                            % (family.name, bucket_labels, cumulative)
                        )
                    plain = _format_labels(family.labelnames, labelvalues)
                    lines.append(
                        "%s_sum%s %s"
                        % (family.name, plain, _format_number(child.sum))
                    )
                    lines.append("%s_count%s %d" % (family.name, plain, child.count))
                else:
                    plain = _format_labels(family.labelnames, labelvalues)
                    lines.append(
                        "%s%s %s" % (family.name, plain, _format_number(child.value))
                    )
        return "\n".join(lines) + ("\n" if lines else "")


REGISTRY = MetricsRegistry()
"""The process-wide registry: what the server's ``metrics`` verb exposes."""


# ----------------------------------------------------------------------
# The engine-side instrument catalog + the no-op recorder facade
# ----------------------------------------------------------------------

INSTRUMENTS: Dict[str, Tuple[str, str, Optional[Tuple[float, ...]]]] = {
    "repro_engine_rounds_total": (
        "counter",
        "Fixpoint rounds executed (every fixpoint.iterate run: the engines and DRed).",
        None,
    ),
    "repro_engine_strata_total": (
        "counter",
        "Strata evaluated by the stratified engine.",
        None,
    ),
    "repro_engine_rule_executions_total": (
        "counter",
        "Compiled rule-plan executions (execute_plan entry).",
        None,
    ),
    "repro_engine_kernel_executions_total": (
        "counter",
        "Rule executions lowered to the interned columnar kernel.",
        None,
    ),
    "repro_kernel_lowered_total": (
        "counter",
        "Columnar-kernel lowerings that ran to completion.",
        None,
    ),
    "repro_kernel_declined_total": (
        "counter",
        "Plans evaluated by the Θ spec because a row is wider than 63 bits.",
        None,
    ),
    "repro_relation_decoded_rows_total": (
        "counter",
        "Rows of code-backed relations externed to Python tuples.",
        None,
    ),
    "repro_relation_encoded_rows_total": (
        "counter",
        "Rows of tuple-backed relations interned into row codes.",
        None,
    ),
    "repro_symbol_tables_total": (
        "counter",
        "Interning tables constructed (one per database family; a view "
        "that builds more than one per lifetime is re-interning).",
        None,
    ),
    "repro_engine_ground_seconds": (
        "histogram",
        "Time grounding a program (well-founded evaluation).",
        LATENCY_BUCKETS,
    ),
    "repro_wf_alternation_steps_total": (
        "counter",
        "Stability-operator applications in alternating fixpoints.",
        None,
    ),
    "repro_wf_propagations_total": (
        "counter",
        "Counter updates, over-deletions and rederivation checks in "
        "well-founded evaluation (linear in the ground program) and in "
        "well-founded view updates (proportional to the region moved).",
        None,
    ),
    "repro_ground_patches_total": (
        "counter",
        "Live grounding patches applied (wellfounded maintenance).",
        None,
    ),
    "repro_view_applies_total": (
        "counter",
        "Materialized-view delta applications.",
        None,
    ),
    "repro_view_recomputes_total": (
        "counter",
        "Materialized-view honest recomputes (fallback path).",
        None,
    ),
    "repro_view_apply_seconds": (
        "histogram",
        "Materialized-view apply latency (one maintenance pass).",
        LATENCY_BUCKETS,
    ),
    "repro_maint_delta_size": (
        "histogram",
        "Effective delta sizes flowing into view maintenance.",
        SIZE_BUCKETS,
    ),
}
"""Engine-side instruments the :data:`RECORDER` may emit: name ->
``(kind, help, buckets)``.  The README's metrics table lists the same
entries; the server-side (per-view labeled) series are registered by
:mod:`repro.server.service` and :mod:`repro.server.wal` directly."""


class Recorder:
    """The hot-path facade: a no-op until :func:`enable` is called.

    ``inc``/``observe``/``set`` check one instance attribute and return
    immediately while disabled — no allocation, no lock, no dict lookup
    (regression-tested).  Enabled, they lazily resolve the named
    instrument from :data:`INSTRUMENTS` in the bound registry and cache
    the metric object, so the enabled path is one dict hit + the metric
    update.
    """

    __slots__ = ("enabled", "_registry", "_cache")

    def __init__(self) -> None:
        self.enabled = False
        self._registry: Optional[MetricsRegistry] = None
        self._cache: Dict[str, object] = {}

    def _instrument(self, name: str):
        metric = self._cache.get(name)
        if metric is None:
            spec = INSTRUMENTS.get(name)
            if spec is None:
                raise KeyError(
                    "unknown instrument %r; add it to repro.obs.metrics."
                    "INSTRUMENTS" % name
                )
            kind, help, buckets = spec
            registry = self._registry or REGISTRY
            if kind == "histogram":
                family = registry.histogram(
                    name, help, buckets=buckets or LATENCY_BUCKETS
                )
            elif kind == "gauge":
                family = registry.gauge(name, help)
            else:
                family = registry.counter(name, help)
            metric = self._cache[name] = family
        return metric

    def inc(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        self._instrument(name).inc(amount)

    def value(self, name: str) -> float:
        """The named counter's current value (0 while disabled).

        For call sites that attribute a counter's *movement* to a span
        (the fixpoint driver's per-round ``decoded_rows``).
        """
        if not self.enabled:
            return 0.0
        return self._instrument(name).value

    def row_traffic(self) -> Tuple[float, float]:
        """The ``(encoded, decoded)`` relation-row counters right now."""
        return (
            self.value("repro_relation_encoded_rows_total"),
            self.value("repro_relation_decoded_rows_total"),
        )

    def note_row_traffic(self, span, since: Tuple[float, float]) -> None:
        """Put the row counters' movement since ``since`` on ``span``.

        ``encoded_rows`` / ``decoded_rows`` say how many tuples crossed
        the tuple<->codes boundary under the span (fixpoint rounds, view
        applies, maintenance components): the number to look at when a
        codes-resident path is suspected of churning representations.
        """
        encoded, decoded = self.row_traffic()
        span["encoded_rows"] = int(encoded - since[0])
        span["decoded_rows"] = int(decoded - since[1])

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self._instrument(name).observe(value)

    def set(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self._instrument(name).set(value)

    def enable(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else REGISTRY
        self._cache = {}
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self._cache = {}


RECORDER = Recorder()
"""The process-wide recorder every engine-side call site uses.  Off by
default; ``python -m repro serve`` and ``explain --profile`` enable it."""


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> None:
    """Route :data:`RECORDER` into ``registry`` (default: the global one)."""
    RECORDER.enable(registry)


def disable_metrics() -> None:
    """Return :data:`RECORDER` to its free no-op state."""
    RECORDER.disable()
