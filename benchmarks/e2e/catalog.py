"""Every metric the benchmark prints: name, unit, direction, source.

The gated end-to-end metrics and their bounds live in ``BENCHMARK.json``
(:func:`contract`); this module says how each number is computed from a
:class:`workloads.Result` and lists the per-layer metrics, which must
match ``BENCHMARK.json`` name for name (``test_e2e_smoke.py`` checks).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

CASE_NAMES = ("tc", "notc", "distance", "path", "random")

KIND_BOUND = 0.10
"""Bound ``compare.py`` applies to a per-kind median (``<kind>_p50_ms``)."""

EXTRA_BOUNDS = {"recovery_s": 0.20, "delta_p95_ms": 0.20}
"""Bounds of the end-to-end numbers only one workload has."""


def contract():
    """``BENCHMARK.json`` as a dict."""
    return json.loads(CONTRACT.read_text())


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def by_kind(timings):
    """``{kind: [seconds at nominal machine speed]}`` of ``[kind, seconds,
    factor]`` timings (see ``workloads.run_windows``)."""
    kinds = {}
    for kind, seconds, factor in timings:
        kinds.setdefault(kind, []).append(seconds / factor)
    return kinds


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------


def end_to_end(result):
    """The gated metrics of one run (the names of ``BENCHMARK.json``).

    Every timing is first divided by its machine factor, so all of these
    read as on a machine running ``speed_reference.py`` in
    ``workloads.NOMINAL_S``.

    ``ops_per_s``     operations completed / their summed latency (the
                      wall time of the load phase where two connections
                      overlap).
    ``round_p50_ms``  one operation of each kind, each at its median
                      latency: the batch cases one after the other; an
                      insert and a delete; a delta and a query.  Kinds
                      differ several-fold in cost, so a median over the
                      mixture would sit in the gap between two modes.
    ``peak_rss_mb``   highest peak RSS of a process under test.
    ``setup_s``       median of the run's set-up repetitions.
    """
    kinds = by_kind(result.samples)
    latencies = [seconds for values in kinds.values() for seconds in values]
    return {
        "setup_s": statistics.median(by_kind(result.setup_samples)["setup"]),
        "ops_per_s": len(latencies) / (result.wall_s or sum(latencies)),
        "round_p50_ms": 1000.0 * sum(statistics.median(v) for v in kinds.values()),
        "peak_rss_mb": result.peak_rss_mb,
    }


def detailed(result):
    """Ungated end-to-end numbers: ``{name: (value, unit)}``.

    One median per operation kind (``tc_p50_ms`` ... ``query_p50_ms``),
    the numbers only one workload has (``recovery_s``, ``delta_p95_ms``)
    and the share of operations that failed.
    """
    out = {}
    kinds = by_kind(result.samples)
    for kind, values in kinds.items():
        out["%s_p50_ms" % kind] = (1000.0 * statistics.median(values), "ms")
    if "delta" in kinds:
        out["delta_p95_ms"] = (1000.0 * percentile(kinds["delta"], 95), "ms")
    for name, value in result.extra.items():
        out[name] = (value, "s")
    factors = [factor for _kind, _seconds, factor in result.samples]
    out["machine_factor"] = (statistics.median(factors), "ratio")
    out["failed_ratio"] = (len(result.failures) / max(1, result.attempted), "ratio")
    return out


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------

# (metric, unit, better, span name, field).  ``total`` is inclusive time
# of outermost calls, ``self`` excludes child spans, ``calls`` and
# ``note`` are counts.  Times are means over the run's traced windows;
# counts come from the first traced window, whose work the seed fixes.
SPAN_METRICS = [
    ("cli.boot_s", "s", "lower", "cli.boot", "total"),
    ("cli.self_s", "s", "lower", "cli.main", "self"),
    ("core.parser.parse_s", "s", "lower", "core.parser.parse", "total"),
    ("analysis.lint_s", "s", "lower", "analysis.lint", "total"),
    ("core.validation.check_s", "s", "lower", "core.validation.check", "total"),
    ("db.csvio.load_s", "s", "lower", "db.csvio.load", "total"),
    ("db.csvio.load_rows", "count", "lower", "db.csvio.load", "note"),
    ("db.csvio.dump_s", "s", "lower", "db.csvio.dump", "total"),
    ("db.csvio.dump_calls", "count", "lower", "db.csvio.dump", "calls"),
    ("core.planning.compile_s", "s", "lower", "core.planning.compile", "total"),
    ("core.planning.compile_calls", "count", "lower", "core.planning.compile", "calls"),
    ("core.planning.execute_s", "s", "lower", "core.planning.execute", "total"),
    ("core.planning.execute_calls", "count", "lower", "core.planning.execute", "calls"),
    ("core.planning.colexec_s", "s", "lower", "core.planning.colexec", "total"),
    ("core.planning.colexec_calls", "count", "lower", "core.planning.colexec", "calls"),
    ("core.planning.self_s", "s", "lower", "core.planning.", "self"),
    ("db.kernel.encode_s", "s", "lower", "db.kernel.encode", "total"),
    ("db.kernel.encode_calls", "count", "lower", "db.kernel.encode", "calls"),
    ("db.kernel.encode_rows", "count", "lower", "db.kernel.encode", "note"),
    ("db.kernel.decode_s", "s", "lower", "db.kernel.decode", "total"),
    ("db.kernel.index_s", "s", "lower", "db.kernel.index", "total"),
    ("db.kernel.sort_s", "s", "lower", "db.kernel.sort", "total"),
    ("db.kernel.probe_s", "s", "lower", "db.kernel.probe", "total"),
    ("db.kernel.primitive_calls", "count", "higher", "db.kernel.primitive", "calls"),
    ("db.kernel.self_s", "s", "lower", "db.kernel.", "self"),
    ("core.grounding.ground_s", "s", "lower", "core.grounding.ground", "total"),
    ("core.grounding.ground_rules", "count", "lower", "core.grounding.ground", "note"),
    ("core.semantics.self_s", "s", "lower", "core.semantics.eval", "self"),
    ("materialize.init_s", "s", "lower", "materialize.init", "total"),
    ("materialize.apply_s", "s", "lower", "materialize.apply", "total"),
    ("materialize.apply_calls", "count", "lower", "materialize.apply", "calls"),
    ("materialize.changeset_tuples", "count", "lower", "materialize.apply", "note"),
    ("materialize.self_s", "s", "lower", "materialize.", "self"),
    ("server.protocol.decode_s", "s", "lower", "server.protocol.decode", "total"),
    ("server.protocol.encode_s", "s", "lower", "server.protocol.encode", "total"),
    ("server.net.json_s", "s", "lower", "server.net.json", "total"),
    ("server.service.submit_s", "s", "lower", "server.service.submit", "total"),
    ("server.service.query_s", "s", "lower", "server.service.query", "total"),
    ("server.service.self_s", "s", "lower", "server.service.", "self"),
    ("server.wal.append_s", "s", "lower", "server.wal.append", "total"),
    ("server.wal.append_calls", "count", "lower", "server.wal.append", "calls"),
    ("server.wal.snapshot_s", "s", "lower", "server.wal.snapshot", "total"),
    ("server.wal.snapshot_calls", "count", "lower", "server.wal.snapshot", "calls"),
    ("server.wal.fsyncs", "count", "lower", "os.fsync", "calls"),
    ("server.wal.fsync_s", "s", "lower", "os.fsync", "total"),
    ("server.wal.self_s", "s", "lower", "server.wal.", "self"),
]

# Numbers a workload computes itself (``Result.layer_extra``).
EXTRA_METRICS = (
    [
        ("cli.startup_s", "s", "lower"),
        ("cli.stdout_bytes", "count", "lower"),
        ("core.planning.kernel_share", "ratio", "higher"),
    ]
    + [("core.semantics.eval_s.%s" % c, "s", "lower") for c in CASE_NAMES]
    + [("core.semantics.rounds.%s" % c, "count", "lower") for c in CASE_NAMES]
    + [("core.semantics.result_tuples.%s" % c, "count", "lower") for c in CASE_NAMES]
    + [
        ("core.semantics.scale_exp.tc", "ratio", "lower"),
        ("core.semantics.scale_exp.path", "ratio", "lower"),
        ("materialize.recompute_s", "s", "lower"),
        ("materialize.vs_recompute", "ratio", "higher"),
        ("materialize.recomputes", "count", "lower"),
        ("server.net.bytes_in", "count", "lower"),
        ("server.net.bytes_out", "count", "lower"),
        ("server.service.commits", "count", "lower"),
        ("server.service.batch_mean", "ratio", "higher"),
        ("server.wal.bytes_per_delta", "count", "lower"),
        ("server.wal.recover_s", "s", "lower"),
        ("server.wal.replayed", "count", "lower"),
        ("parallel.speedup_w2.path", "ratio", "higher"),
        ("obs.trace_overhead", "ratio", "lower"),
        ("obs.attributed_share", "ratio", "higher"),
    ]
)

PER_LAYER = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better, *_source in SPAN_METRICS + EXTRA_METRICS
]

# Metrics that must be non-zero on the workload that is said to exercise
# them; a zero there means a wrapper lost its target.
MUST_FIRE = {
    "batch-relational": [
        "cli.self_s", "cli.startup_s", "cli.stdout_bytes", "core.parser.parse_s",
        "core.validation.check_s", "db.csvio.load_s", "db.csvio.load_rows",
        "core.planning.compile_s", "core.planning.execute_s", "core.planning.colexec_s",
        "core.planning.kernel_share", "db.kernel.encode_s", "db.kernel.sort_s",
        "core.semantics.eval_s.tc", "core.semantics.eval_s.notc",
        "core.semantics.eval_s.distance", "core.semantics.rounds.tc",
        "core.semantics.result_tuples.tc", "core.semantics.scale_exp.tc",
        "obs.trace_overhead", "obs.attributed_share",
    ],
    "batch-wellfounded": [
        "cli.self_s", "cli.startup_s", "core.parser.parse_s", "db.csvio.load_s",
        "core.grounding.ground_s", "core.grounding.ground_rules",
        "core.semantics.eval_s.path", "core.semantics.eval_s.random",
        "core.semantics.rounds.path", "core.semantics.result_tuples.random",
        "core.semantics.scale_exp.path", "parallel.speedup_w2.path",
        "obs.trace_overhead", "obs.attributed_share",
    ],
    "maintain-stream": [
        "core.parser.parse_s", "db.csvio.load_s", "core.planning.execute_s",
        "core.planning.colexec_s", "db.kernel.encode_s", "materialize.init_s",
        "materialize.apply_s", "materialize.apply_calls", "materialize.changeset_tuples",
        "materialize.recompute_s", "materialize.vs_recompute",
        "obs.trace_overhead", "obs.attributed_share",
    ],
    "serve-mixed": [
        "db.csvio.dump_s", "db.csvio.dump_calls", "materialize.apply_s",
        "server.protocol.decode_s", "server.protocol.encode_s", "server.net.json_s",
        "server.net.bytes_in", "server.net.bytes_out", "server.service.submit_s",
        "server.service.query_s", "server.service.commits", "server.service.batch_mean",
        "server.wal.append_s", "server.wal.append_calls", "server.wal.snapshot_s",
        "server.wal.snapshot_calls", "server.wal.fsyncs", "server.wal.bytes_per_delta",
        "server.wal.recover_s", "server.wal.replayed",
        "obs.trace_overhead", "obs.attributed_share",
    ],
}


def _span_value(windows, span, field):
    """One span metric over the traced windows (see :data:`SPAN_METRICS`).

    A ``span`` ending in ``.`` adds up every span name with that prefix.
    """
    def of(window):
        if span.endswith("."):
            return sum(row[field] for name, row in window.items() if name.startswith(span))
        return window.get(span, {}).get(field, 0)

    if not windows:
        return 0
    if field in ("calls", "note"):
        return of(windows[0])
    return statistics.fmean(of(window) for window in windows)


def per_layer(result):
    """Every per-layer metric of one traced run: ``{name: value}``."""
    values = {}
    for name, _unit, _better, span, field in SPAN_METRICS:
        values[name] = _span_value(result.layer_windows, span, field)
    extra = dict(result.layer_extra)
    executed = values["core.planning.execute_calls"]
    if executed:
        extra["core.planning.kernel_share"] = values["core.planning.colexec_calls"] / executed
    for name, _unit, _better in EXTRA_METRICS:
        values[name] = extra.get(name, 0)
    return values


def silent(workload, values):
    """The must-fire metrics of ``workload`` that read zero."""
    return [name for name in MUST_FIRE[workload] if not values.get(name)]
