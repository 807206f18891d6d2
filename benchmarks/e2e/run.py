"""End-to-end benchmark of the shipped CLI, views and server.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke]
        [--calibrate K] [--json-out FILE] [--trace-out PREFIX]

Runs the named workloads (default: all four) on inputs generated from
``--seed``, checks every output against the oracles in ``reference.py``
and prints every metric by name with its unit.  The last line printed
for a workload is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the gated end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import socket
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

DEFAULT_SEED = 1988
SMOKE_SECONDS = 2


def environment():
    """Refuse to time the wrong thing; describe the machine otherwise."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("error: %s has no src/repro: nothing to benchmark" % ROOT)
    if os.environ.get("REPRO_KERNEL_BACKEND"):
        sys.exit("error: REPRO_KERNEL_BACKEND is set; the benchmark times the default backend")
    try:
        import numpy
    except ImportError:
        sys.exit("error: numpy is absent; refusing to time the array('q') fallback backend")
    sys.path.insert(0, str(ROOT / "src"))
    from repro.db import kernel

    return {
        "cpu_count": os.cpu_count(),
        "backend": kernel.backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hostname": socket.gethostname(),
    }


def run_workload(name, seed, seconds, trace, smoke, trace_out=None):
    """One run of one workload: the record that goes to ``--json-out``."""
    import catalog
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=WORK)
    ctx = workloads.Context(seed, seconds, trace, smoke, workdir, trace_out)
    try:
        result = workloads.WORKLOADS[name](ctx)
    finally:
        for server in ctx.servers:
            if server.proc.poll() is None:
                server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # unless another run is using it
    gate = {entry["name"]: entry["unit"] for entry in catalog.contract()["end_to_end"]}
    values = catalog.end_to_end(result)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": bool(smoke),
        "attempted": result.attempted,
        "failed": len(result.failures),
        "failures": result.failures[:20],
        "end_to_end": {n: {"value": values[n], "unit": unit} for n, unit in gate.items()},
        "detailed": {n: {"value": v, "unit": u} for n, (v, u) in catalog.detailed(result).items()},
        "samples": result.samples,
        "setup_samples": result.setup_samples,
        "machine_factors": ctx.factors,
        "raw": result.raw,
    }
    if trace:
        layer_values = catalog.per_layer(result)
        record["per_layer"] = {
            entry["name"]: {"value": layer_values[entry["name"]], "unit": entry["unit"]}
            for entry in catalog.PER_LAYER
        }
        record["silent"] = catalog.silent(name, layer_values)
    return record


def report(record):
    """Print one run: every metric by name with its unit, then the JSON line."""
    name = record["workload"]
    print("== %s  seed=%d  seconds=%s  trace=%d" % (name, record["seed"], record["seconds"], record["trace"]))
    for section in ("end_to_end", "detailed", "per_layer"):
        for metric, cell in record.get(section, {}).items():
            value = cell["value"]
            if section == "per_layer" and metric in record["silent"]:
                value = "null"
            elif isinstance(value, float):
                value = "%.6g" % value
            print("%-14s %-40s %14s %s" % (section, metric, value, cell["unit"]))
    for metric in record.get("silent", []):
        print(
            "WARNING: %s never fired on %s, the workload that should exercise it"
            % (metric, name),
            file=sys.stderr,
        )
    for message in record["failures"]:
        print("failure: %s" % message)
    correct = record["failed"] == 0 and not record.get("silent")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer" if record["trace"] else "end_to_end"],
    }))
    return correct


def calibrate(records):
    """Median, quartiles and largest relative deviation per metric."""
    cells = {}
    for record in records:
        for section in ("end_to_end", "detailed"):
            for metric, cell in record[section].items():
                cells.setdefault((record["workload"], metric), []).append(cell["value"])
    print("%-18s %-16s %3s %12s %12s %12s %8s %8s" % (
        "workload", "metric", "n", "q1", "median", "q3", "iqr/med", "maxdev"))
    for (workload, metric), values in cells.items():
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        scale = median or 1.0
        print("%-18s %-16s %3d %12.5g %12.5g %12.5g %8.4f %8.4f" % (
            workload, metric, len(values), q1, median, q3,
            (q3 - q1) / scale, max(abs(v - median) for v in values) / scale))


def main(argv=None):
    import catalog

    names = [entry["name"] for entry in catalog.contract()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measured phase; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="sizes / 10, a %d s measured phase" % SMOKE_SECONDS)
    parser.add_argument("--calibrate", type=int, default=0, metavar="K", help="K >= 5 sets of runs on seeds SEED..SEED+K-1, then the spread table")
    parser.add_argument("--json-out", default=None, help="write every run's record, raw samples included")
    parser.add_argument("--trace-out", default=None, metavar="PREFIX", help="keep the span files of a traced run as PREFIX.<part>.json")
    args = parser.parse_args(argv)
    if args.calibrate and args.calibrate < 5:
        parser.error("--calibrate needs K >= 5")
    env = environment()
    trace = bool(args.trace or args.traced)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else catalog.contract()["run_seconds"]
    print("environment: %s" % json.dumps(env))
    records = []
    all_correct = True
    for offset in range(args.calibrate or 1):
        for name in args.workload or names:
            record = run_workload(name, args.seed + offset, seconds, trace, args.smoke, args.trace_out)
            records.append(record)
            all_correct &= report(record)
            sys.stdout.flush()
    if args.calibrate:
        calibrate(records)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({"env": env, "seed": args.seed, "runs": records}, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
