"""Compare two result files of ``run.py --json-out``: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate.  For every end-to-end metric and
workload that both files hold, the medians over each file's runs are
compared under the metric's bound: the bounds of ``BENCHMARK.json`` for
the gated metrics, ``catalog.KIND_BOUND`` / ``catalog.EXTRA_BOUNDS`` for
the per-kind medians and the single-workload numbers, and "any increase"
for ``failed_ratio``.  One row per metric and workload:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the runs of one file spread (interquartile range over
                median) wider than the bound, so the files cannot tell.

Traced runs are compared on the per-layer *counts* only: for the three
workloads without a server they must repeat exactly for a seed, and a
count that differs is reported and fails the comparison.

Exit status 1 if any row is ``worse`` or a count differs, 2 if the files
must not be compared (different ``cpu_count``, kernel backend or seed),
else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

import catalog


def cells(document):
    """``{(workload, metric): [values]}`` over the untraced runs of a file."""
    out = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for section in ("end_to_end", "detailed"):
            for metric, cell in run[section].items():
                out.setdefault((run["workload"], metric), []).append(cell["value"])
    return out


def counts(document):
    """``{(workload, seed, metric): value}`` of the exact per-layer counts."""
    out = {}
    for run in document["runs"]:
        if run["trace"] and run["workload"] != "serve-mixed":
            for metric, cell in run["per_layer"].items():
                if cell["unit"] == "count":
                    out[(run["workload"], run["seed"], metric)] = cell["value"]
    return out


def spread(values):
    """Interquartile range over the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def rule(metric, gate):
    """``(bound, higher_is_better)`` of one metric."""
    if metric in gate:
        return gate[metric]["bound"], gate[metric]["better"] == "higher"
    if metric == "failed_ratio":
        return 0.0, False
    return catalog.EXTRA_BOUNDS.get(metric, catalog.KIND_BOUND), False


def verdict(base, candidate, bound, higher_is_better):
    a, b = statistics.median(base), statistics.median(candidate)
    worse = (a - b if higher_is_better else b - a) > bound * abs(a)
    if worse:
        return "worse"
    if bound and max(spread(base), spread(candidate)) > bound:
        return "unresolved"
    return "ok"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as fa, open(argv[1]) as fb:
        base, candidate = json.load(fa), json.load(fb)
    for key in ("cpu_count", "backend"):
        if base["env"][key] != candidate["env"][key]:
            print("REFUSED: %s differs: %r against %r" % (key, base["env"][key], candidate["env"][key]))
            return 2
    if base["seed"] != candidate["seed"]:
        print("REFUSED: seed differs: %r against %r" % (base["seed"], candidate["seed"]))
        return 2
    gate = {entry["name"]: entry for entry in catalog.contract()["end_to_end"]}
    a_cells, b_cells = cells(base), cells(candidate)
    print("%-18s %-16s %12s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "A median", "B median", "A iqr", "B iqr", "bound", "verdict"))
    status = 0
    for key in a_cells:
        if key not in b_cells:
            continue
        workload, metric = key
        bound, higher = rule(metric, gate)
        if metric == "machine_factor":
            bound, word = 0.0, "(the machine, not the program)"
        else:
            word = verdict(a_cells[key], b_cells[key], bound, higher)
        if word == "worse":
            status = 1
        print("%-18s %-16s %12.5g %12.5g %8.4f %8.4f %8.2f  %s" % (
            workload, metric, statistics.median(a_cells[key]), statistics.median(b_cells[key]),
            spread(a_cells[key]), spread(b_cells[key]), bound, word))
    a_counts, b_counts = counts(base), counts(candidate)
    shared = [key for key in a_counts if key in b_counts]
    differing = [key for key in shared if a_counts[key] != b_counts[key]]
    for workload, seed, metric in differing:
        key = (workload, seed, metric)
        print("count differs: %s seed %d %s: %r against %r" % (key + (a_counts[key], b_counts[key])))
    if shared:
        print("%d exact counts compared, %d differ" % (len(shared), len(differing)))
    return 1 if differing else status


if __name__ == "__main__":
    sys.exit(main())
