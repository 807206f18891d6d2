"""CLI: ``python -m repro.bench [e1 e2 ...|all] [--markdown|--json]``.

Runs the requested experiments and prints their tables; used to generate
EXPERIMENTS.md and for quick eyeballing.  ``--json`` emits the same
tables as machine-readable data — the ``BENCH_*.json`` files at the repo
root are committed snapshots of ``python -m repro.bench perf --json``.

``python -m repro.bench check [--baseline FILE] [--factor F]
[--floor S] [ids...]`` re-runs the experiments (default: ``perf``,
``serve``, ``kernel`` and ``parallel``) and fails when any shipped-path timing cell —
evaluation, materialized-view update latency, the view server's p95
request latency under load *and* the columnar kernel's primitive ops —
regressed more than ``F``-fold
against the committed baseline; CI runs it as the perf gate.  The
baseline defaults to the **newest** ``BENCH_*.json`` in the working
directory (natural sort, so ``BENCH_PR10`` outranks ``BENCH_PR9``), and
the gate fails loudly — it does not silently pass — when a timing table
or row of the current run has no counterpart in the baseline: a stale
baseline would otherwise exempt exactly the newest code from the gate.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import time
from pathlib import Path

from .harness import all_experiments, experiment

_TIMING_COLUMNS = frozenset(
    {"compiled s", "update s", "p95 s", "kernel s", "parallel s"}
)
"""Shipped-path timing columns the regression gate compares: compiled
plan execution, materialized-view update latency, the view server's p95
request latency under load, and the columnar kernel's primitive ops."""


def _natural_key(path: Path):
    """Sort key treating digit runs numerically (PR10 after PR9)."""
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", path.name)
    ]


def _default_baseline() -> "Path | None":
    """The newest committed ``BENCH_*.json`` snapshot, if any."""
    candidates = sorted(Path(".").glob("BENCH_*.json"), key=_natural_key)
    return candidates[-1] if candidates else None


def _run_experiments(ids):
    chosen = (
        all_experiments()
        if not ids or ids == ["all"]
        else [experiment(a) for a in ids]
    )
    results = []
    for exp in chosen:
        start = time.perf_counter()
        tables = exp.run()
        elapsed = time.perf_counter() - start
        results.append((exp, tables, elapsed))
    return results


def _bench_meta() -> dict:
    """Environment facts every BENCH json carries.

    A committed snapshot is only comparable to a rerun on the same
    footing — which kernel backend, which interpreter, how many cores,
    which *machine*.  Recording them in the
    artifact makes a surprising gate verdict diagnosable from the file
    alone; ``check`` prints both sides' meta blocks on failure.
    """
    import datetime

    from ..db import kernel

    return {
        "kernel_backend": kernel.backend(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "hostname": platform.node(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "monotonic_ns": time.monotonic_ns(),
    }


def _as_json(results) -> dict:
    return {
        "generated_with": "python -m repro.bench %s --json"
        % " ".join(exp.ident for exp, _, _ in results),
        "meta": _bench_meta(),
        "experiments": [
            {
                "id": exp.ident,
                "title": exp.title,
                "claim": exp.claim,
                "runtime_s": elapsed,
                "tables": [t.to_dict() for t in tables],
            }
            for exp, tables, elapsed in results
        ],
    }


def run_check(argv) -> int:
    """Compare a fresh run against a committed ``--json`` baseline.

    ``--json-out FILE`` additionally writes the gated run's tables as
    JSON — the same document ``perf --json`` prints — so CI can upload
    the exact measurements the gate judged instead of re-running.
    """
    baseline_path = None
    factor = 3.0
    floor = 0.02
    json_out = None
    ids = []
    it = iter(argv)
    for a in it:
        if a == "--baseline":
            baseline_path = next(it, None)
        elif a == "--factor":
            factor = float(next(it))
        elif a == "--floor":
            floor = float(next(it))
        elif a == "--json-out":
            json_out = next(it, None)
        else:
            ids.append(a)
    if baseline_path is None:
        default = _default_baseline()
        if default is None:
            print(
                "no --baseline given and no BENCH_*.json snapshot found; "
                "generate one with `python -m repro.bench perf --json`"
            )
            return 2
        baseline_path = str(default)
        print("using newest committed baseline: %s" % baseline_path)
    with open(baseline_path) as fh:
        baseline = json.load(fh)

    results = _run_experiments(ids or ["perf", "serve", "kernel", "parallel"])
    current = _as_json(results)
    if json_out is not None:
        with open(json_out, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
        print("wrote gated run's tables to %s" % json_out)
    current_by_id = {e["id"]: e for e in current["experiments"]}

    failures = []
    # Reverse direction first: every *current* timing table and row must
    # have a baseline counterpart, or the gate is not gating it.  (The
    # forward loop below cannot see these — it walks the baseline.)
    baseline_by_id = {e["id"]: e for e in baseline["experiments"]}
    for cur_exp in current["experiments"]:
        base_exp = baseline_by_id.get(cur_exp["id"])
        base_tables = (
            {t["title"]: t for t in base_exp["tables"]} if base_exp else {}
        )
        for cur_table in cur_exp["tables"]:
            timing_cols = [c for c in cur_table["columns"] if c in _TIMING_COLUMNS]
            if not timing_cols:
                continue
            base_table = base_tables.get(cur_table["title"])
            if base_table is None:
                failures.append(
                    "table %r is not in baseline %s — regenerate the "
                    "snapshot so the gate covers it"
                    % (cur_table["title"], baseline_path)
                )
                continue
            missing_cols = [
                c for c in timing_cols if c not in base_table["columns"]
            ]
            if missing_cols:
                failures.append(
                    "timing columns %s of table %r are not in baseline %s"
                    % (missing_cols, cur_table["title"], baseline_path)
                )
            base_rows = {row[0] for row in base_table["rows"]}
            for row in cur_table["rows"]:
                if row[0] not in base_rows:
                    failures.append(
                        "row %r of table %r is not in baseline %s"
                        % (row[0], cur_table["title"], baseline_path)
                    )
    for base_exp in baseline["experiments"]:
        cur_exp = current_by_id.get(base_exp["id"])
        if cur_exp is None:
            failures.append("experiment %r missing from current run" % base_exp["id"])
            continue
        cur_tables = {t["title"]: t for t in cur_exp["tables"]}
        for base_table in base_exp["tables"]:
            cur_table = cur_tables.get(base_table["title"])
            if cur_table is None:
                failures.append("table %r missing" % base_table["title"])
                continue
            if not cur_table["all_ok"]:
                failures.append("table %r has failing ok rows" % base_table["title"])
            # Resolve timing columns by *name* in each file independently:
            # a reordered or renamed column must fail loudly, never compare
            # mismatched cells.
            timing_cols = [c for c in base_table["columns"] if c in _TIMING_COLUMNS]
            missing = [c for c in timing_cols if c not in cur_table["columns"]]
            if missing:
                failures.append(
                    "table %r lost timing columns %s" % (base_table["title"], missing)
                )
                continue
            col_pairs = [
                (c, base_table["columns"].index(c), cur_table["columns"].index(c))
                for c in timing_cols
            ]
            cur_rows = {row[0]: row for row in cur_table["rows"]}
            for base_row in base_table["rows"]:
                cur_row = cur_rows.get(base_row[0])
                if cur_row is None:
                    failures.append(
                        "row %r missing from table %r"
                        % (base_row[0], base_table["title"])
                    )
                    continue
                for name, bi, ci in col_pairs:
                    base_t = max(float(base_row[bi]), floor)
                    cur_t = float(cur_row[ci])
                    if cur_t > factor * base_t:
                        failures.append(
                            "%s / %s / %s: %.4fs vs baseline %.4fs (> %.1fx)"
                            % (
                                base_table["title"],
                                base_row[0],
                                name,
                                cur_t,
                                base_t,
                                factor,
                            )
                        )
    if failures:
        print("perf regression check FAILED (factor %.1fx, floor %.3fs):" % (factor, floor))
        for f in failures:
            print("  - %s" % f)
        # Environment mismatches (kernel backend, host, interpreter) are
        # the usual innocent explanation — print both sides so the
        # verdict is diagnosable from the log alone.
        print("baseline meta: %s" % json.dumps(baseline.get("meta", {}), sort_keys=True))
        print("current  meta: %s" % json.dumps(current.get("meta", {}), sort_keys=True))
        return 1
    print(
        "perf regression check passed (factor %.1fx, floor %.3fs, %d experiments)"
        % (factor, floor, len(baseline["experiments"]))
    )
    return 0


def main(argv) -> int:
    if argv and argv[0] == "check":
        return run_check(argv[1:])
    args = [a for a in argv if not a.startswith("--")]
    markdown = "--markdown" in argv
    as_json = "--json" in argv
    results = _run_experiments(args)
    if as_json:
        print(json.dumps(_as_json(results), indent=2, sort_keys=True))
        return 1 if any(
            not t.all_ok() for _, tables, _ in results for t in tables
        ) else 0
    failures = 0
    for exp, tables, elapsed in results:
        if markdown:
            print("## %s\n" % exp.title)
            print("Claim: %s\n" % exp.claim)
            for table in tables:
                print(table.render_markdown())
                print()
            print("_Runtime: %.2fs_\n" % elapsed)
        else:
            print("=" * 72)
            print("%s  (%.2fs)" % (exp.title, elapsed))
            print("claim: %s" % exp.claim)
            print()
            for table in tables:
                print(table.render())
                print()
        for table in tables:
            if not table.all_ok():
                failures += 1
                print("!! table %r has failing rows" % table.title)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
