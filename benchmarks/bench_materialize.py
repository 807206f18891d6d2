"""Materialized-view update latency vs from-scratch stratified recompute.

On the E8 distance program, the single-tuple *shortcut* update through
``MaterializedView`` (its transitive closure is already known, so only
the counting layer works) is at least 5x faster than recomputing the
stratified fixpoint from scratch at the largest benchmarked size (about
21x measured at ``L_36``).  Smaller sizes are reported for the scaling
picture; the assertion only binds at the largest.

The fresh-node streams (40 inserts of an edge to a never-seen node, on
a stratified ACYC view over G(2000, 1400) and a NOTC view over
G(150, 300), whose completion variables join the universe) assert that
universe growth is a delta: no recompute, and a median fresh-node
insert within 3x of the same insert once its node is known.

The scaling row times a single-edge ACYC update at G(n, 0.7n) for n =
2000, 8000 and 32000 and prints the fitted exponent of its median
against n; it asserts only the work: no update past the first rebuilds
a join index from scratch (each is patched with the delta), and each
makes exactly one new relation with ``Relation.evolve``, the database's
``E`` (the view's aliases name values; they evolve no copies).
"""

import pytest

from bench_utils import measure_growth_stream, measure_single_edge_stream
from repro.bench.harness import loglog_slope
from repro.bench.materialize_perf import measure_update_scenario

SIZES = (16, 24, 36)
HEADLINE_SPEEDUP = 5.0
GROWTH_MAX_RATIO = 3.0
TC = "TC(X, Y) :- E(X, Y).  TC(X, Y) :- E(X, Z), TC(Z, Y).  "
SCALING_SIZES = (2000, 8000, 32000)
GROWTH_CASES = {
    "acyc": (TC + "ACYC(X, Y) :- E(X, Y), !TC(Y, X).", 2000, 1400),
    "notc": (TC + "NOTC(X, Y) :- !TC(X, Y).", 150, 300),
}


def _run_all():
    return [measure_update_scenario(n, rounds=2) for n in SIZES]


def test_materialize_update_latency(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1, warmup_rounds=0)
    for m in results:
        assert m["equal"], "maintained view diverged from recompute at n=%d" % m["n"]
        # The tail update (delete and re-insert the last edge) flips a
        # changeset as large as the relation (44k tuples at L_36) through
        # the dict-backed counting layer and loses to the codes-resident
        # recompute (0.3x); it is printed with its changeset size, not
        # asserted.  The tail bound returns with ROADMAP item 7a
        # (counting in codes).
        print(
            "n=%2d build=%.3fs scratch=%.4fs | tail=%.4fs (%.1fx, %d changed tuples) "
            "| shortcut=%.4fs (%.1fx, %d changed tuples)"
            % (
                m["n"],
                m["build_s"],
                m["scratch_s"],
                m["tail_s"],
                m["scratch_s"] / m["tail_s"],
                m["tail_changes"],
                m["shortcut_s"],
                m["scratch_s"] / m["shortcut_s"],
                m["shortcut_changes"],
            )
        )
    largest = results[-1]
    shortcut_speedup = largest["scratch_s"] / largest["shortcut_s"]
    assert shortcut_speedup >= HEADLINE_SPEEDUP, (
        "single-tuple shortcut update is only %.1fx faster than from-scratch "
        "recompute at n=%d (need >= %.1fx)"
        % (shortcut_speedup, largest["n"], HEADLINE_SPEEDUP)
    )


@pytest.mark.parametrize("case", sorted(GROWTH_CASES))
def test_fresh_node_stream_is_maintained(benchmark, case):
    source, n, m = GROWTH_CASES[case]
    result = benchmark.pedantic(
        measure_growth_stream,
        args=(source, "stratified", n, m),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    ratio = result["fresh_s"] / result["known_s"]
    print(
        "%s G(%d,%d): fresh=%.5fs known=%.5fs (%.2fx) recomputes=%d"
        % (case, n, m, result["fresh_s"], result["known_s"], ratio, result["recomputes"])
    )
    assert result["equal"], "maintained %s view diverged from recompute" % case
    assert result["recomputes"] == 0
    assert ratio <= GROWTH_MAX_RATIO, ratio


def test_single_edge_update_scaling(benchmark):
    source = GROWTH_CASES["acyc"][0]
    results = benchmark.pedantic(
        lambda: [measure_single_edge_stream(source, n, 7 * n // 10) for n in SCALING_SIZES],
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    exponent = loglog_slope(SCALING_SIZES, [r["p50_s"] for r in results])
    print(
        "acyc single-edge apply p50: %s | exponent %.2f"
        % (
            ", ".join(
                "G(%d,%d) %.3f ms" % (n, 7 * n // 10, r["p50_s"] * 1e3)
                for n, r in zip(SCALING_SIZES, results)
            ),
            exponent,
        )
    )
    for n, r in zip(SCALING_SIZES, results):
        assert r["equal"], "maintained acyc view diverged from recompute at n=%d" % n
        assert r["index_builds"] == 0, (n, r["index_builds"])
        # One new relation per update, the database's E: the view's
        # aliases name values, they do not evolve copies.
        assert r["evolves"] == 40, (n, r["evolves"])
        # ACYC's counted rule runs a variant only over a staged change
        # set: one of E's and at most one of TC's per update.
        assert r["solves"] <= 2 * 40, (n, r["solves"])
