"""Well-founded view update latency vs from-scratch alternating fixpoint.

On the win–move game — the paper's canonical non-stratifiable program —
over paths of up to 2k nodes: a single-tuple EDB update through
``MaterializedView(semantics="wellfounded")`` against recomputing the
well-founded model from scratch, in one process so the machine's speed
cancels out of the ratio.  Asserted: the maintained model *equals* the
recomputed one at every size, the probe update (no atom moves) is at
least 5x faster than recompute at every size, and the parity-flipping
worst case (``flip``, the whole path re-decided) is no slower than
recompute at ``L_500`` and ``L_1000``.  This is what catches the view
degenerating to recompute (or worse: walking the alternation's depth per
update) — absolute floors cannot, because a recompute of these sizes
fits under a CI runner's noise.

The fresh-node stream (win–move over a random G(2000, 4000), 40 inserts
of an edge to a never-seen node) asserts that universe growth is a
delta: no recompute, and a median fresh-node insert within 3x of the
same insert once its node is known.
"""

from bench_utils import measure_growth_stream
from repro.bench.wellfounded_perf import measure_wellfounded_scenario

SIZES = (500, 1000, 2000)
PROBE_MIN_RATIO = 5.0
FLIP_MIN_RATIO = 1.0
GROWTH_MAX_RATIO = 3.0


def _run_all():
    return [
        measure_wellfounded_scenario(n, rounds=3, include_flip=(n != SIZES[-1]))
        for n in SIZES
    ]


def test_wellfounded_update_latency(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1, warmup_rounds=0)
    for m in results:
        assert m["equal"], (
            "maintained well-founded view diverged from recompute at n=%d" % m["n"]
        )
        probe = m["scratch_s"] / m["probe_s"]
        flip = None if m["flip_s"] is None else m["scratch_s"] / m["flip_s"]
        print(
            "n=%4d build=%.3fs probe=%.5fs (%.1fx)%s scratch=%.4fs"
            % (
                m["n"],
                m["build_s"],
                m["probe_s"],
                probe,
                "" if flip is None else " flip=%.4fs (%.1fx)" % (m["flip_s"], flip),
                m["scratch_s"],
            )
        )
        assert probe >= PROBE_MIN_RATIO, (m["n"], probe)
        if flip is not None:
            assert flip >= FLIP_MIN_RATIO, (m["n"], flip)


def test_fresh_node_stream_is_maintained(benchmark):
    m = benchmark.pedantic(
        measure_growth_stream,
        args=("WIN(X) :- E(X, Y), !WIN(Y).", "wellfounded", 2000, 4000),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    ratio = m["fresh_s"] / m["known_s"]
    print(
        "win-move G(2000,4000): fresh=%.5fs known=%.5fs (%.2fx) recomputes=%d"
        % (m["fresh_s"], m["known_s"], ratio, m["recomputes"])
    )
    assert m["equal"], "maintained well-founded view diverged from recompute"
    assert m["recomputes"] == 0
    assert ratio <= GROWTH_MAX_RATIO, ratio
