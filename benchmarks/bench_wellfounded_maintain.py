"""Well-founded view update latency vs from-scratch alternating fixpoint.

On the win–move game — the paper's canonical non-stratifiable program —
over paths of up to 2k nodes: a single-tuple EDB update through
``MaterializedView(semantics="wellfounded")`` against recomputing the
well-founded model from scratch.  What is asserted is that the
maintained model *equals* the recomputed one at every size; the timings
are printed for the scaling picture.  (Until the batch engine became
linear in the ground program this file asserted a >=5x update-over-
recompute headline; recomputing ``L_2000`` now takes tens of
milliseconds and the maintained view, which walks every live layer per
update, no longer beats it.)  The parity-flipping worst-case update
(``flip``) is reported at the smaller sizes only.
"""

from repro.bench.wellfounded_perf import measure_wellfounded_scenario

SIZES = (500, 1000, 2000)


def _run_all():
    return [
        measure_wellfounded_scenario(n, rounds=2, include_flip=(n != SIZES[-1]))
        for n in SIZES
    ]


def test_wellfounded_update_latency(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1, warmup_rounds=0)
    for m in results:
        assert m["equal"], (
            "maintained well-founded view diverged from recompute at n=%d" % m["n"]
        )
        flip = "" if m["flip_s"] is None else " flip=%.4fs" % m["flip_s"]
        print(
            "n=%4d build=%.3fs probe=%.5fs%s scratch=%.4fs (scratch/probe %.2fx)"
            % (
                m["n"],
                m["build_s"],
                m["probe_s"],
                flip,
                m["scratch_s"],
                m["scratch_s"] / m["probe_s"],
            )
        )
