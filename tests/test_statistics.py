"""Tests for the statistics feedback loop and adaptive re-planning.

The contract under test:

* the batch executor records relation cardinalities and join
  selectivities into the store's :class:`Statistics` — but never for
  synthetic predicates (deltas, maintenance aliases), and never when a
  caller passes ``stats=None``;
* :func:`compile_rule` with observed IDB sizes orders joins from those
  sizes instead of the "assume large" placeholder;
* the adaptive wrappers re-plan a rule mid-fixpoint exactly when the
  observed cardinalities diverge beyond the factor, and the re-planned
  variants coexist in the store under bucketed keys;
* engines produce identical results with and without adaptivity
  (covered by the equivalence suite in ``test_planner.py``; spot-checked
  here on the workload the static planner misorders).
"""

from __future__ import annotations

from repro import Database, Relation, parse_program
from repro.core.fixpoint import idb_equal
from repro.core.operator import as_interpretation, empty_idb, theta_legacy
from repro.core.planning import (
    MIN_REPLAN_SIZE,
    PlanStore,
    Statistics,
    cardinality_bucket,
    compile_rule,
    diverged,
    execute_plan,
)
from repro.core.semantics import naive_least_fixpoint, seminaive_least_fixpoint


def _hub_db(n_big=64, hubs=8):
    big = [(hubs + i, i % hubs) for i in range(n_big)]
    sel = [(0, 1), (1, 2)]
    return Database(
        set(range(hubs + n_big)),
        [Relation("Big", 2, big), Relation("SEL", 2, sel)],
        check=False,
    )


# ----------------------------------------------------------------------
# Statistics object
# ----------------------------------------------------------------------


def test_cardinality_buckets_are_coarse_and_monotone():
    assert cardinality_bucket(0) == 0
    assert cardinality_bucket(1) == cardinality_bucket(3)
    assert cardinality_bucket(4) == cardinality_bucket(15)
    assert cardinality_bucket(3) < cardinality_bucket(4)
    sizes = [0, 1, 5, 17, 80, 1000, 10**6]
    buckets = [cardinality_bucket(s) for s in sizes]
    assert buckets == sorted(buckets)


def test_diverged_handles_unknown_small_and_both_directions():
    inf = float("inf")
    assert diverged(inf, MIN_REPLAN_SIZE)  # unknown vs real information
    assert not diverged(inf, MIN_REPLAN_SIZE - 1)  # too small to matter
    assert not diverged(3.0, 5)  # tiny either way
    assert diverged(10.0, 100)  # grew past the factor
    assert diverged(100.0, 10)  # shrank past the factor
    assert not diverged(100.0, 150)  # within the factor


def test_statistics_ignore_synthetic_predicates():
    stats = Statistics()
    stats.record_cardinality("E", 7)
    stats.record_cardinality("S__delta", 1)
    stats.record_cardinality("E@ins", 1)
    stats.record_join("E", (0,), 10, 3)
    stats.record_join("S__delta", (0,), 10, 3)
    assert stats.cardinality("E") == 7
    assert stats.cardinality("S__delta") is None
    assert stats.cardinality("E@ins") is None
    assert stats.avg_matches("E", (0,)) == 0.3
    assert stats.avg_matches("S__delta", (0,)) is None


def test_batch_executor_records_into_the_store_statistics():
    store = PlanStore()
    program = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).", carrier="Q")
    db = _hub_db()
    plan = store.rule_plan(program.rules[0], db=db)
    execute_plan(plan, db, stats=store.statistics)
    assert store.statistics.cardinality("Big") == 64
    assert store.statistics.cardinality("SEL") == 2
    # SEL (known small) is scanned first; Big is the keyed probe whose
    # selectivity gets recorded.
    assert ("Big", (1,)) in store.statistics.join_keys()


def test_stats_none_records_nothing():
    store = PlanStore()
    program = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).", carrier="Q")
    db = _hub_db()
    plan = store.rule_plan(program.rules[0], db=db)
    execute_plan(plan, db, stats=None)
    assert len(store.statistics) == 0


# ----------------------------------------------------------------------
# Observed sizes drive the join order
# ----------------------------------------------------------------------


def test_observed_idb_sizes_reorder_the_join():
    # SEL is an IDB predicate (not in the db): statically it estimates
    # "large" and Big (a known 64) goes first; with an observed size of
    # 2 the order flips to SEL-first.
    rule = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).", carrier="Q").rules[0]
    big_only = Database(
        set(range(72)),
        [Relation("Big", 2, [(8 + i, i % 8) for i in range(64)])],
        check=False,
    )
    static = compile_rule(rule, db=big_only)
    assert static.steps[0].pred == "Big"
    observed = compile_rule(rule, db=big_only, idb_sizes={"SEL": 2})
    assert observed.steps[0].pred == "SEL"
    assert observed.est_cards == (("SEL", 2.0),)


# ----------------------------------------------------------------------
# Adaptive wrappers
# ----------------------------------------------------------------------


def test_adaptive_refresh_replans_on_divergence_and_buckets_coexist():
    store = PlanStore()
    program = parse_program(
        """
        SEL(X, Y) :- Seed(X, Y).
        Q(X, Y) :- Big(X, Z), SEL(Z, Y).
        """,
        carrier="Q",
    )
    hubs, n_big = 8, 64
    db = Database(
        set(range(hubs + n_big)),
        [
            Relation("Big", 2, [(hubs + i, i % hubs) for i in range(n_big)]),
            Relation("Seed", 2, [(i, i + 1) for i in range(hubs - 1)]),
        ],
        check=False,
    )
    adaptive = store.adaptive_rule_plans(program.rules, db=db)
    q_plan = [p for p in adaptive.plans if p.head_pred == "Q"][0]
    assert q_plan.steps[0].pred == "Big"  # static guess: SEL assumed large

    # A big observed SEL (>= the replan floor) diverges from "unknown"
    # but still leaves SEL second; a small observed SEL flips the order.
    interp = as_interpretation(
        program,
        db,
        {
            "SEL": Relation("SEL", 2, [(i, j) for i in range(20) for j in range(20)]),
            "Q": Relation("Q", 2, []),
        },
    )
    adaptive.refresh(interp)
    assert adaptive.replans >= 1
    q_plan = [p for p in adaptive.plans if p.head_pred == "Q"][0]
    assert q_plan.steps[0].pred == "Big"
    assert q_plan.est_cards == (("SEL", 400.0),)

    small = as_interpretation(
        program,
        db,
        {
            "SEL": Relation("SEL", 2, [(i, i + 1) for i in range(MIN_REPLAN_SIZE)]),
            "Q": Relation("Q", 2, []),
        },
    )
    adaptive.refresh(small)
    q_plan = [p for p in adaptive.plans if p.head_pred == "Q"][0]
    assert q_plan.steps[0].pred == "SEL"

    # Both re-planned variants sit in the store under bucketed keys, so
    # revisiting either growth stage is a cache hit, not a recompile.
    kinds = [key[0] for key in store._plans]
    assert kinds.count("rule+stats") >= 2
    misses = store.misses
    adaptive.refresh(small)
    assert store.misses == misses  # same bucket: no recompile


def test_single_atom_rules_never_replan():
    store = PlanStore()
    program = parse_program("T(X) :- E(Y, X), !T(Y).")
    db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (2, 3)])])
    adaptive = store.adaptive_rule_plans(program.rules, db=db)
    assert all(not p.est_cards for p in adaptive.plans)
    big_t = as_interpretation(
        program, db, {"T": Relation("T", 1, [(i,) for i in (1, 2, 3)])}
    )
    adaptive.refresh(big_t)
    assert adaptive.replans == 0


# ----------------------------------------------------------------------
# End to end: adaptive engines match the legacy iteration on the
# workload whose static plan is misordered
# ----------------------------------------------------------------------


def test_adaptive_engines_match_legacy_on_misplanned_workload():
    program = parse_program(
        """
        SEL(X, Y) :- Seed(X, Y).
        SEL(X, Y) :- Seed(X, Z), SEL(Z, Y).
        Q(X, Y) :- Big(X, Z), SEL(Z, Y).
        """,
        carrier="Q",
    )
    hubs, n_big = 4, 40
    db = Database(
        set(range(hubs + n_big + 24)),
        [
            Relation("Big", 2, [(hubs + i, i % hubs) for i in range(n_big)]),
            Relation(
                "Seed",
                2,
                [(0, hubs + n_big)]
                + [(hubs + n_big + j, hubs + n_big + j + 1) for j in range(20)],
            ),
        ],
        check=False,
    )

    def legacy_lfp():
        current = empty_idb(program)
        while True:
            nxt = theta_legacy(program, db, current)
            if idb_equal(nxt, current):
                return current
            current = nxt

    expected = legacy_lfp()
    assert idb_equal(naive_least_fixpoint(program, db).idb, expected)
    assert idb_equal(seminaive_least_fixpoint(program, db).idb, expected)


# ----------------------------------------------------------------------
# Per-stratum planning: known lower-strata sizes are facts, not
# discoveries — compiled in up front, exempt from divergence re-plans
# ----------------------------------------------------------------------


def test_known_sizes_pin_predicates_against_divergence():
    """A predicate passed as ``known_sizes`` is compiled in from the
    start and never triggers a re-plan, however its observed size moves;
    an unknown predicate in the same rule still does (the control)."""
    store = PlanStore()
    rule = parse_program("Q(X, Y) :- L(X, Z), M(Z, Y).", carrier="Q").rules[0]
    db = Database(set(range(64)), [], check=False)  # neither pred in the db

    pinned = store.adaptive_rule_plans([rule], db=db, known_sizes={"L": 40, "M": 48})
    assert dict(pinned.plans[0].est_cards) == {"L": 40.0, "M": 48.0}
    drifted = Database(
        set(range(64)),
        [
            # Both observed at 63: within the divergence factor of the
            # pinned 40/48 estimates, far above the replan floor.
            Relation("L", 2, [(i, i + 1) for i in range(63)]),
            Relation("M", 2, [(0, i) for i in range(63)]),
        ],
        check=False,
    )
    pinned.refresh(drifted)
    assert pinned.replans == 0  # both preds are facts: nothing is stale

    # Without the pin, M compiles to the "unknown, assume large"
    # placeholder, and *any* meaningful observation diverges from that.
    control = store.adaptive_rule_plans([rule], db=db, known_sizes={"L": 40})
    assert dict(control.plans[0].est_cards)["M"] == float("inf")
    control.refresh(drifted)
    assert control.replans == 1


def test_stratified_plans_upper_strata_against_known_lower_sizes(monkeypatch):
    """E9 regression (ISSUE 5): evaluating the stratified witnesses, no
    re-plan ever fires on a second-stratum rule — lower strata enter the
    planner as ``known_sizes`` facts instead of being rediscovered via
    adaptive divergence."""
    from repro.core.planning.store import PlanStore as StoreCls
    from repro.core.semantics import stratified_semantics, stratify
    from repro.graphs import generators as gg
    from repro.graphs.encode import graph_to_database
    from repro.queries import distance_program, tc_complement_stratified

    created = []
    orig = StoreCls.adaptive_rule_plans

    def spy(self, rules, **kwargs):
        wrapper = orig(self, rules, **kwargs)
        created.append(wrapper)
        return wrapper

    monkeypatch.setattr(StoreCls, "adaptive_rule_plans", spy)

    recursive_upper = parse_program(
        """
        TC(X, Y) :- E(X, Y).
        TC(X, Y) :- E(X, Z), TC(Z, Y).
        V(X, Y) :- TC(X, Y), !TC(Y, X).
        V(X, Y) :- V(X, Z), TC(Z, Y).
        """,
        carrier="V",
    )
    db = graph_to_database(gg.path(10))
    for program in (distance_program(), tc_complement_stratified(), recursive_upper):
        created.clear()
        strata = stratify(program)
        lower = set(strata[0])
        upper = set().union(*strata[1:])
        stratified_semantics(program, db)
        saw_upper = False
        for wrapper in created:
            heads = {plan.head_pred for plan in wrapper.plans}
            if not heads or not (heads & upper):
                continue
            saw_upper = True
            # The wrapper was handed every lower stratum's final size...
            assert lower <= set(wrapper.known_sizes)
            # ...and no divergence re-plan fired on the upper stratum.
            assert wrapper.replans == 0
        # distance/tc_complement have variant-free upper strata; the
        # recursive_upper program is the non-vacuous case.
        if program is recursive_upper:
            assert saw_upper


def test_seminaive_known_sizes_preserves_results():
    """``known_sizes`` is ordering advice only — valuations are identical."""
    program = parse_program(
        "S(X, Y) :- E(X, Y).  S(X, Y) :- E(X, Z), S(Z, Y)."
    )
    db = Database(
        {1, 2, 3, 4}, [Relation("E", 2, [(1, 2), (2, 3), (3, 4)])]
    )
    plain = seminaive_least_fixpoint(program, db)
    advised = seminaive_least_fixpoint(program, db, known_sizes={"E": 3})
    assert idb_equal(plain.idb, advised.idb)
