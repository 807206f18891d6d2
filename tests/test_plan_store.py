"""Unit tests for the (program, db)-keyed plan store.

The store is what lets every engine — and the grounder behind the
well-founded/SAT pipelines — share one compilation per input.  These
tests pin down the cache contract: exact value-keyed hits, separate
entries per compilation context (database sizes, small-predicate
hints), LRU bounding, targeted invalidation — and that a plan depends
on nothing but its key.
"""

from __future__ import annotations

from repro import Database, Relation, parse_program
from repro.core.planning import PLAN_STORE, PlanStore
from repro.core.semantics import naive_least_fixpoint, stratified_semantics
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database


def _db(edges=((1, 2), (2, 3))):
    return Database({1, 2, 3}, [Relation("E", 2, edges)])


def _tc():
    return parse_program("S(X, Y) :- E(X, Y). S(X, Y) :- E(X, Z), S(Z, Y).")


def test_program_plan_hits_on_equal_program_and_db():
    store = PlanStore()
    first = store.program_plan(_tc(), _db())
    second = store.program_plan(_tc(), _db())  # equal values, fresh objects
    assert first is second
    assert store.hits == 1 and store.misses == 1


def test_rule_plan_hits_and_counts():
    store = PlanStore()
    rule = _tc().rules[0]
    a = store.rule_plan(rule)
    b = store.rule_plan(rule)
    assert a is b
    assert store.stats() == (1, 1, 1)


def test_distinct_databases_get_distinct_entries():
    store = PlanStore()
    store.program_plan(_tc(), _db())
    store.program_plan(_tc(), _db(edges=((1, 2),)))
    store.program_plan(_tc())  # no database at all
    assert store.misses == 3 and store.hits == 0 and len(store) == 3


def test_small_preds_hint_is_part_of_the_key():
    store = PlanStore()
    rule = parse_program("S(X, Y) :- E(X, Z), S(Z, Y).").rules[0]
    plain = store.rule_plan(rule, _db())
    hinted = store.rule_plan(rule, _db(), small_preds=frozenset({"S"}))
    assert plain is not hinted
    assert store.misses == 2


def test_a_plan_is_a_function_of_its_key_not_of_what_ran_before():
    # Q joins an EDB relation with a predicate the database cannot size.
    # Running an unrelated program that happens to call a small EDB
    # relation by the same name must not change the join order a fresh
    # compile of the very same (rule, db) picks.
    rule = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).").rules[0]
    db = Database(range(12), [Relation("Big", 2, [(i, i + 1) for i in range(10)])])

    def order():
        PLAN_STORE.invalidate(rule=rule)
        return [step.pred for step in PLAN_STORE.rule_plan(rule, db).steps]

    before = order()
    other = parse_program("P(X, Y) :- SEL(X, Y). P(X, Y) :- SEL(X, Z), P(Z, Y).")
    other_db = Database({1, 2, 3}, [Relation("SEL", 2, [(1, 2), (2, 3)])])
    assert len(naive_least_fixpoint(other, other_db).carrier_value) == 3
    assert order() == before == ["Big", "SEL"]


def test_lru_eviction_respects_maxsize():
    store = PlanStore(maxsize=2)
    rules = parse_program(
        "T(X) :- E(X, Y). S(X, Y) :- E(X, Y). R(X) :- E(X, X)."
    ).rules
    for r in rules:
        store.rule_plan(r)
    assert len(store) == 2  # the first entry was evicted
    store.rule_plan(rules[0])  # gone, so a recompile
    assert store.misses == 4 and store.hits == 0


def test_invalidate_by_database():
    store = PlanStore()
    db_a, db_b = _db(), _db(edges=((3, 1),))
    store.program_plan(_tc(), db_a)
    store.program_plan(_tc(), db_b)
    dropped = store.invalidate(db=db_a)
    assert dropped == 1 and len(store) == 1
    store.program_plan(_tc(), db_b)
    assert store.hits == 1  # the other database's entry survived


def test_invalidate_by_program_drops_its_rules_too():
    store = PlanStore()
    program, other = _tc(), parse_program("T(X) :- E(X, X).")
    store.program_plan(program, _db())
    store.rule_plans(program.rules, _db())
    store.rule_plan(other.rules[0], _db())
    dropped = store.invalidate(program=program)
    assert dropped == 3  # the program entry plus its two rule entries
    assert len(store) == 1  # the unrelated rule stays


def test_invalidate_everything_and_clear():
    store = PlanStore()
    store.program_plan(_tc(), _db())
    assert store.invalidate() == 1 and len(store) == 0
    store.program_plan(_tc(), _db())
    store.clear()
    assert store.stats() == (0, 0, 0)


def test_engines_share_the_global_store():
    # Two runs of the same engine on the same input: the second compiles
    # nothing.  Stratified evaluation funnels through the same store, so
    # its strata reuse whatever equal (rules, db) entries exist.
    program, db = _tc(), graph_to_database(gg.path(5))
    naive_least_fixpoint(program, db)
    hits_before = PLAN_STORE.hits
    naive_least_fixpoint(program, db)
    assert PLAN_STORE.hits > hits_before

    hits_before = PLAN_STORE.hits
    stratified_semantics(program, db)
    stratified_semantics(program, db)
    assert PLAN_STORE.hits > hits_before


# ----------------------------------------------------------------------
# Invalidation wiring: Database.apply_delta drops superseded plans
# ----------------------------------------------------------------------


def test_apply_delta_invalidates_plans_for_the_old_database():
    from repro.materialize import Delta

    db = _db()
    program = _tc()
    stale = PLAN_STORE.program_plan(program, db)
    PLAN_STORE.rule_plans(program.rules, db)
    new_db = db.apply_delta(Delta.insert("E", (3, 1)))
    # Every entry compiled against the superseded database value is gone:
    # a second targeted invalidation finds nothing left to drop.
    assert PLAN_STORE.invalidate(db=db) == 0
    # Plans for the new database are fresh compiles, never the stale
    # objects (whose join order was sized on the old value).
    misses = PLAN_STORE.misses
    assert PLAN_STORE.program_plan(program, new_db) is not stale
    assert PLAN_STORE.misses == misses + 1


def test_apply_delta_can_skip_invalidation():
    from repro.materialize import Delta

    # A database value no other test compiles against: the assertion
    # counts entries in the process-wide store, so a shared value would
    # make the count order-dependent.
    db = Database(
        {"ps-a", "ps-b", "ps-c"}, [Relation("E", 2, [("ps-a", "ps-b")])]
    )
    PLAN_STORE.invalidate(db=db)  # drop leftovers from earlier runs
    PLAN_STORE.program_plan(_tc(), db)
    db.apply_delta(Delta.insert("E", ("ps-b", "ps-c")), invalidate_plans=False)
    assert PLAN_STORE.invalidate(db=db) == 1  # the entry survived


def test_update_stream_keeps_plan_store_bounded():
    # Regression: every apply_delta supersedes a db value, and engines
    # also compile against *derived* databases (per-stratum working dbs,
    # grounding interpretations).  Before the eager lineage eviction, a
    # long update stream filled the LRU with plans no lookup could ever
    # hit again; now each update evicts the superseded value's whole
    # derived family, so the stream leaves only the newest generation.
    from repro.materialize import Delta

    program = _tc()
    db = Database({0, 1}, [Relation("E", 2, [(0, 1)])])
    before = len(PLAN_STORE)
    for i in range(1000):
        # Compile against the current value AND a database derived from
        # it (what the stratified engine's working databases look like).
        PLAN_STORE.program_plan(program, db)
        derived = db.with_relation(Relation("S", 2, [(0, 1)]))
        PLAN_STORE.rule_plan(program.rules[0], db=derived)
        # Fresh values each step: the universe grows, so no db value in
        # the stream ever repeats (the worst case for the old LRU).
        db = db.apply_delta(Delta.insert("E", (i + 1, i + 2)))
    assert len(PLAN_STORE) <= before + 8
    assert len(PLAN_STORE) < PLAN_STORE.maxsize


def test_apply_delta_evicts_plans_of_derived_databases():
    from repro.materialize import Delta

    db = Database({"ln-a", "ln-b"}, [Relation("E", 2, [("ln-a", "ln-b")])])
    working = db.with_relation(Relation("S", 2, [("ln-a", "ln-b")]))
    PLAN_STORE.rule_plan(_tc().rules[0], db=working)
    db.apply_delta(Delta.insert("E", ("ln-b", "ln-a")))
    # The derived working database's entry is gone too, not just the
    # base value's: a second scan finds nothing left to drop.
    assert PLAN_STORE.invalidate(db=working) == 0


def test_materialized_view_survives_store_invalidation():
    # The view's maintenance plans are compiled db-free and referenced
    # view-locally, so the invalidation its own deltas trigger (and even
    # a full store clear) cannot stale or lose them.
    from repro.graphs import generators as gg
    from repro.materialize import Delta, MaterializedView

    program = parse_program(
        "TC(X, Y) :- E(X, Y). TC(X, Y) :- E(X, Z), TC(Z, Y). N(X, Y) :- !TC(X, Y)."
    )
    view = MaterializedView(program, graph_to_database(gg.path(4)), "stratified")
    view.apply(Delta.insert("E", (4, 1)))
    PLAN_STORE.invalidate()
    view.apply(Delta.delete("E", (4, 1)))
    from repro.core.semantics import stratified_semantics as _strat

    assert view.result.idb == _strat(program, view.db).idb
