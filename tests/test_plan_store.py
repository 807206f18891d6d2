"""Unit tests for the plan memo: a plan is a function of its rule.

``compile_rule(rule, small_preds)`` never reads a database, so it is
memoised in place (a bounded ``functools.lru_cache``) and every engine,
view and the grounder share one compilation per rule.  These tests pin
down that contract — equal rules hit, the small-predicate hint is part
of the key, the bound holds — and the work it saves: a new database
value compiles nothing.
"""

from __future__ import annotations

from repro import Database, Relation, parse_program
from repro.core.literals import Atom
from repro.core.planning import BatchJoin, compile_rule
from repro.core.rules import Rule
from repro.core.semantics import (
    naive_least_fixpoint,
    seminaive_least_fixpoint,
    stratified_semantics,
)
from repro.core.terms import Variable
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database
from repro.materialize import Delta, MaterializedView
from repro.queries import distance_program


def _tc():
    return parse_program("S(X, Y) :- E(X, Y). S(X, Y) :- E(X, Z), S(Z, Y).")


def _acyc():
    return parse_program(
        "TC(X, Y) :- E(X, Y). TC(X, Y) :- E(X, Z), TC(Z, Y). "
        "ACYC(X, Y) :- E(X, Y), !TC(Y, X).",
        carrier="ACYC",
    )


def _misses():
    return compile_rule.cache_info().misses


def join_preds(plan):
    """The plan's join order: the predicates of its ``BatchJoin`` ops."""
    return [op.pred for op in plan.ops if isinstance(op, BatchJoin)]


def test_equal_rules_hit_one_entry():
    rule = parse_program("PsEq(X) :- E(X, Y), !F(Y).").rules[0]
    again = parse_program("PsEq(X) :- E(X, Y), !F(Y).").rules[0]
    assert rule is not again and rule == again
    first = compile_rule(rule)
    hits = compile_rule.cache_info().hits
    assert compile_rule(again) is first  # equal values, fresh objects
    assert compile_rule.cache_info().hits == hits + 1


def test_rule_plan_hits_and_counts():
    rule = parse_program("PsHit(X) :- E(X, X).").rules[0]
    before = compile_rule.cache_info()
    a = compile_rule(rule)
    b = compile_rule(rule)
    after = compile_rule.cache_info()
    assert a is b
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_small_preds_hint_is_part_of_the_key():
    rule = parse_program("PsSmall(X, Y) :- E(X, Z), PsSmall(Z, Y).").rules[0]
    misses = _misses()
    plain = compile_rule(rule)
    hinted = compile_rule(rule, frozenset({"PsSmall"}))
    assert plain is not hinted
    assert _misses() == misses + 2
    assert join_preds(plain) == ["E", "PsSmall"]
    assert join_preds(hinted) == ["PsSmall", "E"]


def test_a_plan_is_a_function_of_its_key_not_of_what_ran_before():
    # Running an unrelated program that happens to call a small EDB
    # relation by the same name must not change the join order a fresh
    # compile of the very same rule picks.
    rule = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).").rules[0]

    def order():
        return join_preds(compile_rule.__wrapped__(rule))

    before = order()
    other = parse_program("P(X, Y) :- SEL(X, Y). P(X, Y) :- SEL(X, Z), P(Z, Y).")
    other_db = Database({1, 2, 3}, [Relation("SEL", 2, [(1, 2), (2, 3)])])
    assert len(naive_least_fixpoint(other, other_db).carrier_value) == 3
    assert order() == before == ["Big", "SEL"]
    assert join_preds(compile_rule(rule)) == before


def test_lru_eviction_respects_maxsize():
    maxsize = compile_rule.cache_info().maxsize
    x, y = Variable("X"), Variable("Y")
    rules = [
        Rule(Atom("PsLru%d" % i, (x,)), (Atom("E", (x, y)),))
        for i in range(maxsize + 1)
    ]
    for rule in rules:
        compile_rule(rule)
    assert compile_rule.cache_info().currsize == maxsize
    misses = _misses()
    compile_rule(rules[0])  # the least recently used entry was evicted
    assert _misses() == misses + 1


def test_invalidate_everything_and_clear():
    compile_rule(_tc().rules[0])
    compile_rule.cache_clear()
    info = compile_rule.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    compile_rule(_tc().rules[0])
    assert _misses() == 1


def test_engines_share_the_global_store():
    # Once a program's rules are compiled, no engine compiles them again,
    # on this input or another: naive and semi-naive share the base
    # rules' plans, and stratified evaluation funnels through semi-naive.
    program, db = _tc(), graph_to_database(gg.path(5))
    naive_least_fixpoint(program, db)
    seminaive_least_fixpoint(program, db)
    misses = _misses()
    naive_least_fixpoint(program, db)
    seminaive_least_fixpoint(program, graph_to_database(gg.cycle(7)))
    stratified_semantics(program, db)
    stratified_semantics(program, graph_to_database(gg.cycle(7)))
    assert _misses() == misses


def test_update_stream_keeps_plan_store_bounded():
    # A database value is an argument of a plan, never part of its key:
    # a long stream of fresh values (the universe grows every step, so
    # no value ever repeats) interleaved with engine calls adds nothing
    # to the memo once the program's rules are compiled.
    program = _acyc()
    db = Database({0, 1}, [Relation("E", 2, [(0, 1)])])
    stratified_semantics(program, db)
    naive_least_fixpoint(_tc(), db)
    before = compile_rule.cache_info()
    for i in range(1, 1001):
        db = db.apply_delta(
            Delta(inserts={"E": [(i, i + 1)]}, deletes={"E": [(i - 1, i)]})
        )
        assert stratified_semantics(program, db).idb["ACYC"].tuples == {(i, i + 1)}
        naive_least_fixpoint(_tc(), db)
    after = compile_rule.cache_info()
    assert len(db.universe) == 1002
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_materialized_view_survives_store_invalidation():
    # The view holds its maintenance plans itself, so even clearing the
    # memo cannot stale or lose them.
    program = parse_program(
        "TC(X, Y) :- E(X, Y). TC(X, Y) :- E(X, Z), TC(Z, Y). N(X, Y) :- !TC(X, Y)."
    )
    view = MaterializedView(program, graph_to_database(gg.path(4)), "stratified")
    view.apply(Delta.insert("E", (4, 1)))
    compile_rule.cache_clear()
    view.apply(Delta.delete("E", (4, 1)))
    assert view.result.idb == stratified_semantics(program, view.db).idb


# ----------------------------------------------------------------------
# The work a database-free plan saves
# ----------------------------------------------------------------------


def test_recompute_view_compiles_nothing_after_its_first_apply():
    # Distance is not semipositive, so its inflationary view recomputes
    # on every apply — over a new database value each time.
    view = MaterializedView(
        distance_program(), graph_to_database(gg.path(12)), "inflationary"
    )
    view.apply(Delta.insert("E", (12, 1)))
    misses = _misses()
    for delta in (
        Delta.delete("E", (12, 1)),
        Delta.insert("E", (5, 2)),
        Delta.insert("E", (3, 13)),  # a fresh value: the universe grows
        Delta.delete("E", (5, 2)),
        Delta.insert("E", (12, 1)),
    ):
        view.apply(delta)
    assert view.recomputes == 6
    assert _misses() == misses


def test_stratified_semantics_compiles_nothing_for_a_new_database_value():
    program = _acyc()
    db = graph_to_database(gg.path(6))
    stratified_semantics(program, db)
    misses = _misses()
    for delta in (
        Delta.insert("E", (6, 1)),
        Delta.delete("E", (2, 3)),
        Delta.insert("E", (6, 7)),  # a fresh value: the universe grows
        Delta.insert("E", (2, 3)),
        Delta.delete("E", (6, 1)),
    ):
        db = db.apply_delta(delta)
        stratified_semantics(program, db)
    assert _misses() == misses
