"""Tests for the rule-compilation subsystem (:mod:`repro.core.planning`).

The load-bearing guarantees:

* **three-way equivalence**: on arbitrary rules — including repeated
  variables, constants, zero-ary relations, and unsafe active-domain
  completion — the reference evaluator, the columnar executor's packed
  heads (``execute_plan`` / ``colexec.execute_plan_codes``) and its
  unpacked bindings (``solve_bindings``) all derive the same tuples;
* every engine that now evaluates through plans (naive, semi-naive,
  inflationary, stratified) computes the same valuations as
  the legacy uncompiled Theta iteration;
* the batch compiler actually schedules negations as anti-joins and
  completions as ``@U`` joins, filtered before they are crossed
  (plan-shape tests), so the fast paths cannot silently regress to
  enumerate-then-filter.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from strategies import (
    disconnected_programs,
    positive_programs,
    random_programs,
    small_databases,
)

from repro import Database, Relation, parse_program
from repro.core.fixpoint import idb_equal, idb_union
from repro.core.operator import (
    as_interpretation,
    consequences,
    empty_idb,
    evaluate_rule,
    evaluate_rule_legacy,
    theta,
    theta_legacy,
)
from repro.core.planning import (
    AntiJoin,
    BatchJoin,
    Project,
    RulePlan,
    colexec,
    compile_rule,
    execute_plan,
    solve_bindings,
)
from repro.core.semantics import (
    inflationary_semantics,
    naive_least_fixpoint,
    seminaive_least_fixpoint,
    stratified_semantics,
)
from repro.db.kernel import RelationCodes
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database
from repro.queries import distance_program


# ----------------------------------------------------------------------
# Legacy reference iterations (no planner anywhere on the path)
# ----------------------------------------------------------------------


def legacy_least_fixpoint(program, db):
    """Naive least-fixpoint iteration via the pre-planner evaluator."""
    current = empty_idb(program)
    while True:
        nxt = theta_legacy(program, db, current)
        if idb_equal(nxt, current):
            return current
        current = nxt


def legacy_inflationary(program, db):
    """Inflationary iteration via the pre-planner evaluator."""
    current = empty_idb(program)
    while True:
        nxt = idb_union([current, theta_legacy(program, db, current)])
        if idb_equal(nxt, current):
            return current
        current = nxt


# ----------------------------------------------------------------------
# Single-rule equivalence: legacy == packed heads == bindings (three-way)
# ----------------------------------------------------------------------


def binding_heads(plan, interp):
    """Head tuples projected from the executor's unpacked bindings."""
    return {
        tuple(payload if is_const else row[payload] for is_const, payload in plan.head_cols)
        for row in binding_rows(plan, interp)
    }


def binding_rows(plan, interp):
    """The executor's bindings as value tuples."""
    symbols, table = solve_bindings(plan, interp)
    return symbols.extern_rows(table.cols, table.nrows)


def columnar_heads(plan, interp):
    """Head tuples of the columnar executor, called directly."""
    sym, head_codes = colexec.execute_plan_codes(plan, interp)
    return RelationCodes(sym, len(plan.head_cols), head_codes).decode()


def assert_three_way(rule, interp, arities):
    """Reference evaluator, packed heads and bindings must agree."""
    plan = compile_rule(rule)
    legacy = evaluate_rule_legacy(rule, interp, arities)
    assert binding_heads(plan, interp) == legacy
    head = execute_plan(plan, interp)
    assert (head.name, head.arity) == (plan.head_pred, len(plan.head_cols))
    assert head.code_only is not None
    assert head.tuples == legacy
    assert columnar_heads(plan, interp) == legacy


@given(random_programs(), small_databases())
def test_evaluate_rule_matches_legacy_on_random_rules(program, db):
    interp = as_interpretation(program, db, theta_legacy(program, db))
    arities = program.arities
    for rule in program.rules:
        assert evaluate_rule(rule, interp, arities) == evaluate_rule_legacy(
            rule, interp, arities
        )


@given(random_programs(include_zeroary=True), small_databases())
def test_three_way_executor_equivalence_on_random_rules(program, db):
    # Evaluate against a non-trivial interpretation (one legacy Theta step)
    # so negated IDB literals actually exclude something.
    interp = as_interpretation(program, db, theta_legacy(program, db))
    arities = program.arities
    for rule in program.rules:
        assert_three_way(rule, interp, arities)


@given(random_programs(include_zeroary=True), small_databases())
def test_bindings_match_the_spec_under_total_heads(program, db):
    # With a pseudo-head naming every rule variable (the grounder's
    # construction) no variable is existence-projected: the executor's
    # bindings are exactly the spec's head set, duplicate-free.
    from repro.core.literals import Atom
    from repro.core.rules import Rule

    interp = as_interpretation(program, db, theta_legacy(program, db))
    for rule in program.rules:
        all_vars = sorted(rule.variables(), key=lambda v: v.name)
        pseudo = Rule(Atom("__all__", tuple(all_vars)), rule.body)
        plan = compile_rule(pseudo)
        rows = binding_rows(plan, interp)
        assert len(rows) == len(set(rows))
        assert binding_heads(plan, interp) == evaluate_rule_legacy(pseudo, interp)


@given(random_programs(), small_databases())
def test_theta_matches_legacy_theta(program, db):
    # Compare along a whole non-cumulative iteration, not just round 1.
    current = empty_idb(program)
    for _ in range(4):
        compiled = theta(program, db, current)
        legacy = theta_legacy(program, db, current)
        assert idb_equal(compiled, legacy)
        current = compiled


@pytest.mark.parametrize(
    "source",
    [
        # Repeated variables in body atoms and head.
        "T(X) :- E(X, X). S(X, X) :- E(X, Y), E(Y, X).",
        # Constants in body and head argument positions.
        "T(X) :- E(1, X). S(2, Y) :- E(Y, 2), !T(2).",
        # Unsafe rules: completion over the whole universe.
        "T(Z) :- !S(U, U), !T(W). S(X, Y) :- E(X, Y).",
        # Pure cross product plus interleaved comparisons.
        "S(X, Y) :- T(X), T(Y), X != Y. T(X) :- E(X, Y), X = Y.",
        # Filters only ready during completion.
        "T(X) :- !E(X, X). S(X, Y) :- !E(X, Y), X != Y.",
        # The paper's toggle gadget: every variable completed, negation-only.
        "T(Z) :- !Q(U), !T(W). Q(X) :- Q(X).",
        # Fully-unsafe rules: every variable of every rule is completed.
        "S(U, V) :- !E(U, V). T(W) :- !S(W, W).",
        # Repeated *head* variables fed by completion.
        "S(W, W) :- !T(W). T(X) :- E(X, Y).",
        # Zero-ary relations, positive and negated.
        "B() :- E(X, Y). T(X) :- E(X, Y), !B().",
        "B() :- !C(). C() :- E(X, X). T(Z) :- !B().",
        # Keyed complement: the negated atom mixes bound and completed vars.
        "S(X, W) :- E(X, Y), !S(X, W). T(X) :- E(X, Y), !S(Y, W).",
    ],
)
def test_compiled_rules_handle_hard_shapes(source):
    program = parse_program(source, carrier="T")
    db = Database(
        {1, 2, 3}, [Relation("E", 2, [(1, 2), (2, 2), (2, 3), (3, 1)])]
    )
    current = empty_idb(program)
    for _ in range(4):
        interp = as_interpretation(program, db, current)
        for rule in program.rules:
            assert_three_way(rule, interp, program.arities)
        current = theta(program, db, current)


def test_plan_shape_for_transitive_closure():
    program = parse_program("S(X, Y) :- E(X, Z), S(Z, Y).")
    plan = compile_rule(program.rules[0])
    # Two join steps, no completion, and the second step keyed on the
    # variable bound by the first.
    assert len(join_preds(plan)) == 2
    assert not _universe_joins(plan)
    first, second = [op for op in plan.ops if isinstance(op, BatchJoin)]
    assert first.key_columns == ()  # nothing bound yet
    assert len(second.key_columns) == 1
    assert "join" in plan.describe()


def test_join_order_ties_break_on_small_preds_then_body_position():
    # A plan never reads a database: with nothing else to choose between
    # two atoms sharing one variable, the body order decides — unless
    # the caller declares one predicate small (a semi-naive delta).
    rule = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).").rules[0]
    assert join_preds(compile_rule(rule)) == ["Big", "SEL"]
    hinted = compile_rule(rule, frozenset({"SEL"}))
    assert join_preds(hinted) == ["SEL", "Big"]


def test_batch_plan_uses_antijoin_for_bound_negation():
    program = parse_program("T(X) :- E(X, Y), !T(Y).")
    plan = compile_rule(program.rules[0])
    kinds = [type(op) for op in plan.ops]
    assert AntiJoin in kinds
    assert not _universe_joins(plan)


def join_preds(plan):
    """The plan's join order: the predicates of its ``BatchJoin`` ops."""
    return [op.pred for op in plan.ops if isinstance(op, BatchJoin)]


def _universe_joins(plan):
    """Indices of the plan's joins with the universe relation ``@U``."""
    return [
        i
        for i, op in enumerate(plan.ops)
        if isinstance(op, BatchJoin) and op.pred == "@U"
    ]


def test_batch_plan_schedules_complement_join_for_unsafe_negation():
    # The E8 distance shape: completion variables feed a negated IDB atom
    # and are in the head.  Each joins @U, and the negation is an
    # anti-join — run on the completion component alone (at most |U|^2
    # rows) before the ordinary atoms are crossed with what survives.
    program = parse_program(
        "S3(X, Y, U, V) :- E(X, Y), !S2(U, V). S2(X, Y) :- E(X, Y).",
        carrier="S3",
    )
    plan = compile_rule(program.rules[0])
    kinds = [(type(op), getattr(op, "pred", None)) for op in plan.ops]
    assert kinds == [
        (BatchJoin, "@U"),
        (BatchJoin, "@U"),
        (AntiJoin, "S2"),
        (BatchJoin, "E"),
    ]
    assert all(not plan.ops[i].key_columns for i in _universe_joins(plan))
    assert "join @U/1" in plan.describe()


def test_distance_filters_its_completion_before_crossing_it():
    # Both S3 rules of the distance program cross a component of
    # ordinary atoms with !S2(Xs, Ys) over completion variables.  Every
    # op before the S2 anti-join is an @U join, so at most |U|^2 rows
    # enter it (not |S1| * |U|^2).
    program = distance_program()
    rules = [r for r in program.rules if r.head.pred == "S3"]
    assert len(rules) == 2
    db = graph_to_database(gg.path(6))
    model = stratified_semantics(program, db).idb
    interp = as_interpretation(program, db, model)
    n = len(db.universe)
    for rule in rules:
        plan = compile_rule(rule)
        (anti,) = [
            i
            for i, op in enumerate(plan.ops)
            if isinstance(op, AntiJoin) and op.pred == "S2"
        ]
        assert anti == 2
        assert _universe_joins(plan)[:anti] == list(range(anti))
        prefix = RulePlan(
            rule=plan.rule,
            head_pred=plan.head_pred,
            schema=plan.schema[:anti],
            ops=plan.ops[:anti],
            head_cols=(),
        )
        assert colexec.solve_plan(prefix, interp)[1].nrows == n * n
        assert_three_way(rule, interp, program.arities)
    # A semi-naive variant declares its delta small: that component
    # still joins first, and the completion is crossed after it.
    hinted = compile_rule(rules[1], frozenset({"S1"}))
    assert join_preds(hinted) == ["S1", "E", "@U", "@U"]


def test_batch_plan_uses_existence_checks_for_projected_completions():
    # Theorem 1's guarded toggle: U and W are head-absent and feed one
    # negation each, so neither may multiply the row set.
    program = parse_program("T(Z) :- !Q(U), !T(W). Q(X) :- Q(X).", carrier="T")
    plan = compile_rule(program.rules[0])
    kinds = [(type(op), getattr(op, "pred", None)) for op in plan.ops]
    # Each head-disconnected component runs first and is projected away
    # (to at most one row) before the next cross product; Z, in the
    # head, is completed last.
    assert kinds == [
        (BatchJoin, "@U"),
        (AntiJoin, "Q"),
        (Project, None),
        (BatchJoin, "@U"),
        (AntiJoin, "T"),
        (Project, None),
        (BatchJoin, "@U"),
    ]
    assert all(op.columns == () for op in plan.ops if isinstance(op, Project))
    # The schema carries only what downstream reads: Z, not U or W.
    assert [v.name for v in plan.schema] == ["Z"]


def test_existential_completion_does_not_multiply_rows():
    program = parse_program(
        "T(Z) :- E(Z, Z2), !Q(U), !T(W). Q(X) :- E(X, X).", carrier="T"
    )
    n = 200
    db = Database(range(n), [Relation("E", 2, [(i, (i + 1) % n) for i in range(n)])])
    interp = as_interpretation(
        program, db, {"Q": Relation("Q", 1, [(0,)]), "T": Relation("T", 1, [(1,)])}
    )
    plan = compile_rule(program.rules[0])
    # Both existential components collapse before the E scan: the scan
    # sees one row, so the frontier never exceeds max(|A|, |E|).
    assert [type(op) for op in plan.ops].count(Project) == 2
    assert isinstance(plan.ops[-1], BatchJoin) and plan.ops[-1].pred == "E"
    symbols, table = colexec.solve_plan(plan, interp)
    assert table.nrows == n
    assert_three_way(program.rules[0], interp, program.arities)


def test_batch_plan_keys_the_complement_by_bound_positions():
    program = parse_program("T(X) :- E(X, Y), !S(Y, W). S(X, Y) :- E(X, Y).")
    plan = compile_rule(program.rules[0])
    # W is completed by @U after E binds Y; the anti-join reads both.
    (at,) = _universe_joins(plan)
    anti = [op for op in plan.ops if isinstance(op, AntiJoin)]
    assert len(anti) == 1 and anti[0].pred == "S"
    assert plan.ops.index(anti[0]) > at
    assert [v.name for v in plan.schema] == ["X", "Y", "W"]


def test_existence_checks_ignore_out_of_universe_tuples():
    # Rules can derive head constants the database never mentions; such
    # tuples must not make an existence-only complement check think the
    # relation covers the universe.  (Regression: the check used to
    # compare raw cardinalities against |A|^k.)
    program = parse_program("Q(2) :- . T(X) :- E(X, X), !Q(W).", carrier="T")
    db = Database({1}, [Relation("E", 2, [(1, 1)])])
    interp = as_interpretation(
        program, db, {"Q": Relation("Q", 1, [(2,)]), "T": Relation("T", 1, [])}
    )
    rule = program.rules[1]
    assert_three_way(rule, interp, program.arities)
    assert evaluate_rule(rule, interp) == {(1,)}
    # Keyed variant: the excluded projection carries the foreign value.
    program2 = parse_program("S(1, 2) :- . T(X) :- E(X, Y), !S(Y, W).", carrier="T")
    interp2 = as_interpretation(
        program2, db, {"S": Relation("S", 2, [(1, 2)]), "T": Relation("T", 1, [])}
    )
    assert_three_way(program2.rules[1], interp2, program2.arities)


@given(disconnected_programs(), small_databases())
def test_cross_product_bodies_keep_every_component(program, db):
    # Bodies with disconnected variable graphs are pure cross products:
    # the join order, the projections before a product and the filters
    # attached per component must not drop one.  Every rule agrees with
    # the legacy evaluator.
    interp = as_interpretation(program, db, theta_legacy(program, db))
    arities = program.arities
    for rule in program.rules:
        assert_three_way(rule, interp, arities)


def test_scan_tuples_that_cannot_join_leave_no_trace():
    # Q(X, Y) :- Big(X, Z), SEL(Z, Y): only Big tuples whose Z appears in
    # SEL contribute; the scan of Big meets every other tuple too.
    program = parse_program("Q(X, Y) :- Big(X, Z), SEL(Z, Y).", carrier="Q")
    db = Database(
        set(range(10)),
        [
            Relation("Big", 2, [(i, i % 5) for i in range(5, 10)]),
            Relation("SEL", 2, [(0, 9), (1, 9)]),
        ],
    )
    rule = program.rules[0]
    assert_three_way(rule, db, program.arities)
    assert execute_plan(compile_rule(rule), db).tuples == {(5, 9), (6, 9)}


def test_consequences_groups_by_head():
    program = parse_program("T(X) :- E(X, Y). T(X) :- E(Y, X). S(X, Y) :- E(X, Y).")
    db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    plans = [compile_rule(r) for r in program.rules]
    derived = consequences(
        plans, as_interpretation(program, db), {"T": 1, "S": 2, "U": 3}
    )
    assert {p: r.tuples for p, r in derived.items()} == {
        "T": {(1,), (2,)},
        "S": {(1, 2)},
        "U": set(),
    }
    assert all(r.name == p for p, r in derived.items())
    assert theta(program, db) == {p: derived[p] for p in ("T", "S")}


# ----------------------------------------------------------------------
# Cross-engine equivalence against the legacy uncompiled path
# ----------------------------------------------------------------------


@settings(max_examples=25)
@given(positive_programs(), small_databases())
def test_compiled_naive_equals_legacy_iteration(program, db):
    assert idb_equal(
        naive_least_fixpoint(program, db).idb, legacy_least_fixpoint(program, db)
    )


@settings(max_examples=25)
@given(positive_programs(), small_databases())
def test_compiled_seminaive_equals_legacy_iteration(program, db):
    assert idb_equal(
        seminaive_least_fixpoint(program, db).idb,
        legacy_least_fixpoint(program, db),
    )


@settings(max_examples=25)
@given(random_programs(), small_databases())
def test_compiled_inflationary_equals_legacy_iteration(program, db):
    assert idb_equal(
        inflationary_semantics(program, db).idb, legacy_inflationary(program, db)
    )


@settings(max_examples=25)
@given(positive_programs(), small_databases())
def test_compiled_stratified_equals_legacy_iteration(program, db):
    # Positive programs are trivially stratifiable (one stratum) and their
    # stratified semantics is the least fixpoint.
    assert idb_equal(
        stratified_semantics(program, db).idb, legacy_least_fixpoint(program, db)
    )
