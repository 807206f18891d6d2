"""Well-founded view maintenance equals from-scratch recomputation.

The central property of the PR-5 subsystem: after *any* sequence of EDB
deltas, a ``MaterializedView(semantics="wellfounded")``'s three-valued
model is extensionally equal to running the alternating fixpoint from
scratch on the mutated database — the **true**, **undefined** and
**false** partitions all agree — across insert-only, delete-only and
mixed sequences, the paper's win–move phenomenology (paths, even cycles,
odd cycles), random non-stratifiable programs, and batched/rolled-back
transactions.

The differential harness runs 200 Hypothesis examples per delta-polarity
class (the ISSUE 5 acceptance bar), overriding the profile's default.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings, target

from repro import Database, Relation
from repro.core.grounding import GroundRule, ground_program
from repro.core.literals import Atom, Negation
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.terms import Constant, Variable
from repro.core.semantics import well_founded_semantics
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database
from repro.materialize import Delta, MaterializedView
from repro.materialize.wellfounded_maint import LiveGroundProgram, undef_name
from repro.queries import pi1, win_move_program

from strategies import (
    assert_index_matches,
    assert_seeded_counts,
    databases_and_deltas,
    live_rules,
    nonstratifiable_programs,
    random_programs,
    small_databases,
)

DEEP = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _atom_space(program, db):
    """Every ground IDB atom over the database's universe."""
    from itertools import product

    atoms = set()
    for pred in program.idb_predicates:
        for values in product(sorted(db.universe), repeat=program.arity(pred)):
            atoms.add((pred, values))
    return atoms


def _assert_partitions_equal(program, view):
    """All three partitions of the maintained model match a recompute."""
    reference = well_founded_semantics(program, view.db)
    result = view.result
    assert result.true == reference.true
    assert result.undefined == reference.undefined
    # The false partition is the complement over the shared atom space;
    # with identical universes and true/undefined sets it is forced, but
    # assert it explicitly — that is the contract under test.
    space = _atom_space(program, view.db)
    assert (space - result.true - result.undefined) == (
        space - reference.true - reference.undefined
    )


def _check_sequence(program, db, deltas):
    view = MaterializedView(program, db, semantics="wellfounded")
    for delta in deltas:
        before = view.result
        changeset = view.apply(delta)
        _assert_partitions_equal(program, view)
        _assert_changeset_is_the_moves(program, changeset, before, view.result)
    return view


def _assert_changeset_is_the_moves(program, changeset, before, after):
    """The changeset reports exactly the true/undefined moves."""
    for pred in program.idb_predicates:
        t_ins = {v for p, v in after.true - before.true if p == pred}
        t_del = {v for p, v in before.true - after.true if p == pred}
        u_ins = {v for p, v in after.undefined - before.undefined if p == pred}
        u_del = {v for p, v in before.undefined - after.undefined if p == pred}
        assert changeset.inserted.get(pred, frozenset()) == t_ins
        assert changeset.deleted.get(pred, frozenset()) == t_del
        assert changeset.inserted.get(undef_name(pred), frozenset()) == u_ins
        assert changeset.deleted.get(undef_name(pred), frozenset()) == u_del


# ----------------------------------------------------------------------
# Directed seeds: the paper's win–move phenomenology
# ----------------------------------------------------------------------


class TestWinMoveSeeds:
    def test_path_stays_total(self):
        """On L_6 the WFM is total; updates keep it maintained exactly."""
        view = _check_sequence(
            win_move_program(),
            graph_to_database(gg.path(6)),
            [
                Delta.insert("E", (3, 3)),   # self-loop on a winning node
                Delta.delete("E", (3, 3)),
                Delta.delete("E", (5, 6)),   # move the dead end: parity flips
                Delta.insert("E", (5, 6)),
            ],
        )
        assert view.recomputes == 0
        assert view.result.is_total

    def test_odd_cycle_all_undefined(self):
        """Closing an odd cycle drowns every position in undefinedness."""
        view = _check_sequence(
            win_move_program(),
            graph_to_database(gg.path(5)),
            [
                Delta.insert("E", (5, 1)),   # C_5: no fixpoint, all undefined
                Delta.delete("E", (3, 4)),   # break it: decided again
                Delta.insert("E", (3, 4)),
            ],
        )
        assert view.recomputes == 0

    def test_even_cycle_undefined_region(self):
        """An even cycle leaves its positions undefined (two fixpoints)."""
        cycle4 = [(1, 2), (2, 3), (3, 4), (4, 1)]
        db = Database({1, 2, 3, 4, 5, 6}, [Relation("E", 2, cycle4)])
        view = _check_sequence(
            win_move_program(),
            db,
            [
                Delta.insert("E", (1, 5)),   # escape hatch to an isolated node
                Delta.insert("E", (5, 6)),   # ...whose continuation dead-ends
                Delta.delete("E", (1, 2)),   # open the cycle
            ],
        )
        assert view.recomputes == 0

    def test_pi1_odd_cycle(self):
        """pi_1 (win–move over reversed edges) on C_3, mutated both ways."""
        _check_sequence(
            pi1(),
            graph_to_database(gg.cycle(3)),
            [
                Delta.delete("E", (1, 2)),
                Delta.insert("E", (1, 2)),
                Delta.insert("E", (2, 2)),
            ],
        )

    def test_universe_growth_is_a_delta(self):
        view = MaterializedView(
            win_move_program(), graph_to_database(gg.path(4)),
            semantics="wellfounded",
        )
        view.apply(Delta.insert("E", (4, 9)))  # 9 is a brand-new element
        assert view.recomputes == 0
        assert 9 in view.db.universe
        _assert_partitions_equal(win_move_program(), view)
        view.apply(Delta.delete("E", (2, 3)))
        assert view.recomputes == 0
        _assert_partitions_equal(win_move_program(), view)

    def test_alternation_lengthens_and_shrinks(self):
        """Chopping the path moves the dead end closer (fewer rounds from
        scratch); restoring it lengthens the alternation again."""
        program = win_move_program()
        db = graph_to_database(gg.path(8))
        view = MaterializedView(program, db, semantics="wellfounded")
        view.apply(Delta.delete("E", (4, 5)))
        _assert_partitions_equal(program, view)
        view.apply(Delta.insert("E", (4, 5)))
        _assert_partitions_equal(program, view)


# ----------------------------------------------------------------------
# The incremental grounder in isolation
# ----------------------------------------------------------------------


def _check_patches(program, db, deltas):
    live = LiveGroundProgram(program, db)
    for delta in deltas:
        changes = {
            name: (delta.inserts(name), delta.deletes(name))
            for name in delta.relations()
        }
        fresh = delta.values() - live.db.universe
        if fresh:  # growth is an @U insertion, as the view hands it over
            changes["@U"] = (frozenset((v,) for v in fresh), frozenset())
        new_db = live.db.apply_delta(delta)
        added, removed = live.apply(new_db, changes)
        new = range(len(live.index.head) - len(added), len(live.index.head))
        assert set(new).isdisjoint(removed)
        rules = live_rules(live)
        assert all(rules[r] is None for r in removed)
        atom_ids = live.index.atom_ids
        for r, body in zip(new, added):
            g = rules[r]
            assert body == (
                list(dict.fromkeys(atom_ids[a] for a in g.pos)),
                list(dict.fromkeys(atom_ids[a] for a in g.neg)),
            )
        live_set = frozenset(g for g in rules if g is not None)
        assert live_set == frozenset(ground_program(program, new_db).rules)
        assert_index_matches(live.index, rules)
        # The aliases name the database's relations; none is a copy.
        held = live._aliases.relations
        assert all(rel is new_db.get(name) for name, rel in held.items())
    return live


def _variant_reads(live):
    """Every relation some delta variant of the live grounding reads,
    change sets (``@ins`` / ``@del``) aside."""
    return {
        pred
        for state, _, _ in live._shapes
        for _, (plan, _), _ in state._variants
        for pred in plan.rule.body_predicates()
        if not pred.endswith(("@ins", "@del"))
    }


class TestLiveGroundProgram:
    def test_patch_matches_reground(self):
        from repro import parse_program

        live = _check_patches(
            pi1(),
            graph_to_database(gg.path(4)),
            [
                Delta.insert("E", (4, 1)),
                Delta.delete("E", (1, 2)),
                Delta(inserts={"E": [(1, 2), (2, 2)]}, deletes={"E": [(3, 4)]}),
            ],
        )
        # One EDB atom per rule: the variants join the change sets alone.
        assert not _variant_reads(live)
        # Two EDB atoms: the variants read E's post-change value and
        # F@old besides the change sets.
        live = _check_patches(
            parse_program("T(X) :- E(X, Y), F(Y), !T(Y)."),
            Database(
                {1, 2, 3, 4},
                [Relation("E", 2, [(1, 2), (2, 3), (3, 4)]), Relation("F", 1, [(2,), (4,)])],
            ),
            [
                Delta(inserts={"E": [(4, 1)], "F": [(1,)]}),
                Delta(inserts={"F": [(3,)]}, deletes={"E": [(1, 2)]}),
                Delta(inserts={"E": [(1, 2)]}, deletes={"F": [(2,), (4,)]}),
                Delta(inserts={"E": [(2, 2)], "F": [(2,)]}, deletes={"E": [(3, 4)]}),
            ],
        )
        assert _variant_reads(live) == {"E", "F@old"}

    def test_growth_patches_completion_variables(self):
        from repro import parse_program

        # W and Z are completion variables: a fresh value adds exactly
        # the instances that bind them to it, through the @U variants.
        live = _check_patches(
            parse_program("T(X) :- E(X, Y), !S(W).  S(Z) :- !T(Z), !E(Z, Z)."),
            graph_to_database(gg.path(3)),
            [
                Delta.insert("E", (3, 7)),
                Delta(inserts={"E": [(8, 9), (1, 1)]}, deletes={"E": [(1, 2)]}),
                Delta.delete("E", (3, 7)),
            ],
        )
        assert {"@U", "@U@old"} & _variant_reads(live)
        assert "@U@old" in live._aliases.working()

    def test_multiplicity_counted(self):
        """A ground rule backed by several EDB bindings only disappears
        when the *last* binding goes — the counting the patcher exists for."""
        from repro import parse_program

        program = parse_program("T(X) :- E(X, Z), !T(X).")  # Z occurs only in E
        db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (1, 3)])])
        live = LiveGroundProgram(program, db)
        before = live_rules(live)
        # Dropping one of the two bindings keeps the ground rule alive.
        d1 = Delta.delete("E", (1, 2))
        added, removed = live.apply(
            db.apply_delta(d1), {"E": (frozenset(), d1.deletes("E"))}
        )
        assert not added and not removed
        assert live_rules(live) == before
        # Dropping the second binding removes it.
        d2 = Delta.delete("E", (1, 3))
        added, removed = live.apply(
            live.db.apply_delta(d2), {"E": (frozenset(), d2.deletes("E"))}
        )
        assert not added
        index = live.index
        assert ("T", (1,)) in {index.atoms[index.head[r]] for r in removed}

    def test_multiplicity_change_builds_no_ground_rule(self, monkeypatch):
        """An update that only moves a binding count is count arithmetic:
        it constructs no ground rule, in either direction."""
        from repro import parse_program

        program = parse_program("T(X) :- E(X, Z), !T(X).")
        db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (1, 3)])])
        live = LiveGroundProgram(program, db)
        built = []
        init = GroundRule.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(GroundRule, "__init__", counting_init)
        for delta in (Delta.delete("E", (1, 2)), Delta.insert("E", (1, 2))):
            changes = {"E": (delta.inserts("E"), delta.deletes("E"))}
            added, removed = live.apply(live.db.apply_delta(delta), changes)
            assert not added and not removed
        assert built == []

        # A win-move view over G(2000, 4000): the build solves each
        # rule's EDB projection once, and neither it nor 200 applies
        # that add and retire ground rules build a GroundRule or decode
        # a partition.
        from repro.core.planning import colexec

        n = 2000
        rng = random.Random(5)
        edges = set()
        while len(edges) < 2 * n:
            edges.add((rng.randrange(n), rng.randrange(n)))
        edges = sorted(edges)
        program = parse_program("WIN(X) :- Move(X, Y), !WIN(Y).")
        solved = []
        solve = colexec.solve_plan

        def counting_solve(plan, interp):
            solved.append(plan)
            return solve(plan, interp)

        monkeypatch.setattr(colexec, "solve_plan", counting_solve)
        view = MaterializedView(
            program, Database(range(n), [Relation("Move", 2, edges)]), semantics="wellfounded"
        )
        assert len(solved) == len(program.rules)
        for _ in range(100):
            edge = edges[rng.randrange(len(edges))]
            view.apply(Delta.delete("Move", edge))
            view.apply(Delta.insert("Move", edge))
        assert built == []
        assert "true" not in vars(view.result)
        assert "undefined" not in vars(view.result)
        monkeypatch.undo()
        _assert_partitions_equal(program, view)

    @given(random_programs(include_zeroary=True), small_databases())
    def test_seeded_counts_equal_a_fresh_count(self, program, db):
        """The counts a view reads off the batch grounding's runs are the
        ones its counted views would count from scratch, shape by shape."""
        assert_seeded_counts(program, db)

    @given(nonstratifiable_programs(), small_databases())
    def test_seeded_counts_equal_a_fresh_count_nonstratifiable(self, program, db):
        assert_seeded_counts(program, db)

    def test_rules_of_one_shape_share_a_ground_rule(self):
        """Two rules of one shape yield the same ground rule; it survives
        losing one rule's binding while the other's holds."""
        from repro import parse_program

        program = parse_program(
            "P(X) :- E(X), !Q(X).  P(X) :- F(X), !Q(X).  Q(X) :- G(X), !P(X)."
        )
        db = Database(
            {"a", "b"},
            [
                Relation("E", 1, [("a",)]),
                Relation("F", 1, [("a",), ("b",)]),
                Relation("G", 1, [("b",)]),
            ],
        )
        shared = GroundRule(("P", ("a",)), (), (("Q", ("a",)),))
        live = _check_patches(program, db, [Delta.delete("E", ("a",))])
        assert shared in live_rules(live)
        _check_patches(
            program,
            db,
            [
                Delta.delete("E", ("a",)),
                Delta.delete("F", ("a",)),
                Delta(inserts={"E": [("a",), ("b",)]}, deletes={"F": [("b",)]}),
                Delta(inserts={"F": [("a",), ("c",)]}, deletes={"E": [("b",)]}),
            ],
        )

    def test_constants_and_zero_ary_idb_atoms(self):
        """IDB literals with constants and a zero-ary IDB atom key and
        rebuild their ground rules exactly."""
        from repro import parse_program

        x, y = Variable("X"), Variable("Y")
        program = parse_program(
            "P(X) :- E(X, Y), !Q(Y, 9).  Q(X, Y) :- E(X, Y), !P(X)."
        )
        program = Program(
            list(program.rules)
            + [
                Rule(Atom("B", ()), [Atom("E", (x, Constant(9))), Negation(Atom("P", (x,)))]),
                Rule(Atom("P", (y,)), [Atom("E", (y, y)), Negation(Atom("B", ()))]),
            ]
        )
        _check_patches(
            program,
            graph_to_database(gg.path(3)),
            [
                Delta.insert("E", (2, 9)),
                Delta.insert("E", (3, 3)),
                Delta(inserts={"E": [(9, 9)]}, deletes={"E": [(2, 9)]}),
                Delta.delete("E", (3, 3)),
                Delta.delete("E", (9, 9)),
            ],
        )


# ----------------------------------------------------------------------
# The Hypothesis differential harness (ISSUE 5: >=200 examples per class)
# ----------------------------------------------------------------------


def _property_body(program, db, deltas):
    view = MaterializedView(program, db, semantics="wellfounded")
    for delta in deltas:
        view.apply(delta)
        reference = well_founded_semantics(program, view.db)
        assert view.result.true == reference.true
        assert view.result.undefined == reference.undefined


class TestMaintenanceEqualsRecompute:
    @DEEP
    @given(program=nonstratifiable_programs(), dbd=databases_and_deltas())
    def test_mixed(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas)

    @DEEP
    @given(
        program=nonstratifiable_programs(),
        dbd=databases_and_deltas(insert_only=True),
    )
    def test_insert_only(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas)

    @DEEP
    @given(
        program=nonstratifiable_programs(),
        dbd=databases_and_deltas(delete_only=True),
    )
    def test_delete_only(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas)

    @DEEP
    @given(
        program=nonstratifiable_programs(),
        dbd=databases_and_deltas(grow=False),
    )
    def test_batched_equals_recompute(self, program, dbd):
        """One apply_many pass over the whole sequence is still exact."""
        db, deltas = dbd
        view = MaterializedView(program, db, semantics="wellfounded")
        view.apply_many(deltas)
        reference = well_founded_semantics(program, view.db)
        assert view.result.true == reference.true
        assert view.result.undefined == reference.undefined


# ----------------------------------------------------------------------
# The over-delete step: the pair it hands to the resume loop
# ----------------------------------------------------------------------


def _apply_capturing_pairs(view, delta):
    """Apply ``delta``; every ``(true, possible)`` pair the resume loop
    started from, as atom sets."""
    from itertools import compress

    from repro.core.semantics.wellfounded import AlternationPair

    pairs = []
    original = AlternationPair.resume

    def spy(pair, fired, seeds):
        atoms = pair.index.atoms
        pairs.append(
            (set(compress(atoms, pair.true)), set(compress(atoms, pair.possible)))
        )
        return original(pair, fired, seeds)

    AlternationPair.resume = spy
    try:
        view.apply(delta)
    finally:
        AlternationPair.resume = original
    return pairs


_ODD_CYCLE_WITH_TAIL = Database(
    range(1, 8),
    [Relation("E", 2, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (6, 7)])],
)


class TestOverDeletion:
    @DEEP
    @given(program=nonstratifiable_programs(), dbd=databases_and_deltas(grow=False))
    @example(
        program=win_move_program(),
        dbd=(
            _ODD_CYCLE_WITH_TAIL,
            [
                Delta.insert("E", (5, 6)),
                Delta.delete("E", (3, 1)),
                Delta(inserts={"E": [(3, 1), (7, 1)]}, deletes={"E": [(4, 5)]}),
            ],
        ),
    )
    def test_over_deleted_pair_is_below_the_new_model(self, program, dbd):
        """``(T', P')`` lies below the new model (``T' ⊆ T*``,
        ``P' ⊇ P*``) and meets the resume loop's invariants
        (``T' ⊆ A(P')``, ``A(T') ⊆ P'``) — the soundness condition of
        the over-deletion itself, checked before the loop can repair a
        too-small one."""
        from repro.core.semantics.wellfounded import _least_model_of_reduct

        db, deltas = dbd
        view = MaterializedView(program, db, semantics="wellfounded")
        both = 0
        for delta in deltas:
            pairs = _apply_capturing_pairs(view, delta)
            reference = well_founded_semantics(program, view.db)
            ground = ground_program(program, view.db)
            possible = reference.true | reference.undefined
            for true_, possible_ in pairs:
                assert true_ <= reference.true
                assert possible_ >= possible
                assert true_ <= _least_model_of_reduct(ground, possible_)
                assert _least_model_of_reduct(ground, true_) <= possible_
            both = max(both, min(len(reference.true), len(reference.undefined)))
        target(float(both))


class TestExceptionContract:
    def test_interrupt_in_resume_leaves_the_view_unchanged(self, monkeypatch):
        """An interrupt after the counters were patched drops the state;
        the view's db, result and undo log are untouched, and the next
        apply rebuilds and equals a recompute."""
        from repro.core.semantics.wellfounded import AlternationPair

        program = win_move_program()
        view = MaterializedView(
            program, graph_to_database(gg.path(8)), semantics="wellfounded"
        )
        view.apply(Delta.insert("E", (8, 8)))
        # WIN(1) is left in no rule: the live index keeps its id, and a
        # rebuild drops it and numbers every other atom one lower.
        view.apply(Delta.delete("E", (1, 2)))
        db, result, undo = view.db, view.result, list(view._undo)
        reached = []

        def interrupted(pair, fired, seeds):
            reached.append(len(seeds))
            raise KeyboardInterrupt

        monkeypatch.setattr(AlternationPair, "resume", interrupted)
        with pytest.raises(KeyboardInterrupt):
            view.apply(Delta.delete("E", (7, 8)))  # flips the whole path
        monkeypatch.undo()
        assert reached and reached[0] > 0  # the over-delete had moved atoms
        assert view.db is db
        assert view.result is result
        assert view._undo == undo
        changeset = view.apply(Delta.delete("E", (7, 8)))
        _assert_partitions_equal(program, view)
        # The rebuild numbered the atoms afresh: the changeset must still
        # be the partition diff, not a position-by-position flag compare.
        _assert_changeset_is_the_moves(
            program,
            changeset,
            well_founded_semantics(program, db),
            well_founded_semantics(program, view.db),
        )
        assert view.rollback(2) is not None
        _assert_partitions_equal(program, view)


class TestCodesResidentEDB:
    def test_reads_after_universe_growth_stay_in_codes(self):
        """A fresh node numbers atoms after the grounding's code blocks;
        the view's result still reads as code-only relations, and
        reading them decodes nothing."""
        from strategies import metrics

        program = win_move_program()
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (7, 8), (8, 9), (9, 7)]
        view = MaterializedView(
            program, Database(range(1, 10), [Relation("E", 2, edges)]), semantics="wellfounded"
        )
        view.apply(Delta.insert("E", (5, 50)))  # 50 is fresh: WIN flips along the path
        with metrics() as value:
            true = view.relation("WIN")
            undefined = view.result.undefined_idb()["WIN"]
            assert true.code_only is not None
            assert undefined.code_only is not None
            assert (len(true), len(undefined)) == (3, 3)
            assert value("repro_relation_decoded_rows_total") == 0
        assert true.tuples == {(1,), (3,), (5,)}
        assert undefined.tuples == {(7,), (8,), (9,)}
        _assert_partitions_equal(program, view)

    @staticmethod
    def _encoded_over_applies(n, applies=200, seed=7):
        """Rows encoded by ``applies`` alternating single-edge inserts and
        deletes on a win-move view over a random G(n, 2n); the view."""
        from repro import parse_program

        from strategies import metrics

        rng = random.Random(seed)
        edges = set()
        while len(edges) < 2 * n:
            edges.add((rng.randrange(n), rng.randrange(n)))
        present = sorted(edges)
        view = MaterializedView(
            parse_program("WIN(X) :- Move(X, Y), !WIN(Y)."),
            Database(range(n), [Relation("Move", 2, present)]),
            semantics="wellfounded",
        )
        with metrics() as value:
            for i in range(applies):
                if i % 2 == 0:
                    edge = (rng.randrange(n), rng.randrange(n))
                    while edge in edges:
                        edge = (rng.randrange(n), rng.randrange(n))
                    edges.add(edge)
                    present.append(edge)
                    view.apply(Delta.insert("Move", edge))
                else:
                    k = rng.randrange(len(present))
                    present[k], present[-1] = present[-1], present[k]
                    edge = present.pop()
                    edges.discard(edge)
                    view.apply(Delta.delete("Move", edge))
            encoded = value("repro_relation_encoded_rows_total")
        return encoded, view

    def test_edb_stays_in_codes_and_an_apply_encodes_the_delta_only(self):
        """The EDB relation a well-founded view updates is never copied
        as tuples: it stays code-only, and the rows each apply encodes
        are a constant per delta tuple, whatever the graph's size."""
        counts = []
        for n in (2000, 20000):
            encoded, view = self._encoded_over_applies(n)
            assert view.db["Move"].code_only is not None
            counts.append(encoded)
            _assert_partitions_equal(view.program, view)
        assert counts[0] == counts[1] <= 2 * 200

    def test_a_fresh_node_is_one_ground_rule_and_no_rebuild(self):
        """Growth is a delta: ``Move(u, fresh)`` on win-move over G(2000,
        4000) adds the one ground rule ``WIN(u) :- !WIN(fresh)``, retires
        none, and encodes no more than the delta — the universe is never
        re-interned and the grounding never rebuilt."""
        from repro import parse_program

        from strategies import metrics

        n = 2000
        rng = random.Random(11)
        edges = set()
        while len(edges) < 2 * n:
            edges.add((rng.randrange(n), rng.randrange(n)))
        program = parse_program("WIN(X) :- Move(X, Y), !WIN(Y).")
        view = MaterializedView(
            program,
            Database(range(n), [Relation("Move", 2, sorted(edges))]),
            semantics="wellfounded",
        )
        index = view._state.live.index
        for fresh in (n, n + 1):
            before = live_rules(view._state.live)
            rules, retired = len(before), before.count(None)
            delta = Delta.insert("Move", (rng.randrange(n), fresh))
            with metrics() as value:
                view.apply(delta)
                encoded = value("repro_relation_encoded_rows_total")
            after = live_rules(view._state.live)
            assert len(after) == rules + 1
            assert after.count(None) == retired
            assert encoded <= len(delta) + 1
        assert view.recomputes == 0
        assert view._state.live.index is index
        _assert_partitions_equal(program, view)
