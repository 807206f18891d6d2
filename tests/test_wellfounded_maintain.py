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

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Database, Relation
from repro.core.grounding import GroundingPatchError, LiveGroundProgram, ground_program
from repro.core.semantics import well_founded_semantics
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database
from repro.materialize import Delta, MaterializedView
from repro.materialize.wellfounded_maint import undef_name
from repro.queries import pi1, win_move_program

from strategies import databases_and_deltas, nonstratifiable_programs, small_databases

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
        # The changeset reports exactly the true/undefined moves.
        after = view.result
        for pred in program.idb_predicates:
            t_ins = {v for p, v in after.true - before.true if p == pred}
            t_del = {v for p, v in before.true - after.true if p == pred}
            u_ins = {v for p, v in after.undefined - before.undefined if p == pred}
            u_del = {v for p, v in before.undefined - after.undefined if p == pred}
            assert changeset.inserted.get(pred, frozenset()) == t_ins
            assert changeset.deleted.get(pred, frozenset()) == t_del
            assert changeset.inserted.get(undef_name(pred), frozenset()) == u_ins
            assert changeset.deleted.get(undef_name(pred), frozenset()) == u_del
    return view


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

    def test_universe_growth_falls_back(self):
        view = MaterializedView(
            win_move_program(), graph_to_database(gg.path(4)),
            semantics="wellfounded",
        )
        view.apply(Delta.insert("E", (4, 9)))  # 9 is a brand-new element
        assert view.recomputes == 1
        assert 9 in view.db.universe
        _assert_partitions_equal(win_move_program(), view)
        # Maintenance keeps working after the rebuild.
        view.apply(Delta.delete("E", (2, 3)))
        assert view.recomputes == 1
        _assert_partitions_equal(win_move_program(), view)

    def test_alternation_lengthens_and_shrinks(self):
        """Growing the path lengthens the alternation (the localized
        tail-recompute fallback); shrinking it trims stale layers."""
        program = win_move_program()
        db = graph_to_database(gg.path(8))
        view = MaterializedView(program, db, semantics="wellfounded")
        rounds_before = view.result.rounds
        # Chop the path in half: the dead end moves closer, fewer rounds.
        view.apply(Delta.delete("E", (4, 5)))
        assert view.result.rounds < rounds_before
        _assert_partitions_equal(program, view)
        # Restore: the alternation must lengthen again.
        view.apply(Delta.insert("E", (4, 5)))
        assert view.result.rounds == rounds_before
        assert view._wf.extensions >= 1
        _assert_partitions_equal(program, view)


# ----------------------------------------------------------------------
# The incremental grounder in isolation
# ----------------------------------------------------------------------


class TestLiveGroundProgram:
    def test_patch_matches_reground(self):
        program = pi1()
        db = graph_to_database(gg.path(4))
        live = LiveGroundProgram(program, db)
        for delta in [
            Delta.insert("E", (4, 1)),
            Delta.delete("E", (1, 2)),
            Delta(inserts={"E": [(1, 2), (2, 2)]}, deletes={"E": [(3, 4)]}),
        ]:
            changes = {
                name: (delta.inserts(name), delta.deletes(name))
                for name in delta.relations()
            }
            new_db = live.db.apply_delta(delta)
            added, removed = live.apply(new_db, changes)
            assert added.isdisjoint(removed)
            assert live.rules == frozenset(ground_program(program, new_db).rules)

    def test_universe_growth_rejected(self):
        program = pi1()
        db = graph_to_database(gg.path(3))
        live = LiveGroundProgram(program, db)
        delta = Delta.insert("E", (3, 7))
        with pytest.raises(GroundingPatchError):
            live.apply(db.apply_delta(delta), {"E": (delta.inserts("E"), frozenset())})

    def test_multiplicity_counted(self):
        """A ground rule backed by several EDB bindings only disappears
        when the *last* binding goes — the counting the patcher exists for."""
        from repro import parse_program

        program = parse_program("T(X) :- E(X, Z), !T(X).")  # Z occurs only in E
        db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (1, 3)])])
        live = LiveGroundProgram(program, db)
        before = live.rules
        # Dropping one of the two bindings keeps the ground rule alive.
        d1 = Delta.delete("E", (1, 2))
        added, removed = live.apply(
            db.apply_delta(d1), {"E": (frozenset(), d1.deletes("E"))}
        )
        assert not added and not removed
        assert live.rules == before
        # Dropping the second binding removes it.
        d2 = Delta.delete("E", (1, 3))
        added, removed = live.apply(
            live.db.apply_delta(d2), {"E": (frozenset(), d2.deletes("E"))}
        )
        assert not added
        assert ("T", (1,)) in {r.head for r in removed}


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
# View build: resumed layers equal layers computed from scratch
# ----------------------------------------------------------------------


def _assert_layers_equal_init_full(program, db):
    """Every layer the build resumed from its same-parity neighbour has
    the reference and the model ``init_full`` computes from the empty set."""
    from repro.materialize.wellfounded_maint import AlternatingState, LayerState

    state = AlternatingState(program, db)
    assert len(state.layers) % 2 == 0
    previous = set()
    for position, layer in enumerate(state.layers):
        scratch = LayerState(previous)
        scratch.init_full(state.index)
        assert layer.reference == previous, position
        assert layer.true == scratch.true, position
        previous = scratch.true
    reference = well_founded_semantics(program, db)
    assert state.rounds == reference.rounds
    assert state.true == reference.true
    assert state.possible - state.true == reference.undefined


class TestBuildResumesLayers:
    def test_path(self):
        # 21 alternation rounds: all but two layers are resumed.
        _assert_layers_equal_init_full(
            win_move_program(), graph_to_database(gg.path(40))
        )

    def test_odd_cycle_with_a_tail(self):
        # The tail 5 -> 6 -> 7 is decided (6 wins) and gives 5 no winning
        # move, so the cycle C_5 stays undefined.
        edges = [(i, i % 5 + 1) for i in range(1, 6)] + [(5, 6), (6, 7)]
        db = Database(range(1, 8), [Relation("E", 2, edges)])
        _assert_layers_equal_init_full(win_move_program(), db)
        view = MaterializedView(win_move_program(), db, semantics="wellfounded")
        assert view.result.true == {("WIN", (6,))}
        assert view.result.undefined == {("WIN", (i,)) for i in range(1, 6)}

    @given(program=nonstratifiable_programs(), db=small_databases())
    def test_random_graphs(self, program, db):
        _assert_layers_equal_init_full(program, db)
