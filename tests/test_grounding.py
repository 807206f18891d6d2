"""Tests for the grounder and GroundProgram."""

from hypothesis import given

from repro import Database, Relation, parse_program
from repro.core.grounding import ground_program, to_idb_map
from repro.core.operator import empty_idb, theta
from repro.core.semantics import well_founded_semantics
from repro.materialize import Delta
from repro.materialize.wellfounded_maint import LiveGroundProgram

from strategies import (
    assert_index_matches,
    assert_seeded_counts,
    derivable_atoms,
    ground_atoms,
    ground_is_fixpoint,
    live_rules,
    metrics,
    random_programs,
    small_databases,
)


def test_pi1_grounding(pi1_program, path4_db):
    gp = ground_program(pi1_program, path4_db)
    # One ground instance per edge: T(x) <- not T(y) for each E(y, x).
    assert len(gp.rules) == 3
    assert derivable_atoms(gp) == {("T", (2,)), ("T", (3,)), ("T", (4,))}


def test_ground_rule_shape(pi1_program, path4_db):
    gp = ground_program(pi1_program, path4_db)
    [rule] = [r for r in gp.rules if r.head == ("T", (2,))]
    assert rule.pos == ()
    assert rule.neg == (("T", (1,)),)


def test_edb_filters_resolved_at_ground_time():
    p = parse_program("T(X) :- E(X, Y), X != Y, !V(X).")
    db = Database(
        {1, 2, 3},
        [Relation("E", 2, [(1, 2), (2, 2), (3, 1)]), Relation("V", 1, [(3,)])],
    )
    gp = ground_program(p, db)
    # (1,2): ok.  (2,2): killed by X != Y.  (3,1): killed by V(3).
    assert derivable_atoms(gp) == {("T", (1,))}
    assert gp.rules[0].neg == ()  # EDB negation resolved away


def test_idb_atoms_stay_symbolic(tc_program, path4_db):
    gp = ground_program(tc_program, path4_db)
    recursive = [r for r in gp.rules if r.pos]
    assert recursive  # S(x,y) <- E(x,z), S(z,y) instances keep S symbolic
    for r in recursive:
        assert all(pred == "S" for pred, _ in r.pos)


def test_duplicate_ground_rules_collapse():
    p = parse_program("T(X) :- E(X, Y). T(X) :- E(X, Z).")
    db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    gp = ground_program(p, db)
    assert len(gp.rules) == 1


def test_atom_space_size(pi1_program, path4_db):
    gp = ground_program(pi1_program, path4_db)
    assert gp.atom_space_size() == 4  # |A|^1


def test_is_fixpoint_agrees_with_theta(pi1_program, path4_db):
    gp = ground_program(pi1_program, path4_db)
    assert ground_is_fixpoint(gp, {("T", (2,)), ("T", (4,))})
    assert not ground_is_fixpoint(gp, {("T", (2,))})
    assert not ground_is_fixpoint(gp, {("T", (1,)), ("T", (2,)), ("T", (4,))})


def test_idb_map_conversions(pi1_program, path4_db):
    gp = ground_program(pi1_program, path4_db)
    atoms = {("T", (2,)), ("T", (4,))}
    idb = to_idb_map(gp.program, atoms)
    assert set(idb["T"].tuples) == {(2,), (4,)}
    assert ground_atoms(idb) == atoms


def test_bodyless_rule_with_head_constant():
    p = parse_program("G(X, 1, Y).")
    db = Database({0, 1}, [])
    gp = ground_program(p, db)
    assert len(derivable_atoms(gp)) == 4
    assert all(values[1] == 1 for _, values in derivable_atoms(gp))


@given(random_programs(), small_databases())
def test_ground_fixpoint_check_matches_theta(program, db):
    """The ground system and Theta agree on what a fixpoint is."""
    gp = ground_program(program, db)
    # Use Theta's own first two iterates as probe valuations.
    probes = [empty_idb(program)]
    probes.append(theta(program, db, probes[0]))
    probes.append(theta(program, db, probes[1]))
    for probe in probes:
        via_theta = theta(program, db, probe) == {
            p: r.with_name(p) for p, r in probe.items()
        }
        via_ground = ground_is_fixpoint(gp, ground_atoms(probe))
        assert via_theta == via_ground


@given(random_programs(), small_databases())
def test_derivable_upper_bounds_theta(program, db):
    """Theta's output (on any input) only contains derivable atoms."""
    gp = ground_program(program, db)
    for probe in (empty_idb(program), theta(program, db, empty_idb(program))):
        out = theta(program, db, probe)
        assert ground_atoms(out) <= derivable_atoms(gp)


def test_rows_wider_than_63_bits_ground_through_the_spec():
    """Eight fields of eight bits: the bindings come from the Θ spec,
    are interned, and take the same numbering as the executor's."""
    program = parse_program(
        "Q(A, B, C, D, E, F, G, H) :- R(A, B, C, D, E, F, G, H), !Q(B, A, C, D, E, F, G, H)."
    )
    swapped = [(1, 2, 3, 4, 5, 6, 7, 8), (2, 1, 3, 4, 5, 6, 7, 8), (5, 5, 3, 4, 5, 6, 7, 8)]
    lone = (3, 4, 5, 6, 7, 8, 1, 2)
    db = Database(range(1, 9), [Relation("R", 8, swapped + [lone])])
    with metrics() as counter:
        gp = ground_program(program, db)
        assert counter("repro_kernel_declined_total") > 0
    assert len(gp) == 4
    assert_index_matches(gp.index, list(gp.rules))
    assert_seeded_counts(program, db)
    # A patch through the live grounding agrees with a re-ground.
    live = LiveGroundProgram(program, db)
    delta = Delta.delete("R", swapped[0])
    new_db = db.apply_delta(delta)
    added, removed = live.apply(
        new_db, {"R": (Relation("R", 8), Relation("R", 8, delta.deletes("R")))}
    )
    assert not added and len(removed) == 1
    rules = live_rules(live)
    assert {g for g in rules if g is not None} == set(ground_program(program, new_db).rules)
    assert_index_matches(live.index, rules)
    result = well_founded_semantics(program, db)
    assert result.true_idb()["Q"].tuples == {lone}
    assert result.undefined_idb()["Q"].tuples == set(swapped)
    assert result.true == {("Q", lone)}
