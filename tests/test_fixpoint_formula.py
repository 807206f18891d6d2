"""Tests for Section 3's fixpoint formula phi_pi.

The paper: "S is a fixpoint of (pi, D) <=> D |= phi_pi(S)", and
pi-UNIQUE-FIXPOINT is definable as (exists! S) phi_pi(S).  We check both
statements by brute force against the SAT-backed analysis.
"""

from itertools import combinations, product

from hypothesis import given, settings

from repro import Database, Relation
from repro.core.grounding import ground_program, to_idb_map
from repro.core.satreduction import count_fixpoints_sat, has_unique_fixpoint
from repro.graphs import generators as gg, graph_to_database
from repro.logic.eso import ESOFormula, count_witnesses
from repro.logic.fo import evaluate
from repro.logic.translate import fixpoint_formula
from repro.queries import pi1, toggle_program, transitive_closure_program

from strategies import derivable_atoms, ground_is_fixpoint, random_programs, small_databases


def all_unary_subsets(universe):
    elements = sorted(universe)
    for size in range(len(elements) + 1):
        for chosen in combinations(elements, size):
            yield {(e,) for e in chosen}


def test_phi_pi_characterises_fixpoints_of_pi1():
    program = pi1()
    phi = fixpoint_formula(program)
    for graph in (gg.path(3), gg.cycle(3), gg.cycle(4)):
        db = graph_to_database(graph)
        gp = ground_program(program, db)
        for subset in all_unary_subsets(db.universe):
            candidate = db.with_relation(Relation("T", 1, subset))
            via_formula = evaluate(phi, candidate)
            via_ground = ground_is_fixpoint(gp, {("T", t) for t in subset})
            assert via_formula == via_ground


def test_phi_pi_on_toggle_never_satisfied():
    program = toggle_program()
    phi = fixpoint_formula(program)
    db = Database({1, 2}, [])
    for subset in all_unary_subsets(db.universe):
        candidate = db.with_relation(Relation("T", 1, subset))
        assert not evaluate(phi, candidate)


def test_eso_witness_count_equals_fixpoint_count():
    """(exists S) phi_pi(S) has exactly as many witnesses as fixpoints."""
    program = pi1()
    eso = ESOFormula((("T", 1),), fixpoint_formula(program))
    for graph in (gg.path(3), gg.cycle(3), gg.cycle(4)):
        db = graph_to_database(graph)
        assert count_witnesses(eso, db) == count_fixpoints_sat(program, db)


def test_unique_fixpoint_as_unique_witness():
    """Theorem 2's logical form: unique fixpoint <=> exactly one witness."""
    program = pi1()
    eso = ESOFormula((("T", 1),), fixpoint_formula(program))
    for graph in (gg.path(4), gg.cycle(4), gg.cycle(3)):
        db = graph_to_database(graph)
        assert (count_witnesses(eso, db) == 1) == has_unique_fixpoint(program, db)


def test_multi_idb_formula():
    program = transitive_closure_program()
    phi = fixpoint_formula(program)
    db = graph_to_database(gg.path(3))
    from repro.core.semantics import naive_least_fixpoint

    least = naive_least_fixpoint(program, db).idb
    assert evaluate(phi, db.with_relations(least.values()))
    assert not evaluate(phi, db.with_relation(Relation("S", 2, [])))


@given(random_programs(max_rules=2), small_databases(max_size=2))
@settings(max_examples=15)
def test_property_phi_pi_matches_ground_check(program, db):
    """On exhaustively enumerable candidates, phi_pi and the ground system
    agree about fixpointhood."""
    phi = fixpoint_formula(program)
    gp = ground_program(program, db)
    universe = sorted(db.universe)
    # Probe a few structured candidates: empty, full, and the derivables.
    candidates = [set(), derivable_atoms(gp)]
    candidates.append(
        {(p, t) for p in program.idb_predicates
         for t in product(universe, repeat=program.arity(p))}
    )
    for atoms in candidates:
        relations = to_idb_map(gp.program, atoms)
        shadow = db.with_relations(relations.values())
        assert evaluate(phi, shadow) == ground_is_fixpoint(gp, atoms)
