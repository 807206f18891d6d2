"""Tests for the well-founded semantics extension."""

from hypothesis import given

from repro import Database, Relation, parse_program
from repro.core.semantics import (
    is_stratifiable,
    stratified_semantics,
    well_founded_semantics,
)
from repro.core.semantics.wellfounded import _least_model_of_reduct
from repro.graphs import generators as gg, graph_to_database
from repro.queries import tc_complement_stratified, win_move_program

from strategies import (
    assert_index_matches,
    metrics,
    nonstratifiable_programs,
    random_programs,
    small_databases,
)


def test_pi1_on_path_is_total(pi1_program, path4_db):
    """On L_4 the WFM is total and equals the unique fixpoint {2, 4}."""
    result = well_founded_semantics(pi1_program, path4_db)
    assert result.is_total
    assert set(result.true_idb()["T"].tuples) == {(2,), (4,)}


def test_pi1_on_odd_cycle_all_undefined(pi1_program, cycle3_db):
    """On C_3 there is no fixpoint; the WFM leaves every atom undefined."""
    result = well_founded_semantics(pi1_program, cycle3_db)
    assert not result.is_total
    assert set(result.undefined_idb()["T"].tuples) == {(1,), (2,), (3,)}
    assert len(result.true) == 0


def test_pi1_on_even_cycle_undefined(pi1_program, cycle4_db):
    """Two incomparable fixpoints: the WFM commits to neither."""
    result = well_founded_semantics(pi1_program, cycle4_db)
    assert not result.is_total
    assert len(result.undefined) == 4


def test_win_move_game_classification():
    """Win-move on a path: alternating win/lose from the dead end."""
    program = win_move_program()
    db = graph_to_database(gg.path(4))  # 1->2->3->4, node 4 has no move
    result = well_founded_semantics(program, db)
    assert result.is_total
    # Node 4 is lost (no moves), 3 wins (move to 4), 2 loses, 1 wins.
    assert set(result.true_idb()["WIN"].tuples) == {(3,), (1,)}


def test_win_move_mixed_graph():
    """A cycle with a tail: cycle atoms undefined, tail decided."""
    program = win_move_program()
    edges = [(1, 2), (2, 1), (2, 3)]  # 1 <-> 2, 2 -> 3 (dead end)
    db = Database({1, 2, 3}, [Relation("E", 2, edges)])
    result = well_founded_semantics(program, db)
    # 3 is lost; 2 wins by moving to 3; 1... moves only to 2 (won) => 1 loses.
    assert ("WIN", (2,)) in result.true
    assert ("WIN", (1,)) not in result.true
    assert ("WIN", (1,)) not in result.undefined  # decidedly false
    assert result.is_total


def test_total_wfm_matches_stratified_on_stratified_programs(path4_db):
    """For stratified programs the WFM is total and equals the stratified
    (perfect) model — the classical theorem, checked concretely."""
    program = tc_complement_stratified()
    wf = well_founded_semantics(program, path4_db)
    strat = stratified_semantics(program, path4_db)
    assert wf.is_total
    assert wf.true_idb() == strat.idb


def test_rounds_reported(pi1_program, path4_db):
    result = well_founded_semantics(pi1_program, path4_db)
    assert result.rounds >= 1


@given(nonstratifiable_programs(), small_databases())
def test_wfm_stability_equations(program, db):
    """``A(true) = possible`` and ``A(possible) = true`` — Van Gelder's
    characterization of the well-founded partial model as the extreme
    oscillating pair of the stability operator, checked on random
    *non-stratifiable* programs (negation cycles of both parities,
    win–move variants, mixed EDB/IDB negation) where no simpler engine
    could serve as the oracle."""
    from repro.core.grounding import ground_program

    gp = ground_program(program, db)
    wf = well_founded_semantics(program, db, ground=gp)
    true = set(wf.true)
    possible = true | set(wf.undefined)
    assert true.isdisjoint(wf.undefined)
    assert _least_model_of_reduct(gp, true) == possible
    assert _least_model_of_reduct(gp, possible) == true
    # Nothing outside the derivable atoms is ever true or undefined.
    assert possible <= set(gp.derivable)


@given(nonstratifiable_programs(), small_databases())
def test_wfm_true_atoms_survive_any_stable_reference(program, db):
    """True atoms are derivable however the undefined region resolves:
    ``A`` is anti-monotone, so every reference between ``true`` and
    ``possible`` rederives at least ``true``."""
    from repro.core.grounding import ground_program

    gp = ground_program(program, db)
    wf = well_founded_semantics(program, db, ground=gp)
    true = set(wf.true)
    possible = true | set(wf.undefined)
    # The two extreme references; anti-monotonicity gives containment
    # for anything in between.
    assert true <= _least_model_of_reduct(gp, possible)
    assert _least_model_of_reduct(gp, possible) <= _least_model_of_reduct(gp, true)


@given(random_programs(), small_databases())
def test_wfm_total_and_equals_stratified_when_stratifiable(program, db):
    """The classical theorem, now fuzzed: a stratifiable program's WFM
    is total and coincides with the perfect (stratified) model."""
    if not is_stratifiable(program):
        return
    wf = well_founded_semantics(program, db)
    strat = stratified_semantics(program, db)
    assert wf.is_total
    assert wf.true_idb() == strat.idb


@given(nonstratifiable_programs())
def test_strategy_is_never_stratifiable(program):
    """The strategy's contract: every draw has recursion through negation."""
    assert not is_stratifiable(program)


@given(random_programs(), small_databases())
def test_total_wfm_is_a_fixpoint_of_theta(program, db):
    """A *total* well-founded model is a stable model, and stable models
    are supported — i.e. genuine fixpoints of Theta.

    (The converse containments do NOT hold: Theta-fixpoints are supported
    models, which may include self-supporting atoms the WFS calls false,
    e.g. ``S(x) :- S(x)`` with ``S = {1}``.  The theorem tested here is
    the correct bridge between the two notions.)
    """
    from repro.core.grounding import ground_program

    gp = ground_program(program, db)
    wf = well_founded_semantics(program, db, ground=gp)
    if wf.is_total:
        assert gp.is_fixpoint(set(wf.true))


# ----------------------------------------------------------------------
# The resuming engine against the alternation as defined
# ----------------------------------------------------------------------


def _restart_alternation(gp):
    """The alternating fixpoint by the book: every application of ``A``
    restarts from the empty set and sweeps all ground rules with
    :meth:`GroundRule.fires`.  Returns ``(true, undefined, rounds)``."""

    def stability(reference):
        model = set()
        while True:
            new = {r.head for r in gp.rules if r.fires(model, reference)} - model
            if not new:
                return model
            model |= new

    true, rounds = set(), 0
    while True:
        rounds += 1
        possible = stability(true)
        next_true = stability(possible)
        if next_true == true:
            return true, possible - true, rounds
        true = next_true


def _assert_matches_restart(program, db):
    from repro.core.grounding import ground_program

    gp = ground_program(program, db)
    wf = well_founded_semantics(program, db, ground=gp)
    true, undefined, rounds = _restart_alternation(gp)
    assert set(wf.true) == true
    assert set(wf.undefined) == undefined
    assert wf.rounds == rounds
    return wf


@given(nonstratifiable_programs(), small_databases())
def test_resumed_alternation_equals_restart_from_empty(program, db):
    """Both partitions *and* the round count: resuming each side from its
    previous value must walk exactly the sequence restarting walks."""
    _assert_matches_restart(program, db)


@given(random_programs(include_zeroary=True), small_databases())
def test_batch_index_is_the_ground_rules_in_codes(program, db):
    """The index numbered from the binding columns lists exactly the
    decoded ground rules, the live grounding's counted views find the
    same rules, and the engine on that index walks the book's
    alternation; its partitions come back as the same relations."""
    from repro.core.grounding import ground_program
    from repro.materialize.wellfounded_maint import LiveGroundProgram

    gp = ground_program(program, db)
    assert len(gp) == len(gp.rules) == len(set(gp.rules))
    assert_index_matches(gp.index, gp.rules)
    assert frozenset(gp.rules) == LiveGroundProgram(program, db).rules
    if len(gp) <= 64:
        true, undefined, rounds = _restart_alternation(gp)
        result = well_founded_semantics(program, db)
        assert result.is_total == (not undefined)
        assert result.true_idb() == gp.to_idb_map(true)
        assert result.undefined_idb() == gp.to_idb_map(undefined)
        assert (result.true, result.undefined, result.rounds) == (true, undefined, rounds)

_NO_S = Database({1}, [Relation("S", 0, set())])


def test_possible_side_drops_an_unfounded_positive_loop():
    """``P <-> Q`` is founded only through ``P :- !R``.  After ``A({})``
    both are possible; ``R`` then becomes true and that rule dies.  Each
    of ``P``, ``Q`` still heads a rule that *had fired* (on the other),
    so only an over-delete that follows fired rules, with a rederive
    that finds no surviving support, removes the loop.  A wrong
    rederive leaves ``P`` and ``Q`` undefined."""
    program = parse_program("P() :- Q(). Q() :- P(). P() :- !R(). R() :- !S().")
    wf = _assert_matches_restart(program, _NO_S)
    assert wf.true == {("R", ())}
    assert wf.is_total
    assert wf.rounds == 2


def test_possible_side_keeps_a_head_until_its_last_support_dies():
    """``H`` has two supports and loses one per round: ``A1`` is true at
    once and kills ``H :- !A1`` (``H`` is over-deleted and must be
    *rederived* from ``H :- !A2``); ``A2`` needs ``B`` to leave
    ``possible`` first, becomes true a round later, and only then does
    ``H`` go.  ``G :- !H`` makes the round ``H`` leaves observable: it
    turns true one round after, so dropping ``H`` early shortens the
    alternation."""
    program = parse_program(
        "H() :- !A1(). H() :- !A2(). A1() :- !S(). A2() :- !B(). B() :- !A1(). "
        "G() :- !H()."
    )
    wf = _assert_matches_restart(program, _NO_S)
    assert wf.true == {("A1", ()), ("A2", ()), ("G", ())}
    assert wf.is_total
    assert wf.rounds == 4


def test_positive_loop_with_outside_support_stays_possible():
    """The mirror image: the loop keeps a founding rule (``P :- !U`` with
    ``U`` undefined), so it must survive the over-delete triggered by
    ``R`` becoming true."""
    program = parse_program(
        "P() :- Q(). Q() :- P(). P() :- !R(). R() :- !S(). "
        "P() :- !U(). U() :- !V(). V() :- !U()."
    )
    wf = _assert_matches_restart(program, _NO_S)
    assert wf.true == {("R", ())}
    assert wf.undefined == {("P", ()), ("Q", ()), ("U", ()), ("V", ())}


def test_propagation_work_is_linear_on_deep_alternations():
    """Win-move on ``L_n`` alternates n/2 times over n-1 ground rules.
    The engine's own work counter (counter updates + over-deletions +
    rederivation checks) must stay within one fixed multiple of the
    ground program's size at every n — restarting each round would grow
    it with n squared.  No wall-clock involved."""
    from repro.core.grounding import ground_program
    from repro.obs import MetricsRegistry, disable_metrics, enable_metrics

    program = win_move_program()
    for n in (500, 1000, 2000, 4000):
        db = graph_to_database(gg.path(n))
        gp = ground_program(program, db)
        size = len(gp) + sum(len(r.pos) + len(r.neg) for r in gp.rules)
        registry = MetricsRegistry()
        enable_metrics(registry)
        try:
            result = well_founded_semantics(program, db, ground=gp)
        finally:
            disable_metrics()
        assert result.rounds == n // 2 + 1
        work = registry.counter("repro_wf_propagations_total").value
        assert 0 < work <= 2 * size, (n, work, size)


def test_view_update_work_follows_the_region_not_the_depth():
    """A maintained win-move view on ``L_n`` absorbs an update with the
    engine's own work counter: the probe (self-loop on the node farthest
    from the dead end) moves nothing and must stay under a constant, the
    flip (moving the dead end) re-decides the whole path and must stay
    within the batch engine's bound of twice the ground program.  The
    alternation is about n/2 steps deep either way.  No wall-clock."""
    from repro.core.grounding import ground_program
    from repro.materialize import Delta, MaterializedView
    from repro.obs import MetricsRegistry, disable_metrics, enable_metrics

    program = win_move_program()
    for n in (500, 1000, 2000, 4000):
        db = graph_to_database(gg.path(n))
        gp = ground_program(program, db)
        size = len(gp) + sum(len(r.pos) + len(r.neg) for r in gp.rules)
        view = MaterializedView(program, db, semantics="wellfounded")
        tail = (n - 1, n)
        for kind, delta, bound in (
            ("probe", Delta.insert("E", (1, 1)), 64),
            ("probe", Delta.delete("E", (1, 1)), 64),
            ("flip", Delta.delete("E", tail), 2 * size),
            ("flip", Delta.insert("E", tail), 2 * size),
        ):
            registry = MetricsRegistry()
            enable_metrics(registry)
            try:
                view.apply(delta)
            finally:
                disable_metrics()
            work = registry.counter("repro_wf_propagations_total").value
            assert 0 < work <= bound, (n, kind, work, bound)
        reference = well_founded_semantics(program, view.db)
        assert view.result.true == reference.true and view.result.is_total


def test_batch_engine_builds_no_ground_rule_and_prints_from_codes(monkeypatch, capsys):
    """The batch engine runs on the index numbered from the binding
    columns: no ``GroundRule`` is constructed, and printing the two
    partitions decodes no more rows than it prints."""
    import random

    from repro.cli import _print_relations
    from repro.core.grounding import GroundRule

    rng = random.Random(7)
    edges = set()
    while len(edges) < 4000:
        edges.add((rng.randrange(2000), rng.randrange(2000)))
    db = Database(range(2000), [Relation("E", 2, edges)])
    made = []
    construct = GroundRule.__init__

    def counted(self, *args):
        made.append(args)
        construct(self, *args)

    monkeypatch.setattr(GroundRule, "__init__", counted)
    with metrics() as counter:
        result = well_founded_semantics(win_move_program(), db)
        _print_relations(result.true_idb())
        _print_relations(result.undefined_idb())
        decoded = counter("repro_relation_decoded_rows_total")
    assert not made
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert not result.is_total and printed
    assert decoded <= len(printed)
