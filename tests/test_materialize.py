"""Materialized-view maintenance equals from-scratch recomputation.

The central property: after *any* sequence of EDB deltas, a
``MaterializedView``'s result is extensionally equal to evaluating the
program from scratch on the mutated database — for stratified views
(counting + DRed maintenance) and inflationary views (maintained when
semipositive, honestly recomputed otherwise), across insert-only,
delete-only and mixed sequences, negation-heavy library programs, and
zero-ary relations.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Database, Relation, parse_program
from repro.core.semantics import (
    NotStratifiableError,
    inflationary_semantics,
    is_semipositive,
    is_stratifiable,
    stratified_semantics,
    well_founded_semantics,
)
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database
from repro.materialize import Delta, MaterializedView
from repro.obs import (
    TRACER,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    walk,
)
from repro.queries import (
    distance_program,
    pi2,
    tc_complement_stratified,
    win_move_program,
)
from strategies import databases_and_deltas, metrics, random_programs

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Delta value semantics
# ----------------------------------------------------------------------


class TestDelta:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Delta(inserts={"E": [(1, 2)]}, deletes={"E": [(1, 2)]})

    def test_normalize_drops_noops(self):
        db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
        delta = Delta(inserts={"E": [(1, 2), (2, 1)]}, deletes={"E": [(2, 2)]})
        eff = delta.normalize(db)
        assert eff.inserts("E") == frozenset({(2, 1)})
        assert eff.deletes("E") == frozenset()

    def test_then_composes_like_sequential_application(self):
        db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (2, 3)])])
        a = Delta(inserts={"E": [(3, 1)]}, deletes={"E": [(1, 2)]})
        b = Delta(inserts={"E": [(1, 2)]}, deletes={"E": [(3, 1)]})
        combined = db.apply_delta(a.then(b))
        stepped = db.apply_delta(a).apply_delta(b)
        assert combined == stepped

    def test_inverse_roundtrip(self):
        db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
        delta = Delta(inserts={"E": [(2, 1)]}, deletes={"E": [(1, 2)]})
        back = db.apply_delta(delta).apply_delta(delta.inverse())
        assert back == db

    def test_empty_and_len(self):
        assert Delta.empty().is_empty()
        assert len(Delta.insert("E", (1, 2), (2, 1))) == 2
        assert Delta(inserts={"E": []}).is_empty()


# ----------------------------------------------------------------------
# Database.apply_delta
# ----------------------------------------------------------------------


class TestApplyDelta:
    def test_updates_relations_and_universe(self):
        db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
        out = db.apply_delta(Delta(inserts={"E": [(2, 3)]}, deletes={"E": [(1, 2)]}))
        assert out["E"].tuples == frozenset({(2, 3)})
        assert out.universe == frozenset({1, 2, 3})
        # deletions never shrink the universe
        out2 = out.apply_delta(Delta.delete("E", (2, 3)))
        assert out2.universe == frozenset({1, 2, 3})

    def test_noop_returns_self(self):
        db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
        assert db.apply_delta(Delta.insert("E", (1, 2))) is db

    def test_unknown_relation_raises(self):
        db = Database({1}, [Relation("E", 2, [])])
        with pytest.raises(KeyError):
            db.apply_delta(Delta.insert("R", (1,)))

    def test_arity_mismatch_raises(self):
        db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
        with pytest.raises(ValueError):
            db.apply_delta(Delta.insert("E", (1, 2, 3)))
        # Deletes are validated too, even though a wrong-arity tuple could
        # never match anything — a typo'd delete should fail loudly, not
        # silently delete nothing.
        with pytest.raises(ValueError):
            db.apply_delta(Delta.delete("E", (1, 2, 3)))


# ----------------------------------------------------------------------
# View maintenance == recompute: directed cases
# ----------------------------------------------------------------------


def _reference(program, db, semantics):
    if semantics == "stratified":
        return stratified_semantics(program, db).idb
    return inflationary_semantics(program, db).idb


def _check_sequence(program, db, deltas, semantics):
    """Apply ``deltas`` through a view, asserting equality after each."""
    view = MaterializedView(program, db, semantics=semantics)
    for delta in deltas:
        before = view.result.idb
        changeset = view.apply(delta)
        assert view.result.idb == _reference(program, view.db, semantics)
        # The changeset is exactly the IDB diff plus the EDB echo.
        _assert_idb_changes(before, view.result.idb, changeset)
    return view


class TestDirectedMaintenance:
    def test_tc_complement_insert_delete_cycle(self):
        db = graph_to_database(gg.path(6))
        _check_sequence(
            tc_complement_stratified(),
            db,
            [
                Delta.insert("E", (6, 1)),   # closes the cycle: TC goes full
                Delta.delete("E", (3, 4)),   # breaks it again
                Delta.delete("E", (1, 2)),
                Delta.insert("E", (1, 2)),
            ],
            "stratified",
        )

    def test_distance_program_mixed(self):
        db = graph_to_database(gg.path(7))
        _check_sequence(
            distance_program(),
            db,
            [
                Delta(inserts={"E": [(2, 5)]}, deletes={"E": [(4, 5)]}),
                Delta.delete("E", (2, 5)),
                Delta.insert("E", (7, 3)),
            ],
            "stratified",
        )

    def test_pi2_unsafe_negation(self):
        db = graph_to_database(gg.cycle(5))
        _check_sequence(
            pi2(),
            db,
            [Delta.delete("E", (5, 1)), Delta.insert("E", (3, 3))],
            "stratified",
        )

    def test_win_move_inflationary_fallback(self):
        db = graph_to_database(gg.path(5))
        view = _check_sequence(
            win_move_program(),
            db,
            [Delta.insert("E", (5, 1)), Delta.delete("E", (2, 3))],
            "inflationary",
        )
        assert view.recomputes == 2  # not semipositive: every delta recomputes

    def test_semipositive_inflationary_is_maintained(self):
        program = parse_program("T(X) :- E(Y, X), !E(X, Y).  T(X) :- E(X, Z), T(Z).")
        db = graph_to_database(gg.path(6))
        view = _check_sequence(
            program,
            db,
            [Delta.insert("E", (6, 2)), Delta.delete("E", (1, 2))],
            "inflationary",
        )
        assert view.recomputes == 0

    def test_universe_growth_is_a_delta(self):
        db = graph_to_database(gg.path(4))
        view = MaterializedView(tc_complement_stratified(), db)
        changes = view.apply(Delta.insert("E", (4, 9)))  # 9 is a brand-new element
        assert 9 in view.db.universe
        assert view.recomputes == 0
        assert "@U" not in changes.relations()
        # NOTC's completion joins @U: the fresh node is not reachable
        # from anywhere but 4, and reaches nothing.
        assert (9, 9) in changes.inserts("NOTC")
        assert view.result.idb == _reference(
            tc_complement_stratified(), view.db, "stratified"
        )
        view.apply(Delta.delete("E", (2, 3)))
        assert view.recomputes == 0
        assert view.result.idb == _reference(
            tc_complement_stratified(), view.db, "stratified"
        )

    def test_zero_ary_edb(self):
        program = parse_program(
            """
            T(X) :- E(X, Y), !B().
            S() :- E(X, X).
            """,
            carrier="T",
        )
        db = Database(
            {1, 2},
            [Relation("E", 2, [(1, 2)]), Relation("B", 0, [])],
        )
        _check_sequence(
            program,
            db,
            [
                Delta.insert("B", ()),
                Delta.insert("E", (2, 2)),
                Delta.delete("B", ()),
                Delta.delete("E", (2, 2)),
            ],
            "stratified",
        )

    def test_not_stratifiable_raises(self):
        db = graph_to_database(gg.path(3))
        with pytest.raises(NotStratifiableError):
            MaterializedView(win_move_program(), db, semantics="stratified")

    def test_rejects_idb_and_unknown_deltas(self):
        db = graph_to_database(gg.path(3))
        view = MaterializedView(tc_complement_stratified(), db)
        with pytest.raises(ValueError):
            view.apply(Delta.insert("TC", (1, 2)))
        with pytest.raises(KeyError):
            view.apply(Delta.insert("Nope", (1,)))

    def test_rejects_engine_relation_names_before_touching_state(self):
        # ``@U`` resolves to the universe and ``@``-suffixed names are the
        # maintainers' aliases: a delta may write neither.
        db = graph_to_database(gg.path(3))
        view = MaterializedView(tc_complement_stratified(), db)
        before = (view.db, view.result.idb, view.undo_depth, view.applied)
        for delta in (Delta.insert("@U", (9,)), Delta.insert("E@old", (1, 2))):
            with pytest.raises(ValueError, match="reserved"):
                view.apply(delta)
            with pytest.raises(ValueError, match="reserved"):
                view.validate_delta(delta)
        assert (view.db, view.result.idb, view.undo_depth, view.applied) == before
        assert 9 not in view.db.universe

    def test_empty_delta_is_noop(self):
        db = graph_to_database(gg.path(3))
        view = MaterializedView(tc_complement_stratified(), db)
        result = view.result
        changeset = view.apply(Delta.empty())
        assert changeset.is_empty()
        assert view.result is result

    def test_changeset_format(self):
        changeset = Delta(
            inserts={"T": {(1,)}}, deletes={"T": {(2,)}, "E": {(1, 2)}}
        )
        text = changeset.format()
        assert "T: +1 -1" in text
        assert "E: +0 -1" in text
        assert "  + 1" in text and "  - 1, 2" in text
        assert Delta().format() == "(no change)"

    def test_changeset_hashes_by_content(self):
        a = Delta(inserts={"T": {(1,), (2,)}}, deletes={"E": {(1, 2)}})
        b = Delta(
            inserts={"T": {(2,), (1,)}}, deletes={"E": {(1, 2)}}
        )
        c = Delta(inserts={"T": {(1,)}})
        assert a == b and hash(a) == hash(b)
        # Usable in sets/dicts: the server's recent-events window dedups
        # committed changesets by content.
        assert {a, b, c} == {a, c}
        assert hash(Delta()) == hash(Delta())

    def test_frozenset_sides_are_adopted_not_copied(self):
        """A changeset's sides are the sets the state decoded: a side that
        is already a frozenset of tuples is the delta's own, through
        ``inverse`` and ``restrict`` too."""
        side = frozenset({(1, 2), (2, 3)})
        delta = Delta(deletes={"E": side})
        assert delta.deletes("E") is side
        assert delta.inverse().inserts("E") is side
        assert delta.restrict(["E"]).deletes("E") is side


# ----------------------------------------------------------------------
# DRed's rederive step: over-deleted heads only, plus the insertion variants
# ----------------------------------------------------------------------

TC = """
TC(X, Y) :- E(X, Y).
TC(X, Y) :- E(X, Z), TC(Z, Y).
"""


def _dred_work(view, delta):
    """Apply ``delta`` to a TC view; return the changeset and DRed's work.

    ``over`` is the ``dred.overdelete`` span's ``rows_out`` (0 when no
    input was killed), ``rederived`` the over-deleted tuples that came
    back (``over`` minus TC's deletions) and ``rounds`` the growth of
    ``repro_engine_rounds_total``: both phases' changing rounds.  The
    spans come back too.
    """
    with metrics() as counter:
        TRACER.start()
        try:
            changeset = view.apply(delta)
        finally:
            roots = TRACER.stop()
        rounds = counter("repro_engine_rounds_total")
    spans = [s for s, _parent in walk(roots)]
    over = sum(s.attrs["rows_out"] for s in spans if s.name == "dred.overdelete")
    rederived = over - len(changeset.deletes("TC"))
    return changeset, {"over": over, "rederived": rederived, "rounds": rounds}, spans


class TestRederive:
    def test_batch_resupports_through_an_inserted_edge(self):
        """One delta deletes 2->3 and inserts 2->4: TC(1,4) and TC(2,4)
        are over-deleted and come back only through the new edge."""
        db = graph_to_database(gg.path(4))
        view = MaterializedView(parse_program(TC), db)
        changeset = view.apply_many(
            [Delta.delete("E", (2, 3)), Delta.insert("E", (2, 4))]
        )
        assert view.result.idb == _reference(view.program, view.db, "stratified")
        assert changeset == Delta(
            inserts={"E": [(2, 4)]}, deletes={"E": [(2, 3)], "TC": [(1, 3), (2, 3)]}
        )

    def test_rollback_resupports_through_an_inserted_edge(self):
        """The same mixed delta, composed by ``rollback(2)``."""
        program = parse_program(TC)
        db = Database(
            {1, 2, 3, 4}, [Relation("E", 2, [(1, 2), (2, 4), (3, 4)])]
        )
        view = MaterializedView(program, db)
        before = view.result.idb
        view.apply(Delta.delete("E", (2, 4)))
        view.apply(Delta.insert("E", (2, 3)))
        assert view.result.idb == _reference(program, view.db, "stratified")
        changeset = view.rollback(2)
        assert view.result.idb == before
        assert changeset == Delta(
            inserts={"E": [(2, 4)]}, deletes={"E": [(2, 3)], "TC": [(1, 3), (2, 3)]}
        )

    def test_cycle_is_over_deleted_and_rederived_whole(self):
        """Every TC tuple has a derivation through 5->1; the detour
        5->6->1 re-supports all of them, so only the edge moves."""
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 6), (6, 1)]
        db = Database(range(1, 7), [Relation("E", 2, edges)])
        view = MaterializedView(parse_program(TC), db)
        assert len(view.relation("TC")) == 36
        changeset = view.apply(Delta.delete("E", (5, 1)))
        assert changeset == Delta.delete("E", (5, 1))
        assert view.result.idb == _reference(view.program, view.db, "stratified")

    def test_work_is_the_over_deleted_set(self):
        """DRed's work on a TC view, counted.  On ``L_n``, deleting
        ``(k, k+1)`` over-deletes exactly the ``k * (n - k)`` pairs that
        crossed it, in ``k`` rounds, and rederives none; the chord
        ``(1, n)`` closes nothing new.  On the cycle graph, deleting
        ``(5, 1)`` over-deletes all 36 tuples and rederives all 36."""
        n, k = 20, 7
        path = graph_to_database(gg.path(n))
        view = MaterializedView(parse_program(TC), path)
        changeset, work, spans = _dred_work(view, Delta.delete("E", (k, k + 1)))
        assert work == {"over": k * (n - k), "rederived": 0, "rounds": k}
        assert len(changeset.deletes("TC")) == 91
        # Each phase's rounds are spans of its own, the confirming one last.
        rounds = sorted(
            (s.name, s.attrs["round"]) for s in spans if s.name.endswith(".round")
        )
        assert rounds == [("dred.overdelete.round", r) for r in range(1, k + 2)] + [
            ("dred.rederive.round", 1)
        ]
        view = MaterializedView(parse_program(TC), path)
        changeset, work, _ = _dred_work(view, Delta.insert("E", (1, n)))
        assert work == {"over": 0, "rederived": 0, "rounds": 0}
        assert changeset == Delta.insert("E", (1, n))

        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 6), (6, 1)]
        db = Database(range(1, 7), [Relation("E", 2, edges)])
        view = MaterializedView(parse_program(TC), db)
        changeset, work, _ = _dred_work(view, Delta.delete("E", (5, 1)))
        assert work["over"] == work["rederived"] == 36
        assert not changeset.deletes("TC")

    def test_delete_that_over_deletes_nothing(self):
        program = parse_program(
            "TC(X, Y) :- E(X, Y), X != Y.  TC(X, Y) :- E(X, Z), TC(Z, Y), X != Z."
        )
        db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (2, 3), (3, 3)])])
        view = MaterializedView(program, db)
        tc = view.relation("TC")
        changeset = view.apply(Delta.delete("E", (3, 3)))
        assert changeset == Delta.delete("E", (3, 3))
        assert view.relation("TC") is tc  # untouched value, caches intact
        assert view.result.idb == _reference(program, view.db, "stratified")

    def test_head_constants_and_repeated_head_variables(self):
        """The ``S@dred_over(head args)`` atom must filter by the head's
        shape: ``S(X, X)`` rederives diagonal tuples only, ``S(1, Y)``
        only tuples whose first column is the constant."""
        program = parse_program(
            """
            S(X, Y) :- E(X, Y).
            S(X, X) :- S(X, Y), S(Y, X).
            S(1, Y) :- S(X, Y), E(1, X).
            """
        )
        db = Database(
            {1, 2, 3, 4},
            [Relation("E", 2, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (1, 3)])],
        )
        _check_sequence(
            program,
            db,
            [
                Delta.delete("E", (2, 1)),
                Delta(inserts={"E": [(4, 1)]}, deletes={"E": [(1, 2)]}),
                Delta.delete("E", (3, 2)),
                Delta.insert("E", (2, 1)),
                Delta(inserts={"E": [(1, 2)]}, deletes={"E": [(1, 3), (4, 1)]}),
            ],
            "stratified",
        )


# ----------------------------------------------------------------------
# One symbol table per view, state resident in codes
# ----------------------------------------------------------------------


def test_long_stream_keeps_one_table_and_stays_in_codes():
    """200 single-edge updates of an ACYC view over G(300, 210).

    The view must intern once (one ``SymbolTable`` for its whole life,
    one payload per relation — the parent commit built a table per
    working interpretation and leaked a payload per table), move only
    delta-sized row sets across the tuple<->codes boundary, and not slow
    down as the stream gets longer.
    """
    rng = random.Random(18)
    n, m = 300, 210
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    present = sorted(edges)
    program = parse_program(
        TC + "ACYC(X, Y) :- E(X, Y), !TC(Y, X).", carrier="ACYC"
    )
    db = Database(range(n), [Relation("E", 2, edges)])
    latencies = []
    decode_excess = []
    with metrics() as value:
        view = MaterializedView(program, db)
        symbols = view.db.symbols()
        for index in range(200):
            if index % 2 == 0:
                while True:
                    edge = (rng.randrange(n), rng.randrange(n))
                    if edge[0] != edge[1] and edge not in edges:
                        break
                edges.add(edge)
                present.append(edge)
                delta = Delta.insert("E", edge)
            else:
                edge = present.pop(rng.randrange(len(present)))
                edges.discard(edge)
                delta = Delta.delete("E", edge)
            decoded = value("repro_relation_decoded_rows_total")
            encoded = value("repro_relation_encoded_rows_total")
            started = time.perf_counter()
            changeset = view.apply(delta)
            latencies.append(time.perf_counter() - started)
            decoded = value("repro_relation_decoded_rows_total") - decoded
            encoded = value("repro_relation_encoded_rows_total") - encoded
            # The delta is interned for the database and once for the
            # aliases; IDB changes born as tuples (counting) once.
            assert encoded <= len(delta) + len(changeset) + 4, index
            decode_excess.append(max(0, decoded - len(changeset)))
        assert value("repro_symbol_tables_total") == 1
    assert view.recomputes == 0
    assert view.db.symbols() is symbols
    # Only changed tuples are decoded.
    assert sum(decode_excess) == 0
    for rel in list(view._state._aliases.working().values()) + list(view.result.idb.values()):
        assert rel._codes is not None and rel._codes.symbols is symbols, rel.name
    assert view.result.idb == _reference(program, view.db, "stratified")
    assert statistics.median(latencies[150:]) < 2 * statistics.median(latencies[:50])


def test_apply_spans_and_exposition_show_row_traffic():
    """What would have shown the re-interning bug from the outside:
    ``encoded_rows`` / ``decoded_rows`` on the maintenance spans and
    ``repro_symbol_tables_total`` in the text the ``metrics`` verb serves."""
    program = parse_program(TC + "ACYC(X, Y) :- E(X, Y), !TC(Y, X).", carrier="ACYC")
    registry = MetricsRegistry()
    enable_metrics(registry)
    try:
        view = MaterializedView(program, graph_to_database(gg.path(70)))
        # First update: plans compile and the aliases settle into codes.
        view.apply(Delta.delete("E", (69, 70)))
        TRACER.start()
        try:
            changeset = view.apply(Delta.delete("E", (35, 36)))
        finally:
            roots = TRACER.stop()
    finally:
        disable_metrics()
    spans = [s for s, _parent in walk(roots)]
    (applied,) = [s for s in spans if s.name == "view.apply"]
    components = [s for s in spans if s.name == "maint.component"]
    assert sorted(s.attrs["backend"] for s in components) == ["counting", "dred"]
    for span in [applied] + components:
        assert span.attrs["decoded_rows"] <= len(changeset)
        assert span.attrs["encoded_rows"] <= 1 + len(changeset)
    # DRed's change and counting's distinct heads are born in codes; each
    # is decoded once.
    assert applied.attrs["decoded_rows"] == len(changeset.deletes("TC")) + len(
        changeset.deletes("ACYC")
    )
    assert "repro_symbol_tables_total 1\n" in registry.exposition()


# ----------------------------------------------------------------------
# Join indexes evolve with their relations
# ----------------------------------------------------------------------


ACYC = TC + "ACYC(X, Y) :- E(X, Y), !TC(Y, X)."


def _acyc_view(n, m, seed=7, source=ACYC, semantics="stratified"):
    """A view of ``source`` (ACYC by default) over a random ``G(n, m)``
    without self-loops, and its edges."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    program = parse_program(source)
    view = MaterializedView(program, Database(range(n), [Relation("E", 2, edges)]), semantics)
    return rng, program, view, edges


def _single_edge_updates(rng, view, edges, indices):
    """One update per index: an even one inserts a fresh edge, an odd
    one deletes a present edge."""
    n = len(view.db.universe)
    present = sorted(edges)
    for index in indices:
        if index % 2 == 0:
            while True:
                edge = (rng.randrange(n), rng.randrange(n))
                if edge[0] != edge[1] and edge not in edges:
                    break
            edges.add(edge)
            present.append(edge)
            view.apply(Delta.insert("E", edge))
        else:
            edge = present.pop(rng.randrange(len(present)))
            edges.discard(edge)
            view.apply(Delta.delete("E", edge))


@pytest.mark.parametrize(
    "source, n, m, warmup",
    [
        pytest.param(ACYC, 2000, 1400, 1, id="2000-1400"),
        pytest.param(ACYC, 8000, 5600, 1, id="8000-5600"),
        # DRed over-deletes through R itself, probed on its second column.
        pytest.param(
            "R(X, Y) :- E(X, Y).  R(X, Y) :- R(Z, Y), E(Z, X).",
            2000, 1400, 2, id="dred-2000-1400",
        ),
    ],
)
def test_single_edge_updates_build_no_join_index(monkeypatch, source, n, m, warmup):
    """After the warm-up updates, 40 alternating single-edge inserts and
    deletes patch every join index they probe: ``SortedRun.__init__``
    (the from-scratch sort) never runs, whatever the graph's size."""
    from repro.db import kernel

    rng, program, view, edges = _acyc_view(n, m, source=source)
    builds = []
    build = kernel.SortedRun.__init__

    def counted(self, relation, key_columns):
        builds.append(key_columns)
        build(self, relation, key_columns)

    _single_edge_updates(rng, view, edges, range(warmup))
    monkeypatch.setattr(kernel.SortedRun, "__init__", counted)
    _single_edge_updates(rng, view, edges, range(warmup, warmup + 40))
    monkeypatch.undo()
    assert builds == []
    assert view.recomputes == 0
    assert view.result.idb == stratified_semantics(program, view.db).idb


def test_an_update_evolves_only_the_database_relation(monkeypatch):
    """The aliases name the values an update computes and copy none:
    over 40 single-edge ACYC updates at G(2000, 1400), ``Relation.evolve``
    makes a new relation once per update — the database's ``E``.  TC's
    new value is DRed's final stage, and ACYC, head-only, has none."""
    rng, program, view, edges = _acyc_view(2000, 1400)
    evolve = Relation.evolve
    evolved = []

    def counted(self, inserts=(), deletes=()):
        out = evolve(self, inserts, deletes)
        if out is not self:
            evolved.append(self.name)
        return out

    monkeypatch.setattr(Relation, "evolve", counted)
    _single_edge_updates(rng, view, edges, range(40))
    monkeypatch.undo()
    assert evolved == ["E"] * 40
    assert view.result.idb == stratified_semantics(program, view.db).idb


def test_counting_runs_only_the_variants_of_staged_change_sets(monkeypatch):
    """Over 40 single-edge ACYC updates at G(2000, 1400), the counted
    rule ``ACYC(X, Y) :- E(X, Y), !TC(Y, X)`` runs one plan per non-empty
    change set of ``E`` and ``TC`` the update staged (a single edge
    stages one of ``E@ins`` / ``E@del``, and at most one of ``TC@ins`` /
    ``TC@del``): a variant over an empty change set is never run."""
    from repro.materialize import counting

    rng, program, view, edges = _acyc_view(2000, 1400)
    staged, solves = [0], [0]
    apply, solve = counting.CountingState.apply, counting.solve_bindings

    def counted_apply(state, interp, *args):
        staged[0] += sum(
            bool(interp.get(alias)) for alias in ("E@ins", "E@del", "TC@ins", "TC@del")
        )
        return apply(state, interp, *args)

    def counted_solve(plan, interp):
        solves[0] += 1
        return solve(plan, interp)

    _single_edge_updates(rng, view, edges, range(1))
    monkeypatch.setattr(counting.CountingState, "apply", counted_apply)
    monkeypatch.setattr(counting, "solve_bindings", counted_solve)
    _single_edge_updates(rng, view, edges, range(1, 41))
    monkeypatch.undo()
    assert 40 <= staged[0] <= 80
    assert solves[0] == staged[0]
    assert view.result.idb == stratified_semantics(program, view.db).idb


def test_live_grounding_runs_one_plan_per_single_edge_delta(monkeypatch):
    """Win-move's live grounding differentiates the one ``E`` atom of its
    rule: a single-edge insert or delete stages one change set, and the
    patch runs its one variant."""
    from repro.materialize import counting

    rng, program, view, edges = _acyc_view(
        2000, 1400, source="W(X) :- E(X, Y), !W(Y).", semantics="wellfounded"
    )
    solves = [0]
    solve = counting.solve_bindings

    def counted_solve(plan, interp):
        solves[0] += 1
        return solve(plan, interp)

    _single_edge_updates(rng, view, edges, range(1))
    monkeypatch.setattr(counting, "solve_bindings", counted_solve)
    _single_edge_updates(rng, view, edges, range(1, 41))
    monkeypatch.undo()
    assert solves[0] == 40
    assert view.result.true_idb() == well_founded_semantics(program, view.db).true_idb()


def test_a_single_edge_update_interns_its_delta_once(monkeypatch):
    """Over 40 single-edge ACYC updates between known nodes at
    G(2000, 1400), the one-row side of each is encoded once — the
    database evolves by it and the walk stages it as ``E@ins`` /
    ``E@del`` — and no payload evolves by an empty side."""
    from repro.db import kernel

    rng, program, view, edges = _acyc_view(2000, 1400)
    encodes, empty_sides = [0], [0]
    encode, evolved = kernel.RelationCodes.encode.__func__, kernel.RelationCodes.evolved

    def counted_encode(cls, symbols, arity, tuples):
        encodes[0] += 1
        return encode(cls, symbols, arity, tuples)

    def checked_evolved(rc, added=None, removed=None):
        empty_sides[0] += sum(side is not None and not len(side.codes) for side in (added, removed))
        return evolved(rc, added, removed)

    _single_edge_updates(rng, view, edges, range(1))
    monkeypatch.setattr(kernel.RelationCodes, "encode", classmethod(counted_encode))
    monkeypatch.setattr(kernel.RelationCodes, "evolved", checked_evolved)
    _single_edge_updates(rng, view, edges, range(1, 41))
    monkeypatch.undo()
    assert encodes[0] == 40
    assert empty_sides[0] == 0
    assert view.result.idb == stratified_semantics(program, view.db).idb


def test_width_bump_carries_no_join_index():
    """An insert whose fresh values widen the symbol table's field width
    retires every payload packed under the old width, and with them
    their join indexes: no run of the old width survives the bump."""
    rng, program, view, edges = _acyc_view(200, 300)
    view.apply(Delta.insert("E", (0, 1)))  # warm-up: runs are built
    symbols = view.db.symbols()
    shift = symbols.shift
    fresh = [(rng.randrange(200), 1000 + i) for i in range(300)]
    fresh += [(1000 + i, rng.randrange(200)) for i in range(0, 300, 7)]
    view.apply(Delta(inserts={"E": fresh}))
    assert symbols.shift > shift
    view.apply(Delta.delete("E", fresh[0]))
    held = list(view._state._aliases.working().values()) + list(view.result.idb.values())
    held.append(view.db["E"])
    runs = 0
    for rel in held:
        rc = rel._codes
        for run in rc._runs.values():
            assert run.shift == rc.shift == symbols.shift, rel.name
            runs += 1
    assert runs
    assert view.result.idb == stratified_semantics(program, view.db).idb


# ----------------------------------------------------------------------
# The Hypothesis property: random programs × random delta sequences
# ----------------------------------------------------------------------


def _assert_idb_changes(before, after, changeset):
    """The changeset's IDB part is exactly the diff of two valuations."""
    for pred, rel in after.items():
        old = before[pred].tuples
        assert changeset.inserts(pred) == rel.tuples - old
        assert changeset.deletes(pred) == old - rel.tuples


def _property_body(program, db, deltas, semantics):
    if semantics == "stratified" and not is_stratifiable(program):
        return
    view = MaterializedView(program, db, semantics=semantics)
    for delta in deltas:
        before = view.result.idb
        changeset = view.apply(delta)
        assert view.result.idb == _reference(program, view.db, semantics)
        _assert_idb_changes(before, view.result.idb, changeset)


UNSAFE_PROGRAMS = {
    # NOTC's completion variables are a whole negated IDB atom.
    "notc": tc_complement_stratified(),
    # Semipositive, so inflationary views maintain it too: W only in the
    # head, a completion over a negated EDB atom, and a recursive rule
    # (DRed) whose completion variable W is reached through !E(W, Y).
    "head_only": parse_program(
        """
        N(X, Y) :- !E(X, Y).
        H(X, W) :- E(X, X).
        P(X, W) :- E(X, Y), !E(W, Y).
        P(X, W) :- E(X, Y), P(Y, W).
        """,
        carrier="P",
    ),
}


class TestUniverseGrowthEqualsRecompute:
    """Completion variables under fresh values: maintained == recompute on
    all three semantics, with no recompute wherever the view maintains."""

    @SLOW
    @pytest.mark.parametrize("semantics", ["stratified", "inflationary", "wellfounded"])
    @pytest.mark.parametrize("name", sorted(UNSAFE_PROGRAMS))
    @given(dbd=databases_and_deltas())
    def test_unsafe_program(self, name, semantics, dbd):
        program = UNSAFE_PROGRAMS[name]
        db, deltas = dbd
        view = MaterializedView(program, db, semantics=semantics)
        for delta in deltas:
            before = None if semantics == "wellfounded" else view.result.idb
            changes = view.apply(delta)
            assert "@U" not in changes.relations()
            if semantics == "wellfounded":
                reference = well_founded_semantics(program, view.db)
                assert view.result.true == reference.true
                assert view.result.undefined == reference.undefined
            else:
                assert view.result.idb == _reference(program, view.db, semantics)
                _assert_idb_changes(before, view.result.idb, changes)
        if semantics != "inflationary" or is_semipositive(program):
            assert view.recomputes == 0


class TestMaintenanceEqualsRecompute:
    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True, include_zeroary=True),
        dbd=databases_and_deltas(),
    )
    def test_stratified_mixed(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas, "stratified")

    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True, include_zeroary=True),
        dbd=databases_and_deltas(insert_only=True),
    )
    def test_stratified_insert_only(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas, "stratified")

    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True, include_zeroary=True),
        dbd=databases_and_deltas(delete_only=True),
    )
    def test_stratified_delete_only(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas, "stratified")

    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True, include_zeroary=True),
        dbd=databases_and_deltas(),
    )
    def test_inflationary_mixed(self, program, dbd):
        db, deltas = dbd
        _property_body(program, db, deltas, "inflationary")

    @SLOW
    @given(
        program=random_programs(allow_idb_negation=False, include_zeroary=True),
        dbd=databases_and_deltas(),
    )
    def test_inflationary_semipositive_never_recomputes(self, program, dbd):
        db, deltas = dbd
        view = MaterializedView(program, db, semantics="inflationary")
        for delta in deltas:
            view.apply(delta)
            assert view.result.idb == _reference(program, view.db, "inflationary")
        assert view.recomputes == 0


# ----------------------------------------------------------------------
# The exception contract of the stratified path
# ----------------------------------------------------------------------


def test_interrupt_after_counting_leaves_maintenance_rebuildable(monkeypatch):
    """An interrupt after a counting state moved drops the maintenance
    state; db, result and deferred changes stay pre-update, and every
    later apply equals a recompute."""
    from repro.materialize.counting import CountingState

    program = parse_program(TC + "ACYC(X, Y) :- E(X, Y), !TC(Y, X).", carrier="ACYC")
    view = MaterializedView(program, graph_to_database(gg.path(8)))
    view.apply(Delta.delete("E", (4, 5)))  # ACYC is head-only: deferred
    db, result, pending = view.db, view._result, dict(view._pending)
    counted = CountingState.apply

    def interrupted(state, *args):
        counted(state, *args)
        raise KeyboardInterrupt

    monkeypatch.setattr(CountingState, "apply", interrupted)
    with pytest.raises(KeyboardInterrupt):
        view.apply(Delta.insert("E", (8, 1)))
    monkeypatch.undo()
    assert view.db is db
    assert view._result is result
    assert view._pending == pending
    for delta in (
        Delta.insert("E", (8, 1)),
        Delta.insert("E", (4, 5)),
        Delta.delete("E", (2, 3)),
        Delta.delete("E", (8, 1)),
        Delta.insert("E", (2, 3)),
    ):
        view.apply(delta)
        assert view.result.idb == stratified_semantics(program, view.db).idb


def _snapshot(view):
    """What a failed apply must leave as it was."""
    pending = {
        k: v if isinstance(v, Relation) else (set(v[0]), set(v[1]))
        for k, v in view._pending.items()
    }
    return view.db, view._result, pending, list(view._undo), view.recomputes


def test_interrupt_after_overdeletion_leaves_the_view_unchanged(monkeypatch):
    """An interrupt inside DRed, after the over-deletion ran and before
    the rederivation, drops the state; db, result, deferred changes,
    undo log and ``recomputes`` stay pre-update, and every later apply
    equals a recompute."""
    from repro.materialize import dred

    program = parse_program(TC + "ACYC(X, Y) :- E(X, Y), !TC(Y, X).", carrier="ACYC")
    view = MaterializedView(program, graph_to_database(gg.path(8)))
    view.apply(Delta.delete("E", (6, 7)))  # TC and ACYC deferred
    before = _snapshot(view)
    iterate = dred.iterate
    over_deleted = []

    def interrupted(program, interp, plans, seed, engine, **kwargs):
        if engine == "dred.rederive":
            raise KeyboardInterrupt
        run = iterate(program, interp, plans, seed, engine=engine, **kwargs)
        over_deleted.append(sum(len(r) for r in run.idb.values()))
        return run

    monkeypatch.setattr(dred, "iterate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        view.apply(Delta.delete("E", (3, 4)))
    monkeypatch.undo()
    assert over_deleted and over_deleted[0] > 0
    assert _snapshot(view) == before
    assert view._result is before[1]
    for delta in (
        Delta.delete("E", (3, 4)),
        Delta.insert("E", (6, 7)),
        Delta.insert("E", (8, 1)),
        Delta.delete("E", (1, 2)),
    ):
        view.apply(delta)
        assert view.result.idb == stratified_semantics(program, view.db).idb
    assert view.recomputes == 0


def test_interrupt_inside_a_recompute_is_not_counted(monkeypatch):
    """An interrupt inside the recompute state's ``inflationary_semantics``
    leaves db, result, deferred changes and undo log as they were, and
    ``recomputes`` does not count the failed apply."""
    from repro.materialize import view as view_module

    program = parse_program("T(X) :- E(X, Y), !T(Y).")
    assert not is_semipositive(program)
    view = MaterializedView(program, graph_to_database(gg.path(6)), "inflationary")
    view.apply(Delta.delete("E", (4, 5)))
    assert view.recomputes == 1
    before = _snapshot(view)
    evaluate = view_module.inflationary_semantics

    def interrupted(program, db):
        evaluate(program, db)
        raise KeyboardInterrupt

    monkeypatch.setattr(view_module, "inflationary_semantics", interrupted)
    with pytest.raises(KeyboardInterrupt):
        view.apply(Delta.insert("E", (6, 1)))
    monkeypatch.undo()
    assert _snapshot(view) == before
    assert view._result is before[1]
    for delta in (
        Delta.insert("E", (6, 1)),
        Delta.insert("E", (4, 5)),
        Delta.delete("E", (1, 2)),
    ):
        view.apply(delta)
        assert view.result.idb == inflationary_semantics(program, view.db).idb
    assert view.recomputes == 4
