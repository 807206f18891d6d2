"""The delta algebra: composition, inverses, batching, transactions.

``Delta`` is a monoid under :meth:`~repro.materialize.delta.Delta.then`
(with ``Delta.empty()`` as identity) whose action on databases matches
sequential application, and ``inverse(db)`` is the undo element for that
action.  ``MaterializedView.apply_many`` and ``rollback`` are built on
exactly these laws, so they are property-tested here across all three
view semantics (stratified, inflationary, wellfounded).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.semantics import (
    inflationary_semantics,
    is_stratifiable,
    stratified_semantics,
    well_founded_semantics,
)
from repro.graphs import generators as gg
from repro.graphs.encode import graph_to_database
from repro.materialize import Delta, MaterializedView
from repro.queries import tc_complement_stratified, win_move_program

from strategies import (
    databases_and_deltas,
    nonstratifiable_programs,
    random_programs,
    small_databases,
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SEMANTICS = ("stratified", "inflationary", "wellfounded")


@st.composite
def free_deltas(draw, max_values: int = 4):
    """An arbitrary delta over E/2 — not necessarily effective anywhere."""
    pool = st.integers(min_value=1, max_value=max_values)
    pairs = st.tuples(pool, pool)
    ins = draw(st.lists(pairs, max_size=4))
    dels = [t for t in draw(st.lists(pairs, max_size=4)) if t not in set(ins)]
    return Delta(inserts={"E": ins}, deletes={"E": dels})


# ----------------------------------------------------------------------
# The algebra on databases
# ----------------------------------------------------------------------


class TestCompositionLaws:
    @SLOW
    @given(a=free_deltas(), b=free_deltas(), c=free_deltas())
    def test_compose_is_associative(self, a, b, c):
        assert a.then(b).then(c) == a.then(b.then(c))

    @SLOW
    @given(a=free_deltas())
    def test_empty_is_identity(self, a):
        assert Delta.empty().then(a) == a
        assert a.then(Delta.empty()) == a

    @SLOW
    @given(db=small_databases(), a=free_deltas(), b=free_deltas())
    def test_compose_matches_sequential_application(self, db, a, b):
        """Composition acts like sequential application on contents.

        Universes may differ: a fresh value introduced by an ``a``
        insert that ``b`` deletes again is cancelled by the composition
        but sticks sequentially (universes never shrink) — the
        transaction semantics, asserted as containment.
        """
        combined = db.apply_delta(a.then(b))
        stepped = db.apply_delta(a).apply_delta(b)
        assert combined["E"].tuples == stepped["E"].tuples
        assert combined.universe <= stepped.universe

    @SLOW
    @given(db=small_databases(), d=free_deltas())
    def test_inverse_restores_contents(self, db, d):
        """``apply(d); apply(d.inverse(db))`` restores every relation.

        The database-aware inverse normalizes first, so the law holds
        for arbitrary (not just effective) deltas.  Universes never
        shrink, so restoration is of relation contents; the universe
        retains any value the round-trip introduced.
        """
        forward = db.apply_delta(d)
        back = forward.apply_delta(d.inverse(db))
        assert back["E"].tuples == db["E"].tuples

    @SLOW
    @given(db=small_databases(), d=free_deltas())
    def test_plain_inverse_requires_effectiveness(self, db, d):
        effective = d.normalize(db)
        forward = db.apply_delta(effective)
        back = forward.apply_delta(effective.inverse())
        assert back["E"].tuples == db["E"].tuples


# ----------------------------------------------------------------------
# apply_many == sequential applies, across all three view semantics
# ----------------------------------------------------------------------


def _model(view):
    """A comparable snapshot of a view's maintained model."""
    if view.semantics == "wellfounded":
        return (view.result.true, view.result.undefined)
    return view.result.idb


def _reference_model(program, db, semantics):
    if semantics == "stratified":
        return stratified_semantics(program, db).idb
    if semantics == "inflationary":
        return inflationary_semantics(program, db).idb
    wf = well_founded_semantics(program, db)
    return (wf.true, wf.undefined)


def _batch_body(program, db, deltas, semantics):
    batched = MaterializedView(program, db, semantics=semantics)
    sequential = MaterializedView(program, db, semantics=semantics)
    batched.apply_many(deltas)
    for delta in deltas:
        sequential.apply(delta)
    assert batched.db == sequential.db
    assert _model(batched) == _model(sequential)
    assert _model(batched) == _reference_model(program, batched.db, semantics)
    # The batch is one transaction: at most one undo entry (zero when the
    # whole batch composes to a no-op) vs up to one per sequential delta.
    assert batched.undo_depth <= 1
    assert sequential.undo_depth <= len(deltas)


class TestApplyMany:
    # grow=False below: a fresh universe value that churns away inside
    # the batch is (by design — see Delta.then) absent from the batched
    # universe but permanent in the sequential one, and active-domain
    # completion makes unsafe rules read the difference.  The strict
    # batched == sequential equivalence is the universe-stable law;
    # test_batch_universe_transaction_semantics pins the divergence.

    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True),
        dbd=databases_and_deltas(grow=False),
    )
    def test_stratified(self, program, dbd):
        db, deltas = dbd
        if not is_stratifiable(program):
            return
        _batch_body(program, db, deltas, "stratified")

    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True),
        dbd=databases_and_deltas(grow=False),
    )
    def test_inflationary(self, program, dbd):
        db, deltas = dbd
        _batch_body(program, db, deltas, "inflationary")

    @SLOW
    @given(program=nonstratifiable_programs(), dbd=databases_and_deltas(grow=False))
    def test_wellfounded(self, program, dbd):
        db, deltas = dbd
        _batch_body(program, db, deltas, "wellfounded")

    def test_batch_universe_transaction_semantics(self):
        """A fresh value that churns away inside a batch never lands."""
        db = graph_to_database(gg.path(3))
        batched = MaterializedView(tc_complement_stratified(), db)
        sequential = MaterializedView(tc_complement_stratified(), db)
        deltas = [Delta.insert("E", (3, 9)), Delta.delete("E", (3, 9))]
        assert batched.apply_many(deltas).is_empty()
        for delta in deltas:
            sequential.apply(delta)
        assert 9 not in batched.db.universe
        assert 9 in sequential.db.universe  # universes never shrink

    def test_empty_batch_is_noop(self):
        view = MaterializedView(
            tc_complement_stratified(), graph_to_database(gg.path(3))
        )
        assert view.apply_many([]).is_empty()
        assert view.undo_depth == 0

    def test_batch_churn_cancels(self):
        """A tuple inserted and deleted within one batch costs nothing."""
        view = MaterializedView(
            tc_complement_stratified(), graph_to_database(gg.path(4))
        )
        before = view.result.idb
        changeset = view.apply_many(
            [Delta.insert("E", (4, 1)), Delta.delete("E", (4, 1))]
        )
        assert changeset.is_empty()
        assert view.result.idb == before
        assert view.applied == 0  # the composed delta was a no-op


# ----------------------------------------------------------------------
# rollback: the undo log in anger
# ----------------------------------------------------------------------


def _rollback_body(program, db, deltas, semantics):
    view = MaterializedView(program, db, semantics=semantics)
    snapshots = [(_model(view), view.db["E"].tuples)]
    for delta in deltas:
        depth = view.undo_depth
        view.apply(delta)
        if view.undo_depth > depth:  # no-op deltas push no undo entry
            snapshots.append((_model(view), view.db["E"].tuples))
    applied = view.undo_depth
    # Unwind half, then the rest; contents must match the snapshots.
    half = applied // 2
    if half:
        view.rollback(half)
        model, edb = snapshots[applied - half]
        assert view.db["E"].tuples == edb
        assert _model(view) == model
    view.rollback(view.undo_depth)
    model, edb = snapshots[0]
    assert view.db["E"].tuples == edb
    assert _model(view) == model
    assert view.undo_depth == 0


class TestRollback:
    @SLOW
    @given(
        program=random_programs(allow_idb_negation=True),
        dbd=databases_and_deltas(grow=False),
    )
    def test_stratified(self, program, dbd):
        db, deltas = dbd
        if not is_stratifiable(program):
            return
        _rollback_body(program, db, deltas, "stratified")

    @SLOW
    @given(program=nonstratifiable_programs(), dbd=databases_and_deltas(grow=False))
    def test_wellfounded(self, program, dbd):
        db, deltas = dbd
        _rollback_body(program, db, deltas, "wellfounded")

    def test_rollback_too_deep_raises(self):
        view = MaterializedView(
            win_move_program(), graph_to_database(gg.path(3)),
            semantics="wellfounded",
        )
        view.apply(Delta.insert("E", (3, 1)))
        with pytest.raises(ValueError):
            view.rollback(2)

    def test_rollback_zero_is_noop(self):
        view = MaterializedView(
            win_move_program(), graph_to_database(gg.path(3)),
            semantics="wellfounded",
        )
        assert view.rollback(0).is_empty()

    def test_undo_limit_bounds_the_log(self):
        """Beyond the limit the oldest entries fall off; newer rollbacks
        still work, older ones are gone."""
        db = graph_to_database(gg.path(5))
        view = MaterializedView(
            win_move_program(), db, semantics="wellfounded", undo_limit=2
        )
        view.apply(Delta.insert("E", (5, 1)))
        view.apply(Delta.delete("E", (1, 2)))
        after_two = view.db["E"].tuples
        view.apply(Delta.delete("E", (2, 3)))
        assert view.undo_depth == 2  # the first entry was dropped
        view.rollback(1)
        assert view.db["E"].tuples == after_two
        with pytest.raises(ValueError):
            view.rollback(2)

    def test_rollback_of_batch_is_one_step(self):
        db = graph_to_database(gg.path(4))
        view = MaterializedView(tc_complement_stratified(), db)
        before = view.result.idb
        view.apply_many([Delta.insert("E", (4, 1)), Delta.delete("E", (2, 3))])
        assert view.undo_depth == 1
        view.rollback(1)
        assert view.result.idb == before
        assert view.db["E"].tuples == db["E"].tuples
